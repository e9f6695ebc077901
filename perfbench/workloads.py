"""The three workloads: their set-up, their timed CLI passes and their traced replays.

A pass is a closed loop with one client: each CLI command starts when the
previous one has exited.  All outputs are checked after the pass, so the
checks never sit inside the timed region.  A replay runs the same stages
in this process through the package's public functions, under a tracer.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
from checks import Reference
from harness import ROOT, CommandResult, Tally, fresh_dir, graphirr_argv, run_command
from spans import Tracer


@dataclass
class Context:
    env: dict[str, str]
    work: Path
    version: str
    reference: Reference
    tally: Tally = field(default_factory=Tally)
    warm_cache: Path | None = None
    stable: dict[str, str] = field(default_factory=dict)

    def run(self, argv: list[str]) -> CommandResult:
        return run_command(argv, self.env, self.work / "io")


@dataclass
class Step:
    label: str
    argv: list[str]
    check: Callable[[CommandResult], list[str]]  # run after the pass, on this step's result


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def _stable(ctx: Context, label: str, path: Path) -> list[str]:
    """The report, timing removed, is the same on every pass of the run."""
    try:
        text = checks.stable_text(path)
    except (OSError, ValueError) as exc:
        return [f"unreadable {path.name}: {exc}"]
    first = ctx.stable.setdefault(label, text)
    return [] if text == first else [f"{path.name} differs from the first pass"]


def common_setup(ctx: Context) -> None:
    """Byte-compile the package and check that the CLI starts and reports its version."""
    res = ctx.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "graphirr")])
    ctx.tally.record("setup compileall", checks.check_exit(res.returncode, res.stderr))
    res = ctx.run(graphirr_argv("--version"))
    problems = checks.check_exit(res.returncode, res.stderr)
    if res.stdout.strip() != ctx.version:
        problems.append(f"--version printed {res.stdout.strip()!r}, source says {ctx.version!r}")
    ctx.tally.record("setup --version", problems)


class Workload:
    name = ""
    why = ""

    def setup(self, ctx: Context) -> None:
        common_setup(ctx)

    def steps(self, ctx: Context, pdir: Path) -> list[Step]:
        raise NotImplementedError

    def replay(self, tracer: Tracer, ctx: Context, pdir: Path, mods) -> None:
        raise NotImplementedError

    def run_pass(self, ctx: Context, pdir: Path) -> PassResult:
        fresh_dir(pdir)
        steps = self.steps(ctx, pdir)
        results = []
        start = time.perf_counter()
        for step in steps:
            results.append(ctx.run(step.argv))
        wall = time.perf_counter() - start
        for step, res in zip(steps, results):
            problems = checks.check_exit(res.returncode, res.stderr)
            if not problems:
                problems = step.check(res)
            ctx.tally.record(step.label, problems)
        return PassResult(
            wall_s=wall,
            cpu_s=sum(r.cpu_s for r in results),
            peak_rss_mb=max(r.maxrss_mb for r in results),
        )


def _startup(tracer: Tracer, ctx: Context) -> None:
    """Interpreter start and package import, as each CLI command pays them."""
    with tracer.span("cli.startup", "cli"):
        res = ctx.run(graphirr_argv("--version"))
    ctx.tally.record("replay --version", checks.check_exit(res.returncode, res.stderr))


def _emit_reports(tracer: Tracer, mods, reports, path: Path) -> None:
    """What the CLI does with finished reports: write the --out JSON."""
    with tracer.span("cli.emit", "cli"):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([mods.serialize.report_json(r) for r in reports], fh, indent=2, sort_keys=True)


class ExhaustiveN6Cold(Workload):
    name = "exhaustive-n6-cold"
    why = (
        "verify --suite all then conjectures over connected n<=6 from an empty cache:"
        " the labelled scan in enumeration plus canon is over 90% of the work"
    )
    MAX_N = "6"

    def steps(self, ctx: Context, pdir: Path) -> list[Step]:
        cache, verify_out, conj_out = pdir / "cache", pdir / "verify.json", pdir / "conj.json"
        ref = ctx.reference
        return [
            Step(
                "verify --suite all --max-n 6",
                graphirr_argv("verify", "--suite", "all", "--max-n", self.MAX_N,
                              "--workers", "1", "--cache-dir", str(cache), "--out", str(verify_out)),
                lambda res: checks.check_reports(verify_out, ref.verify_n6)
                + checks.check_cache(cache, ref.conn_n6)
                + _stable(ctx, "verify", verify_out),
            ),
            Step(
                "conjectures --max-n 6",
                graphirr_argv("conjectures", "--max-n", self.MAX_N, "--workers", "1",
                              "--cache-dir", str(cache), "--out", str(conj_out)),
                lambda res: checks.check_reports(conj_out, ref.conjectures_n6)
                + _stable(ctx, "conjectures", conj_out),
            ),
        ]

    def replay(self, tracer: Tracer, ctx: Context, pdir: Path, mods) -> None:
        fresh_dir(pdir)
        cache = str(pdir / "cache")
        specs = [mods.enumeration.EnumerationSpec(n=k, connected_only=True) for k in range(1, 7)]
        verify = mods.verify
        _startup(tracer, ctx)
        with tracer.span("verify.run_all_suites", "verify"):
            reports = verify.run_all_suites(specs, workers=1, cache_dir=cache)
        _emit_reports(tracer, mods, reports, pdir / "verify.json")
        _startup(tracer, ctx)
        with tracer.span("verify.check_deviation_conjecture", "verify"):
            ird = verify.check_deviation_conjecture(specs, workers=1, cache_dir=cache)
        with tracer.span("verify.check_omega_conjecture", "verify"):
            omega = verify.check_omega_conjecture(specs, workers=1, cache_dir=cache)
        _emit_reports(tracer, mods, [ird, omega], pdir / "conj.json")
        ref = ctx.reference
        ctx.tally.record(
            "replay verify", checks.check_reports(pdir / "verify.json", ref.verify_n6)
            + checks.check_cache(Path(cache), ref.conn_n6),
        )
        ctx.tally.record("replay conjectures", checks.check_reports(pdir / "conj.json", ref.conjectures_n6))


class Extremal711(Workload):
    name = "extremal-7-11-w2"
    why = (
        "extremal --n 7 --m 11 --workers 2 from an empty cache: the fixed-(n, m)"
        " combinations scan split over a 2-process pool, the paper's showcase slice"
    )

    def steps(self, ctx: Context, pdir: Path) -> list[Step]:
        cache, out = pdir / "cache", pdir / "extremal.json"
        ref = ctx.reference
        return [
            Step(
                "extremal --n 7 --m 11 --workers 2",
                graphirr_argv("extremal", "--n", "7", "--m", "11", "--workers", "2",
                              "--cache-dir", str(cache), "--out", str(out)),
                lambda res: checks.check_extremal(out, ref.extremal_7_11)
                + ([] if "CS(7,2)" in res.stdout else ["stdout does not name CS(7,2)"])
                + checks.check_cache(cache, ref.slice_7_11)
                + _stable(ctx, "extremal", out),
            )
        ]

    def replay(self, tracer: Tracer, ctx: Context, pdir: Path, mods) -> None:
        fresh_dir(pdir)
        out = pdir / "extremal.json"
        _startup(tracer, ctx)
        with tracer.span("verify.extremal_search", "verify"):
            res = mods.verify.extremal_search(7, 11, workers=2, cache_dir=str(pdir / "cache"))
        with tracer.span("cli.emit", "cli"):
            names = [
                mods.families.recognize(mods.io.parse_graph6(c))
                for c in res.max_s_graphs + res.max_var_graphs
            ]
            doc = {
                "n": res.n,
                "m": res.m,
                "max_s": mods.serialize.fraction_text(res.max_s),
                "max_var": mods.serialize.fraction_text(res.max_var),
                "max_s_graphs": list(res.max_s_graphs),
                "max_var_graphs": list(res.max_var_graphs),
                "coincide": res.coincide,
            }
            with open(out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
        problems = checks.check_extremal(out, ctx.reference.extremal_7_11)
        if "CS(7,2)" not in names:
            problems.append(f"maximisers recognised as {names}, not CS(7,2)")
        ctx.tally.record("replay extremal", problems)


class SparseWarm(Workload):
    name = "sparse-warm"
    why = (
        "verify --suite all over trees n<=12 and unicyclic n<=10 from a cache set-up"
        " fills: suites, measures, spectral and graph6 parsing, no canonicalisation"
    )
    FILL_SUITE = "max_zagreb_universal"  # the cheapest suite; the point is the cache fill

    def setup(self, ctx: Context) -> None:
        common_setup(ctx)
        ctx.warm_cache = fresh_dir(ctx.work / "warm-cache")
        for population, max_n in (("trees", "12"), ("unicyclic", "10")):
            res = ctx.run(graphirr_argv("verify", "--suite", self.FILL_SUITE, "--population",
                                        population, "--max-n", max_n, "--cache-dir", str(ctx.warm_cache)))
            ctx.tally.record(f"setup fill {population}", checks.check_exit(res.returncode, res.stderr))
        ctx.tally.record("setup warm cache", checks.check_cache(ctx.warm_cache, ctx.reference.sparse))

    def steps(self, ctx: Context, pdir: Path) -> list[Step]:
        ref = ctx.reference
        warm = ctx.warm_cache
        out_t, out_u = pdir / "trees.json", pdir / "unicyclic.json"
        return [
            Step(
                "verify --population trees --max-n 12",
                graphirr_argv("verify", "--suite", "all", "--population", "trees", "--max-n", "12",
                              "--cache-dir", str(warm), "--out", str(out_t)),
                lambda res: checks.check_reports(out_t, ref.verify_trees_12)
                + _stable(ctx, "trees", out_t),
            ),
            Step(
                "verify --population unicyclic --max-n 10",
                graphirr_argv("verify", "--suite", "all", "--population", "unicyclic", "--max-n", "10",
                              "--cache-dir", str(warm), "--out", str(out_u)),
                lambda res: checks.check_reports(out_u, ref.verify_unicyclic_10)
                + checks.check_cache(warm, ref.sparse)
                + _stable(ctx, "unicyclic", out_u),
            ),
        ]

    def replay(self, tracer: Tracer, ctx: Context, pdir: Path, mods) -> None:
        fresh_dir(pdir)
        EnumerationSpec = mods.enumeration.EnumerationSpec
        ref = ctx.reference
        for population, ns, expected in (
            ("trees", range(2, 13), ref.verify_trees_12),
            ("unicyclic", range(3, 11), ref.verify_unicyclic_10),
        ):
            specs = [EnumerationSpec(n=k, population=population) for k in ns]
            _startup(tracer, ctx)
            with tracer.span("verify.run_all_suites", "verify"):
                reports = mods.verify.run_all_suites(specs, workers=1, cache_dir=str(ctx.warm_cache))
            out = pdir / f"{population}.json"
            _emit_reports(tracer, mods, reports, out)
            ctx.tally.record(f"replay verify {population}", checks.check_reports(out, expected))


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (ExhaustiveN6Cold(), Extremal711(), SparseWarm())
}


def traced_targets(mods) -> list[tuple[object, str, str]]:
    """(module, attribute, layer) for every cross-layer call the replay traces.

    Each entry is the name through which the caller reaches the callee, so
    patching it times exactly the calls that cross that boundary.
    """
    enumeration, verify, measures, spectral, graph = (
        mods.enumeration, mods.verify, mods.measures, mods.spectral, mods.graph
    )
    return [
        (enumeration, "canonical_rows", "canon"),
        (enumeration, "to_graph6", "io"),
        (enumeration, "parse_graph6", "io"),
        (verify, "enumerate_codes_cached", "enumeration"),
        (verify, "parse_graph6", "io"),
        (verify, "context", "measures"),
        (verify, "measure_set", "measures"),
        (verify, "bound_report", "measures"),
        (verify, "tree_formulas", "measures"),
        (verify, "cyclic_formulas", "measures"),
        (measures, "context", "measures"),
        (measures, "measure_set", "measures"),
        (spectral, "measure_set", "measures"),
        (measures, "degree_stats", "graph"),
        (measures, "classify", "graph"),
        (spectral, "degree_stats", "graph"),
        (spectral, "is_connected", "graph"),
        (graph, "is_connected", "graph"),
        (verify, "two_walk_params", "spectral"),
        (verify, "variance_spectral_identity", "spectral"),
        (verify, "main_eigenvalues", "spectral"),
        (verify, "spectral_radius_estimate", "spectral"),
    ]
