"""Per-layer measurements, taken from outside through each module's public functions.

Every call's result is checked, and the worker-count determinism check of
the traced run lives here too, because it reuses the cold caches that the
enumeration timings write.
"""

from __future__ import annotations

import random
import time
from pathlib import Path
from statistics import median

import checks
from harness import fresh_dir, graphirr_argv
from workloads import Context

STARTUP_RUNS = 5
WARM_REPEATS = 5
CALL_REPEATS = 3
CANON_SAMPLES = 300

POPULATIONS = ("all-conn-n6", "slice-7-11-conn", "trees-n12", "unicyclic-n10")
SUITES = (
    "bounds", "bidegreed", "balanced", "degree_counts", "trees",
    "cyclic", "omega", "spectral", "max_zagreb_universal",
)

METRIC_NAMES = (
    ["cli.startup_s"]
    + [f"canon.canonical_rows_us.{k}" for k in ("n6", "n7", "n12_tree")]
    + [f"enumeration.cold_s.{p}" for p in POPULATIONS]
    + [f"enumeration.warm_s.{p}" for p in POPULATIONS]
    + ["enumeration.scaling_eff.slice-7-11"]
    + [f"enumeration.canon_calls_per_class.{p}" for p in POPULATIONS]
    + ["io.parse_graph6_us", "io.to_graph6_us"]
    + [f"graph.{f}_us" for f in ("degree_stats", "classify", "is_connected")]
    + [f"measures.{f}_us" for f in (
        "measure_set", "context", "bound_report", "tree_formulas", "cyclic_formulas")]
    + ["spectral.two_walk_params_us", "spectral.spectral_radius_estimate_us"]
    + [f"verify.suite_s.{s}" for s in SUITES]
    + ["verify.conjecture_s.ird", "verify.conjecture_s.omega", "verify.extremal_post_s"]
)


def timed(fn, *args, **kwargs) -> tuple[float, object]:
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def median_time(repeats: int, fn, *args, **kwargs) -> tuple[float, object]:
    """Median wall time over ``repeats`` calls, and the last call's result."""
    times = []
    result = None
    for _ in range(repeats):
        elapsed, result = timed(fn, *args, **kwargs)
        times.append(elapsed)
    return median(times), result


def per_call_us(fn, inputs: list[tuple]) -> float:
    """Median over repeats of the mean µs per call across ``inputs``."""
    def sweep():
        for args in inputs:
            fn(*args)
    return median_time(CALL_REPEATS, sweep)[0] / len(inputs) * 1e6


def gnp_rows(rng: random.Random, n: int) -> tuple[int, ...]:
    """Adjacency rows of a G(n, 1/2) sample."""
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return tuple(rows)


def tree_rows(rng: random.Random, n: int) -> tuple[int, ...]:
    """A random labelled tree: random attachment, then a random relabelling."""
    label = list(range(n))
    rng.shuffle(label)
    rows = [0] * n
    for i in range(1, n):
        u, v = label[i], label[rng.randrange(i)]
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return tuple(rows)


def permuted(rows: tuple[int, ...], perm: list[int]) -> tuple[int, ...]:
    """The same graph with vertex v renamed perm[v]."""
    out = [0] * len(rows)
    for v, mask in enumerate(rows):
        for u in range(len(rows)):
            if mask >> u & 1:
                out[perm[v]] |= 1 << perm[u]
    return tuple(out)


class CallCounter:
    """Count calls through ``module.attr`` while the ``with`` block runs.

    If the module no longer has the attribute, nothing calls through it and
    the count stays 0.
    """

    def __init__(self, module, attr: str) -> None:
        self.module, self.attr, self.calls = module, attr, 0
        self.original = getattr(module, attr, None)

    def __enter__(self) -> "CallCounter":
        fn = self.original
        if fn is not None:

            def counted(*args, **kwargs):
                self.calls += 1
                return fn(*args, **kwargs)

            setattr(self.module, self.attr, counted)
        return self

    def __exit__(self, *exc) -> None:
        if self.original is not None:
            setattr(self.module, self.attr, self.original)


def measure_layers(ctx: Context, seed: int, mods) -> dict[str, float]:
    Spec = mods.enumeration.EnumerationSpec
    cached = mods.enumeration.enumerate_codes_cached
    ref = ctx.reference
    record = ctx.tally.record
    m: dict[str, float] = {}
    work = ctx.work / "layers"

    # cli: interpreter start plus package import, the fixed cost of every command
    walls = []
    for _ in range(STARTUP_RUNS):
        res = ctx.run(graphirr_argv("--version"))
        record("layers --version", checks.check_exit(res.returncode, res.stderr))
        walls.append(res.wall_s)
    m["cli.startup_s"] = median(walls)

    # canon: seeded random labelled inputs
    rng = random.Random(seed)
    canonical_rows = mods.canon.canonical_rows
    for key, n, make in (("n6", 6, gnp_rows), ("n7", 7, gnp_rows), ("n12_tree", 12, tree_rows)):
        inputs = [(make(rng, n), n) for _ in range(CANON_SAMPLES)]
        m[f"canon.canonical_rows_us.{key}"] = per_call_us(canonical_rows, inputs)
        first_rows = inputs[0][0]
        shuffled = permuted(first_rows, rng.sample(range(n), n))
        record(
            f"canon {key} invariance",
            [] if canonical_rows(shuffled, n) == canonical_rows(first_rows, n)
            else ["relabelled input got a different canonical form"],
        )

    # enumeration: cold (empty cache, workers 1, canon calls counted), then warm
    specs = {
        "all-conn-n6": [Spec(n=k, connected_only=True) for k in range(1, 7)],
        "slice-7-11-conn": [Spec(n=7, m=11, connected_only=True)],
        "trees-n12": [Spec(n=k, population="trees") for k in range(2, 13)],
        "unicyclic-n10": [Spec(n=k, population="unicyclic") for k in range(3, 11)],
    }
    expected = {
        "all-conn-n6": ref.conn_n6,
        "slice-7-11-conn": ref.slice_7_11,
        "trees-n12": ref.trees_12,
        "unicyclic-n10": ref.unicyclic_10,
    }
    dirs = {
        "all-conn-n6": fresh_dir(work / "n6"),
        "slice-7-11-conn": fresh_dir(work / "slice-w1"),
        "trees-n12": fresh_dir(work / "sparse"),
    }
    dirs["unicyclic-n10"] = dirs["trees-n12"]
    codes: dict[str, list[list[str]]] = {}

    def enumerate_all(pop: str, workers: int, cache_dir: Path) -> list[list[str]]:
        return [cached(s, workers=workers, cache_dir=str(cache_dir)) for s in specs[pop]]

    for pop in POPULATIONS:
        with CallCounter(mods.enumeration, "canonical_rows") as counter:
            cold, codes[pop] = timed(enumerate_all, pop, 1, dirs[pop])
        got = {s.key(): len(c) for s, c in zip(specs[pop], codes[pop])}
        record(f"enumerate {pop} cold", [] if got == expected[pop] else [f"counts {got}"])
        classes = sum(got.values())
        warm, warm_codes = median_time(WARM_REPEATS, enumerate_all, pop, 1, dirs[pop])
        record(f"enumerate {pop} warm", [] if warm_codes == codes[pop] else ["warm read differs"])
        m[f"enumeration.cold_s.{pop}"] = cold
        m[f"enumeration.warm_s.{pop}"] = warm
        m[f"enumeration.canon_calls_per_class.{pop}"] = counter.calls / classes

    slice_w2 = fresh_dir(work / "slice-w2")
    cold_w2, codes_w2 = timed(enumerate_all, "slice-7-11-conn", 2, slice_w2)
    record("enumerate slice workers 2", [] if codes_w2 == codes["slice-7-11-conn"]
           else ["workers 2 gave other codes than workers 1"])
    m["enumeration.scaling_eff.slice-7-11"] = (
        m["enumeration.cold_s.slice-7-11-conn"] / (2 * cold_w2)
    )

    check_worker_determinism(ctx, work, dirs["slice-7-11-conn"], slice_w2)

    # io, graph, measures, spectral: per-call cost over the sparse population
    # (what sparse-warm feeds them) and over the n <= 6 classes (to_graph6)
    parse = mods.io.parse_graph6
    sparse_codes = [c for per_n in codes["trees-n12"] + codes["unicyclic-n10"] for c in per_n]
    trees = [parse(c) for per_n in codes["trees-n12"] for c in per_n]
    unicyclic = [parse(c) for per_n in codes["unicyclic-n10"] for c in per_n]
    sparse = [(g,) for g in trees + unicyclic]
    n6_graphs = [(parse(c),) for per_n in codes["all-conn-n6"] for c in per_n]
    m["io.parse_graph6_us"] = per_call_us(parse, [(c,) for c in sparse_codes])
    m["io.to_graph6_us"] = per_call_us(mods.io.to_graph6, n6_graphs)
    record("io round trip", [] if [mods.io.to_graph6(g) for (g,) in sparse] == sparse_codes
           else ["to_graph6(parse_graph6(code)) != code"])

    graph = mods.graph
    m["graph.degree_stats_us"] = per_call_us(graph.degree_stats, sparse)
    m["graph.classify_us"] = per_call_us(graph.classify, sparse)
    m["graph.is_connected_us"] = per_call_us(graph.is_connected, sparse)
    record("graph connected", [] if all(graph.is_connected(g) for (g,) in sparse)
           else ["a tree or unicyclic class is disconnected"])

    measures = mods.measures
    m["measures.measure_set_us"] = per_call_us(measures.measure_set, sparse)
    m["measures.context_us"] = per_call_us(measures.context, sparse)
    m["measures.bound_report_us"] = per_call_us(measures.bound_report, sparse)
    m["measures.tree_formulas_us"] = per_call_us(measures.tree_formulas, [(t,) for t in trees])
    m["measures.cyclic_formulas_us"] = per_call_us(
        measures.cyclic_formulas, [(g,) for g in unicyclic]
    )
    violated = sum(
        1 for (g,) in sparse for rec in measures.bound_report(g)
        if rec.agreement != measures.NOT_APPLICABLE and not rec.holds
    )
    record("bound_report", [] if violated == 0 else [f"{violated} failed bounds"])

    spectral = mods.spectral
    irregular = [(g,) for (g,) in sparse if len(set(g.degrees())) > 1]
    m["spectral.two_walk_params_us"] = per_call_us(spectral.two_walk_params, irregular)
    two_walk = [(g,) for (g,) in irregular if spectral.two_walk_params(g) is not None]
    want_two_walk = ref.verify_trees_12["spectral"][0] + ref.verify_unicyclic_10["spectral"][0]
    record("two-walk graphs", [] if len(two_walk) == want_two_walk
           else [f"{len(two_walk)} two-walk graphs, expected {want_two_walk}"])
    # the float power iteration is slated for removal; once gone it costs 0
    estimate = getattr(spectral, "spectral_radius_estimate", None)
    m["spectral.spectral_radius_estimate_us"] = (
        per_call_us(estimate, two_walk) if estimate is not None else 0.0
    )

    # verify: each suite on the warm sparse populations, as sparse-warm runs
    # them (trees, then unicyclic), and the conjectures on warm n <= 6
    verify = mods.verify
    sparse_dir = str(dirs["trees-n12"])

    def both_populations(suite: str) -> list:
        return [
            verify.run_suite(specs[pop], suite, cache_dir=sparse_dir)
            for pop in ("trees-n12", "unicyclic-n10")
        ]

    for suite in SUITES:
        elapsed, reps = median_time(CALL_REPEATS, both_populations, suite)
        m[f"verify.suite_s.{suite}"] = elapsed
        for rep, counts in zip(reps, (ref.verify_trees_12, ref.verify_unicyclic_10)):
            record(f"suite {suite}", _report_problems(rep, counts[suite][0]))
    n6_dir = str(dirs["all-conn-n6"])
    for key, fn, sid in (
        ("ird", verify.check_deviation_conjecture, "conjecture-ird"),
        ("omega", verify.check_omega_conjecture, "conjecture-omega"),
    ):
        elapsed, rep = median_time(WARM_REPEATS, fn, specs["all-conn-n6"], cache_dir=n6_dir)
        m[f"verify.conjecture_s.{key}"] = elapsed
        record(f"conjecture {key}", _report_problems(rep, ref.conjectures_n6[sid][0]))
    elapsed, res = median_time(
        WARM_REPEATS, verify.extremal_search, 7, 11, cache_dir=str(dirs["slice-7-11-conn"])
    )
    m["verify.extremal_post_s"] = elapsed
    got = {
        "max_s": mods.serialize.fraction_text(res.max_s),
        "max_var": mods.serialize.fraction_text(res.max_var),
        "max_s_graphs": list(res.max_s_graphs),
        "coincide": res.coincide,
    }
    want = {k: ref.extremal_7_11[k] for k in got}
    record("extremal_search", [] if got == want else [f"{got} != {want}"])
    return m


def _report_problems(rep, checked: int) -> list[str]:
    problems = []
    if rep.violations:
        problems.append(f"{len(rep.violations)} violations")
    if rep.graphs_checked != checked:
        problems.append(f"checked {rep.graphs_checked}, expected {checked}")
    return problems


def check_worker_determinism(ctx: Context, work: Path, slice_w1: Path, slice_w2: Path) -> None:
    """``--out`` JSON, timing removed, is byte-identical at workers 1 and 2.

    ``verify --max-n 6`` runs cold at each worker count.  The (7, 11) slice
    was already enumerated cold at each worker count into its own cache; the
    CLI reads those caches, so each JSON reflects one worker count's
    enumeration without paying for the slice twice more.
    """
    outs = {}
    for workers in ("1", "2"):
        vdir = fresh_dir(work / f"verify-w{workers}")
        outs[("verify", workers)] = vdir / "verify.json"
        res = ctx.run(graphirr_argv(
            "verify", "--suite", "all", "--max-n", "6", "--workers", workers,
            "--cache-dir", str(vdir / "cache"), "--out", str(vdir / "verify.json"),
        ))
        ctx.tally.record(
            f"verify --max-n 6 --workers {workers}",
            checks.check_exit(res.returncode, res.stderr)
            or checks.check_reports(vdir / "verify.json", ctx.reference.verify_n6),
        )
        cache = slice_w1 if workers == "1" else slice_w2
        out = work / f"extremal-w{workers}.json"
        outs[("extremal", workers)] = out
        res = ctx.run(graphirr_argv(
            "extremal", "--n", "7", "--m", "11", "--workers", workers,
            "--cache-dir", str(cache), "--out", str(out),
        ))
        ctx.tally.record(
            f"extremal --workers {workers}",
            checks.check_exit(res.returncode, res.stderr)
            or checks.check_extremal(out, ctx.reference.extremal_7_11),
        )
    for label in ("verify", "extremal"):
        try:
            same = checks.stable_text(outs[(label, "1")]) == checks.stable_text(outs[(label, "2")])
        except (OSError, ValueError) as exc:
            same, label = False, f"{label} ({exc})"
        ctx.tally.record(
            f"{label} determinism", [] if same else ["--out differs between workers 1 and 2"]
        )
