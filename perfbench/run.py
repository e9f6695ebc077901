"""graphirr benchmark: drive the CLI over fixed workloads and report timings.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload exhaustive-n6-cold --seed 1 --seconds 35 --trace 0

``--trace 0`` sets the workload up several times, then repeats timed passes
of its CLI commands while the next pass is expected to end within
``--seconds`` (at least two passes), and reports the medians of the
end-to-end metrics.  ``--trace 1`` sets up
once, runs one untraced pass, replays the pass stage by stage under the
span tracer, then times each layer; it reports the per-layer metrics and
ignores ``--seconds``.  The metric names and units are those declared in
BENCHMARK.json; the last line of standard output is the JSON result.

The checkout's ``src/`` is used as it is, with no install: children get it
on ``PYTHONPATH`` and the traced run imports it.  Outputs (result records,
span files, scratch caches) go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from importlib import import_module
from statistics import median
from types import SimpleNamespace

import harness
import layers
import spans
from checks import SEED
from harness import OUT_DIR, ROOT
from workloads import WORKLOADS, Context, traced_targets

SETUP_REPEATS = 5
MIN_PASSES = 2
END_TO_END = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")
# layers whose self time every replay measures; canon and spectral stay in
# the span file because some workloads never reach them in this process
TRACE_LAYERS = ("cli", "enumeration", "io", "graph", "measures", "verify")
TRACE_METRICS = (
    [f"trace.self_s.{layer}" for layer in TRACE_LAYERS]
    + ["trace.covered_s", "trace.untraced_wall_s", "trace.gap_s", "trace.gap_frac",
       "trace.span_count"]
)
PER_LAYER = tuple(layers.METRIC_NAMES) + tuple(TRACE_METRICS)


def import_program() -> SimpleNamespace:
    """The package's modules, imported from this checkout's ``src/``."""
    sys.path.insert(0, str(ROOT / "src"))
    names = ("canon", "enumeration", "io", "graph", "measures", "spectral",
             "verify", "serialize", "families")
    return SimpleNamespace(**{n: import_module(f"graphirr.{n}") for n in names})


def untraced_run(workload, ctx: Context, seconds: float) -> tuple[dict, dict]:
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup(ctx)
        setups.append(time.perf_counter() - start)
    passes = []
    start = time.perf_counter()
    while True:
        pdir = ctx.work / f"pass{len(passes)}"
        passes.append(workload.run_pass(ctx, pdir))
        shutil.rmtree(pdir, ignore_errors=True)
        # stop before a pass that would end past the budget
        next_end = time.perf_counter() - start + median([p.wall_s for p in passes])
        if len(passes) >= MIN_PASSES and next_end > seconds:
            break
    metrics = {
        "wall_s": median([p.wall_s for p in passes]),
        "cpu_s": median([p.cpu_s for p in passes]),
        "peak_rss_mb": median([p.peak_rss_mb for p in passes]),
        "setup_s": median(setups),
    }
    detail = {"setup_s": setups, "passes": [vars(p) for p in passes]}
    return metrics, detail


def traced_run(workload, ctx: Context, seed: int) -> tuple[dict, dict]:
    workload.setup(ctx)
    untraced = workload.run_pass(ctx, ctx.work / "untraced")
    mods = import_program()
    tracer = spans.Tracer()
    with tracer.patched(traced_targets(mods)):
        workload.replay(tracer, ctx, ctx.work / "replay", mods)
    recorded = tracer.finished()
    self_s = spans.layer_self_times(recorded)
    covered = spans.top_level_total(recorded)
    gap = untraced.wall_s - covered
    metrics = {f"trace.self_s.{layer}": self_s.get(layer, 0.0) for layer in TRACE_LAYERS}
    metrics.update({
        "trace.covered_s": covered,
        "trace.untraced_wall_s": untraced.wall_s,
        "trace.gap_s": gap,
        "trace.gap_frac": gap / untraced.wall_s,
        "trace.span_count": float(len(recorded)),
    })
    span_file = OUT_DIR / f"trace-{workload.name}-s{seed}.json.gz"
    spans.write_spans(span_file, recorded, {
        "workload": workload.name,
        "seed": seed,
        "self_s": self_s,
        "covered_s": covered,
        "untraced_wall_s": untraced.wall_s,
    })
    metrics.update(layers.measure_layers(ctx, seed, mods))
    return metrics, {"span_file": str(span_file.relative_to(ROOT)), "self_s_all_layers": self_s}


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> dict:
    """The final JSON object; refuses a metric set other than the declared one."""
    if set(metrics) != set(units):
        missing, extra = sorted(set(units) - set(metrics)), sorted(set(metrics) - set(units))
        raise RuntimeError(f"metric set differs from BENCHMARK.json: missing {missing}, extra {extra}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # a terminated run unwinds like an interrupted one, so children are reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not harness.source_ready():
        print(f"perfbench: no graphirr source under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    units = declared_units(bool(args.trace))
    os.environ.pop("GRAPHIRR_CACHE_DIR", None)
    workload = WORKLOADS[args.workload]
    ctx = Context(
        env=harness.child_env(),
        work=harness.fresh_dir(OUT_DIR / "work" / f"{args.workload}-s{args.seed}-t{args.trace}"),
        version=harness.source_version(),
        reference=SEED,
    )
    try:
        if args.trace:
            metrics, detail = traced_run(workload, ctx, args.seed)
        else:
            metrics, detail = untraced_run(workload, ctx, args.seconds)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    tally = ctx.tally
    result = result_line(tally.failed == 0, tally.attempted, tally.failed, metrics, units)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": harness.provenance(args.seed, ctx.version),
        "fail_frac": tally.fail_frac,
        "problems": tally.problems,
        "detail": detail,
        "result": result,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True))
    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"provenance {json.dumps(record['provenance'], sort_keys=True)}")
    print(f"fail_frac {tally.fail_frac:.6g} ({tally.failed}/{tally.attempted}); record {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
