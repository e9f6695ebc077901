"""Tests of the benchmark itself.  Run from the checkout root:

    python3 -m pytest -q perfbench

The tests that run the CLI take about two minutes in total.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import types

import pytest

import checks
import harness
import run
import spans
from checks import SEED, Reference
from harness import ROOT
from workloads import WORKLOADS, Context, ExhaustiveN6Cold

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_follows_the_grammar(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in spec["workloads"]]
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
        names.append(m["name"])
    bad = [n for n in names if not NAME.match(n)]
    assert not bad
    assert len(names) == len(set(names))
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_declared_names_are_the_emitted_names(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_result_line_refuses_a_partial_metric_set():
    units = {"a": "s", "b": "s"}
    line = run.result_line(True, 1, 0, {"a": 1.0, "b": 2.0}, units)
    assert line["metrics"]["b"] == {"value": 2.0, "unit": "s"}
    with pytest.raises(RuntimeError, match="missing"):
        run.result_line(True, 1, 0, {"a": 1.0}, units)


def _span(sid, parent, layer, start, end):
    return spans.Span(sid, parent, f"s{sid}", layer, start, end)


def test_self_time_on_a_synthetic_span_tree():
    tree = [
        _span(0, -1, "verify", 0.0, 10.0),
        _span(1, 0, "enumeration", 1.0, 4.0),
        _span(2, 0, "io", 3.0, 6.0),  # overlaps span 1: [1, 6] is covered once
        _span(3, 1, "canon", 2.0, 3.0),
        _span(4, 2, "canon", 5.0, 7.0),  # runs past its parent; clipped to [5, 6]
        _span(5, -1, "cli", 10.0, 10.5),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({0: 5.0, 1: 2.0, 2: 2.0, 3: 1.0, 4: 2.0, 5: 0.5})
    by_layer = spans.layer_self_times(tree)
    assert by_layer == pytest.approx(
        {"verify": 5.0, "enumeration": 2.0, "io": 2.0, "canon": 3.0, "cli": 0.5}
    )
    assert spans.top_level_total(tree) == pytest.approx(10.5)


def test_tracer_nests_spans_and_restores_patched_functions():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    Module = types.ModuleType("pkg.layer")
    Module.work = original = lambda x: x + 1
    with tracer.patched([(Module, "work", "graph")]):
        with tracer.span("stage", "verify"):
            assert Module.work(1) == 2
    assert Module.work is original
    outer, inner = tracer.finished()
    assert (outer.name, outer.parent, outer.start, outer.end) == ("stage", -1, 0.0, 3.0)
    assert (inner.name, inner.layer, inner.parent) == ("layer->work", "graph", outer.sid)
    assert spans.layer_self_times(tracer.finished()) == {"verify": 2.0, "graph": 1.0}


def test_graph6_line_and_cache_checks(tmp_cache):
    (tmp_cache / "all-n3-conn-v0.1.0.g6").write_text("# header count=2\nBW\nBw\n")
    assert checks.is_graph6_line("Bw") and not checks.is_graph6_line("Bww")
    assert checks.check_cache(tmp_cache, {"all-n3-conn": 2}) == []
    assert checks.check_cache(tmp_cache, {"all-n3-conn": 3})
    (tmp_cache / "all-n3-conn-v0.1.0.g6.tmp").write_text("")
    assert checks.check_cache(tmp_cache, {"all-n3-conn": 2})


def test_strip_elapsed_removes_timing_at_every_depth():
    doc = [{"elapsed": 1.5, "suite_id": "x", "inner": {"elapsed": 2, "k": 1}}]
    assert checks.strip_elapsed(doc) == [{"suite_id": "x", "inner": {"k": 1}}]


@pytest.fixture
def tmp_cache():
    path = harness.fresh_dir(harness.OUT_DIR / "test-cache")
    yield path
    shutil.rmtree(path)


def _context(reference: Reference, name: str) -> Context:
    return Context(
        env=harness.child_env(),
        work=harness.fresh_dir(harness.OUT_DIR / "test-work" / name),
        version=harness.source_version(),
        reference=reference,
    )


@pytest.mark.parametrize(
    "reference, wrong",
    [
        (SEED, 0),
        (dataclasses.replace(SEED, conn_n6={**SEED.conn_n6, "all-n6-conn": 111}), 1),
        (dataclasses.replace(SEED, conjectures_n6={**SEED.conjectures_n6,
                                                   "conjecture-omega": (130, 0, 25)}), 1),
    ],
    ids=["seed", "wrong-oeis-count", "wrong-checked-count"],
)
def test_a_wrong_reference_raises_fail_frac(reference, wrong):
    ctx = _context(reference, "reference")
    ExhaustiveN6Cold().run_pass(ctx, ctx.work / "pass")
    assert ctx.tally.attempted == 2
    assert ctx.tally.failed == wrong
    assert (ctx.tally.fail_frac > 0) == bool(wrong)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_each_workload_emits_every_end_to_end_metric(workload, spec):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["metrics"].keys() == {m["name"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_a_traced_run_emits_every_per_layer_metric(spec):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exhaustive-n6-cold",
         "--seed", "3", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["metrics"].keys() == {m["name"] for m in spec["per_layer"]}
    assert result["metrics"]["enumeration.canon_calls_per_class.all-conn-n6"]["value"] > 1


def test_without_the_source_tree_it_fails_and_prints_no_result():
    bare = harness.fresh_dir(harness.OUT_DIR / "test-bare")
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sparse-warm",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
