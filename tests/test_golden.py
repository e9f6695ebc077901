"""Golden reports: the exact JSON the suites produce, timing removed.

Three files under ``tests/data`` pin every report byte for byte:

* ``verify_all_n6.json``  -- ``graphirr verify --suite all --max-n 6 --out``;
* ``conjectures_n6.json`` -- ``graphirr conjectures --max-n 6 --out``;
* ``pinned_failures.json`` -- all nine suites and both conjecture scans over
  five graphs whose measure sets are deliberately perturbed (S + 1,
  Var + 1/7), so that almost every check fails and the text of each
  violation, finding and equality note is pinned, not just the clean runs.

A change that is meant to alter a report regenerates the files with
``PYTHONPATH=src python tests/test_golden.py`` and shows the diff.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from graphirr import verify
from graphirr.cli import main
from graphirr.families import complete_split, path, star, wheel
from graphirr.graph import from_edge_list
from graphirr.serialize import report_json

DATA = Path(__file__).parent / "data"
CLI_GOLDENS = {
    "verify_all_n6.json": ["verify", "--suite", "all", "--max-n", "6"],
    "conjectures_n6.json": ["conjectures", "--max-n", "6"],
}


def _dump(reports: list[dict]) -> str:
    for rep in reports:
        rep.pop("elapsed", None)
    return json.dumps(reports, indent=2, sort_keys=True) + "\n"


def cli_report_text(argv: list[str], workdir: Path) -> str:
    out = workdir / "out.json"
    main(argv + ["--out", str(out), "--cache-dir", str(workdir / "cache")])
    return _dump(json.loads(out.read_text()))


def _perturbed_context(real_context):
    def build(g):
        ctx = real_context(g)
        ms = ctx.ms
        s, var = ms.s + 1, ms.var + Fraction(1, 7)
        omega = None if ms.omega is None else var / s
        return dataclasses.replace(
            ctx, ms=dataclasses.replace(ms, s=s, var=var, omega=omega)
        )

    return build


def pinned_failure_text() -> str:
    graphs = [
        path(6),
        star(6),
        # unicyclic: triangle 0-1-2 with pendants, vertex 0 of degree 4
        from_edge_list(6, [(0, 1), (1, 2), (0, 2), (0, 3), (0, 4), (1, 5)]),
        wheel(6),
        complete_split(7, 2),
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "context", _perturbed_context(verify.context))
        reports = verify.run_all_suites(graphs) + [
            verify.check_deviation_conjecture(graphs),
            verify.check_omega_conjecture(graphs),
        ]
    return _dump([report_json(r) for r in reports])


@pytest.mark.parametrize("name", sorted(CLI_GOLDENS))
def test_cli_report_matches_golden(name, tmp_path):
    assert cli_report_text(CLI_GOLDENS[name], tmp_path) == (DATA / name).read_text()


def test_pinned_failures_match_golden():
    text = pinned_failure_text()
    assert text == (DATA / "pinned_failures.json").read_text()
    # the perturbation must reach the violation paths, or nothing is pinned
    assert sum(len(r["violations"]) for r in json.loads(text)) > 50


if __name__ == "__main__":
    import tempfile

    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CLI_GOLDENS.items():
            (DATA / name).write_text(cli_report_text(argv, Path(tmp)))
    (DATA / "pinned_failures.json").write_text(pinned_failure_text())
    sys.exit(0)
