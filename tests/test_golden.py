"""Golden reports: the exact JSON the suites produce, timing removed.

Five files under ``tests/data`` pin every report byte for byte:

* ``verify_all_n6.json``  -- ``graphirr verify --suite all --max-n 6 --out``;
* ``conjectures_n6.json`` -- ``graphirr conjectures --max-n 6 --out``;
* ``verify_trees_12.json`` and ``verify_unicyclic_10.json`` -- ``graphirr
  verify --suite all`` over trees n <= 12 and unicyclic graphs n <= 10, the
  populations with the most graphs per degree profile: they were written by
  the graph-by-graph suites, so they pin the checked counts of the suites
  that now run once per degree profile;
* ``pinned_failures.json`` -- all nine suites and both conjecture scans over
  five graphs whose degree sums are deliberately perturbed (S + 1,
  Var + 1/7, which every measure and bound reads), so that almost every
  check fails and the text of each violation, finding and equality note is
  pinned, not just the clean runs.

A change that is meant to alter a report regenerates the files with
``PYTHONPATH=src python tests/test_golden.py`` and shows the diff.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from graphirr import measures, verify
from graphirr.cli import main
from graphirr.families import complete_split, path, star, wheel
from graphirr.graph import from_edge_list
from graphirr.serialize import report_json

DATA = Path(__file__).parent / "data"
CLI_GOLDENS = {
    "verify_all_n6.json": ["verify", "--suite", "all", "--max-n", "6"],
    "conjectures_n6.json": ["conjectures", "--max-n", "6"],
    "verify_trees_12.json": [
        "verify", "--suite", "all", "--population", "trees", "--max-n", "12"
    ],
    "verify_unicyclic_10.json": [
        "verify", "--suite", "all", "--population", "unicyclic", "--max-n", "10"
    ],
}


def _dump(reports: list[dict]) -> str:
    return json.dumps(reports, indent=2, sort_keys=True) + "\n"


def cli_report_text(argv: list[str], workdir: Path) -> str:
    out = workdir / "out.json"
    main(argv + ["--out", str(out), "--cache-dir", str(workdir / "cache")])
    return out.read_text() + "\n"  # the --out file, byte for byte, plus the golden's newline


def _perturbed_sums(real_sums):
    def build(ctx):  # nS + n is S + 1, and V + n^2/7 is Var + 1/7
        m1, ns, v = real_sums(ctx)
        return m1, ns + ctx.n, v + Fraction(ctx.n**2, 7)

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
        mp.setattr(measures, "_sums", _perturbed_sums(measures._sums))
        reports = verify.run_all_suites(graphs) + [
            verify.check_deviation_conjecture(graphs),
            verify.check_omega_conjecture(graphs),
        ]
    return _dump([report_json(r, include_timing=False) for r in reports])


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
