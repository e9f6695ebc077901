"""Reference answers and output checks.

Every reference here is either a published count (OEIS) or a value the
package documents; the per-suite ``checked`` counts were read from the
package at version 0.1.0.  A checker returns a list of problems, empty when
the output is right, so a caller can count each wrong command once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

# Class counts per vertex count n.
A001349_CONNECTED = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
A000055_TREES = {
    2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235, 12: 551,
}
A001429_UNICYCLIC = {3: 1, 4: 2, 5: 5, 6: 13, 7: 33, 8: 89, 9: 240, 10: 657}

# The (7, 11) slice: CS(7, 2) is the unique maximiser of S and of Var.
EXTREMAL_7_11 = {
    "n": 7,
    "m": 11,
    "max_s": "80/7",
    "max_var": "160/49",
    "max_s_graphs": ["F}rE?"],
    "max_var_graphs": ["F}rE?"],
    "coincide": True,
}
SLICE_7_11_CLASSES = 138

# suite_id -> (graphs_checked, findings, equalities); violations must be 0.
SuiteCounts = dict[str, tuple[int, int, int]]

VERIFY_N6: SuiteCounts = {
    "bounds": (143, 0, 0),
    "bidegreed": (44, 0, 0),
    "balanced": (5, 0, 0),
    "degree_counts": (142, 0, 0),
    "trees": (13, 0, 0),
    "cyclic": (93, 0, 0),
    "omega": (44, 0, 0),
    "spectral": (28, 0, 0),
    "max_zagreb_universal": (4, 0, 0),
}
CONJECTURES_N6: SuiteCounts = {
    "conjecture-ird": (143, 0, 174),
    "conjecture-omega": (131, 0, 25),
}
VERIFY_TREES_12: SuiteCounts = {
    "bounds": (986, 0, 0),
    "bidegreed": (29, 0, 0),
    "balanced": (1, 0, 0),
    "degree_counts": (986, 0, 0),
    "trees": (986, 0, 0),
    "cyclic": (0, 0, 0),
    "omega": (29, 0, 0),
    "spectral": (16, 0, 0),
    "max_zagreb_universal": (10, 0, 0),
}
VERIFY_UNICYCLIC_10: SuiteCounts = {
    "bounds": (1040, 0, 0),
    "bidegreed": (8, 0, 0),
    "balanced": (7, 0, 0),
    "degree_counts": (1040, 0, 0),
    "trees": (0, 0, 0),
    "cyclic": (1040, 0, 0),
    "omega": (8, 0, 0),
    "spectral": (4, 0, 0),
    "max_zagreb_universal": (7, 0, 0),
}


def _keys(prefix: str, counts: dict[int, int], suffix: str = "") -> dict[str, int]:
    return {f"{prefix}-n{n}{suffix}": c for n, c in counts.items()}


@dataclass(frozen=True)
class Reference:
    """Everything the checks compare against; tests swap in wrong values."""

    conn_n6: dict[str, int] = field(
        default_factory=lambda: _keys("all", A001349_CONNECTED, "-conn")
    )
    trees_12: dict[str, int] = field(default_factory=lambda: _keys("trees", A000055_TREES))
    unicyclic_10: dict[str, int] = field(
        default_factory=lambda: _keys("unicyclic", A001429_UNICYCLIC)
    )
    slice_7_11: dict[str, int] = field(
        default_factory=lambda: {"all-n7-m11-conn": SLICE_7_11_CLASSES}
    )
    verify_n6: SuiteCounts = field(default_factory=lambda: dict(VERIFY_N6))
    conjectures_n6: SuiteCounts = field(default_factory=lambda: dict(CONJECTURES_N6))
    verify_trees_12: SuiteCounts = field(default_factory=lambda: dict(VERIFY_TREES_12))
    verify_unicyclic_10: SuiteCounts = field(
        default_factory=lambda: dict(VERIFY_UNICYCLIC_10)
    )
    extremal_7_11: dict = field(default_factory=lambda: dict(EXTREMAL_7_11))

    @property
    def sparse(self) -> dict[str, int]:
        return {**self.trees_12, **self.unicyclic_10}


SEED = Reference()


def is_graph6_line(line: str) -> bool:
    """A short-form graph6 code whose length matches its vertex count."""
    if not line or not all(63 <= ord(c) <= 126 for c in line):
        return False
    n = ord(line[0]) - 63
    return 1 <= n <= 62 and len(line) == 1 + (n * (n - 1) // 2 + 5) // 6


def cache_counts(cache_dir: Path) -> dict[str, int]:
    """Population key -> number of graph6 codes stored in the cache file.

    A cache file is named ``<spec key>-v<version>.g6``; lines that are not
    graph6 codes (a header, say) are not counted as classes.
    """
    out: dict[str, int] = {}
    if not cache_dir.is_dir():
        return out
    for path in sorted(cache_dir.iterdir()):
        key = path.name.rsplit("-v", 1)[0] if path.suffix == ".g6" else path.name
        lines = path.read_text(errors="replace").splitlines() if path.is_file() else []
        out[key] = sum(1 for ln in lines if is_graph6_line(ln.strip()))
    return out


def check_cache(cache_dir: Path, expected: dict[str, int]) -> list[str]:
    """The cache holds exactly the expected populations with the expected counts."""
    found = cache_counts(cache_dir)
    problems = []
    if set(found) != set(expected):
        problems.append(
            f"cache file set {sorted(found)} != expected {sorted(expected)}"
        )
    for key, want in expected.items():
        if key in found and found[key] != want:
            problems.append(f"{key}: {found[key]} classes, expected {want}")
    return problems


def strip_elapsed(doc):
    """The document with every ``elapsed`` key removed, recursively."""
    if isinstance(doc, dict):
        return {k: strip_elapsed(v) for k, v in doc.items() if k != "elapsed"}
    if isinstance(doc, list):
        return [strip_elapsed(v) for v in doc]
    return doc


def stable_text(path: Path) -> str:
    """Canonical text of a JSON report with timing removed."""
    return json.dumps(strip_elapsed(json.loads(path.read_text())), indent=2, sort_keys=True)


def check_exit(rc: int, stderr: str) -> list[str]:
    if rc == 0:
        return []
    return [f"exit code {rc}: {stderr.strip()[-300:]}"]


def check_reports(path: Path, expected: SuiteCounts) -> list[str]:
    """A ``verify``/``conjectures --out`` file matches the reference counts."""
    try:
        reports = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable report {path.name}: {exc}"]
    got = {}
    problems = []
    for rep in reports:
        sid = rep.get("suite_id")
        got[sid] = (
            rep.get("graphs_checked"),
            len(rep.get("findings", ())),
            len(rep.get("equalities", ())),
        )
        if rep.get("violations"):
            problems.append(f"{sid}: {len(rep['violations'])} violations")
    if set(got) != set(expected):
        problems.append(f"suites {sorted(got)} != expected {sorted(expected)}")
    for sid, want in expected.items():
        if sid in got and got[sid] != want:
            problems.append(
                f"{sid}: (checked, findings, equalities) = {got[sid]}, expected {want}"
            )
    return problems


def check_extremal(path: Path, expected: dict) -> list[str]:
    """Every documented field of the ``extremal --out`` JSON has its value."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable extremal output {path.name}: {exc}"]
    return [
        f"{key} = {doc.get(key)!r}, expected {want!r}"
        for key, want in expected.items()
        if doc.get(key) != want
    ]
