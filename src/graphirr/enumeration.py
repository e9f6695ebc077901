"""Exhaustive generation of small-graph populations up to isomorphism.

Every population grows one vertex at a time: a child is a representative on
``size - 1`` vertices plus a new vertex joined to a neighbourhood mask, kept
once per canonical graph6 code.  Every mask is tried for the whole range,
single-vertex masks for trees; this reaches every class because deleting any
vertex of a graph, or a leaf of a tree, leaves one of the smaller size.  The
spec's edge count, connectivity and irregularity filter the last size only.
Unicyclic graphs are trees plus one chord.  Output is sorted by canonical
code, so it is identical for any worker count.
"""

from __future__ import annotations

import logging
import os
import tempfile
from dataclasses import dataclass
from multiprocessing import Pool
from typing import Optional

from .canon import Rows, canonical_rows
from .errors import CapabilityError, InputError
from .graph import Graph, rows_connected
from .io import parse_graph6, to_graph6

logger = logging.getLogger(__name__)

MAX_N_ALL = 8
MAX_N_TREES = 12
MAX_N_UNICYCLIC = 10
# population -> (name in messages, smallest n, largest n)
_N_RANGE = {
    "all": ("whole-range", 1, MAX_N_ALL),
    "trees": ("tree", 2, MAX_N_TREES),
    "unicyclic": ("unicyclic", 3, MAX_N_UNICYCLIC),
}


@dataclass(frozen=True)
class EnumerationSpec:
    """What to enumerate: isomorphism classes of the selected population."""

    n: int
    m: Optional[int] = None
    connected_only: bool = False
    irregular_only: bool = False
    population: str = "all"  # "all" | "trees" | "unicyclic"

    def validate(self) -> None:
        if self.population not in _N_RANGE:
            raise InputError(f"unknown population {self.population!r}")
        name, low, cap = _N_RANGE[self.population]
        if self.n < low:
            raise InputError(f"{name} enumeration needs n >= {low}")
        if self.n > cap:
            raise CapabilityError(f"{name} enumeration capped at n={cap}")
        top = self.n * (self.n - 1) // 2
        if self.population == "all" and self.m is not None and not 0 <= self.m <= top:
            raise InputError(f"m={self.m} impossible for n={self.n}")

    def key(self) -> str:
        parts = [self.population, f"n{self.n}"]
        if self.m is not None:
            parts.append(f"m{self.m}")
        if self.connected_only:
            parts.append("conn")
        if self.irregular_only:
            parts.append("irr")
        return "-".join(parts)

    def describe(self) -> str:
        bits = [f"isomorphism classes, n={self.n}"]
        if self.m is not None:
            bits.append(f"m={self.m}")
        if self.population != "all":
            bits.append(self.population)
        if self.connected_only:
            bits.append("connected")
        if self.irregular_only:
            bits.append("irregular")
        return ", ".join(bits)


def _keep(spec: EnumerationSpec, rows: list[int]) -> bool:
    """The spec's connectivity and irregularity filters on a graph of the last size."""
    if spec.connected_only and not rows_connected(rows):
        return False
    return not spec.irregular_only or len({r.bit_count() for r in rows}) > 1


def _add_class(classes: dict[str, Rows], rows: list[int]) -> None:
    canon = canonical_rows(tuple(rows), len(rows))
    classes.setdefault(to_graph6(Graph(len(rows), canon)), canon)


def _children(
    parents: list[Rows], size: int, spec: EnumerationSpec, last: bool
) -> dict[str, Rows]:
    """Canonical children on ``size`` vertices of the representatives ``parents``.

    On the last size a fixed ``spec.m`` admits only masks of size m - m(parent),
    and only the children that ``spec`` keeps are canonicalised.
    """
    if spec.population == "trees":
        masks = [1 << v for v in range(size - 1)]
    else:
        masks = range(1 << (size - 1))
    bit = 1 << (size - 1)
    classes: dict[str, Rows] = {}
    for parent in parents:
        need = None
        if last and spec.m is not None:
            need = spec.m - sum(r.bit_count() for r in parent) // 2
        for mask in masks:
            if need is not None and mask.bit_count() != need:
                continue
            rows = [*parent, mask]
            rest = mask
            while rest:
                low = rest & -rest
                rows[low.bit_length() - 1] |= bit
                rest ^= low
            if last and not _keep(spec, rows):
                continue
            _add_class(classes, rows)
    return classes


def _generate(spec: EnumerationSpec, workers: int) -> dict[str, Rows]:
    """Code -> canonical rows of each class of ``spec``, population "all" or "trees".

    The last size is split over ``workers`` processes.
    """
    if spec.n == 1:
        return {to_graph6(Graph(1, (0,))): (0,)} if _keep(spec, [0]) else {}
    reps: list[Rows] = [(0,)]
    for size in range(2, spec.n):
        reps = list(_children(reps, size, spec, False).values())
    workers = min(workers, len(reps))
    if workers == 1:
        return _children(reps, spec.n, spec, True)
    chunks = [(reps[i::workers], spec.n, spec, True) for i in range(workers)]
    with Pool(workers) as pool:
        parts = pool.starmap(_children, chunks)
    return {code: rows for part in parts for code, rows in part.items()}


def _unicyclic(spec: EnumerationSpec, workers: int) -> dict[str, Rows]:
    """Every tree on ``spec.n`` vertices plus one chord, filtered by ``spec``."""
    n = spec.n
    classes: dict[str, Rows] = {}
    if spec.m not in (None, n):
        return classes
    for tree in _generate(EnumerationSpec(n=n, population="trees"), workers).values():
        for u in range(n):
            for v in range(u + 1, n):
                if tree[u] >> v & 1:
                    continue
                rows = list(tree)
                rows[u] |= 1 << v
                rows[v] |= 1 << u
                if _keep(spec, rows):
                    _add_class(classes, rows)
    return classes


def _validate(spec: EnumerationSpec, workers: int) -> None:
    spec.validate()
    if workers < 1:
        raise InputError("workers must be positive")


def _codes(spec: EnumerationSpec, workers: int) -> list[str]:
    grow = _unicyclic if spec.population == "unicyclic" else _generate
    return sorted(grow(spec, workers))


def enumerate_codes(spec: EnumerationSpec, workers: int = 1) -> list[str]:
    """Sorted canonical codes of every isomorphism class matching ``spec``."""
    _validate(spec, workers)
    return _codes(spec, workers)


def enumerate_graphs(spec: EnumerationSpec, workers: int = 1) -> list[Graph]:
    """Canonical representative per isomorphism class, sorted by code."""
    return [parse_graph6(c) for c in enumerate_codes(spec, workers)]


def enumerate_trees(n: int) -> list[Graph]:
    return enumerate_graphs(EnumerationSpec(n=n, population="trees"))


def enumerate_unicyclic(n: int) -> list[Graph]:
    return enumerate_graphs(EnumerationSpec(n=n, population="unicyclic"))


# --- optional on-disk cache -------------------------------------------------

CACHE_ENV = "GRAPHIRR_CACHE_DIR"


def _cache_path(spec: EnumerationSpec, cache_dir: str) -> str:
    from . import __version__

    return os.path.join(cache_dir, f"{spec.key()}-v{__version__}.g6")


def _read_cache(path: str, n: int) -> Optional[list[str]]:
    """The codes in ``path``, or None unless it is a sorted list of n-vertex codes.

    O(1) per line: the size byte, the length and strict increase, no parsing.
    """
    size, width = chr(n + 63), 1 + (n * (n - 1) // 2 + 5) // 6
    try:
        with open(path, "r", encoding="ascii") as fh:
            codes = fh.read().split()
    except UnicodeDecodeError:
        return None
    for prev, code in zip([""] + codes, codes):
        if len(code) != width or code[0] != size or code <= prev:
            return None
    return codes


def enumerate_codes_cached(
    spec: EnumerationSpec, workers: int = 1, cache_dir: Optional[str] = None
) -> list[str]:
    """Like :func:`enumerate_codes` with an optional directory cache.

    The cache key includes the package version, so stale files are ignored
    after upgrades; a file failing :func:`_read_cache` is logged, recomputed
    and rewritten.  With no directory configured this is a plain call.
    """
    _validate(spec, workers)
    cache_dir = cache_dir or os.environ.get(CACHE_ENV)
    if not cache_dir:
        return _codes(spec, workers)
    path = _cache_path(spec, cache_dir)
    if os.path.exists(path):
        codes = _read_cache(path, spec.n)
        if codes is not None:
            return codes
        logger.warning("cache file %s is not a sorted list of codes; recomputing", path)
    codes = _codes(spec, workers)
    os.makedirs(cache_dir, exist_ok=True)
    # a private temporary name per writer, so concurrent writers cannot clash
    fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=cache_dir)
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write("\n".join(codes) + ("\n" if codes else ""))
        os.chmod(tmp, 0o666 & ~_umask())  # the mode open() would have given
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return codes


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask
