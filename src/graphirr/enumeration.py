"""Exhaustive generation of small-graph populations up to isomorphism.

Fixed-(n, m) slices and whole-range populations are produced by brute force
over labelled edge subsets of K_n, canonicalising each graph and collecting
distinct codes; that is slow compared to orderly generation but transparent
and easy to audit, and it is fast enough at the supported sizes.  Trees grow
by leaf attachment with canonical deduplication; unicyclic graphs are trees
plus one chord.  Output order is always sorted by canonical code, so runs
are reproducible and independent of worker count.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from itertools import combinations
from multiprocessing import Pool
from typing import Optional

from .canon import canonical_rows
from .errors import CapabilityError, InputError
from .graph import Graph, rows_connected
from .io import parse_graph6, to_graph6

MAX_N_ALL = 8
MAX_N_TREES = 12
MAX_N_UNICYCLIC = 10


@dataclass(frozen=True)
class EnumerationSpec:
    """What to enumerate: isomorphism classes of the selected population."""

    n: int
    m: Optional[int] = None
    connected_only: bool = False
    irregular_only: bool = False
    population: str = "all"  # "all" | "trees" | "unicyclic"

    def validate(self) -> None:
        if self.population not in ("all", "trees", "unicyclic"):
            raise InputError(f"unknown population {self.population!r}")
        if self.population == "all":
            if self.n < 1:
                raise InputError("need n >= 1")
            if self.n > MAX_N_ALL:
                raise CapabilityError(
                    f"whole-range enumeration capped at n={MAX_N_ALL}"
                )
            top = self.n * (self.n - 1) // 2
            if self.m is not None and not 0 <= self.m <= top:
                raise InputError(f"m={self.m} impossible for n={self.n}")
        elif self.population == "trees":
            if self.n < 2:
                raise InputError("tree enumeration needs n >= 2")
            if self.n > MAX_N_TREES:
                raise CapabilityError(f"tree enumeration capped at n={MAX_N_TREES}")
        else:
            if self.n < 3:
                raise InputError("unicyclic enumeration needs n >= 3")
            if self.n > MAX_N_UNICYCLIC:
                raise CapabilityError(
                    f"unicyclic enumeration capped at n={MAX_N_UNICYCLIC}"
                )

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


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _code_for_rows(rows: tuple[int, ...], n: int) -> str:
    return to_graph6(Graph(n, canonical_rows(rows, n)))


def _scan_chunk(args: tuple) -> set[str]:
    """Worker: canonical codes of one residue class of the labelled space."""
    n, m, connected, irregular, residue, step = args
    pairs = _pairs(n)
    codes: set[str] = set()
    min_edges = n - 1 if connected else 0
    if m is not None:
        source = combinations(range(len(pairs)), m)
        for idx, combo in enumerate(source):
            if idx % step != residue:
                continue
            rows = [0] * n
            for e in combo:
                u, v = pairs[e]
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            if connected and not rows_connected(rows):
                continue
            if irregular and len({r.bit_count() for r in rows}) <= 1:
                continue
            codes.add(_code_for_rows(tuple(rows), n))
        return codes
    for mask in range(residue, 1 << len(pairs), step):
        if mask.bit_count() < min_edges:
            continue
        rows = [0] * n
        rest = mask
        while rest:
            low = rest & -rest
            u, v = pairs[low.bit_length() - 1]
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            rest ^= low
        if connected and not rows_connected(rows):
            continue
        if irregular and len({r.bit_count() for r in rows}) <= 1:
            continue
        codes.add(_code_for_rows(tuple(rows), n))
    return codes


def _enumerate_all(spec: EnumerationSpec, workers: int) -> list[str]:
    if spec.connected_only and spec.m is not None and spec.m < spec.n - 1:
        return []
    args = [
        (spec.n, spec.m, spec.connected_only, spec.irregular_only, r, workers)
        for r in range(workers)
    ]
    if workers == 1:
        codes = _scan_chunk(args[0])
    else:
        with Pool(workers) as pool:
            codes = set().union(*pool.map(_scan_chunk, args))
    return sorted(codes)


def _tree_codes(n: int) -> list[str]:
    reps: dict[str, tuple[int, ...]] = {}
    single = (0,)
    reps[_code_for_rows(single, 1)] = single
    for size in range(2, n + 1):
        grown: dict[str, tuple[int, ...]] = {}
        for rows in reps.values():
            for v in range(size - 1):
                new_rows = list(rows) + [1 << v]
                new_rows[v] |= 1 << (size - 1)
                canon = canonical_rows(tuple(new_rows), size)
                grown.setdefault(to_graph6(Graph(size, canon)), canon)
        reps = grown
    return sorted(reps)


def _unicyclic_codes(n: int) -> list[str]:
    codes: set[str] = set()
    for tree_code in _tree_codes(n):
        tree = parse_graph6(tree_code)
        for u in range(n):
            for v in range(u + 1, n):
                if tree.has_edge(u, v):
                    continue
                g = tree.with_edge(u, v)
                codes.add(_code_for_rows(g.rows, n))
    return sorted(codes)


def _filter_codes(codes: list[str], spec: EnumerationSpec) -> list[str]:
    if spec.m is None and not spec.irregular_only:
        return codes
    out = []
    for code in codes:
        g = parse_graph6(code)
        if spec.m is not None and g.m != spec.m:
            continue
        if spec.irregular_only and len(set(g.degrees())) <= 1:
            continue
        out.append(code)
    return out


def enumerate_codes(spec: EnumerationSpec, workers: int = 1) -> list[str]:
    """Sorted canonical codes of every isomorphism class matching ``spec``."""
    spec.validate()
    if workers < 1:
        raise InputError("workers must be positive")
    if spec.population == "trees":
        return _filter_codes(_tree_codes(spec.n), spec)
    if spec.population == "unicyclic":
        return _filter_codes(_unicyclic_codes(spec.n), spec)
    return _enumerate_all(spec, workers)


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


def enumerate_codes_cached(
    spec: EnumerationSpec, workers: int = 1, cache_dir: Optional[str] = None
) -> list[str]:
    """Like :func:`enumerate_codes` with an optional directory cache.

    The cache key includes the package version, so stale files are ignored
    after upgrades.  With no directory configured this is a plain call.
    """
    cache_dir = cache_dir or os.environ.get(CACHE_ENV)
    if not cache_dir:
        return enumerate_codes(spec, workers)
    spec.validate()
    path = _cache_path(spec, cache_dir)
    if os.path.exists(path):
        with open(path, "r", encoding="ascii") as fh:
            return [line.strip() for line in fh if line.strip()]
    codes = enumerate_codes(spec, workers)
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
