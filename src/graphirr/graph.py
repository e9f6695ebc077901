"""Immutable simple-graph representation and structural statistics.

Vertices are labelled 0..n-1 and adjacency is stored as one bitmask per
vertex.  That keeps degree counts, neighbourhood scans and connectivity
checks cheap enough for exhaustive enumeration, while still allowing graphs
with a few thousand vertices for closed-form cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .errors import InputError


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: no loops, no parallel edges.

    ``rows[v]`` is the neighbour bitmask of vertex ``v``; bit ``u`` is set
    iff ``u`` and ``v`` are adjacent.
    """

    n: int
    rows: tuple[int, ...]

    @property
    def m(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(r.bit_count() for r in self.rows)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def neighbors(self, v: int) -> Iterator[int]:
        mask = self.rows[v]
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.neighbors(u) if u < v]

    def with_edge(self, u: int, v: int) -> "Graph":
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            raise InputError(f"bad edge ({u},{v}) for n={self.n}")
        rows = list(self.rows)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph(self.n, tuple(rows))


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph on ``n`` vertices from (u, v) pairs.

    Duplicate pairs collapse; self-loops and out-of-range endpoints are
    rejected.
    """
    if n < 1:
        raise InputError(f"vertex count must be positive, got {n}")
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise InputError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge ({u},{v}) out of range for n={n}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def rows_connected(rows: Sequence[int]) -> bool:
    """True iff every vertex of the adjacency bitmasks ``rows`` is reachable from 0.

    Takes bare rows so the labelled enumeration scan can test each candidate
    without building a :class:`Graph`.
    """
    n = len(rows)
    if n <= 1:
        return True
    seen = 1
    frontier = 1
    while frontier:
        reach = 0
        mask = frontier
        while mask:
            low = mask & -mask
            reach |= rows[low.bit_length() - 1]
            mask ^= low
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def is_connected(g: Graph) -> bool:
    """True iff every vertex is reachable from vertex 0."""
    return rows_connected(g.rows)


def cyclomatic_number(g: Graph) -> int:
    """Independent cycle count m - n + 1; requires a connected graph."""
    if not is_connected(g):
        raise InputError("cyclomatic number is defined here only for connected graphs")
    return g.m - g.n + 1


@dataclass(frozen=True)
class DegreeStats:
    """Degree-sequence summary of a graph."""

    degrees: tuple[int, ...]
    histogram: dict[int, int]
    max_degree: int
    min_degree: int
    edge_count: int
    average_degree: Fraction
    degree_set: tuple[int, ...]
    universal_count: int


def degree_stats(g: Graph) -> DegreeStats:
    degs = g.degrees()
    hist: dict[int, int] = {}
    for d in degs:
        hist[d] = hist.get(d, 0) + 1
    two_m = sum(degs)
    return DegreeStats(
        degrees=degs,
        histogram=hist,
        max_degree=max(degs),
        min_degree=min(degs),
        edge_count=two_m // 2,
        average_degree=Fraction(two_m, g.n),
        degree_set=tuple(sorted(hist)),
        universal_count=hist.get(g.n - 1, 0),
    )


@dataclass(frozen=True)
class Classification:
    """Structural predicates used by the measure and verification layers."""

    is_connected: bool
    is_regular: bool
    degree_class: int
    is_bidegreed: bool
    is_balanced_bidegreed: bool
    is_dominating: bool
    is_tree: bool
    is_unicyclic: bool
    cyclomatic: Optional[int]
    complete_split_k: Optional[int]


def _complete_split_k(n: int, stats: DegreeStats) -> Optional[int]:
    # CS(n, k) is the only graph with degrees (n-1)^k k^(n-k): k universal
    # vertices, and n-k vertices that see nothing else.
    q = stats.universal_count
    if n < 2:
        return None
    if q == n:
        return n - 1
    if q >= 1 and stats.histogram.get(q, 0) == n - q:
        return q
    return None


def classify(g: Graph, stats: Optional[DegreeStats] = None) -> Classification:
    st = stats if stats is not None else degree_stats(g)
    connected = is_connected(g)
    k = len(st.degree_set)
    regular = k == 1
    bidegreed = k == 2
    n_max = st.histogram[st.max_degree]
    n_min = st.histogram[st.min_degree]
    balanced = bidegreed and g.n % 2 == 0 and n_max == n_min == g.n // 2
    dominating = not regular and st.universal_count >= 1
    cyclo = g.m - g.n + 1 if connected else None
    return Classification(
        is_connected=connected,
        is_regular=regular,
        degree_class=k,
        is_bidegreed=bidegreed,
        is_balanced_bidegreed=balanced,
        is_dominating=dominating,
        is_tree=connected and cyclo == 0,
        is_unicyclic=connected and cyclo == 1,
        cyclomatic=cyclo,
        complete_split_k=_complete_split_k(g.n, st),
    )
