"""Immutable simple-graph representation and structural statistics.

Vertices are labelled 0..n-1 and adjacency is stored as one bitmask per
vertex.  That keeps degree counts, neighbourhood scans and connectivity
checks cheap enough for exhaustive enumeration, while still allowing graphs
with a few thousand vertices for closed-form cross-checks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import InputError


class Graph(NamedTuple):
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

    def neighbors(self, v: int) -> Iterator[int]:
        mask = self.rows[v]
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.neighbors(u) if u < v]


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

    Takes bare rows so enumeration can test each candidate without building a
    :class:`Graph`.
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


#: sorted (degree, count) pairs, one for each degree that occurs
Histogram = tuple[tuple[int, int], ...]


class DegreeStats(NamedTuple):
    """Degree-sequence summary of a graph: nothing here depends on the labelling."""

    histogram: dict[int, int]
    max_degree: int
    min_degree: int
    edge_count: int
    average_degree: Fraction
    degree_set: tuple[int, ...]
    universal_count: int


def _degree_histogram(g: Graph) -> Histogram:
    counts = [0] * g.n  # counts[d] vertices have degree d
    for r in g.rows:
        counts[r.bit_count()] += 1
    return tuple([(d, c) for d, c in enumerate(counts) if c])


def degree_stats(g: Graph) -> DegreeStats:
    return _degree_stats(_degree_histogram(g))


def _degree_stats(hist: Histogram) -> DegreeStats:
    """The statistics of every graph whose degree histogram is ``hist``."""
    counts = dict(hist)
    n = sum(counts.values())
    two_m = sum(d * c for d, c in hist)
    return DegreeStats(
        histogram=counts,
        max_degree=hist[-1][0],
        min_degree=hist[0][0],
        edge_count=two_m // 2,
        average_degree=Fraction(two_m, n),
        degree_set=tuple(counts),
        universal_count=counts.get(n - 1, 0),
    )


class Classification(NamedTuple):
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


def classify(g: Graph) -> Classification:
    return _classify(g.n, degree_stats(g), is_connected(g))


def _classify(n: int, st: DegreeStats, connected: bool) -> Classification:
    """The classification shared by every graph of order ``n``, degrees ``st`` and connectivity."""
    k = len(st.degree_set)
    regular = k == 1
    bidegreed = k == 2
    n_max = st.histogram[st.max_degree]
    n_min = st.histogram[st.min_degree]
    balanced = bidegreed and n % 2 == 0 and n_max == n_min == n // 2
    dominating = not regular and st.universal_count >= 1
    cyclo = st.edge_count - n + 1 if connected else None
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
        complete_split_k=_complete_split_k(n, st),
    )
