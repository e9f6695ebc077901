"""Constructors for the named graph families used as fixtures and seeds."""

from __future__ import annotations

from typing import Sequence

from .errors import InputError
from .graph import Graph, from_edge_list, rows_connected
from .measures import context


def path(n: int) -> Graph:
    if n < 1:
        raise InputError("path needs n >= 1")
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise InputError("cycle needs n >= 3")
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def star(n: int) -> Graph:
    """K_{1,n-1}: vertex 0 joined to all others."""
    if n < 1:
        raise InputError("star needs n >= 1")
    return from_edge_list(n, [(0, i) for i in range(1, n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise InputError("complete graph needs n >= 1")
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def wheel(n: int) -> Graph:
    """Hub 0 joined to the cycle 1..n-1; n counts all vertices."""
    if n < 5:
        raise InputError("wheel needs n >= 5")
    rim = [(i, i % (n - 1) + 1) for i in range(1, n)]
    hub = [(0, i) for i in range(1, n)]
    return from_edge_list(n, rim + hub)


def complete_split(n: int, k: int) -> Graph:
    """k universal clique vertices 0..k-1 plus an independent set of n-k."""
    if not 1 <= k <= n - 1:
        raise InputError(f"complete split graph needs 1 <= k <= n-1, got k={k}, n={n}")
    edges = [(i, j) for i in range(k) for j in range(i + 1, n)]
    return from_edge_list(n, edges)


def complete_multipartite(part_sizes: Sequence[int]) -> Graph:
    if len(part_sizes) < 2:
        raise InputError("complete multipartite graph needs at least two parts")
    if any(s < 1 for s in part_sizes):
        raise InputError("part sizes must be positive")
    bounds = [0]
    for s in part_sizes:
        bounds.append(bounds[-1] + s)
    n = bounds[-1]
    edges = []
    for p in range(len(part_sizes)):
        for q in range(p + 1, len(part_sizes)):
            edges.extend(
                (u, v)
                for u in range(bounds[p], bounds[p + 1])
                for v in range(bounds[q], bounds[q + 1])
            )
    return from_edge_list(n, edges)


_DIAMOND_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]

_PRISM_EDGES = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]

# Mycielski construction over the 5-cycle: cycle vertices 0..4, shadow
# vertices 5..9 (5+i adjacent to the cycle neighbours of i), apex 10.
_GROTZSCH_EDGES = (
    [(i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, (i + 4) % 5) for i in range(5)]
    + [(10, 5 + i) for i in range(5)]
)

_NAMED = {
    "diamond": (4, _DIAMOND_EDGES),
    "trigonal_prism": (6, _PRISM_EDGES),
    "grotzsch": (11, _GROTZSCH_EDGES),
}


def named(name: str) -> Graph:
    try:
        n, edges = _NAMED[name]
    except KeyError:
        raise InputError(
            f"unknown named graph {name!r}; choose from {sorted(_NAMED)}"
        ) from None
    return from_edge_list(n, edges)


def recognize(g: Graph) -> str | None:
    """Name the graph when it belongs to a small standard family."""
    ctx = context(g)
    n, m, dmax = ctx.n, ctx.m, ctx.stats.max_degree
    if m == n * (n - 1) // 2:
        return f"K_{n}"
    if m == 0:
        return f"empty({n})"
    if ctx.connected:
        if m == n - 1 and dmax <= 2:
            return f"P_{n}"
        if m == n and dmax == 2:
            return f"C_{n}"
        if m == n - 1 and dmax == n - 1:
            return f"K_{{1,{n - 1}}}"
        k = ctx.cls.complete_split_k
        if k is not None and k < n - 1:
            return f"CS({n},{k})"
        if ctx.histogram == ((3, n - 1), (n - 1, 1)):  # n-1 rim vertices of degree 3, one hub
            hub = max(range(n), key=g.degree)
            low = (1 << hub) - 1
            # the rim rows with the hub's bit cut out; the rim is 2-regular,
            # so it is one cycle iff it is connected
            rim = [r & low | r >> (hub + 1) << hub for v, r in enumerate(g.rows) if v != hub]
            if rows_connected(rim):
                return f"W_{n}"
    return None
