"""Canonical labelling for small graphs.

Two graphs receive the same canonical form exactly when they are isomorphic.
The approach is classic: refine an initial degree colouring until stable
(each colour key is an isomorphism invariant, so colour classes are unions
of automorphism orbits), then search over colour-respecting vertex orders
for the one that maximises the adjacency bit string, pruning orders whose
prefix already compares worse.  This is exact for any graph; the size cap
only bounds the worst-case search.
"""

from __future__ import annotations

from typing import Sequence

from .errors import CapabilityError
from .graph import Graph
from .io import to_graph6

CANONICAL_CAP = 12

Rows = tuple[int, ...]


def _stable_colors(rows: Rows, n: int) -> list[int]:
    """Iteratively refine colours by multisets of neighbour colours."""
    nbrs = []
    for v in range(n):
        mask = rows[v]
        a = []
        while mask:
            low = mask & -mask
            a.append(low.bit_length() - 1)
            mask ^= low
        nbrs.append(a)
    colors = [len(a) for a in nbrs]
    while True:
        keys = [
            (colors[v], tuple(sorted(colors[u] for u in nbrs[v])))
            for v in range(n)
        ]
        rank = {k: i for i, k in enumerate(sorted(set(keys)))}
        new = [rank[k] for k in keys]
        if new == colors:
            return colors
        colors = new


def _search_order(rows: Rows, n: int, colors: list[int]) -> list[int]:
    """Branch-and-bound for the colour-respecting order with maximal code.

    ``cur[i]`` holds vertex i's adjacency bits towards the already placed
    vertices, packed into an int (earlier position = higher bit).  Orders are
    compared lexicographically on that sequence; only orders assigning each
    position a vertex of the position's colour are considered, which is sound
    because no isomorphism maps vertices of different stable colours onto
    each other.  High colours (denser vertices) are placed first so edge bits
    appear early and prefixes diverge quickly.

    Tie cutting: when two tied candidates are twins (their neighbourhoods
    differ at most in each other), swapping them is an automorphism fixing
    everything else, so only one branch is explored.
    """
    template = sorted(range(n), key=colors.__getitem__, reverse=True)
    pos_color = [colors[v] for v in template]
    by_color: dict[int, list[int]] = {}
    for v in range(n):
        by_color.setdefault(colors[v], []).append(v)

    used = [False] * n
    placed: list[int] = []
    cur = [0] * n
    best: list[int] | None = None
    best_order: list[int] | None = None
    gen = 0

    def extend(i: int, tight: bool) -> None:
        nonlocal best, best_order, gen
        if i == n:
            if not tight:
                best = cur[:]
                best_order = placed[:]
                gen += 1
            return
        scored = []
        for v in by_color[pos_color[i]]:
            if used[v]:
                continue
            bits = 0
            rv = rows[v]
            for u in placed:
                bits = bits << 1 | (rv >> u & 1)
            scored.append((bits, v))
        scored.sort(reverse=True)
        tried: list[tuple[int, int]] = []
        for bits, v in scored:
            if tight and best is not None:
                if bits < best[i]:
                    break  # descending order: the rest are worse too
                child_tight = bits == best[i]
            else:
                child_tight = False
            rv = rows[v]
            vbit = 1 << v
            if any(
                b == bits and not (rows[u] ^ rv) & ~(1 << u | vbit)
                for b, u in tried
            ):
                continue
            tried.append((bits, v))
            cur[i] = bits
            used[v] = True
            placed.append(v)
            before = gen
            extend(i + 1, child_tight)
            placed.pop()
            used[v] = False
            if gen != before:
                # new best came through this prefix, so it now ties it
                tight = True

    extend(0, best is not None)
    assert best_order is not None
    return best_order


def canonical_order(rows: Rows, n: int) -> list[int]:
    """Vertex order realising the canonical form (old label at position i)."""
    colors = _stable_colors(rows, n)
    if len(set(colors)) == n:
        return sorted(range(n), key=colors.__getitem__, reverse=True)
    m2 = sum(r.bit_count() for r in rows)
    if m2 == 0 or m2 == n * (n - 1):
        # empty or complete: every order yields the same matrix
        return list(range(n))
    return _search_order(rows, n, colors)


def relabel_rows(rows: Rows, order: list[int]) -> Rows:
    n = len(order)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    out = [0] * n
    for v in range(n):
        mask = rows[v]
        acc = 0
        while mask:
            low = mask & -mask
            acc |= 1 << pos[low.bit_length() - 1]
            mask ^= low
        out[pos[v]] = acc
    return tuple(out)


def canonical_rows(rows: Rows, n: int) -> Rows:
    if n > CANONICAL_CAP:
        raise CapabilityError(
            f"canonical form supported up to n={CANONICAL_CAP}, got n={n}"
        )
    return relabel_rows(rows, canonical_order(rows, n))


def leaf_certificate(rows: Sequence[int], labels: dict[Rows, int]) -> Rows:
    """Isomorphism certificate of a tree or a connected unicyclic graph, in linear time.

    Leaves are peeled layer by layer (Aho, Hopcroft and Ullman's tree code).
    Each peeled vertex is labelled by the sorted tuple of its peeled
    neighbours' labels, interned in ``labels`` to an int; the peeling stops
    at a centre, a bicentre or the cycle.  A tree's certificate is the sorted
    labels of its centre(s), a unicyclic graph's the least rotation or
    reflection of its cycle's labels.  Two graphs whose labels were interned
    in the same dict have equal certificates exactly when they are isomorphic.
    """
    n = len(rows)
    deg = [r.bit_count() for r in rows]
    kids: list[list[int]] = [[] for _ in range(n)]

    def label(v: int) -> int:
        return labels.setdefault(tuple(sorted(kids[v])), len(labels))

    alive = (1 << n) - 1
    layer = [v for v in range(n) if deg[v] <= 1]
    while layer and alive.bit_count() > 2:
        for v in layer:
            alive ^= 1 << v
        below = []
        for v in layer:
            # the one neighbour left: with more than two vertices alive, a
            # connected graph has no two adjacent leaves
            up = rows[v] & alive
            if up:
                u = up.bit_length() - 1
                kids[u].append(label(v))
                deg[u] -= 1
                if deg[u] == 1:
                    below.append(u)
        layer = below
    rest = [v for v in range(n) if alive >> v & 1]
    if len(rest) <= 2:
        return tuple(sorted(map(label, rest)))
    ring, came, v = [], 0, rest[0]
    for _ in rest:  # once round the cycle, which is all that is left
        ring.append(label(v))
        step = rows[v] & alive & ~came
        came, v = 1 << v, (step & -step).bit_length() - 1
    k = len(ring)
    return min(tuple(seq[i : i + k]) for seq in (ring * 2, ring[::-1] * 2) for i in range(k))


def canonical_code(g: Graph) -> str:
    """Deterministic isomorphism-class identifier (graph6 of the canonical form)."""
    return to_graph6(Graph(g.n, canonical_rows(g.rows, g.n)))
