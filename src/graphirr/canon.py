"""Canonical labelling for small graphs.

Two graphs receive the same canonical form exactly when they are isomorphic.
An initial degree colouring is refined until stable (each colour key is an
isomorphism invariant, so colour classes are unions of automorphism orbits).
The canonical form relabels the graph by the colour-respecting vertex order
with the largest adjacency code, found in one pass over the positions: since
every prefix can be completed, the best orders extend exactly the best
prefixes, so only the prefixes tied for the largest code so far are kept, and
of two tied twins (vertices whose neighbourhoods differ at most in each other)
only one.  This is exact for any graph; the size cap only bounds the number
of tied prefixes.

The same search yields automorphisms for free (:func:`_canonical_automorphisms`):
two kept orders give the same relabelled rows, and each pair of twins set
aside can be swapped.  Every best order is a kept one with some of those twin
swaps applied, so together they generate the whole automorphism group.
"""

from __future__ import annotations

from .errors import CapabilityError
from .graph import Graph
from .io import to_graph6

CANONICAL_CAP = 12

Rows = tuple[int, ...]


def _stable_colors(rows: Rows, n: int) -> list[int]:
    """Iteratively refine colours by multisets of neighbour colours.

    Each round splits classes or keeps them, so the first round that splits
    none has reached the stable partition; its colours are the ranks of the
    classes, which a further round would return unchanged.
    """
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
    classes = len(set(colors))
    while True:
        keys = [(colors[v], tuple(sorted([colors[u] for u in nbrs[v]]))) for v in range(n)]
        rank = {k: i for i, k in enumerate(sorted(set(keys)))}
        colors = [rank[k] for k in keys]
        if len(rank) == classes:
            return colors
        classes = len(rank)


def _search_orders(rows: Rows, n: int, twins: list[tuple[int, int]]) -> list[list[int]]:
    """The colour-respecting vertex orders with the largest code, in one pass.

    An order's code is the sequence whose entry i packs the adjacency bits of
    the vertex at position i towards positions 0..i-1 (earlier position =
    higher bit); codes compare lexicographically.  Position i takes only a
    vertex of the i-th colour of the template, the vertex colours sorted in
    decreasing order, which is sound because no isomorphism maps vertices of
    different stable colours onto each other; high colours (denser vertices)
    come first so edge bits appear early and prefixes diverge quickly.

    The loop over positions keeps every prefix whose code ties for the
    largest so far.  Any prefix can be completed, since the unplaced vertices
    always have the colours the template still needs, so the largest prefixes
    of length i+1 extend exactly the largest of length i, and every order
    left at length n gives the same relabelled rows.

    Twin rule: two tied candidates of one prefix whose neighbourhoods differ
    at most in each other are twins; swapping them is an automorphism fixing
    the prefix, so only the first is kept and the pair goes into ``twins``.
    """
    colors = _stable_colors(rows, n)
    if len(set(colors)) == n:  # every vertex told apart: one order, no search
        return [sorted(range(n), key=colors.__getitem__, reverse=True)]
    by_color: dict[int, list[int]] = {}
    for v in range(n):
        by_color.setdefault(colors[v], []).append(v)
    prefixes: list[list[int]] = [[]]
    for color in sorted(colors, reverse=True):
        best = -1
        grown: list[list[int]] = []
        for placed in prefixes:
            scored = []
            for v in by_color[color]:
                if v not in placed:
                    bits = 0
                    rv = rows[v]
                    for u in placed:
                        bits = bits << 1 | (rv >> u & 1)
                    scored.append((bits, v))
            top = max(scored)[0]
            if top > best:
                best, grown = top, []
            if top == best:
                kept: list[int] = []
                for bits, v in scored:
                    if bits == top:
                        rv = rows[v]
                        for u in kept:
                            if not (rows[u] ^ rv) & ~(1 << u | 1 << v):
                                twins.append((u, v))
                                break
                        else:
                            kept.append(v)
                            grown.append(placed + [v])
        prefixes = grown
    return prefixes


def _positions(order: list[int]) -> list[int]:
    pos = [0] * len(order)
    for i, v in enumerate(order):
        pos[v] = i
    return pos


def relabel_rows(rows: Rows, order: list[int]) -> Rows:
    pos = _positions(order)
    out = [0] * len(order)
    for v, mask in enumerate(rows):
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
    return relabel_rows(rows, _search_orders(rows, n, [])[0])


def _canonical_automorphisms(rows: Rows, n: int) -> tuple[Rows, list[list[int]]]:
    """:func:`canonical_rows` and generators of the automorphism group of that form.

    Each generator is a permutation of the canonical positions.  Two kept
    orders o and o' relabel to the same rows, so position i goes to the
    position of o[i] in o'; a twin pair (u, v) swaps the positions of u and v.
    Unlike :func:`canonical_rows` it does not check the size cap.
    """
    twins: list[tuple[int, int]] = []
    first, *others = _search_orders(rows, n, twins)
    gens = [[at[v] for v in first] for at in map(_positions, others)]
    pos = _positions(first)
    for u, v in set(twins):
        swap = list(range(n))
        swap[pos[u]], swap[pos[v]] = pos[v], pos[u]
        gens.append(swap)
    return relabel_rows(rows, first), gens


def canonical_code(g: Graph) -> str:
    """Deterministic isomorphism-class identifier (graph6 of the canonical form)."""
    return to_graph6(Graph(g.n, canonical_rows(g.rows, g.n)))
