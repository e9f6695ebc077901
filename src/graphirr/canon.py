"""Canonical labelling for small graphs.

Two graphs receive the same canonical form exactly when they are isomorphic.
An initial degree colouring is refined until stable (each colour key is an
isomorphism invariant, so colour classes are unions of automorphism orbits).
Each round ranks vertices by (old colour, multiset of neighbour colours); the
old colour leads, so the round splits each cell of the ordered partition in
place, and it is done cell by cell, computing keys only in cells that can
still split (see :func:`_stable_cells`).  The canonical form relabels the
graph by the colour-respecting vertex order with the largest adjacency code,
found in one pass over the positions, cell by cell: since every prefix can be
completed, the best orders extend exactly the best prefixes, so only the
prefixes tied for the largest code so far are kept, and of two tied twins
(vertices whose neighbourhoods differ at most in each other) only one.  A
candidate is scored from its placed neighbours alone.  This is exact for any
graph; the size cap only bounds the number of tied prefixes.

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

_MEMBERS: dict[int, tuple[int, ...]] = {}  # mask -> its set bits, filled by _members


def _members(mask: int) -> tuple[int, ...]:
    """The set bits of ``mask``, in increasing order; memoised below 2**CANONICAL_CAP."""
    got = tuple([v for v in range(mask.bit_length()) if mask >> v & 1])
    return _MEMBERS.setdefault(mask, got) if not mask >> CANONICAL_CAP else got


def _stable_cells(rows: Rows, n: int, nbrs: list[tuple[int, ...]]) -> list[list[int]]:
    """The stable ordered partition: the colour classes in increasing colour order, each sorted.

    A round ranks the vertices by (old colour, sorted tuple of neighbour
    colours), all keys read from the old colours; the first colours are the
    degrees.  The old colour leads the key, so the ranks split each old cell
    in place into sub-cells sorted by the tuple: refining cell by cell gives
    the ordered partition that ranking all vertices at once gives.  Two kinds
    of cell cannot split and compute no key: a singleton, and a cell none of
    whose vertices has a neighbour in a cell that the round before split.
    The vertices of a cell had equal numbers of neighbours in each cell of
    the partition it was cut from, so they still have equal numbers in each
    cell that did not split; by the same counts, one vertex of a cell has a
    neighbour in a split cell exactly when every vertex does, so the first
    vertex is checked.  The first round
    that splits no cell has reached the stable partition.

    A tuple is coded as the sum of its colours' digits, 2**(w*(n-1-c)) for
    colour c with w = n.bit_length().  No count reaches 2**w, so of two
    tuples of one cell (of equal length) the smaller, which has more entries
    of the first colour where they differ, has the larger sum; sub-cells are
    taken in decreasing sum.
    """
    by_degree: dict[int, list[int]] = {}
    for v in range(n):
        by_degree.setdefault(len(nbrs[v]), []).append(v)
    cells = [by_degree[d] for d in sorted(by_degree)]
    width = n.bit_length()
    digit = [0] * n
    changed = -1  # vertices whose cells the round before split; all, at first
    while True:
        for c, cell in enumerate(cells):
            d = 1 << width * (n - 1 - c)
            for v in cell:
                digit[v] = d
        split: list[list[int]] = []
        changing = 0
        for cell in cells:
            if len(cell) == 1 or not rows[cell[0]] & changed:
                split.append(cell)
                continue
            subs: dict[int, list[int]] = {}
            for v in cell:
                subs.setdefault(sum(map(digit.__getitem__, nbrs[v])), []).append(v)
            if len(subs) == 1:
                split.append(cell)
                continue
            changing |= sum([1 << v for v in cell])
            split += [subs[k] for k in sorted(subs, reverse=True)]
        if len(split) == len(cells):
            return cells
        cells, changed = split, changing


def _stable_colors(rows: Rows, n: int) -> list[int]:
    """Each vertex's stable colour: the index of its cell in :func:`_stable_cells`."""
    cells = _stable_cells(rows, n, [_MEMBERS.get(mask) or _members(mask) for mask in rows])
    return [c for _, c in sorted((v, c) for c, cell in enumerate(cells) for v in cell)]


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

    The positions are taken cell by cell, from the highest colour down.  A
    prefix is stored as the weight 2**(n-1-i) of the vertex at its position
    i, 0 for an unplaced vertex, and its order is read back by decreasing
    weight.  A candidate's entry, shifted left by n-i bits, is then the sum
    of its placed neighbours' weights, and candidates of one position compare
    alike either way.  A singleton cell under a single prefix is placed
    without a score, and a prefix with one child grows in place.

    Twin rule: two tied candidates of one prefix whose neighbourhoods differ
    at most in each other are twins; swapping them is an automorphism fixing
    the prefix, so only the first is kept and the pair goes into ``twins``.
    """
    nbrs = [_MEMBERS.get(mask) or _members(mask) for mask in rows]
    cells = _stable_cells(rows, n, nbrs)
    if len(cells) == n:  # every vertex told apart: one order, no search
        return [[cell[0] for cell in reversed(cells)]]
    prefixes = [[0] * n]
    weight = 1 << n
    for cell in reversed(cells):
        for _ in cell:
            weight >>= 1
            if len(cell) == 1 and len(prefixes) == 1:
                prefixes[0][cell[0]] = weight
                continue
            best, grown = -1, []
            for wt in prefixes:
                scored = [(sum(map(wt.__getitem__, nbrs[v])), v) for v in cell if not wt[v]]
                top = max(scored)[0]
                if top > best:
                    best, grown = top, []
                if top == best:
                    kept: list[int] = []
                    for bits, v in scored:
                        if bits == top:
                            for u in kept:
                                if not (rows[u] ^ rows[v]) & ~(1 << u | 1 << v):
                                    twins.append((u, v))
                                    break
                            else:
                                kept.append(v)
                    for v in kept:
                        child = wt[:] if len(kept) > 1 else wt
                        child[v] = weight
                        grown.append(child)
            prefixes = grown
    return [sorted(range(n), key=wt.__getitem__, reverse=True) for wt in prefixes]


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
