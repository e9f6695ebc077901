"""Exhaustive generation of small-graph populations up to isomorphism.

Every population grows one vertex at a time by one rule: a child is a
representative on ``size - 1`` vertices plus a new vertex joined to a
neighbourhood mask, kept once per canonical form (graph6 codes are written
for the output only).  The whole range grows from K1, trees from K1, and
unicyclic graphs from C3 with the cycle C_size added at each size.
:func:`_edge_window` bounds the child's edge count: a tree or unicyclic child
has exactly one edge more than its parent, so its new vertex is a leaf.

A child is built only when its new vertex has minimum degree in it, and
canonicalised only when no other vertex of that degree has more 2-walks
(:func:`_most_walks`).  Both are isomorphism invariants, so every class is
reached if deleting such a vertex from any graph of the population leaves a
graph of the population on one vertex fewer (the invariant part of McKay's
canonical-deletion test, B. D. McKay, J. Algorithms 26 (1998) 306-324).  In
the whole range any vertex will do.  In a tree, or in a unicyclic graph that
is not a cycle, a minimum-degree vertex is a leaf, and deleting a leaf keeps
the graph in its population.  With a fixed ``m`` the whole range's sizes
below ``n`` also keep only the edge counts that can still reach m that way.

A parent P also tries only one mask of each orbit of its automorphisms,
which the canonical search reports with P's canonical form
(:func:`~graphirr.canon._canonical_automorphisms`).  This loses no class: for
an automorphism s of P, P + s(M) is isomorphic to P + M by a map that fixes
the new vertex; the minimum-degree masks, the edge window, the 2-walk test
and the spec's filters depend on degrees, edge counts and isomorphism class
only, so they keep or drop M and s(M) alike.  Any group
of automorphisms is thus sound, and how much of the group the generators
span affects only speed.  Duplicates that remain are removed by canonical
code.

Specs that differ only in ``n`` form a family, served by one growth up to its
largest ``n``: a smaller size keeps every representative and filters it by its
spec after canonicalisation, the last size before.  Every growth runs in the
calling process; output is sorted by canonical code.
"""

from __future__ import annotations

import binascii
import os
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .canon import Rows, _canonical_automorphisms, canonical_rows
from .errors import CapabilityError, InputError
from .graph import Graph, rows_connected
from .io import _body_length, to_graph6

MAX_N_ALL = 8
MAX_N_TREES = 12
MAX_N_UNICYCLIC = 10
# population -> (name in messages, smallest n, largest n)
_N_RANGE = {
    "all": ("whole-range", 1, MAX_N_ALL),
    "trees": ("tree", 2, MAX_N_TREES),
    "unicyclic": ("unicyclic", 3, MAX_N_UNICYCLIC),
}
# population -> m - n for every graph of it; "all" has no fixed edge count
_M_MINUS_N = {"trees": -1, "unicyclic": 0}
# OEIS class counts for n = 1 up to the cap: A000088 (whole range), A001349
# (connected), A000055 (trees), A001429 (unicyclic)
_CLASS_COUNTS = {
    "all": (1, 2, 4, 11, 34, 156, 1044, 12346),
    "connected": (1, 1, 2, 6, 21, 112, 853, 11117),
    "trees": (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551),
    "unicyclic": (0, 0, 1, 2, 5, 13, 33, 89, 240, 657),
}


class EnumerationSpec(NamedTuple):
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


def _keep(spec: EnumerationSpec, rows: Sequence[int]) -> bool:
    """Whether a graph of the spec's population has its edge count and passes its filters."""
    if spec.m is not None and sum(r.bit_count() for r in rows) != 2 * spec.m:
        return False
    if spec.connected_only and not rows_connected(rows):
        return False
    return not spec.irregular_only or len({r.bit_count() for r in rows}) > 1


def _cycle(size: int) -> list[int]:
    return [1 << (v - 1) % size | 1 << (v + 1) % size for v in range(size)]


def _edge_window(spec: EnumerationSpec, size: int) -> tuple[int, int]:
    """The edge counts from which a graph on ``size`` vertices can still grow into ``spec``.

    A tree or unicyclic graph on k vertices has k - 1 or k edges.  With
    ``spec.m`` fixed, a graph on k vertices with e edges loses at most
    floor(2e/k) edges with a vertex of minimum degree, and e - floor(2e/k)
    never falls as e grows, so the window's floor is m stepped down that way
    from ``spec.n`` to ``size``.  The window always holds m itself.
    """
    offset = _M_MINUS_N.get(spec.population)
    if offset is not None:
        return size + offset, size + offset
    if spec.m is None:
        return 0, size * (size - 1) // 2
    low = spec.m
    for k in range(spec.n, size, -1):
        low -= 2 * low // k
    return low, spec.m


def _min_degree_masks(
    parent: Rows, by_count: list[list[int]], low: int, high: int
) -> Iterator[int]:
    """Masks giving a child with ``low``..``high`` edges whose new vertex has minimum degree."""
    degrees = [r.bit_count() for r in parent]
    least = min(degrees)
    edges = sum(degrees) // 2
    # with least + 1 neighbours the new vertex must also join every vertex of degree least
    minimal = sum(1 << u for u, d in enumerate(degrees) if d == least)
    for count in range(max(low - edges, 0), min(high - edges, least + 1) + 1):
        for mask in by_count[count]:
            if count <= least or mask & minimal == minimal:
                yield mask


def _most_walks(rows: list[int]) -> bool:
    """Whether the last vertex, of minimum degree, has the most 2-walks of any vertex of that degree.

    The 2-walks from v number the sum of the degrees of v's neighbours.
    """
    degrees = [r.bit_count() for r in rows]
    least = degrees[-1]
    walks = []
    for r, d in zip(rows, degrees):
        if d == least:
            total = 0
            while r:
                low = r & -r
                total += degrees[low.bit_length() - 1]
                r ^= low
            walks.append(total)
    return walks[-1] == max(walks)


def _orbit_representatives(masks: Iterable[int], gens: list[list[int]]) -> Iterator[int]:
    """The first of ``masks`` in each orbit of the group that ``gens`` generates.

    The group must map ``masks`` onto themselves; each orbit is walked once,
    from its first mask, through the images under the generators.
    """
    if not gens:
        yield from masks
        return
    images = [[1 << p for p in gen] for gen in gens]
    seen: set[int] = set()
    for mask in masks:
        if mask in seen:
            continue
        yield mask
        seen.add(mask)
        todo = [mask]
        while todo:
            rest = todo.pop()
            for image in images:
                moved, bits = 0, rest
                while bits:
                    low = bits & -bits
                    moved |= image[low.bit_length() - 1]
                    bits ^= low
                if moved not in seen:
                    seen.add(moved)
                    todo.append(moved)


def _children(
    parents: dict[Rows, list[list[int]]], size: int, spec: EnumerationSpec, last: bool
) -> dict[Rows, list[list[int]]]:
    """Canonical children on ``size`` vertices of the representatives ``parents``.

    ``parents`` maps each representative to generators of its automorphism
    group, and so does the result, but on the last size, where no child is a
    parent, every list is empty.  A child is built only when its new vertex
    has minimum degree and its edge count lies in :func:`_edge_window`, and
    only for one mask of each orbit of its parent's automorphisms, and
    canonicalised only if it passes :func:`_most_walks`; on the last size
    only the children that ``spec`` keeps are canonicalised.
    """
    bit = 1 << (size - 1)
    by_count: list[list[int]] = [[] for _ in range(size)]
    for mask in range(bit):
        by_count[mask.bit_count()].append(mask)
    window = _edge_window(spec, size)
    classes: dict[Rows, list[list[int]]] = {}
    for parent, gens in parents.items():
        for mask in _orbit_representatives(_min_degree_masks(parent, by_count, *window), gens):
            rows = [*parent, mask]
            rest = mask
            while rest:
                low = rest & -rest
                rows[low.bit_length() - 1] |= bit
                rest ^= low
            if (last and not _keep(spec, rows)) or not _most_walks(rows):
                continue
            if last:
                classes[canonical_rows(tuple(rows), size)] = []
            else:
                child, child_gens = _canonical_automorphisms(tuple(rows), size)
                classes[child] = child_gens
    return classes


def _grow(spec: EnumerationSpec, sizes: set[int]) -> dict[int, list[str]]:
    """Sorted codes of ``spec`` with ``n`` set to each of ``sizes <= spec.n``, one growth."""
    unicyclic = spec.population == "unicyclic"
    classes: dict[Rows, list[list[int]]] = {} if unicyclic else {(0,): []}
    out: dict[int, list[str]] = {}
    for size in range(3 if unicyclic else 1, spec.n + 1):
        if size > 1:
            classes = _children(classes, size, spec, size == spec.n)
        if unicyclic and (size < spec.n or _keep(spec, _cycle(size))):
            classes[canonical_rows(tuple(_cycle(size)), size)] = []
        if size in sizes:
            out[size] = sorted(
                to_graph6(Graph(size, rows)) for rows in classes if _keep(spec, rows)
            )
    return out


def enumerate_range(
    specs: Sequence[EnumerationSpec], workers: int = 1, cache_dir: Optional[str] = None
) -> list[list[str]]:
    """Sorted canonical codes per spec; specs that differ only in ``n`` share one growth.

    ``workers`` must be positive and has no other effect: the growth runs in
    this process.  With ``cache_dir``, each spec has its own file there.  A file that passes
    :func:`_read_cache` is read, one that fails is logged, and only the specs
    without a good file are grown and written.  The file name holds the
    package version, so files of another version are never read.
    """
    specs = list(specs)
    for spec in specs:
        spec.validate()  # reject out-of-cap requests before any work
    if workers < 1:
        raise InputError("workers must be positive")
    found: dict[EnumerationSpec, list[str]] = {}
    families: dict[EnumerationSpec, set[int]] = {}
    for spec in specs:
        codes = None
        offset = _M_MINUS_N.get(spec.population)
        if spec.m is not None and offset is not None and spec.m != spec.n + offset:
            codes = []  # no tree or unicyclic graph has this m: nothing to grow
        elif cache_dir and os.path.exists(path := _cache_path(spec, cache_dir)):
            codes = _read_cache(path, spec)
            if codes is None:
                import logging  # here alone: it loads traceback, tokenize and more

                logging.getLogger(__name__).warning(
                    "cache file %s fails its checks; recomputing", path
                )
        if codes is None:
            families.setdefault(spec._replace(n=0), set()).add(spec.n)
        else:
            found[spec] = codes
    for family, sizes in families.items():
        for n, codes in _grow(family._replace(n=max(sizes)), sizes).items():
            spec = family._replace(n=n)
            found[spec] = codes
            if cache_dir:
                _write_cache(spec, cache_dir, codes)
    return [found[spec] for spec in specs]


def range_specs(
    population: str, max_n: int, connected_only: bool = False
) -> list[EnumerationSpec]:
    """One spec per order from the population's smallest to ``max_n``; none is an error."""
    name, low, _ = _N_RANGE[population]
    if max_n < low:
        raise InputError(
            f"{name} enumeration up to n={max_n} is empty: the smallest order is {low}"
        )
    return [
        EnumerationSpec(n=k, connected_only=connected_only, population=population)
        for k in range(low, max_n + 1)
    ]


# --- optional on-disk cache -------------------------------------------------

def _cache_path(spec: EnumerationSpec, cache_dir: str) -> str:
    from . import __version__

    return os.path.join(cache_dir, f"{spec.key()}-v{__version__}.g6")


def _cache_header(spec: EnumerationSpec, count: int, body: bytes) -> bytes:
    """``#<spec key> <code count> <crc32 of the body>``, a cache file's first line."""
    return f"#{spec.key()} {count} {binascii.crc32(body)}\n".encode("ascii")


def _read_cache(path: str, spec: EnumerationSpec) -> Optional[list[str]]:
    """The codes in ``path``, or None unless it is a whole sorted list of ``spec``'s codes.

    The header must name ``spec``, the number of codes and the CRC-32 of the
    rest of the file, so a file cut at a line boundary, a file of another
    spec and a file without a header are all refused.  Each code is checked
    in O(1): the size byte, the length and strict increase, no parsing.
    Where the OEIS class count is known, the number of codes must equal it.
    """
    n = spec.n
    size, width = chr(n + 63), 1 + _body_length(n)
    with open(path, "rb") as fh:
        header, body = fh.readline(), fh.read()
    try:
        codes = body.decode("ascii").split()
    except UnicodeDecodeError:
        return None
    if header != _cache_header(spec, len(codes), body):
        return None
    for prev, code in zip([""] + codes, codes):
        if len(code) != width or code[0] != size or code <= prev:
            return None
    if spec.m is not None or spec.irregular_only:
        return codes
    key = "connected" if spec.population == "all" and spec.connected_only else spec.population
    return codes if len(codes) == _CLASS_COUNTS[key][n - 1] else None


def _write_cache(spec: EnumerationSpec, cache_dir: str, codes: list[str]) -> None:
    body = "".join(code + "\n" for code in codes).encode("ascii")
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(spec, cache_dir)
    # a private temporary name per writer, so concurrent writers cannot clash;
    # created with mode 0o666, which the kernel narrows by the umask
    tmp = f"{path}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(_cache_header(spec, len(codes), body) + body)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def enumerate_codes_cached(
    spec: EnumerationSpec, workers: int = 1, cache_dir: Optional[str] = None
) -> list[str]:
    """The sorted codes of one spec, through :func:`enumerate_range`."""
    return enumerate_range([spec], workers, cache_dir)[0]

