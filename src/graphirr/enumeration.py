"""Exhaustive generation of small-graph populations up to isomorphism.

Every population grows one vertex at a time: a child is a representative on
``size - 1`` vertices plus a new vertex joined to a neighbourhood mask, kept
once per canonical form (graph6 codes are written for the output only).  The
whole range grows from K1 by every mask, trees from K1 by single-vertex masks,
and unicyclic graphs from C3 by single-vertex masks with the cycle C_size added
at each size.  This reaches every class because deleting any vertex of a
graph, or a leaf of a tree or of a unicyclic graph other than a cycle, leaves
one of the smaller size.

A whole-range child is built only when its new vertex has minimum degree in
it: deleting a minimum-degree vertex of any graph leaves a graph of the size
below, so every class still has such a child (the degree part of McKay's
canonical-deletion test, B. D. McKay, J. Algorithms 26 (1998) 306-324).  With
a fixed ``m`` the sizes below ``n`` also keep only the edge counts that can
still reach m that way (:func:`_edge_window`).  Duplicates that remain are
removed by canonical code.  A tree or unicyclic child is first checked
against the :func:`~graphirr.canon.leaf_certificate` of the children already
seen at its size, which tells their classes apart in linear time, so only the
first child of each class is canonicalised.

Specs that differ only in ``n`` form a family, served by one growth up to its
largest ``n``: a smaller size keeps every representative and filters it by its
spec after canonicalisation, the last size before.  Output is sorted by
canonical code, so it is identical for any worker count.
"""

from __future__ import annotations

import marshal
import os
import tempfile
from typing import Iterator, NamedTuple, Optional, Sequence

from .canon import Rows, canonical_rows, leaf_certificate
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

    With ``spec.m`` fixed, a graph on k vertices with e edges loses at most
    floor(2e/k) edges with a vertex of minimum degree, and e - floor(2e/k)
    never falls as e grows, so the window's floor is m stepped down that way
    from ``spec.n`` to ``size``.  The window always holds m itself.
    """
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


def _children(
    parents: list[Rows], size: int, spec: EnumerationSpec, last: bool
) -> set[Rows]:
    """Canonical children on ``size`` vertices of the representatives ``parents``.

    A whole-range child is built only when its new vertex has minimum degree
    and its edge count lies in :func:`_edge_window`; on the last size only the
    children that ``spec`` keeps are canonicalised.
    """
    sparse = spec.population != "all"
    bit = 1 << (size - 1)
    if sparse:
        leaves = [1 << v for v in range(size - 1)]
    else:
        by_count: list[list[int]] = [[] for _ in range(size)]
        for mask in range(bit):
            by_count[mask.bit_count()].append(mask)
        window = _edge_window(spec, size)
    classes: set[Rows] = set()
    labels: dict[Rows, int] = {}
    seen: set[Rows] = set()
    for parent in parents:
        masks = leaves if sparse else _min_degree_masks(parent, by_count, *window)
        for mask in masks:
            rows = [*parent, mask]
            rest = mask
            while rest:
                low = rest & -rest
                rows[low.bit_length() - 1] |= bit
                rest ^= low
            if last and not _keep(spec, rows):
                continue
            if sparse:
                cert = leaf_certificate(rows, labels)
                if cert in seen:
                    continue
                seen.add(cert)
            classes.add(canonical_rows(tuple(rows), size))
    return classes


def _usable_cpus() -> int:
    """The CPUs this process may run on; more worker processes than that gain nothing."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _last_size(reps: list[Rows], spec: EnumerationSpec, workers: int) -> set[Rows]:
    """The children of ``reps`` on ``spec.n`` vertices, split over ``workers`` processes.

    The parent forks one child per share but the first, which it computes
    itself; each child sends its classes back through a pipe in marshal form.
    Classes are canonical rows, so the merged set does not depend on the
    split.  Without ``os.fork`` the whole level runs in this process.
    """
    workers = min(workers, len(reps), _usable_cpus())
    if workers <= 1 or not hasattr(os, "fork"):
        return _children(reps, spec.n, spec, True)
    import signal  # only here: importing it costs every command start-up about 1 ms

    reads: list[int] = []
    pids: list[int] = []
    try:
        for share in range(1, workers):
            read, write = os.pipe()
            reads.append(read)
            # SIGINT stays blocked in the child, so it cannot unwind into the
            # caller's code, and in the parent until the child is on record
            blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                pid = os.fork()
                if pid == 0:
                    _run_share(write, reads, reps[share::workers], spec)
                pids.append(pid)
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
                os.close(write)
        classes = _children(reps[::workers], spec.n, spec, True)
        # read every pipe to its end before waiting, so no child blocks on a full pipe
        parts = []
        for read in reads:
            with open(read, "rb", closefd=False) as pipe:
                parts.append(pipe.read())
        while pids:
            _, status = os.waitpid(pids[0], 0)
            pid = pids.pop(0)
            if status:
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(f"enumeration worker {pid} failed with status {code}")
        for part in parts:
            classes |= marshal.loads(part)
        return classes
    finally:
        for read in reads:
            os.close(read)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_share(write: int, reads: list[int], share: list[Rows], spec: EnumerationSpec) -> None:
    """In a forked child: send the classes of ``share`` down ``write`` and exit.

    The child leaves through ``os._exit`` whatever happens, so it never flushes
    the parent's buffered output or runs its exit handlers; its status is 0
    only once the whole answer is written.
    """
    status = 1
    try:
        for read in reads:
            os.close(read)
        with open(write, "wb", closefd=False) as pipe:
            pipe.write(marshal.dumps(_children(share, spec.n, spec, True)))
        status = 0
    finally:
        os._exit(status)


def _grow(spec: EnumerationSpec, sizes: set[int], workers: int) -> dict[int, list[str]]:
    """Sorted codes of ``spec`` with ``n`` set to each of ``sizes <= spec.n``, one growth."""
    unicyclic = spec.population == "unicyclic"
    classes: set[Rows] = set() if unicyclic else {(0,)}
    out: dict[int, list[str]] = {}
    for size in range(3 if unicyclic else 1, spec.n + 1):
        if size > 1:
            reps = list(classes)
            if size == spec.n:
                classes = _last_size(reps, spec, workers)
            else:
                classes = _children(reps, size, spec, False)
        if unicyclic and (size < spec.n or _keep(spec, _cycle(size))):
            classes.add(canonical_rows(tuple(_cycle(size)), size))
        if size in sizes:
            out[size] = sorted(
                to_graph6(Graph(size, rows)) for rows in classes if _keep(spec, rows)
            )
    return out


def enumerate_range(
    specs: Sequence[EnumerationSpec], workers: int = 1, cache_dir: Optional[str] = None
) -> list[list[str]]:
    """Sorted canonical codes per spec; specs that differ only in ``n`` share one growth.

    With ``cache_dir``, each spec has its own file there.  A file that passes
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
        for n, codes in _grow(family._replace(n=max(sizes)), sizes, workers).items():
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


def _read_cache(path: str, spec: EnumerationSpec) -> Optional[list[str]]:
    """The codes in ``path``, or None unless it is a sorted list of ``spec``'s codes.

    O(1) per line: the size byte, the length and strict increase, no parsing.
    Where the OEIS class count is known, the number of lines must equal it.
    """
    n = spec.n
    size, width = chr(n + 63), 1 + _body_length(n)
    try:
        with open(path, "r", encoding="ascii") as fh:
            codes = fh.read().split()
    except UnicodeDecodeError:
        return None
    for prev, code in zip([""] + codes, codes):
        if len(code) != width or code[0] != size or code <= prev:
            return None
    if spec.m is not None or spec.irregular_only:
        return codes
    key = "connected" if spec.population == "all" and spec.connected_only else spec.population
    return codes if len(codes) == _CLASS_COUNTS[key][n - 1] else None


def _write_cache(spec: EnumerationSpec, cache_dir: str, codes: list[str]) -> None:
    os.makedirs(cache_dir, exist_ok=True)
    # a private temporary name per writer, so concurrent writers cannot clash
    fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=cache_dir)
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write("\n".join(codes) + ("\n" if codes else ""))
        os.chmod(tmp, 0o666 & ~_umask())  # the mode open() would have given
        os.replace(tmp, _cache_path(spec, cache_dir))
    except BaseException:
        os.unlink(tmp)
        raise


def enumerate_codes_cached(
    spec: EnumerationSpec, workers: int = 1, cache_dir: Optional[str] = None
) -> list[str]:
    """The sorted codes of one spec, through :func:`enumerate_range`."""
    return enumerate_range([spec], workers, cache_dir)[0]


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask
