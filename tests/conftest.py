"""Shared fixtures and hypothesis strategies."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy
import pytest
from hypothesis import strategies as st

from graphirr import enumeration
from graphirr.enumeration import EnumerationSpec, enumerate_range, range_specs
from graphirr.errors import InputError
from graphirr.graph import Graph, degree_stats, from_edge_list, is_connected
from graphirr.io import parse_graph6

ALL_PAIRS = {n: [(i, j) for i in range(n) for j in range(i + 1, n)] for n in range(1, 9)}


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 7) -> Graph:
    n = draw(st.integers(min_n, max_n))
    pairs = ALL_PAIRS[n]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
    return from_edge_list(n, edges)


@st.composite
def connected_graphs(draw, min_n: int = 1, max_n: int = 7) -> Graph:
    from hypothesis import assume

    g = draw(graphs(min_n=min_n, max_n=max_n))
    assume(is_connected(g))
    return g


@st.composite
def permutations_of(draw, n: int) -> list[int]:
    return draw(st.permutations(list(range(n))))


def record_canonicalisations(
    monkeypatch, generators: list | None = None
) -> list[tuple[tuple[int, ...], int]]:
    """A list that collects the (rows, n) of every canonical form the growth computes.

    Those are the calls through ``enumeration.canonical_rows`` and, on the
    sizes below the last, through ``enumeration._canonical_automorphisms``,
    in every population: trees and unicyclic graphs grow by the same rule as
    the whole range.  With a list ``generators``, each call of the second
    kind also appends the generators it returned there.
    """
    seen = []
    for name in ("canonical_rows", "_canonical_automorphisms"):
        real = getattr(enumeration, name)

        def recording(rows, n, real=real, name=name):
            seen.append((rows, n))
            out = real(rows, n)
            if generators is not None and name == "_canonical_automorphisms":
                generators.extend(out[1])
            return out

        monkeypatch.setattr(enumeration, name, recording)
    return seen


def permute(g: Graph, perm: list[int]) -> Graph:
    """Relabel by the ranks of ``perm[:n]``, so any long-enough key list works."""
    keys = perm[: g.n]
    rank = {v: i for i, v in enumerate(sorted(keys))}
    p = [rank[v] for v in keys]
    return from_edge_list(g.n, [(p[u], p[v]) for u, v in g.edges()])


def subdivide_edges(g: Graph, edges) -> Graph:
    """Replace each listed edge uv by u-w-v with a fresh degree-2 vertex w."""
    chosen = []
    for u, v in edges:
        if not g.rows[u] >> v & 1:
            raise InputError(f"edge ({u},{v}) not present")
        chosen.append((min(u, v), max(u, v)))
    if len(set(chosen)) != len(chosen):
        raise InputError("duplicate edges in subdivision list")
    drop = set(chosen)
    out = [(u, v) for u, v in g.edges() if (u, v) not in drop]
    w = g.n
    for u, v in chosen:
        out.extend([(u, w), (w, v)])
        w += 1
    return from_edge_list(g.n + len(chosen), out)


def degree2_inflate(h: Graph, count: int) -> Graph:
    """Insert ``count`` degree-2 vertices one at a time by edge subdivision.

    Each step subdivides the lexicographically smallest edge, which makes the
    result deterministic.
    """
    if count < 0:
        raise InputError("count must be non-negative")
    if not is_connected(h):
        raise InputError("inflation needs a connected graph")
    g = h
    for _ in range(count):
        g = subdivide_edges(g, [min(g.edges())])
    return g


# --- independent oracles -----------------------------------------------------


def s_definitional(g: Graph) -> Fraction:
    """Degree deviation straight from the definition, vertex by vertex.

    Each term |d - 2m/n| is |n*d - 2m|/n, so the integers are summed and
    divided by n once.
    """
    two_m = 2 * g.m
    return Fraction(sum(abs(g.n * d - two_m) for d in g.degrees()), g.n)


def var_definitional(g: Graph) -> Fraction:
    """Degree variance from the definition: the mean of (d - 2m/n)^2 = (n*d - 2m)^2/n^2."""
    two_m = 2 * g.m
    return Fraction(sum((g.n * d - two_m) ** 2 for d in g.degrees()), g.n**3)


def m1_definitional(g: Graph) -> int:
    return sum(d * d for d in g.degrees())


def ird_definitional(g: Graph) -> Fraction:
    st_ = degree_stats(g)
    n_max = st_.histogram[st_.max_degree]
    n_min = st_.histogram[st_.min_degree]
    return Fraction(2 * n_max * n_min, n_max + n_min) * (
        st_.max_degree - st_.min_degree
    )


def spectral_radius_numpy(g: Graph) -> float:
    """Largest adjacency eigenvalue from numpy, a float oracle for tests only."""
    adj = numpy.zeros((g.n, g.n))
    for u, v in g.edges():
        adj[u, v] = adj[v, u] = 1.0
    return float(max(numpy.linalg.eigvalsh(adj)))


# --- session-scoped populations ----------------------------------------------


def _by_n(specs: list[EnumerationSpec]) -> dict[int, list[Graph]]:
    """Each spec's graphs keyed by its n, from one range call."""
    lists = enumerate_range(specs)
    return {s.n: [parse_graph6(c) for c in codes] for s, codes in zip(specs, lists)}


@pytest.fixture(scope="session")
def all_graphs_upto6() -> dict[int, list[Graph]]:
    """Every isomorphism class on 1..6 vertices, disconnected included."""
    return _by_n(range_specs("all", 6))


@pytest.fixture(scope="session")
def connected_upto6(all_graphs_upto6) -> dict[int, list[Graph]]:
    return {
        n: [g for g in pop if is_connected(g)]
        for n, pop in all_graphs_upto6.items()
    }


@pytest.fixture(scope="session")
def connected_7() -> list[Graph]:
    """All 853 connected classes on 7 vertices, built once per test run."""
    (codes,) = enumerate_range([EnumerationSpec(n=7, connected_only=True)])
    return [parse_graph6(c) for c in codes]


@pytest.fixture(scope="session")
def all_codes_8() -> list[str]:
    """Codes of the whole n=8 population (12 346 classes), built once per test run."""
    (codes,) = enumerate_range([EnumerationSpec(n=8)])
    return codes


@pytest.fixture(scope="session")
def connected_codes_8(all_codes_8) -> list[str]:
    return [c for c in all_codes_8 if is_connected(parse_graph6(c))]


@pytest.fixture(scope="session")
def trees_upto10() -> dict[int, list[Graph]]:
    return _by_n(range_specs("trees", 10))


@pytest.fixture(scope="session")
def unicyclic_upto9() -> dict[int, list[Graph]]:
    return _by_n(range_specs("unicyclic", 9))


@pytest.fixture(scope="session")
def oracle_codes() -> list[str]:
    """Codes of whole n <= 7, trees n <= 12 and unicyclic graphs n <= 10."""
    specs = range_specs("all", 7) + range_specs("trees", 12) + range_specs("unicyclic", 10)
    return [code for codes in enumerate_range(specs) for code in codes]


def seeded_random_graphs() -> list[Graph]:
    """Random graphs on 60 to 70 vertices, both graph6 size forms, sparse to dense.

    A code has the one-byte size form up to n = 62 and the four-byte one from
    n = 63; edge probabilities 0.03 to 0.9 put codes on both sides of the
    reader's switch to column blocks at 8n edges.
    """
    rng = random.Random(20240)
    out = []
    for n in (60, 61, 62, 63, 64, 66, 70):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for p in (0.03, 0.1, 0.3, 0.9):
            out.append(from_edge_list(n, [e for e in pairs if rng.random() < p]))
    return out
