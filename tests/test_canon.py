"""Canonical-form correctness against brute force, networkx and the earlier searches and refinement."""

import random
from itertools import permutations

import networkx as nx
import pytest
from hypothesis import given, settings

from graphirr import enumeration
from graphirr.canon import (
    CANONICAL_CAP,
    _canonical_automorphisms,
    _positions,
    _search_orders,
    _stable_cells,
    canonical_code,
    canonical_rows,
    relabel_rows,
)
from graphirr.enumeration import (
    EnumerationSpec,
    _cycle,
    _min_degree_masks,
    _orbit_representatives,
    enumerate_range,
    range_specs,
)
from graphirr.errors import CapabilityError
from graphirr.families import (
    complete,
    complete_multipartite,
    complete_split,
    cycle,
    named,
    path,
    star,
)
from graphirr.graph import Graph, from_edge_list
from graphirr.io import parse_graph6

from conftest import graphs, permutations_of, permute, record_canonicalisations


def brute_min_code(g: Graph) -> tuple[int, ...]:
    """Reference invariant: minimum adjacency string over all vertex orders."""
    best = None
    for perm in permutations(range(g.n)):
        bits = tuple(
            g.rows[perm[i]] >> perm[j] & 1
            for i in range(g.n)
            for j in range(i + 1, g.n)
        )
        if best is None or bits < best:
            best = bits
    return best


def reference_search_order(rows, n, colors):
    """The recursive branch-and-bound search this module once used, kept verbatim."""
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


def stable_colors(rows, n):
    """Each vertex's stable colour: the index of its cell in ``_stable_cells``."""
    nbrs = [tuple(u for u in range(n) if rows[v] >> u & 1) for v in range(n)]
    cells = _stable_cells(rows, n, nbrs)
    return [c for _, c in sorted((v, c) for c, cell in enumerate(cells) for v in cell)]


def reference_rows(rows, n):
    return relabel_rows(rows, reference_search_order(rows, n, stable_colors(rows, n)))


def roundwise_stable_colors(rows, n):
    """The round-by-round refinement this module used before the cell-wise one, kept verbatim."""
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


def prefix_scan_search_orders(rows, n, twins):
    """The one-pass search as it was before cell-wise scoring, kept verbatim."""
    colors = roundwise_stable_colors(rows, n)
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


def random_rows(rng: random.Random, n: int, p: float) -> tuple[int, ...]:
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return tuple(rows)


def to_nx(g: Graph) -> nx.Graph:
    h = nx.empty_graph(g.n)
    h.add_edges_from(g.edges())
    return h


class TestAgainstOracles:
    @settings(max_examples=150, deadline=None)
    @given(graphs(max_n=5), graphs(max_n=5))
    def test_matches_brute_force_partition(self, g1, g2):
        if g1.n != g2.n:
            return
        same_brute = brute_min_code(g1) == brute_min_code(g2)
        same_code = canonical_code(g1) == canonical_code(g2)
        assert same_brute == same_code

    @settings(max_examples=150, deadline=None)
    @given(graphs(max_n=6), graphs(max_n=6))
    def test_matches_networkx_isomorphism(self, g1, g2):
        same_code = canonical_code(g1) == canonical_code(g2)
        iso = g1.n == g2.n and nx.is_isomorphic(to_nx(g1), to_nx(g2))
        assert same_code == iso

    @settings(max_examples=200, deadline=None)
    @given(graphs(max_n=7), permutations_of(7))
    def test_invariant_under_relabelling(self, g, perm):
        assert canonical_code(g) == canonical_code(permute(g, perm[: g.n]))


class TestAgainstReferenceSearch:
    """The one-pass search gives the recursive search's rows on every input."""

    @staticmethod
    def assert_same_rows(g: Graph, relabellings: int, rng: random.Random):
        for _ in range(relabellings):
            order = list(range(g.n))
            rng.shuffle(order)
            rows = permute(g, order).rows
            assert canonical_rows(rows, g.n) == reference_rows(rows, g.n), g.edges()

    @pytest.mark.parametrize(
        "population, max_n", [("all", 7), ("trees", 12), ("unicyclic", 10)]
    )
    def test_every_class(self, population, max_n):
        rng = random.Random(max_n)
        for codes in enumerate_range(range_specs(population, max_n)):
            for code in codes:
                self.assert_same_rows(parse_graph6(code), 3, rng)

    @pytest.mark.parametrize(
        "h",
        [
            nx.petersen_graph(),
            nx.icosahedral_graph(),
            nx.Graph((i, 6 + j) for i in range(6) for j in range(6) if i != j),
            nx.disjoint_union_all([nx.complete_graph(2)] * 6),
            nx.disjoint_union_all([nx.cycle_graph(6)] * 2),
            nx.disjoint_union_all([nx.cycle_graph(4)] * 3),
            nx.disjoint_union_all([nx.complete_graph(3)] * 4),
            nx.cartesian_product(nx.complete_graph(3), nx.complete_graph(4)),
            nx.LCF_graph(12, [5, -5], 6),
            nx.frucht_graph(),
            nx.truncated_tetrahedron_graph(),
            nx.cycle_graph(12),
            nx.complete_graph(12),
            nx.empty_graph(12),
        ],
        ids=[
            "petersen", "icosahedron", "crown", "6K2", "2C6", "3C4", "4K3",
            "K3xK4", "franklin", "frucht", "truncated_tetrahedron", "C12",
            "K12", "empty12",
        ],
    )
    def test_symmetric_graphs(self, h):
        h = nx.convert_node_labels_to_integers(h)
        g = from_edge_list(h.number_of_nodes(), list(h.edges()))
        self.assert_same_rows(g, 5, random.Random(g.n))


class TestAgainstRoundwiseRefinement:
    """Cell-wise refinement and scoring by placed neighbours change nothing the search returns."""

    @staticmethod
    def assert_same_search(rows, n):
        twins, oracle_twins = [], []
        orders = _search_orders(rows, n, twins)
        oracle = prefix_scan_search_orders(rows, n, oracle_twins)
        assert stable_colors(rows, n) == roundwise_stable_colors(rows, n), rows
        assert orders == oracle, rows
        assert set(twins) == set(oracle_twins), rows
        assert canonical_rows(rows, n) == relabel_rows(rows, oracle[0]), rows

    @pytest.mark.parametrize(
        "specs",
        [
            range_specs("trees", 12),
            range_specs("unicyclic", 10),
            range_specs("all", 7),
            [EnumerationSpec(n=7, m=11, connected_only=True)],
        ],
        ids=["trees-12", "unicyclic-10", "all-7", "slice-7-11"],
    )
    def test_every_growth_input(self, monkeypatch, specs):
        inputs = record_canonicalisations(monkeypatch)
        enumerate_range(specs)
        for rows, n in inputs:
            self.assert_same_search(rows, n)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_random_graphs(self, p):
        rng = random.Random(int(p * 10))
        for n in range(1, 13):
            for _ in range(20):
                self.assert_same_search(random_rows(rng, n, p), n)


def all_pairs_automorphisms(rows, n):
    """The generators as the search first reported them: a swap for every distinct twin pair met."""
    twins = []
    first, *others = _search_orders(rows, n, twins)
    gens = [[at[v] for v in first] for at in map(_positions, others)]
    pos = _positions(first)
    for u, v in set(twins):
        swap = list(range(n))
        swap[pos[u]], swap[pos[v]] = pos[v], pos[u]
        gens.append(swap)
    return relabel_rows(rows, first), gens


def moved_rows(rows, perm):
    """``rows`` with vertex i renamed perm[i]; equal to ``rows`` exactly when perm is an automorphism."""
    return relabel_rows(rows, sorted(range(len(perm)), key=perm.__getitem__))


def orbits(n, perms):
    """The vertex orbits of the group the permutations ``perms`` of range(n) generate."""
    parent = list(range(n))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for perm in perms:
        for v in range(n):
            parent[root(v)] = root(perm[v])
    return sorted(sorted(v for v in range(n) if root(v) == r) for r in set(map(root, range(n))))


class TestAutomorphisms:
    """The generators the canonical search reports with each canonical form."""

    @staticmethod
    def generators(code: str, rng: random.Random) -> tuple[tuple[int, ...], list[list[int]]]:
        """The canonical rows of ``code`` and the generators found from a random relabelling."""
        g = parse_graph6(code)
        order = list(range(g.n))
        rng.shuffle(order)
        rows, gens = _canonical_automorphisms(permute(g, order).rows, g.n)
        assert rows == g.rows
        return rows, gens

    def test_every_generator_is_an_automorphism(self, connected_codes_8):
        rng = random.Random(8)
        lists = enumerate_range(range_specs("all", 7))
        for code in [c for codes in lists for c in codes] + connected_codes_8:
            rows, gens = self.generators(code, rng)
            for perm in gens:
                assert sorted(perm) == list(range(len(rows)))
                assert moved_rows(rows, perm) == rows, (code, perm)

    @pytest.mark.parametrize(
        "specs",
        [
            range_specs("trees", 12),
            range_specs("unicyclic", 10),
            range_specs("all", 7),
            [EnumerationSpec(n=7, m=11, connected_only=True)],
        ],
        ids=["trees-12", "unicyclic-10", "all-7", "slice-7-11"],
    )
    def test_same_mask_orbits_as_all_twin_pairs(self, monkeypatch, specs):
        """One swap per twin set aside gives each parent the orbits that every twin pair gives."""
        inputs = record_canonicalisations(monkeypatch)
        enumerate_range(specs)
        by_count = {}
        for rows, n in inputs:
            parent, gens = _canonical_automorphisms(rows, n)
            reference_parent, reference = all_pairs_automorphisms(rows, n)
            assert parent == reference_parent
            if n not in by_count:
                every = range(1 << n)
                by_count[n] = [[m for m in every if m.bit_count() == c] for c in range(n + 1)]
            masks = list(_min_degree_masks(parent, by_count[n], 0, n * (n + 1) // 2))
            assert list(_orbit_representatives(masks, gens)) == list(
                _orbit_representatives(masks, reference)
            ), rows

    @pytest.mark.parametrize(
        "g, swaps, pairs", [(star(12), 10, 55), (complete(8), 7, 28)], ids=["star12", "K8"]
    )
    def test_a_twin_class_of_k_spans_with_k_minus_1_swaps(self, g, swaps, pairs):
        _, gens = _canonical_automorphisms(g.rows, g.n)
        _, reference = all_pairs_automorphisms(g.rows, g.n)
        assert (len(gens), len(reference)) == (swaps, pairs)
        assert all(sum(p != i for i, p in enumerate(perm)) == 2 for perm in gens)
        assert orbits(g.n, gens) == orbits(g.n, reference)

    def test_cycle_seeds_carry_generators(self, monkeypatch):
        """Every C_k below the last size goes through the search that reports generators."""
        seeds = []
        real = enumeration._canonical_automorphisms

        def recording(rows, n):
            out = real(rows, n)
            if rows == tuple(_cycle(n)):
                seeds.append(out)
            return out

        monkeypatch.setattr(enumeration, "_canonical_automorphisms", recording)
        enumerate_range(range_specs("unicyclic", 10))
        assert [len(rows) for rows, _ in seeds] == list(range(3, 10))
        for rows, gens in seeds:
            assert orbits(len(rows), gens) == [list(range(len(rows)))]
            assert all(moved_rows(rows, perm) == rows for perm in gens)

    def test_orbits_equal_brute_force(self):
        rng = random.Random(6)
        for codes in enumerate_range(range_specs("all", 6)):
            for code in codes:
                rows, gens = self.generators(code, rng)
                n = len(rows)
                group = [p for p in permutations(range(n)) if moved_rows(rows, p) == rows]
                assert orbits(n, gens) == orbits(n, group), code


class TestSpecificPairs:
    def test_path_relabelling(self):
        p4 = path(4)
        relabeled = from_edge_list(4, [(3, 1), (1, 2), (2, 0)])
        assert canonical_code(p4) == canonical_code(relabeled)

    def test_path_vs_star(self):
        assert canonical_code(path(4)) != canonical_code(star(4))

    def test_equal_zagreb_distinct_classes(self):
        # complements of K_3+3K_1 and of K_{1,3}+2K_1: same n, m and first
        # Zagreb index but different degree sequences, so different codes
        def complement(g):
            return from_edge_list(
                g.n,
                [
                    (u, v)
                    for u in range(g.n)
                    for v in range(u + 1, g.n)
                    if not g.rows[u] >> v & 1
                ],
            )

        comp_a = complement(from_edge_list(6, [(0, 1), (1, 2), (0, 2)]))
        comp_b = complement(from_edge_list(6, [(0, 1), (0, 2), (0, 3)]))
        assert comp_a.m == comp_b.m == 12
        assert sum(d * d for d in comp_a.degrees()) == 102
        assert sum(d * d for d in comp_b.degrees()) == 102
        assert sorted(comp_a.degrees()) != sorted(comp_b.degrees())
        assert canonical_code(comp_a) != canonical_code(comp_b)

    def test_relabel_is_isomorphic(self):
        g = named("grotzsch")
        h = parse_graph6(canonical_code(g))
        assert sorted(g.degrees()) == sorted(h.degrees())
        assert nx.is_isomorphic(to_nx(g), to_nx(h))


class TestSymmetricGraphs:
    """Shapes that historically blow up naive canonical searches."""

    @pytest.mark.parametrize(
        "g",
        [
            star(12),
            complete(10),
            cycle(12),
            complete_multipartite([6, 6]),
            complete_multipartite([4, 4, 4]),
            complete_split(12, 6),
            from_edge_list(12, [(2 * i, 2 * i + 1) for i in range(6)]),
        ],
        ids=["star", "complete", "cycle", "k66", "k444", "split", "matching"],
    )
    def test_fast_and_invariant(self, g):
        code = canonical_code(g)
        rev = list(reversed(range(g.n)))
        assert canonical_code(permute(g, rev)) == code

    def test_cap_enforced(self):
        with pytest.raises(CapabilityError):
            canonical_code(path(CANONICAL_CAP + 1))
