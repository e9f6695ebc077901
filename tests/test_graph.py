import pytest
from hypothesis import given

from graphirr.canon import canonical_code
from graphirr.errors import InputError
from graphirr.families import (
    complete,
    complete_multipartite,
    complete_split,
    cycle,
    named,
    path,
    star,
    wheel,
)
from graphirr.graph import (
    classify,
    cyclomatic_number,
    degree_stats,
    from_edge_list,
    is_connected,
)
from graphirr.io import to_graph6

from conftest import graphs, permutations_of, permute


class TestConstruction:
    def test_path_degrees(self):
        g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
        assert g.degrees() == (1, 2, 2, 1)
        assert g.m == 3

    def test_star_degrees(self):
        g = from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
        assert sorted(g.degrees()) == [1, 1, 1, 3]

    def test_diamond_degrees(self):
        g = from_edge_list(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        assert sorted(g.degrees(), reverse=True) == [3, 3, 2, 2]

    def test_duplicates_collapse(self):
        g = from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    def test_self_loop_rejected(self):
        with pytest.raises(InputError):
            from_edge_list(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            from_edge_list(3, [(0, 3)])

    def test_nonpositive_n_rejected(self):
        with pytest.raises(InputError):
            from_edge_list(0, [])

    @given(graphs(max_n=6))
    def test_degree_sum_is_two_m(self, g):
        assert sum(g.degrees()) == 2 * g.m


class TestDegreeStats:
    def test_tripartite_2_3_5(self):
        st = degree_stats(complete_multipartite([2, 3, 5]))
        assert sorted(st.degrees, reverse=True) == [8, 8, 7, 7, 7, 5, 5, 5, 5, 5]
        assert st.edge_count == 31
        assert st.histogram == {8: 2, 7: 3, 5: 5}

    def test_cycle_regular(self):
        st = degree_stats(cycle(5))
        assert st.max_degree == st.min_degree == 2
        assert st.average_degree == 2

    def test_grotzsch(self):
        st = degree_stats(named("grotzsch"))
        assert st.histogram == {5: 1, 4: 5, 3: 5}
        assert st.edge_count == 20

    def test_universal_count(self):
        assert degree_stats(star(5)).universal_count == 1
        assert degree_stats(complete(4)).universal_count == 4
        assert degree_stats(path(4)).universal_count == 0

    @given(graphs(max_n=7))
    def test_histogram_consistency(self, g):
        st = degree_stats(g)
        assert sum(st.histogram.values()) == g.n
        assert sum(d * c for d, c in st.histogram.items()) == 2 * st.edge_count
        assert st.min_degree <= st.average_degree <= st.max_degree


class TestConnectivity:
    def test_path_connected(self):
        assert is_connected(path(4))

    def test_two_disjoint_edges(self):
        assert not is_connected(from_edge_list(4, [(0, 1), (2, 3)]))

    def test_split_graph_connected(self):
        assert is_connected(complete_split(7, 2))

    def test_single_vertex(self):
        assert is_connected(from_edge_list(1, []))

    @given(graphs(max_n=6), permutations_of(6))
    def test_invariant_under_relabelling(self, g, perm):
        assert is_connected(g) == is_connected(permute(g, perm[: g.n]))


class TestCyclomatic:
    def test_tree_zero(self):
        assert cyclomatic_number(path(6)) == 0
        assert cyclomatic_number(star(7)) == 0

    def test_cycle_one(self):
        assert cyclomatic_number(cycle(6)) == 1

    def test_wheel5(self):
        assert cyclomatic_number(wheel(5)) == 4

    def test_disconnected_rejected(self):
        with pytest.raises(InputError):
            cyclomatic_number(from_edge_list(4, [(0, 1), (2, 3)]))


class TestClassify:
    def test_p4_balanced_bidegreed(self):
        cls = classify(path(4))
        assert cls.is_bidegreed and cls.is_balanced_bidegreed
        assert cls.is_tree and not cls.is_unicyclic

    def test_w6_dominating_unbalanced(self):
        cls = classify(wheel(6))
        assert cls.is_bidegreed and cls.is_dominating
        assert not cls.is_balanced_bidegreed

    def test_k4_regular(self):
        cls = classify(complete(4))
        assert cls.is_regular and not cls.is_bidegreed
        assert cls.degree_class == 1

    def test_k1_k2_regular(self):
        assert classify(from_edge_list(1, [])).is_regular
        assert classify(complete(2)).is_regular

    def test_complete_split_recognition(self):
        for n, k in [(7, 2), (6, 1), (12, 4), (5, 4)]:
            cls = classify(complete_split(n, k))
            assert cls.complete_split_k == k, (n, k)

    def test_complete_is_split(self):
        assert classify(complete(5)).complete_split_k == 4

    def test_non_split(self):
        assert classify(cycle(5)).complete_split_k is None
        assert classify(path(4)).complete_split_k is None

    def test_split_k_from_degrees_exhaustive(self, all_graphs_upto6):
        # all 208 classes on n <= 6, disconnected included
        assert sum(len(pop) for pop in all_graphs_upto6.values()) == 208
        for n, pop in all_graphs_upto6.items():
            split_codes = {
                canonical_code(complete_split(n, k)): k for k in range(1, n)
            }
            for g in pop:
                want = split_codes.get(canonical_code(g))
                assert classify(g).complete_split_k == want, to_graph6(g)

    def test_split_degree_set_invariant(self):
        for n, k in [(6, 2), (8, 3), (9, 1)]:
            g = complete_split(n, k)
            st = degree_stats(g)
            if k < n - 1:
                assert st.degree_set == (k, n - 1)
                assert st.histogram[n - 1] == k

    def test_unicyclic_flag(self):
        g = from_edge_list(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
        cls = classify(g)
        assert cls.is_unicyclic and cls.cyclomatic == 1

    @given(graphs(min_n=2, max_n=6), permutations_of(6))
    def test_classification_is_invariant(self, g, perm):
        a = classify(g)
        b = classify(permute(g, perm[: g.n]))
        assert a == b

    def test_balanced_implies_even_split(self, all_graphs_upto6):
        for pop in all_graphs_upto6.values():
            for g in pop:
                cls = classify(g)
                if cls.is_balanced_bidegreed:
                    st = degree_stats(g)
                    assert g.n % 2 == 0
                    assert st.histogram[st.max_degree] == g.n // 2
                    assert st.histogram[st.min_degree] == g.n // 2


class TestDegreeCountIdentities:
    """Pendant and degree-2 counts follow from the cycle rank."""

    @given(graphs(min_n=2, max_n=7))
    def test_counts_from_cycle_rank(self, g):
        from hypothesis import assume

        assume(is_connected(g))
        st = degree_stats(g)
        c = g.m - g.n + 1
        high2 = sum((d - 2) * cnt for d, cnt in st.histogram.items() if d >= 3)
        high1 = sum((d - 1) * cnt for d, cnt in st.histogram.items() if d >= 3)
        assert st.histogram.get(1, 0) == 2 - 2 * c + high2
        assert st.histogram.get(2, 0) == 2 * c + g.n - 2 - high1
