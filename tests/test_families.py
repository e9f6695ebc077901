from fractions import Fraction as F

import pytest

from graphirr.canon import canonical_code
from graphirr.errors import InputError
from graphirr.families import (
    complete,
    complete_multipartite,
    complete_split,
    cycle,
    named,
    path,
    recognize,
    star,
    wheel,
)
from graphirr.graph import classify, degree_stats, from_edge_list, is_connected
from graphirr.measures import measure_set

from conftest import degree2_inflate, permute, subdivide_edges


class TestBasicFamilies:
    def test_path(self):
        assert path(4).degrees() == (1, 2, 2, 1)
        assert path(1).m == 0

    def test_star_deviation(self):
        assert measure_set(star(4)).s == 3

    def test_cycle_regular(self):
        st = degree_stats(cycle(5))
        assert st.degree_set == (2,)

    def test_complete(self):
        assert complete(5).m == 10

    def test_minimums_rejected(self):
        with pytest.raises(InputError):
            cycle(2)
        with pytest.raises(InputError):
            path(0)
        with pytest.raises(InputError):
            wheel(4)


class TestWheel:
    def test_w5(self):
        g = wheel(5)
        assert sorted(g.degrees(), reverse=True) == [4, 3, 3, 3, 3]
        assert measure_set(g).s == F(8, 5)

    def test_w8_var(self):
        assert measure_set(wheel(8)).var == F(7, 4)

    def test_w6_classification(self):
        cls = classify(wheel(6))
        assert cls.is_bidegreed and cls.is_dominating

    def test_gap(self):
        for n in (5, 6, 9):
            st = degree_stats(wheel(n))
            assert st.max_degree - st.min_degree == n - 4


class TestCompleteSplit:
    def test_edge_count_formula(self):
        for n in range(2, 101):
            for k in range(1, n):
                g = complete_split(n, k)
                assert g.m == ((2 * n - 1) * k - k * k) // 2, (n, k)

    def test_7_2(self):
        g = complete_split(7, 2)
        ms = measure_set(g)
        assert g.m == 11 and ms.m1 == 92
        assert ms.s == F(80, 7) and ms.var == F(160, 49)

    def test_12_3_and_12_4(self):
        ms3 = measure_set(complete_split(12, 3))
        ms4 = measure_set(complete_split(12, 4))
        assert ms3.s == 36 and ms3.var == 12
        assert ms4.s == F(112, 3) and ms4.var == F(98, 9)

    def test_degenerate_complete(self):
        g = complete_split(6, 5)
        assert canonical_code(g) == canonical_code(complete(6))
        assert measure_set(g).s == 0

    def test_out_of_range(self):
        with pytest.raises(InputError):
            complete_split(5, 0)
        with pytest.raises(InputError):
            complete_split(5, 5)


class TestMultipartite:
    def test_2_3_5_degree_sequence(self):
        g = complete_multipartite([2, 3, 5])
        assert sorted(g.degrees(), reverse=True) == [8, 8, 7, 7, 7, 5, 5, 5, 5, 5]

    def test_star_special_case(self):
        assert canonical_code(complete_multipartite([1, 5])) == canonical_code(star(6))

    def test_octahedron(self):
        g = complete_multipartite([2, 2, 2])
        st = degree_stats(g)
        assert st.degree_set == (4,) and g.m == 12

    def test_one_part_rejected(self):
        with pytest.raises(InputError):
            complete_multipartite([4])


class TestNamed:
    def test_diamond(self):
        assert sorted(named("diamond").degrees(), reverse=True) == [3, 3, 2, 2]

    def test_prism_cubic(self):
        g = named("trigonal_prism")
        assert degree_stats(g).degree_set == (3,) and g.n == 6

    def test_grotzsch_triangle_free(self):
        g = named("grotzsch")
        assert g.n == 11 and g.m == 20
        for u, v in g.edges():
            assert not g.rows[u] & g.rows[v], "triangle found"

    def test_unknown_name(self):
        with pytest.raises(InputError):
            named("petersen")


class TestSubdivision:
    def test_triangle_becomes_square(self):
        g = subdivide_edges(cycle(3), [(0, 1)])
        assert canonical_code(g) == canonical_code(cycle(4))

    def test_empty_subset_identity(self):
        g = named("trigonal_prism")
        assert subdivide_edges(g, []) == g

    def test_prism_six_edges_balanced(self):
        prism = named("trigonal_prism")
        g = subdivide_edges(prism, prism.edges()[:6])
        assert g.n == 12 and g.m == 15
        st = degree_stats(g)
        assert st.histogram == {3: 6, 2: 6}
        assert classify(g).is_balanced_bidegreed

    def test_grows_n_and_m(self):
        g = cycle(5)
        h = subdivide_edges(g, g.edges()[:3])
        assert h.n == g.n + 3 and h.m == g.m + 3
        assert is_connected(h)

    def test_missing_edge_rejected(self):
        with pytest.raises(InputError):
            subdivide_edges(path(4), [(0, 3)])


class TestInflate:
    def test_negative_rejected(self):
        with pytest.raises(InputError):
            degree2_inflate(path(3), -1)

    def test_disconnected_rejected(self):
        with pytest.raises(InputError):
            degree2_inflate(from_edge_list(4, [(0, 1), (2, 3)]), 1)


class TestRecognize:
    def test_names(self):
        assert recognize(path(6)) == "P_6"
        assert recognize(cycle(7)) == "C_7"
        assert recognize(complete(5)) == "K_5"
        assert recognize(star(8)) == "K_{1,7}"
        assert recognize(complete_split(7, 2)) == "CS(7,2)"
        assert recognize(wheel(6)) == "W_6"
        assert recognize(named("diamond")) == "CS(4,2)"  # K_4 minus an edge
        assert recognize(named("grotzsch")) is None

    def test_wheels(self):
        for n in range(5, 10):
            assert recognize(wheel(n)) == f"W_{n}"
            # the hub in the middle of the labels, not at vertex 0
            rotated = [(v + n // 2) % n for v in range(n)]
            assert recognize(permute(wheel(n), rotated)) == f"W_{n}"

    def test_hub_on_two_triangles_is_not_a_wheel(self):
        # n = 7 and degrees 3^6 6^1 as in W_7, but the rim is two triangles
        rim = [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]
        g = from_edge_list(7, [(0, v) for v in range(1, 7)] + rim)
        assert sorted(g.degrees()) == [3] * 6 + [6]
        assert recognize(g) is None
