"""End-to-end acceptance checks over exhaustive populations.

Each check prints one ``[acceptance] <name>: PASS/FAIL`` line (visible with
``pytest -s`` or in captured output on failure).  The heavyweight population
(all connected classes on 7 vertices) is built once per session by the
``connected_7`` fixture and shared.
"""

import functools
import math
import time
from fractions import Fraction as F
from itertools import combinations

from graphirr.canon import canonical_code
from graphirr.enumeration import EnumerationSpec, enumerate_range
from graphirr.families import complete_split, named, path, wheel
from graphirr.graph import Graph, classify, degree_stats
from graphirr.io import parse_graph6
from graphirr.measures import measure_set
from graphirr.spectral import (
    two_walk_params,
    two_walk_radius_test,
    variance_spectral_identity,
)
from graphirr.verify import (
    check_deviation_conjecture,
    check_omega_conjecture,
    extremal_search,
    max_deviation_split_k,
    run_all_suites,
    split_deviation_argmax,
)

from conftest import s_definitional, spectral_radius_numpy, subdivide_edges, var_definitional


def acceptance(name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {name}: FAIL")
                raise
            print(f"[acceptance] {name}: PASS")

        return wrapper

    return deco


@acceptance("irregular-6-12-census")
def test_irregular_6_12_census():
    start = time.monotonic()
    (codes,) = enumerate_range(
        [EnumerationSpec(n=6, m=12, connected_only=True, irregular_only=True)]
    )
    profiles = set()
    for code in codes:
        g = parse_graph6(code)
        ms = measure_set(g)
        st = degree_stats(g)
        profiles.add((ms.m1, ms.s, ms.var, st.universal_count))
    elapsed = time.monotonic() - start
    assert len(codes) == 4
    assert profiles == {
        (98, 2, F(1, 3), 1),
        (100, 4, F(2, 3), 2),
        (102, 4, 1, 2),
        (102, 6, 1, 3),
    }
    assert elapsed < 10.0, f"census took {elapsed:.1f}s"


@acceptance("7-vertex-11-edge-extremal")
def test_gamma_7_11_extremal(connected_7):
    slice_7_11 = [g for g in connected_7 if g.m == 11]
    assert len(slice_7_11) == 138  # regression value, cross-checked by Burnside
    with_universal = {}
    for g in slice_7_11:
        st = degree_stats(g)
        assert st.max_degree != st.min_degree  # no regular graph fits (7, 11)
        if st.universal_count >= 1:
            with_universal.setdefault(st.universal_count, []).append(g)
    assert sum(len(v) for v in with_universal.values()) == 15
    assert len(with_universal[1]) == 14
    assert len(with_universal[2]) == 1
    (g2,) = with_universal[2]
    ms = measure_set(g2)
    assert ms.m1 == 92 and ms.s == F(80, 7) and ms.var == F(160, 49)
    assert canonical_code(g2) == canonical_code(complete_split(7, 2))

    start = time.monotonic()
    res = extremal_search(7, 11)
    elapsed = time.monotonic() - start
    split_code = canonical_code(complete_split(7, 2))
    assert res.max_s_graphs == (split_code,)
    assert res.max_var_graphs == (split_code,)
    assert res.coincide
    assert elapsed < 600.0, f"extremal search took {elapsed:.1f}s"


@acceptance("12-vertex-split-tradeoff")
def test_split_graph_12_vertex_tradeoff():
    ms4 = measure_set(complete_split(12, 4))
    ms3 = measure_set(complete_split(12, 3))
    assert complete_split(12, 4).m == 38
    assert complete_split(12, 3).m == 30
    assert ms4.s == F(112, 3)
    assert ms4.var == F(98, 9)
    assert ms3.s == 36
    assert ms3.var == 12
    # the same decimals the closed forms round to
    assert math.isclose(float(ms4.s), 37.333, abs_tol=5e-4)
    assert math.isclose(float(ms4.var), 10.889, abs_tol=5e-4)
    # deviation prefers the bigger clique, variance the smaller one
    assert ms4.s > ms3.s
    assert ms4.var < ms3.var


@acceptance("tripartite-2-3-5-measures")
def test_tripartite_235_measures():
    from graphirr.families import complete_multipartite

    ms = measure_set(complete_multipartite([2, 3, 5]))
    assert ms.s == 12
    assert ms.ird == F(60, 7)
    assert ms.irr == 15
    assert ms.var == F(39, 25)
    assert ms.omega == F(13, 100)


@acceptance("mycielskian-two-walk")
def test_mycielskian_two_walk():
    g = named("grotzsch")
    params = two_walk_params(g)
    assert params is not None and (params.a, params.b) == (1, 10)
    ident = variance_spectral_identity(g)
    assert ident.var_via_params == F(50, 121)
    assert ident.matches and measure_set(g).var == F(50, 121)
    # exact: a - 2*Dmin = 1 - 6 < 0, so Dmin > mu and lambda is the radius
    assert two_walk_radius_test(params, degree_stats(g).min_degree) == (True, 41, 25)
    assert abs(spectral_radius_numpy(g) - (1 + math.sqrt(41)) / 2) <= 1e-9


@acceptance("family-closed-forms")
def test_family_closed_forms_match_definitions():
    for n in range(2, 1001):
        g = path(n)
        assert s_definitional(g) == F(4 * (n - 2), n)
        assert var_definitional(g) == F(2 * (n - 2), n * n)
    for n in range(5, 1001):
        g = wheel(n)
        assert s_definitional(g) == F(2 * (n - 1) * (n - 4), n)
        assert var_definitional(g) == F((n - 1) * (n - 4) ** 2, n * n)

    def split_closed(n, k):
        return (
            F(2 * k * (n - k) * (n - 1 - k), n),
            F(k * (n - k) * (n - 1 - k) ** 2, n * n),
        )

    # actual graphs: every k for moderate n, spot pairs up to n = 1000
    for n in range(2, 61):
        for k in range(1, n):
            g = complete_split(n, k)
            s_c, var_c = split_closed(n, k)
            assert s_definitional(g) == s_c, (n, k)
            assert var_definitional(g) == var_c, (n, k)
    for n, k in [(100, 33), (250, 83), (500, 167), (1000, 1), (1000, 333), (1000, 999)]:
        g = complete_split(n, k)
        s_c, var_c = split_closed(n, k)
        assert s_definitional(g) == s_c
        assert var_definitional(g) == var_c
        if k < n - 1:
            ms = measure_set(g)
            assert ms.omega == F(n - k - 1, 2 * n)

    # per-vertex definition over the family's degree multiset, all k, n <= 200
    for n in range(2, 201):
        for k in range(1, n):
            m = k * (k - 1) // 2 + k * (n - k)
            avg = F(2 * m, n)
            s_def = k * abs(F(n - 1) - avg) + (n - k) * abs(F(k) - avg)
            var_def = (
                k * (F(n - 1) - avg) ** 2 + (n - k) * (F(k) - avg) ** 2
            ) / n
            s_c, var_c = split_closed(n, k)
            assert s_def == s_c and var_def == var_c, (n, k)


@acceptance("inequality-suites-exhaustive")
def test_inequality_suites_exhaustive(
    connected_upto6, connected_7, trees_upto10, unicyclic_upto9
):
    population: list[Graph] = []
    for pop in connected_upto6.values():
        population.extend(pop)
    population.extend(connected_7)
    for pop in trees_upto10.values():
        population.extend(pop)
    for pop in unicyclic_upto9.values():
        population.extend(pop)

    start = time.monotonic()
    reports = run_all_suites(population)
    elapsed = time.monotonic() - start
    for rep in reports:
        assert not rep.violations, (rep.suite_id, rep.violations[:5])
        assert not rep.findings, (rep.suite_id, rep.findings[:5])
    assert elapsed < 1800.0, f"suites took {elapsed:.0f}s"


@acceptance("conjecture-scan")
def test_conjecture_scan(all_graphs_upto6, connected_7):
    population = [g for pop in all_graphs_upto6.values() for g in pop]
    population.extend(connected_7)

    rep1 = check_deviation_conjecture(population)
    assert not rep1.violations, rep1.violations[:5]
    flagged = {(f.graph, f.check) for f in rep1.findings}
    for case in rep1.equalities:
        g = parse_graph6(case.graph)
        st = degree_stats(g)
        values = {F(st.min_degree), st.average_degree, F(st.max_degree)}
        satisfied = all(F(d) in values for d in st.degree_set)
        assert satisfied or (case.graph, case.check) in flagged, case

    rep2 = check_omega_conjecture(population)
    assert not rep2.violations, rep2.violations[:5]
    flagged2 = {(f.graph, f.check) for f in rep2.findings}
    for case in rep2.equalities:
        g = parse_graph6(case.graph)
        st = degree_stats(g)
        unit_gap_bidegreed = (
            len(st.degree_set) == 2 and st.max_degree - st.min_degree == 1
        )
        assert unit_gap_bidegreed or (case.graph, case.check) in flagged2, case


@acceptance("split-k-rule")
def test_split_k_rule_matches_argmax():
    for n in range(6, 31):
        assert max_deviation_split_k(n) == split_deviation_argmax(n), n


@acceptance("prism-subdivisions")
def test_prism_subdivision_family():
    prism = named("trigonal_prism")
    edges = prism.edges()
    assert len(edges) == 9
    seen = set()
    for subset in combinations(edges, 6):
        g = subdivide_edges(prism, subset)
        assert g.n == 12
        cls = classify(g)
        assert cls.is_balanced_bidegreed
        ms = measure_set(g)
        assert ms.s == 6
        assert ms.var == F(1, 4)
        assert ms.irr == 6
        assert 144 * ms.var == ms.s**2  # S = n*sqrt(Var) in squared form
        seen.add(canonical_code(g))
    assert len(seen) >= 3
