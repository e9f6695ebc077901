import math
from fractions import Fraction as F
from typing import Optional

import pytest

from graphirr.enumeration import EnumerationSpec, enumerate_range, range_specs
from graphirr.errors import InputError
from graphirr.families import (
    complete_split,
    cycle,
    named,
    path,
    star,
    wheel,
)
from graphirr.graph import Graph, from_edge_list, is_connected
from graphirr.io import parse_graph6, to_graph6
from graphirr.measures import measure_set
from graphirr.spectral import (
    TwoWalkParams,
    _two_walk_fit,
    two_walk_params,
    two_walk_radius_test,
    variance_spectral_identity,
)

from conftest import seeded_random_graphs, spectral_radius_numpy


def friendship(k: int):
    """k triangles glued at one hub vertex."""
    edges = []
    for i in range(k):
        a, b = 1 + 2 * i, 2 + 2 * i
        edges += [(0, a), (0, b), (a, b)]
    return from_edge_list(2 * k + 1, edges)


class TestDetection:
    def test_grotzsch(self):
        p = two_walk_params(named("grotzsch"))
        assert p == TwoWalkParams(a=1, b=10)

    def test_wheel6(self):
        assert two_walk_params(wheel(6)) == TwoWalkParams(a=2, b=5)

    def test_wheels_general(self):
        for n in (5, 7, 9, 12):
            assert two_walk_params(wheel(n)) == TwoWalkParams(a=2, b=n - 1)

    def test_path5_absent(self):
        assert two_walk_params(path(5)) is None

    def test_regular_rejected(self):
        with pytest.raises(InputError):
            two_walk_params(cycle(6))

    def test_disconnected_rejected(self):
        with pytest.raises(InputError):
            two_walk_params(from_edge_list(4, [(0, 1), (2, 3)]))

    def test_friendship_detected(self):
        for k in (2, 3, 5):
            p = two_walk_params(friendship(k))
            assert p is not None and p.a >= 0

    def test_complete_split_detected(self):
        for n, k in [(7, 2), (9, 4), (12, 3)]:
            assert two_walk_params(complete_split(n, k)) is not None

    def test_stars_detected(self):
        p = two_walk_params(star(7))
        assert p is not None

    def test_invalid_params_rejected(self):
        with pytest.raises(InputError):
            TwoWalkParams(a=-1, b=5)
        with pytest.raises(InputError):
            TwoWalkParams(a=1, b=-1)


def affine_fit(g):
    """Exact (a, b) with S(u) = a*d(u) + b at every vertex, or None: a line through two points."""
    degs = g.degrees()
    sums = {}
    for u in range(g.n):
        sums.setdefault(degs[u], set()).add(sum(degs[v] for v in g.neighbors(u)))
    if any(len(s) > 1 for s in sums.values()):
        return None  # one degree, two neighbour sums
    (d0, (s0,)), (d1, (s1,)) = sorted(sums.items())[:2]
    a = F(s1 - s0, d1 - d0)
    b = s0 - a * d0
    return (a, b) if all(s == a * d + b for d, (s,) in sums.items()) else None


def reference_two_walk_params(g: Graph) -> Optional[TwoWalkParams]:
    """The fit as it was before it read rows alone, body unchanged: the oracle.

    ``g`` must be connected and irregular.  The fit is decided in integers,
    from the degrees and neighbourhoods alone: no context is built.
    """
    if not is_connected(g):
        raise InputError("two-walk detection needs a connected graph")
    degs = g.degrees()
    dmax, dmin = max(degs), min(degs)
    if dmax == dmin:
        raise InputError("two-walk parameters are not unique for regular graphs")

    def degree_sum(w: int) -> int:  # S(w)
        return sum(degs[x] for x in g.neighbors(w))

    u = degs.index(dmax)
    v = degs.index(dmin)
    # the line through (d_u, S(u)) and (d_v, S(v)) has slope a = num/den and
    # intercept b = b_den/den; each vertex is tested with den cleared, and the
    # first one off the line ends the fit
    s_u = degree_sum(u)
    num, den = s_u - degree_sum(v), degs[u] - degs[v]
    b_den = s_u * den - num * degs[u]
    if any(degree_sum(w) * den != num * degs[w] + b_den for w in range(g.n)):
        return None
    a = num // den  # exact: see the module docstring
    return TwoWalkParams(a=a, b=s_u - a * degs[u])


class TestAgainstReferenceFit:
    """``_two_walk_fit`` and ``two_walk_params`` give the old fit on connected irregular graphs."""

    @staticmethod
    def check(graphs) -> int:
        checked = 0
        for g in graphs:
            if not is_connected(g) or len(set(g.degrees())) < 2:
                continue
            want = reference_two_walk_params(g)
            assert _two_walk_fit(g.rows) == want, to_graph6(g)
            assert two_walk_params(g) == want, to_graph6(g)
            checked += 1
        return checked

    def test_population_codes(self, oracle_codes):
        # connected irregular: 980 of whole n <= 7, 985 trees (all but K2) and
        # 1032 unicyclic graphs (all but C3 .. C10)
        assert self.check(map(parse_graph6, oracle_codes)) == 980 + 985 + 1032

    def test_seeded_random_and_large_graphs(self):
        large = [path(5000), complete_split(1500, 700), complete_split(60, 1)]
        assert self.check(seeded_random_graphs() + large) > 20

    @pytest.mark.parametrize(
        "g",
        [
            from_edge_list(1, []),
            from_edge_list(2, [(0, 1)]),
            cycle(7),
            named("trigonal_prism"),
            from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
            from_edge_list(5, [(0, 1), (1, 2), (3, 4)]),
            from_edge_list(3, []),
        ],
        ids=["K1", "K2", "C7", "prism", "2K3", "P3+K2", "3K1"],
    )
    def test_public_fit_still_refuses(self, g):
        # regular or disconnected: the public name checks, as the old one did
        with pytest.raises(InputError) as old:
            reference_two_walk_params(g)
        with pytest.raises(InputError) as new:
            two_walk_params(g)
        assert str(new.value) == str(old.value)


class TestEveryAffineFit:
    """An affine neighbour-sum fit of a connected irregular graph is always a valid pair."""

    @pytest.mark.slow
    def test_connected_8_trees_12_unicyclic_10(self, connected_codes_8):
        specs = (
            range_specs("all", 7, connected_only=True)
            + range_specs("trees", 12)
            + range_specs("unicyclic", 10)
        )
        fits = 0
        for codes in [*enumerate_range(specs), connected_codes_8]:
            for g in map(parse_graph6, codes):
                if len(set(g.degrees())) < 2:
                    continue
                want, got = affine_fit(g), two_walk_params(g)
                assert (got is None) == (want is None), to_graph6(g)
                if got is not None:
                    assert (got.a, got.b) == want, to_graph6(g)
                    fits += 1
        assert fits == 180


class TestVarianceIdentity:
    def test_grotzsch_exact(self):
        rec = variance_spectral_identity(named("grotzsch"))
        assert rec.var_via_params == F(50, 121)
        assert rec.matches

    def test_wheel5(self):
        rec = variance_spectral_identity(wheel(5))
        assert rec.var_via_params == F(4, 25) == measure_set(wheel(5)).var
        assert rec.matches

    def test_complete_split_family(self):
        for n, k in [(6, 2), (7, 2), (10, 4), (12, 3)]:
            rec = variance_spectral_identity(complete_split(n, k))
            assert rec.matches, (n, k)

    def test_friendship(self):
        assert variance_spectral_identity(friendship(3)).matches

    def test_non_linear_rejected(self):
        with pytest.raises(InputError):
            variance_spectral_identity(path(5))


def two_walk_classes_upto6():
    """Every connected irregular 2-walk-linear class on at most 6 vertices."""
    out = []
    for n in range(2, 7):
        for code in enumerate_range([EnumerationSpec(n=n, connected_only=True)])[0]:
            g = parse_graph6(code)
            if len(set(g.degrees())) > 1 and two_walk_params(g) is not None:
                out.append(g)
    return out


def assert_radius_is_main_root(g):
    """numpy's largest eigenvalue equals (a + sqrt(D))/2, and the exact test agrees."""
    p = two_walk_params(g)
    lam = (p.a + math.sqrt(p.a**2 + 4 * p.b)) / 2
    assert spectral_radius_numpy(g) == pytest.approx(lam, abs=1e-9)
    holds, _, _ = two_walk_radius_test(p, min(g.degrees()))
    assert holds


class TestSpectralRadius:
    """The exact Perron-Frobenius test against numpy's eigenvalues as oracle."""

    def test_every_two_walk_class_upto6(self):
        graphs = two_walk_classes_upto6()
        assert len(graphs) == 28  # the spectral suite's count at --max-n 6
        for g in graphs:
            assert_radius_is_main_root(g)

    def test_star_bipartite(self):
        assert two_walk_params(star(9)) == TwoWalkParams(a=0, b=8)
        assert_radius_is_main_root(star(9))

    def test_grotzsch(self):
        assert_radius_is_main_root(named("grotzsch"))

    def test_agrees_with_two_walk_root(self):
        for g in (wheel(7), complete_split(8, 3), friendship(4)):
            assert_radius_is_main_root(g)

    def test_integer_sides(self):
        # grotzsch: D = 41, t = 1 - 2*3 < 0; wheel 6: D = 24 > (2 - 2*3)^2 = 16
        assert two_walk_radius_test(TwoWalkParams(1, 10), 3) == (True, 41, 25)
        assert two_walk_radius_test(TwoWalkParams(2, 5), 3) == (True, 24, 16)

    def test_min_degree_at_or_below_mu_fails(self):
        # a = 4, b = -3: mu = (4 - 2)/2 = 1, so Dmin = 1 and Dmin = 0 both fail
        assert two_walk_radius_test(TwoWalkParams(4, -3), 1) == (False, 4, 4)
        assert two_walk_radius_test(TwoWalkParams(4, -3), 0) == (False, 4, 16)
        assert two_walk_radius_test(TwoWalkParams(4, -3), 2) == (True, 4, 0)
