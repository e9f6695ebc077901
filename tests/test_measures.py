import random
from collections import Counter
from fractions import Fraction
from fractions import Fraction as F
from functools import cached_property
from typing import Sequence

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from graphirr.enumeration import enumerate_range, range_specs
from graphirr.graph import classify, degree_stats, from_edge_list
from graphirr.io import parse_graph6
from graphirr.measures import (
    _BOUNDS,
    CONDITION_MISMATCH,
    CONFIRMED,
    NOT_APPLICABLE,
    BoundRecord,
    GraphContext,
    MeasureSet,
    _bound_report,
    _cyclic_range,
    _decide,
    _degrees_within_extremes_or_mean,
    bound_report,
    context,
    cyclic_formulas,
    measure_set,
    tree_formulas,
)
from graphirr.verify import run_suite

from conftest import (
    connected_graphs,
    degree2_inflate,
    graphs,
    ird_definitional,
    m1_definitional,
    s_definitional,
    subdivide_edges,
    var_definitional,
)


class TestMeasureSet:
    def test_tripartite_2_3_5(self):
        ms = measure_set(complete_multipartite([2, 3, 5]))
        assert ms.s == 12
        assert ms.var == F(39, 25)
        assert ms.ird == F(60, 7)
        assert ms.irr == 15
        assert ms.omega == F(13, 100)
        assert ms.m1 == 400

    def test_regular_graphs_all_zero(self):
        for g in (cycle(5), complete(4), from_edge_list(1, []), complete(2)):
            ms = measure_set(g)
            assert ms.s == 0 and ms.var == 0 and ms.ird == 0 and ms.irr == 0
            assert ms.omega is None

    def test_p7(self):
        ms = measure_set(path(7))
        assert ms.s == F(20, 7)
        assert ms.var == F(10, 49)
        assert ms.omega == F(1, 14)

    def test_wheel5(self):
        ms = measure_set(wheel(5))
        assert ms.s == F(8, 5)
        assert ms.var == F(4, 25)

    def test_wheel8_variance(self):
        assert measure_set(wheel(8)).var == F(7 * 16, 64)

    def test_diamond(self):
        ms = measure_set(named("diamond"))
        assert ms.s == 2 and ms.ird == 2 and ms.var == F(1, 4)

    def test_star4(self):
        ms = measure_set(star(4))
        assert ms.s == 3 and ms.ird == 3 and ms.irr == 4

    @settings(max_examples=200, deadline=None)
    @given(graphs(max_n=7))
    def test_matches_definitions(self, g):
        ms = measure_set(g)
        assert ms.s == s_definitional(g)
        assert ms.var == var_definitional(g)
        assert ms.m1 == m1_definitional(g)
        assert ms.ird == ird_definitional(g)

    @settings(max_examples=200, deadline=None)
    @given(graphs(max_n=7))
    def test_variance_zagreb_identity(self, g):
        ms = measure_set(g)
        assert ms.var * g.n**2 == g.n * ms.m1 - 4 * g.m**2

    @settings(max_examples=200, deadline=None)
    @given(graphs(max_n=7))
    def test_zero_iff_regular(self, g):
        ms = measure_set(g)
        regular = len(set(g.degrees())) == 1
        assert (ms.s == 0) == regular
        assert (ms.var == 0) == regular
        assert (ms.omega is None) == regular

    @settings(max_examples=150, deadline=None)
    @given(connected_graphs(min_n=2, max_n=7))
    def test_twice_var_below_s_when_irregular(self, g):
        ms = measure_set(g)
        if ms.s:
            assert 2 * ms.var < ms.s


class TestZagreb:
    def test_complement_of_star_union(self):
        g = from_edge_list(
            6,
            [
                (u, v)
                for u in range(6)
                for v in range(u + 1, 6)
                if not (u == 0 and v in (1, 2, 3))
            ],
        )
        assert measure_set(g).m1 == 102

    def test_k4(self):
        assert measure_set(complete(4)).m1 == 36

    def test_grotzsch(self):
        assert measure_set(named("grotzsch")).m1 == 150


class TestBidegreedIdentities:
    """The two-degree identities, checked by the ``bidegreed`` suite."""

    def _checked(self, *graphs):
        rep = run_suite(list(graphs), "bidegreed")
        assert rep.passed, rep.violations
        return rep.graphs_checked

    def test_star(self):
        ms = measure_set(star(4))
        assert ms.s == ms.ird
        assert 2 * 4 * ms.var == 2 * ms.s
        assert self._checked(star(4)) == 1

    def test_wheel5(self):
        ms = measure_set(wheel(5))
        assert ms.var == F(4, 25)
        assert 2 * 5 * ms.var == 1 * ms.s  # 2*5*(4/25) == 1*(8/5)
        assert self._checked(wheel(5)) == 1

    def test_diamond(self):
        ms = measure_set(named("diamond"))
        assert ms.var == F(1, 4)
        assert ms.s == ms.ird
        assert self._checked(named("diamond")) == 1

    def test_rejects_tridegreed(self):
        assert self._checked(complete_multipartite([2, 3, 5])) == 0

    def test_rejects_regular(self):
        assert self._checked(cycle(4)) == 0

    def test_every_connected_bidegreed_upto6(self, connected_upto6):
        graphs = [g for pop in connected_upto6.values() for g in pop]
        assert self._checked(*graphs) == sum(classify(g).is_bidegreed for g in graphs)


class TestVarianceDecomposition:
    """Var <= (Dmax - 2m/n)(2m/n - Dmin), the ``var_le_product_bound`` record."""

    def _record(self, g):
        (rec,) = (r for r in bound_report(g) if r.bound_id == "var_le_product_bound")
        assert rec.holds and rec.agreement == "confirmed"
        return rec

    def test_regular_exact_zero(self):
        rec = self._record(cycle(6))
        assert rec.rhs == 0 and rec.is_equality

    def test_split_7_2_exact(self):
        rec = self._record(complete_split(7, 2))
        assert rec.is_equality
        assert rec.rhs == F(160, 49)

    def test_tripartite_strict(self):
        rec = self._record(complete_multipartite([2, 3, 5]))
        assert rec.rhs == F(54, 25)
        assert not rec.is_equality

    def test_bidegreed_always_exact(self, connected_upto6):
        for pop in connected_upto6.values():
            for g in pop:
                if classify(g).is_bidegreed:
                    assert self._record(g).is_equality


class TestBoundReport:
    def _by_id(self, g):
        return {r.bound_id: r for r in bound_report(g)}

    def test_balanced_subdivision_equalities(self):
        prism = named("trigonal_prism")
        g = subdivide_edges(prism, prism.edges()[:6])
        ms = measure_set(g)
        assert ms.s == 6 and ms.var == F(1, 4)
        recs = self._by_id(g)
        for bound in ("var_le_gap_s", "s_le_irr", "var_le_gap_sq4"):
            assert recs[bound].is_equality, bound
            assert recs[bound].agreement == "confirmed"

    def test_tripartite_strict_var_floor(self):
        recs = self._by_id(complete_multipartite([2, 3, 5]))
        rec = recs["var_ge_scaled_irr_ird"]
        assert rec.holds and not rec.is_equality
        assert rec.lhs == F(39, 25)

    def test_regular_everything_tight(self):
        recs = self._by_id(cycle(6))
        for bound in (
            "var_le_gap_s",
            "s_le_irr",
            "var_le_gap_sq4",
            "s_ge_scaled_ird",
            "var_ge_scaled_irr_ird",
            "s_sq_le_n_sq_var",
        ):
            rec = recs[bound]
            assert rec.holds and rec.is_equality and rec.lhs == rec.rhs == 0

    def test_zagreb_split_cap_equality_cases(self):
        recs = self._by_id(complete_split(7, 2))
        rec = recs["zagreb_le_split_bound"]
        assert rec.is_equality and rec.lhs == 92
        rec = self._by_id(path(4))["zagreb_le_split_bound"]
        assert rec.holds and not rec.is_equality

    def test_dominating_cap_exact_on_split(self):
        # the dominating-vertex Var bound is zagreb_le_split_bound at Dmax = n-1
        rec = self._by_id(complete_split(7, 2))["zagreb_le_split_bound"]
        assert rec.is_equality and rec.predicted_equality and rec.agreement == CONFIRMED
        rec = self._by_id(wheel(6))["zagreb_le_split_bound"]
        assert rec.holds and not rec.is_equality and not rec.predicted_equality

    def test_not_applicable_on_disconnected(self):
        g = from_edge_list(4, [(0, 1), (2, 3)])
        recs = self._by_id(g)
        assert recs["omega_lt_half"].agreement == "not-applicable"
        assert recs["zagreb_le_split_bound"].agreement == "not-applicable"
        # the degree-sequence bounds still apply
        assert recs["var_le_gap_s"].agreement != "not-applicable"
        assert recs["s_ge_scaled_ird"].holds

    def test_omega_strictly_below_half(self):
        rec = self._by_id(wheel(12))["omega_lt_half"]
        assert rec.holds and rec.lhs == F(8, 24)

    def test_pendant_cyclic_cap_equality_iff_unicyclic(self):
        tadpole = from_edge_list(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
        rec = self._by_id(tadpole)["s_le_pendant_cyclic_cap"]
        assert rec.is_equality and rec.predicted_equality
        theta = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 4)])
        rec = self._by_id(theta)["s_le_pendant_cyclic_cap"]
        assert rec.holds

    @settings(max_examples=120, deadline=None)
    @given(graphs(max_n=6))
    def test_all_bounds_hold_everywhere(self, g):
        for rec in bound_report(g):
            assert rec.holds, (rec.bound_id, rec.lhs, rec.rhs)


# --- the Fraction-side suite, kept as an oracle for the integer verdicts ------


class ReferenceContext(GraphContext):
    """A context whose measures are summed in Fractions, as the suite once read them."""

    @cached_property
    def ms(self) -> MeasureSet:
        n, avg = self.n, self.avg
        m1 = Fraction(sum(d * d * k for d, k in self.histogram))
        s = sum((abs(d - avg) * k for d, k in self.histogram), Fraction(0))
        var = m1 / n - avg * avg
        ird = Fraction(2 * self.n_max * self.n_min * self.gap, self.n_max + self.n_min)
        irr = Fraction(n * self.gap, 2)
        return MeasureSet(m1, s, var, ird, irr, var / s if s else None)

    @property
    def product_bound(self) -> Fraction:
        """(Dmax - 2m/n)(2m/n - Dmin), the Bhatia-Davis cap on Var; exact iff <= 2 degrees."""
        return (self.stats.max_degree - self.avg) * (self.avg - self.stats.min_degree)


def reference_degrees_within_extremes_or_mean(c) -> bool:
    allowed = {
        Fraction(c.stats.min_degree),
        c.avg,
        Fraction(c.stats.max_degree),
    }
    return all(Fraction(d) in allowed for d in c.stats.degree_set)


# each bound's left and right sides, one Fraction lambda each
REFERENCE_SIDES = {
    "var_le_gap_s": (
        lambda c: c.ms.var,
        lambda c: Fraction(c.gap, 2 * c.n) * c.ms.s,
    ),
    "s_le_irr": (
        lambda c: c.ms.s,
        lambda c: c.ms.irr,
    ),
    "var_le_gap_sq4": (
        lambda c: c.ms.var,
        lambda c: Fraction(c.gap * c.gap, 4),
    ),
    "var_le_product_bound": (
        lambda c: c.ms.var,
        lambda c: c.product_bound,
    ),
    "s_ge_scaled_ird": (
        lambda c: c.ms.s,
        lambda c: Fraction(2 * c.n_max * c.n_min * c.gap, c.n),
    ),
    "var_ge_scaled_irr_ird": (
        lambda c: c.ms.var,
        lambda c: Fraction((c.n_max + c.n_min) ** 2, c.n**4)
        * c.ms.irr
        * c.ms.ird,
    ),
    "s_sq_le_n_sq_var": (
        lambda c: c.ms.s * c.ms.s,
        lambda c: c.n * c.n * c.ms.var,
    ),
    "zagreb_le_split_bound": (
        lambda c: c.ms.m1,
        lambda c: Fraction(
            2 * c.m * (2 * c.m + (c.n - 1) * c.gap), c.n + c.gap
        ),
    ),
    "omega_lt_half": (
        lambda c: c.ms.omega if c.ms.omega is not None else Fraction(0),
        lambda c: Fraction(1, 2),
    ),
    "omega_ge_cyclic_floor": (
        lambda c: c.ms.omega if c.ms.omega is not None else Fraction(0),
        lambda c: Fraction(1, c.n) - Fraction(2) / c.ms.s,
    ),
    "s_le_pendant_cyclic_cap": (
        lambda c: c.ms.s,
        lambda c: Fraction(
            2 * (c.stats.histogram.get(1, 0) + 2 * (c.cls.cyclomatic or 0) - 2)
        ),
    ),
}


def reference_report(histogram, connected: bool) -> list[BoundRecord]:
    """The bound suite decided on the Fraction sides above."""
    c = ReferenceContext(histogram, connected)
    records = []
    for defn in _BOUNDS:
        if not defn.applies(c):
            records.append(
                BoundRecord(
                    defn.bound_id, defn.formula, F(0), F(0), True, False, False, NOT_APPLICABLE
                )
            )
            continue
        lhs_of, rhs_of = REFERENCE_SIDES[defn.bound_id]
        lhs, rhs = lhs_of(c), rhs_of(c)
        equal = lhs == rhs
        if defn.predicted is _degrees_within_extremes_or_mean:
            predicted = reference_degrees_within_extremes_or_mean(c)
        else:
            predicted = defn.predicted(c)
        agree = CONFIRMED if equal == predicted else CONDITION_MISMATCH
        records.append(
            BoundRecord(
                defn.bound_id, defn.formula, lhs, rhs, defn.holds(lhs, rhs), equal, predicted, agree
            )
        )
    return records


@st.composite
def even_sum_histograms(draw, max_n: int = 14):
    """Sorted (degree, count) pairs of n <= max_n degrees below n with an even sum."""
    n = draw(st.integers(1, max_n))
    degrees = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    assume(sum(degrees) % 2 == 0)
    return tuple(sorted(Counter(degrees).items()))


class TestAgainstFractionSides:
    """Each integer row (L, R, q) gives the records the Fraction sides gave.

    Degree multisets need not be graphic here: every row is a function of the
    histogram and the connectivity flag, and both flags are tried on each.
    """

    @staticmethod
    def _check(histogram) -> None:
        for connected in (True, False):
            ctx = GraphContext(histogram, connected)
            assert _bound_report(ctx) == reference_report(histogram, connected), ctx
            for defn in _BOUNDS:
                if defn.applies(ctx):
                    sides = defn.sides(ctx, *ctx.sums)
                    assert all(type(x) is int for x in sides) and sides[2] > 0

    @pytest.mark.slow
    def test_every_profile_upto8(self, all_codes_8):
        codes = [c for codes in enumerate_range(range_specs("all", 7)) for c in codes]
        histograms = {context(parse_graph6(c)).histogram for c in codes + all_codes_8}
        assert len(histograms) > 1000
        for histogram in sorted(histograms):
            self._check(histogram)

    @settings(max_examples=300, deadline=None)
    @given(even_sum_histograms())
    def test_even_sum_multisets(self, histogram):
        self._check(histogram)


@pytest.fixture(scope="module")
def whole_profiles_upto8(all_codes_8) -> list[GraphContext]:
    """The degree profile of every graph on at most 8 vertices, disconnected included."""
    codes = [c for codes in enumerate_range(range_specs("all", 7)) for c in codes]
    return sorted({context(parse_graph6(c)) for c in codes + all_codes_8})


def whole_and_random_graphs():
    """Whole n <= 7, then 200 seeded random graphs with n <= 30, sparse to dense."""
    codes = [c for codes in enumerate_range(range_specs("all", 7)) for c in codes]
    rng = random.Random(2028)
    out = [parse_graph6(c) for c in codes]
    for _ in range(200):
        n, p = rng.randint(1, 30), rng.random()
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        out.append(from_edge_list(n, [e for e in pairs if rng.random() < p]))
    return out


class TestEqualityProofs:
    """The steps of README's proofs that every row's equality condition is exact."""

    def test_pair_counts(self):
        for g in whole_and_random_graphs():
            n, rows, deg = g.n, g.rows, g.degrees()
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            private = 0  # sum over pairs of |N(u) \ N[v]| + |N(v) \ N[u]|
            for u, v in pairs:
                only_u = (rows[u] & ~rows[v] & ~(1 << v)).bit_count()
                only_v = (rows[v] & ~rows[u] & ~(1 << u)).bit_count()
                assert deg[u] - deg[v] == only_u - only_v
                gap = max(deg) - min(deg)
                assert (deg[u] - deg[v]) ** 2 <= gap * (only_u + only_v)
                private += only_u + only_v
            # each pair counted once per triple (w, u in N(w), v not in N[w])
            assert private == sum(d * (n - 1 - d) for d in deg)
            # Lagrange's identity: V = n*M1 - 4m^2 is the sum of (d_u - d_v)^2
            m1, _, v = context(g).sums
            assert v == n * m1 - 4 * g.m**2 == sum((deg[a] - deg[b]) ** 2 for a, b in pairs)

    def test_cyclic_floor_slack(self, whole_profiles_upto8):
        checked = 0
        for ctx in filter(_cyclic_range, whole_profiles_upto8):
            n, c = ctx.n, ctx.cls.cyclomatic
            _, ns, v = ctx.sums
            brackets = sum(
                k * (n * (d - 2) * (d - 3) + 4 * (c - 1)) for d, k in ctx.histogram if d >= 3
            )
            slack = v - ns + 2 * n * n  # omega_ge_cyclic_floor reads V >= nS - 2n^2
            assert slack == brackets + 2 * n * n - 2 * (n + 2 * c - 2) * (c - 1)
            assert slack > 0
            checked += 1
        assert checked == 321

    def test_zagreb_row_decides_the_dominating_var_bound(self, whole_profiles_upto8):
        # the paper's bound for a dominating vertex, V*y <= 2m(n*x - 2m*y) with
        # x = 2m + (n-1)(n-1-Dmin) and y = 2n-1-Dmin, at equality iff complete split
        (zagreb,) = (d for d in _BOUNDS if d.bound_id == "zagreb_le_split_bound")
        dominating = [c for c in whole_profiles_upto8 if c.cls.is_dominating]
        for ctx in dominating:
            n, m, dmin = ctx.n, ctx.m, ctx.stats.min_degree
            x, y = 2 * m + (n - 1) * (n - 1 - dmin), 2 * n - 1 - dmin
            left, right = ctx.sums[2] * y, 2 * m * (n * x - 2 * m * y)
            assert zagreb.applies(ctx)
            _, _, _, holds, equal, predicted, agreement = _decide(zagreb, ctx)
            assert (holds, equal, agreement) == (left <= right, left == right, CONFIRMED)
        assert len(dominating) == 486

    @pytest.mark.slow
    def test_bounds_suite_whole_upto8(self):
        rep = run_suite(range_specs("all", 8), "bounds")
        assert rep.graphs_checked == 13598 and rep.passed and not rep.findings


class TestTreeFormulas:
    def test_paths(self):
        for n in (2, 3, 7, 10):
            tf = tree_formulas(path(n))
            ms = measure_set(path(n))
            assert tf.s_closed == ms.s == F(4 * (n - 2), n)
            assert tf.var_closed == ms.var == F(2 * (n - 2), n * n)
        assert tree_formulas(path(10)).s_closed == F(16, 5)
        assert tree_formulas(path(10)).var_closed == F(4, 25)

    def test_star4(self):
        tf = tree_formulas(star(4))
        assert tf.n1_based_s == 3 == measure_set(star(4)).s

    def test_spider(self):
        spider = from_edge_list(
            7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)]
        )
        assert sorted(spider.degrees(), reverse=True) == [3, 2, 2, 2, 1, 1, 1]
        tf = tree_formulas(spider)
        ms = measure_set(spider)
        assert tf.n1_based_s == F(30, 7) == ms.s
        assert tf.s_closed == ms.s
        assert tf.var_closed == ms.var

    def test_rejects_non_tree(self):
        with pytest.raises(InputError):
            tree_formulas(cycle(5))
        with pytest.raises(InputError):
            tree_formulas(from_edge_list(4, [(0, 1), (2, 3)]))

    def test_all_trees_upto10(self, trees_upto10):
        for pop in trees_upto10.values():
            for t in pop:
                tf = tree_formulas(t)
                ms = measure_set(t)
                assert tf.s_closed == ms.s
                assert tf.var_closed == ms.var
                assert tf.irr_closed == ms.irr
                assert tf.n1_based_s == ms.s
                assert tf.ird_lower <= ms.ird <= tf.ird_upper


def pendant_cyclic_cap(g):
    """The ``s_le_pendant_cyclic_cap`` record: S <= 2(N1 + 2c - 2), so S = 2*N1 at c = 1."""
    (rec,) = (r for r in bound_report(g) if r.bound_id == "s_le_pendant_cyclic_cap")
    return rec


class TestCyclicFormulas:
    def test_cycles_zero(self):
        for n in (3, 6, 9):
            cf = cyclic_formulas(cycle(n))
            assert cf.s_closed == 0 and cf.var_closed == 0
            rec = pendant_cyclic_cap(cycle(n))
            assert rec.lhs == rec.rhs == 0 and rec.agreement == "confirmed"

    def test_tadpole(self):
        g = from_edge_list(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
        cf = cyclic_formulas(g)
        ms = measure_set(g)
        rec = pendant_cyclic_cap(g)
        assert rec.rhs == 2 == rec.lhs == ms.s  # one pendant vertex
        assert rec.is_equality and rec.predicted_equality and rec.agreement == "confirmed"
        assert cf.s_closed == ms.s and cf.var_closed == ms.var

    def test_unicyclic_small_degree_identity(self, unicyclic_upto9):
        # degree set within {1,2,3} makes n*Var equal S exactly
        for pop in unicyclic_upto9.values():
            for g in pop:
                ms = measure_set(g)
                if set(g.degrees()) <= {1, 2, 3}:
                    assert g.n * ms.var == ms.s

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            cyclic_formulas(path(5))  # c = 0
        with pytest.raises(InputError):
            cyclic_formulas(wheel(5))  # c = 4 > (n+2)/2
        with pytest.raises(InputError):
            cyclic_formulas(from_edge_list(4, [(0, 1), (2, 3)]))

    def test_matches_definitions(self, unicyclic_upto9):
        for pop in unicyclic_upto9.values():
            for g in pop:
                cf = cyclic_formulas(g)
                assert cf.s_closed == s_definitional(g)
                assert cf.var_closed == var_definitional(g)


def centered_sequence_bound(a: Sequence[F], x: Sequence[F]) -> bool:
    """Check |sum a_i x_i| <= (max a - min a)/2 for zero-sum, unit-L1 ``x``.

    A lemma about arbitrary sequences behind the deviation bounds; no suite
    reads it.  Returns whether the bound is attained exactly.
    """
    if len(a) != len(x) or not a:
        raise InputError("sequences must be non-empty and of equal length")
    xs = [F(v) for v in x]
    if sum(xs) != 0:
        raise InputError("x must sum to zero")
    if sum(abs(v) for v in xs) != 1:
        raise InputError("x must have unit absolute sum")
    vals = [F(v) for v in a]
    lhs = abs(sum(ai * xi for ai, xi in zip(vals, xs)))
    rhs = F(max(vals) - min(vals), 2)
    assert lhs <= rhs, "centered sequence bound failed"
    return lhs == rhs


class TestCenteredSequenceBound:
    def test_constant_sequence_tight(self):
        assert centered_sequence_bound(
            [F(3), F(3), F(3)], [F(-1, 2), F(1, 4), F(1, 4)]
        )

    def test_two_point_tight(self):
        assert centered_sequence_bound([F(0), F(1)], [F(-1, 2), F(1, 2)])

    def test_tripartite_substitution_not_tight(self):
        g = complete_multipartite([2, 3, 5])
        ms = measure_set(g)
        avg = degree_stats(g).average_degree
        a = [abs(F(d) - avg) for d in g.degrees()]
        x = [(F(d) - avg) / ms.s for d in g.degrees()]
        assert centered_sequence_bound(a, x) is False

    def test_precondition_violations(self):
        with pytest.raises(InputError):
            centered_sequence_bound([F(1)], [F(1)])  # sums to 1, not 0
        with pytest.raises(InputError):
            centered_sequence_bound([F(1), F(2)], [F(-1), F(1)])  # L1 = 2
        with pytest.raises(InputError):
            centered_sequence_bound([], [])


class TestInflation:
    def test_unicyclic_inflation_preserves_s_and_ird(self):
        # triangle with one pendant on each corner: degree set {1, 3}
        h = from_edge_list(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
        before = measure_set(h)
        assert before.s == 6 == before.ird
        g = degree2_inflate(h, 3)
        after = measure_set(g)
        assert g.n == 9
        assert after.s == 6 == after.ird

    def test_identity_at_zero(self):
        h = cycle(5)
        assert degree2_inflate(h, 0) == h

    def test_path_growth(self):
        from graphirr.canon import canonical_code

        assert canonical_code(degree2_inflate(path(3), 2)) == canonical_code(path(5))
