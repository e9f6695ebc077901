import sys
import time
from collections import Counter
from fractions import Fraction
from fractions import Fraction as F

import pytest

from graphirr import graph, measures, verify
from graphirr.canon import canonical_code
from graphirr.enumeration import (
    EnumerationSpec,
    enumerate_codes_cached,
    enumerate_range,
    range_specs,
)
from graphirr.errors import InputError
from graphirr.families import complete, complete_split, path, star, wheel
from graphirr.graph import classify, degree_stats, from_edge_list
from graphirr.io import parse_graph6, to_graph6
from graphirr.measures import (
    GraphContext,
    _branch_weight,
    _cyclic_formulas,
    _tree_formulas,
    bound_report,
    measure_set,
)
from graphirr.serialize import report_json
from graphirr.spectral import TwoWalkParams
from graphirr.verify import (
    SUITE_IDS,
    _Outcome,
    ExtremalResult,
    check_deviation_conjecture,
    check_omega_conjecture,
    extremal_search,
    max_deviation_split_k,
    run_all_suites,
    run_conjectures,
    run_suite,
    split_deviation_argmax,
)


class TestRunSuite:
    def test_unknown_suite(self):
        with pytest.raises(InputError):
            run_suite([path(4)], "nonsense")

    def test_explicit_graph_list(self):
        rep = run_suite([path(4), star(5), wheel(6)], "bounds")
        assert rep.graphs_checked == 3
        assert rep.passed and not rep.findings

    def test_single_bound_suite(self):
        rep = run_suite([wheel(6), complete_split(7, 2)], "zagreb_le_split_bound")
        assert rep.passed and rep.graphs_checked == 2

    def test_all_suites_connected_upto5(self):
        specs = [EnumerationSpec(n=k, connected_only=True) for k in range(1, 6)]
        for rep in run_all_suites(specs):
            assert rep.passed, (rep.suite_id, rep.violations[:3])
            assert not rep.findings

    def test_trees_suite_small(self):
        specs = [EnumerationSpec(n=k, population="trees") for k in range(2, 9)]
        rep = run_suite(specs, "trees")
        assert rep.passed and rep.graphs_checked == 1 + 1 + 2 + 3 + 6 + 11 + 23

    def test_cyclic_suite_small(self):
        specs = [EnumerationSpec(n=k, population="unicyclic") for k in range(3, 8)]
        rep = run_suite(specs, "cyclic")
        assert rep.passed and rep.graphs_checked == 1 + 2 + 5 + 13 + 33

    def test_suites_at_population_caps(self):
        # largest supported tree and unicyclic orders stay clean
        tree_specs = [EnumerationSpec(n=k, population="trees") for k in (11, 12)]
        rep = run_suite(tree_specs, "trees")
        assert rep.passed and rep.graphs_checked == 235 + 551
        assert not rep.findings
        rep = run_suite([EnumerationSpec(n=10, population="unicyclic")], "cyclic")
        assert rep.passed and rep.graphs_checked == 657
        assert not rep.findings

    def test_report_deterministic(self):
        specs = [EnumerationSpec(n=4, connected_only=True)]
        a = run_suite(specs, "bounds")
        b = run_suite(specs, "bounds")
        assert report_json(a, include_timing=False) == report_json(b, include_timing=False)

    def test_omega_suite_counts_only_bidegreed(self):
        from graphirr.families import complete_multipartite

        rep = run_suite(
            [wheel(6), complete_multipartite([2, 3, 5]), complete(4)], "omega"
        )
        assert rep.graphs_checked == 1 and rep.passed


class TestSinglePass:
    def test_degree_stats_once_per_profile(self, monkeypatch):
        real_stats, real_measures = graph._degree_stats, measures._measure_set
        stats_seen, measures_seen = [], []

        def counting_stats(hist):
            stats_seen.append(hist)
            return real_stats(hist)

        def counting_measures(ctx):
            measures_seen.append(ctx.histogram)
            return real_measures(ctx)

        for name, module in list(sys.modules.items()):
            if name.startswith("graphirr") and getattr(module, "_degree_stats", None) is real_stats:
                monkeypatch.setattr(module, "_degree_stats", counting_stats)
        monkeypatch.setattr(measures, "_measure_set", counting_measures)

        def histograms(graphs):
            return sorted({tuple(sorted(Counter(g.degrees()).items())) for g in graphs})

        specs = [EnumerationSpec(n=k, connected_only=True) for k in range(1, 6)]
        reports = run_all_suites(specs)
        codes = [code for codes in enumerate_range(specs) for code in codes]
        profiles = histograms(parse_graph6(code) for code in codes)
        assert sorted(stats_seen) == sorted(measures_seen) == profiles
        assert len(profiles) == 29 and reports[0].graphs_checked == len(codes) == 31
        stats_seen.clear()
        measures_seen.clear()
        graphs = [star(5), wheel(6), path(4), path(4)]
        assert run_all_suites(graphs)[0].graphs_checked == 4
        assert sorted(stats_seen) == sorted(measures_seen) == histograms(graphs)
        assert len(stats_seen) == 3

    def test_elapsed_times_suite_evaluation_only(self, monkeypatch):
        real = verify.enumerate_range

        def slow(*args, **kwargs):
            time.sleep(0.2)
            return real(*args, **kwargs)

        monkeypatch.setattr(verify, "enumerate_range", slow)
        spec = [EnumerationSpec(n=4, connected_only=True)]
        assert run_suite(spec, "bounds").elapsed < 0.2
        assert all(rep.elapsed < 0.2 for rep in run_all_suites(spec))
        assert check_deviation_conjecture(spec).elapsed < 0.2
        assert check_omega_conjecture(spec).elapsed < 0.2

    def test_spectral_suite_reports_radius_failure(self, monkeypatch):
        # star(4) has Dmin = 1; a = 4, b = -3 gives mu = (4 - 2)/2 = 1 = Dmin
        monkeypatch.setattr(
            verify, "_two_walk_fit", lambda rows: TwoWalkParams(4, -3)
        )
        rep = run_suite([star(4)], "spectral")
        radius = [(v.lhs, v.rhs) for v in rep.violations if v.check == "two_walk_radius"]
        assert radius == [("4", "4")]


# The three checks as they were before they compared integer numerators,
# bodies unchanged: the oracle for the integer ones.


def reference_check_degree_counts(out: _Outcome, ctx: GraphContext) -> None:
    """Pendant/degree-2 counts from the cycle rank and higher-degree census."""
    hist = ctx.stats.histogram
    c = ctx.cls.cyclomatic or 0
    bw = _branch_weight(hist)
    n_high = sum(cnt for d, cnt in hist.items() if d >= 3)
    out.expect_eq("pendant_count", Fraction(hist.get(1, 0)), Fraction(2 - 2 * c + bw))
    out.expect_eq(
        "degree_two_count",
        Fraction(hist.get(2, 0)),
        Fraction(2 * c + ctx.n - 2 - bw - n_high),
    )


def reference_check_trees(out: _Outcome, ctx: GraphContext) -> None:
    ms = ctx.ms
    tf = _tree_formulas(ctx)
    out.expect_eq("tree_s_closed", tf.s_closed, ms.s)
    out.expect_eq("tree_var_closed", tf.var_closed, ms.var)
    out.expect_eq("tree_irr_closed", tf.irr_closed, ms.irr)
    out.expect_eq("tree_s_from_pendants", tf.n1_based_s, ms.s)

    is_path = ctx.stats.max_degree <= 2
    n = ctx.n
    out.expect_iff("tree_s_floor", ms.s >= tf.s_floor, ms.s, tf.s_floor, is_path)
    out.expect_iff("tree_var_floor", ms.var >= tf.var_floor, ms.var, tf.var_floor, is_path)
    if n >= 3:
        half_n = Fraction(n, 2)
        out.expect_iff("tree_irr_floor", ms.irr >= half_n, ms.irr, half_n, is_path)

    # IRD bracketed by the branch-weight bounds, tight iff no middle degrees
    no_mid = all(d in (1, 2, ctx.stats.max_degree) for d in ctx.stats.degree_set)
    out.expect_iff("tree_ird_upper", ms.ird <= tf.ird_upper, ms.ird, tf.ird_upper, no_mid)
    out.expect_iff("tree_ird_lower", ms.ird >= tf.ird_lower, ms.ird, tf.ird_lower, no_mid)

    # mean-relative identity: Var - S/(2n) is a weighted branch sum, >= 0
    gap_val = ms.var - ms.s / (2 * n)
    out.expect_eq("tree_var_s_gap_identity", gap_val, tf.var_s_gap)
    out.expect_iff(
        "tree_var_s_gap_sign",
        gap_val >= 0,
        gap_val,
        Fraction(0),
        is_path,
        "tree_var_s_gap_equality_iff",
    )
    if n >= 3:
        out.expect_iff("tree_s_ge_ird", ms.s >= ms.ird, ms.s, ms.ird, ctx.cls.is_bidegreed)


def reference_check_cyclic(out: _Outcome, ctx: GraphContext) -> None:
    """Closed forms for cycle rank 1..(n+2)/2; their two bounds are ``bounds`` entries."""
    ms = ctx.ms
    cf = _cyclic_formulas(ctx)
    out.expect_eq("cyclic_s_closed", cf.s_closed, ms.s)
    out.expect_eq("cyclic_var_closed", cf.var_closed, ms.var)
    if not ctx.cls.is_unicyclic:
        return
    assert cf.unicyclic_residue is not None
    out.expect_eq("unicyclic_nvar_minus_s", ctx.n * ms.var - ms.s, cf.unicyclic_residue)
    if not ctx.cls.is_regular:
        assert ms.omega is not None
        floor = Fraction(1, ctx.n)
        within_123 = all(d <= 3 for d in ctx.stats.degree_set)
        out.expect_iff(
            "unicyclic_omega_floor", ms.omega >= floor, ms.omega, floor, within_123
        )


def _perturbed_tree_sides(real):
    def sides(ctx):  # every closed form's numerator one more than it is
        return [(p + 1, q) for p, q in real(ctx)]

    return sides


def _perturbed_cyclic_sides(real):
    def sides(ctx):
        (s, n), (var, n_sq), residue = real(ctx)
        return (s + 1, n), (var + 1, n_sq), None if residue is None else residue + 1

    return sides


def _perturbed_sums(real):
    def sums(ctx):  # S + 1 and Var + 1/7, as in the pinned-failure golden
        m1, ns, v = real(ctx)
        return m1, ns + ctx.n, v + Fraction(ctx.n**2, 7)

    return sums


class TestAgainstFractionChecks:
    """``trees``, ``cyclic`` and ``degree_counts`` record what the Fraction checks did.

    Every profile of trees n <= 12, unicyclic graphs n <= 10 and connected
    graphs n <= 7 is checked as it is, with perturbed degree sums, and with
    every closed form perturbed, so that most checks fail and the printed
    sides of each failure are compared too.
    """

    CHECKS = [
        (verify._check_trees, reference_check_trees, lambda c: c.cls.is_tree and c.n >= 2),
        (verify._check_cyclic, reference_check_cyclic, measures._cyclic_range),
        (
            verify._check_degree_counts,
            reference_check_degree_counts,
            lambda c: c.cls.is_connected and c.n >= 2,
        ),
    ]

    @pytest.fixture(scope="class")
    def profiles(self, oracle_codes):
        keys = {
            (tuple(sorted(Counter(g.degrees()).items())), graph.is_connected(g))
            for g in map(parse_graph6, oracle_codes)
        }
        return sorted(keys)

    @pytest.mark.parametrize("perturbed", ["none", "sums", "closed_forms"])
    def test_same_outcomes(self, profiles, perturbed, monkeypatch):
        if perturbed == "sums":
            monkeypatch.setattr(measures, "_sums", _perturbed_sums(measures._sums))
        elif perturbed == "closed_forms":
            monkeypatch.setattr(measures, "_tree_sides", _perturbed_tree_sides(measures._tree_sides))
            monkeypatch.setattr(verify, "_tree_sides", measures._tree_sides)
            monkeypatch.setattr(
                measures, "_cyclic_sides", _perturbed_cyclic_sides(measures._cyclic_sides)
            )
            monkeypatch.setattr(verify, "_cyclic_sides", measures._cyclic_sides)
        checked = failed = 0
        for key in profiles:
            for check, reference, applies in self.CHECKS:
                ctx = GraphContext(*key)  # fresh, so no cached sum outlives a patch
                if not applies(ctx):
                    continue
                new, old = _Outcome(), _Outcome()
                new.codes = old.codes = ("g",)
                check(new, ctx)
                reference(old, GraphContext(*key))
                assert new.violations == old.violations, key
                checked += 1
                failed += bool(old.violations)
        assert checked > 500
        assert (failed == 0) == (perturbed == "none")


_ENTRY_POINTS = {
    "run_all_suites": run_all_suites,
    "run_suite": lambda population: run_suite(population, "bounds"),
    "check_deviation_conjecture": check_deviation_conjecture,
    "check_omega_conjecture": check_omega_conjecture,
    "run_conjectures": run_conjectures,
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize(
    "population",
    [[], [EnumerationSpec(n=5, m=3, connected_only=True)]],
    ids=["empty-list", "empty-spec"],
)
def test_empty_population_refused(entry, population):
    # zero graphs checked must not read as a pass
    with pytest.raises(InputError, match="empty population"):
        _ENTRY_POINTS[entry](population)


class TestProfiles:
    """Graphs with one order, sorted degrees and connectivity share one context."""

    @pytest.mark.parametrize(
        "specs, graphs, profiles",
        [
            (range_specs("all", 7, connected_only=True), 996, 333),
            (range_specs("trees", 12), 986, 139),
            (range_specs("unicyclic", 10), 1040, 103),
        ],
        ids=["connected-7", "trees-12", "unicyclic-10"],
    )
    def test_every_graph_matches_its_profile(self, specs, graphs, profiles):
        groups, _ = verify._materialise(specs, 1, None)
        codes = [c for p in groups for c in p.codes]
        assert len(codes) == len(set(codes)) == graphs and len(groups) == profiles
        for p in groups:
            shared = p.ctx
            assert [to_graph6(g) for g in p.graphs] == list(p.codes)
            for g in p.graphs:
                assert g.n == shared.n
                assert degree_stats(g) == shared.stats
                assert classify(g) == shared.cls
                assert measure_set(g) == shared.ms

    def test_outcomes_reach_every_graph_of_a_profile(self, monkeypatch):
        # two trees with degrees (3, 2, 2, 1, 1, 1): the leaf hangs off vertex 1 or 2
        spine = [(0, 1), (1, 2), (2, 3), (3, 4)]
        a, b = (from_edge_list(6, spine + [(v, 5)]) for v in (1, 2))
        real = measures._sums

        def off_by_one(ctx):  # nS + n is S + 1, which makes most checks fail
            m1, ns, v = real(ctx)
            return m1, ns + ctx.n, v

        monkeypatch.setattr(measures, "_sums", off_by_one)
        reports = run_all_suites([a, b]) + [check_deviation_conjecture([a, b])]
        code_a, code_b = canonical_code(a), canonical_code(b)
        assert code_a != code_b
        for rep in reports:
            per_code = {
                code: [v._replace(graph="") for v in rep.violations if v.graph == code]
                for code in (code_a, code_b)
            }
            assert per_code[code_a] == per_code[code_b]
            assert len(rep.violations) == 2 * len(per_code[code_a])
        assert sum(len(rep.violations) for rep in reports) >= 10
        assert {rep.suite_id: rep.graphs_checked for rep in reports}["trees"] == 2


class TestConjectures:
    def test_small_scan_clean(self, all_graphs_upto6):
        graphs = [g for pop in all_graphs_upto6.values() for g in pop]
        rep1 = check_deviation_conjecture(graphs)
        assert rep1.passed and not rep1.findings
        assert rep1.graphs_checked == len(graphs)
        rep2 = check_omega_conjecture(graphs)
        assert rep2.passed and not rep2.findings

    def test_omega_floor_outside_the_unit_gap_family_is_a_finding(self, monkeypatch):
        real = measures._measure_set

        def on_the_floor(ctx):  # 2n·Var = S on every graph
            ms = real(ctx)
            return ms._replace(var=ms.s / (2 * ctx.n))

        monkeypatch.setattr(measures, "_measure_set", on_the_floor)
        code = canonical_code(star(5))  # bidegreed, but with degree gap 3
        rep = check_omega_conjecture([star(5)])
        assert rep.passed
        assert [(f.graph, f.check) for f in rep.findings] == [(code, "omega_floor")]
        assert [(e.graph, e.check) for e in rep.equalities] == [(code, "omega_floor")]

    def test_tripartite_strict(self):
        # K_{2,3,5}: strict in both conjectured inequalities
        from graphirr.families import complete_multipartite

        g = complete_multipartite([2, 3, 5])
        rep = check_deviation_conjecture([g])
        assert rep.passed and not rep.equalities
        ms = measure_set(g)
        assert ms.s > ms.ird
        assert ms.var > ms.irr * ms.ird / F(100)

    def test_bidegreed_equalities_expected(self):
        rep = check_deviation_conjecture([star(5), wheel(7), path(4)])
        assert rep.passed
        assert len(rep.equalities) == 6  # both equalities for each graph
        assert not rep.findings

    def test_omega_equality_on_paths(self):
        rep = check_omega_conjecture([path(n) for n in range(3, 9)])
        assert rep.passed
        assert len(rep.equalities) == 6
        assert not rep.findings

    def test_split_strict_omega(self):
        g = complete_split(7, 2)
        ms = measure_set(g)
        assert ms.omega == F(2, 7) > F(1, 14)
        rep = check_omega_conjecture([g])
        assert rep.passed and not rep.equalities

    def test_run_conjectures_materialises_once(self, monkeypatch, tmp_path):
        specs = range_specs("all", 6, connected_only=True)
        cache = str(tmp_path)
        one_by_one = [
            check_deviation_conjecture(specs, cache_dir=cache),
            check_omega_conjecture(specs, cache_dir=cache),
        ]
        real = verify._materialise
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(verify, "_materialise", counted)
        both = run_conjectures(specs, cache_dir=cache)
        assert len(calls) == 1
        assert [report_json(r, include_timing=False) for r in both] == [
            report_json(r, include_timing=False) for r in one_by_one
        ]


class TestExtremal:
    def test_6_12(self):
        res = extremal_search(6, 12)
        assert res.max_s == 6
        assert res.max_var == 1
        assert len(res.max_s_graphs) == 1
        assert len(res.max_var_graphs) == 2
        assert set(res.max_s_graphs) <= set(res.max_var_graphs)
        assert res.coincide

    def test_complete_slice(self):
        res = extremal_search(5, 10)
        assert res.max_s == 0 and res.max_var == 0
        assert res.max_s_graphs == res.max_var_graphs
        assert canonical_code(complete(5)) in res.max_s_graphs

    def test_trees_slice(self):
        res = extremal_search(6, 5)
        star_code = canonical_code(star(6))
        assert res.max_s_graphs == (star_code,)
        assert res.max_var_graphs == (star_code,)
        assert res.coincide

    def test_empty_slice_rejected(self):
        with pytest.raises(InputError):
            extremal_search(6, 3)
        with pytest.raises(InputError):
            extremal_search(6, 16)


_CONNECTED_SLICES = [(n, m) for n in range(1, 8) for m in range(n - 1, n * (n - 1) // 2 + 1)]


@pytest.mark.parametrize("n, m", _CONNECTED_SLICES, ids=[f"{n}-{m}" for n, m in _CONNECTED_SLICES])
def test_extremal_search_is_the_brute_force_maximum(n, m):
    codes = enumerate_codes_cached(EnumerationSpec(n=n, m=m, connected_only=True))
    measures = {code: measure_set(parse_graph6(code)) for code in codes}
    max_s = max(ms.s for ms in measures.values())
    max_var = max(ms.var for ms in measures.values())
    s_graphs = tuple(sorted(c for c, ms in measures.items() if ms.s == max_s))
    var_graphs = tuple(sorted(c for c, ms in measures.items() if ms.var == max_var))
    coincide = set(s_graphs) <= set(var_graphs)
    want = ExtremalResult(n, m, max_s, max_var, s_graphs, var_graphs, coincide)
    assert extremal_search(n, m) == want


class TestOnePath:
    """``run_suite`` reports what the full run reports for the same id.

    A bound id reports that bound's outcomes from the ``bounds`` report, over
    the graphs the bound applies to.
    """

    @pytest.mark.parametrize("perturbed", [False, True], ids=["connected-6", "s-plus-one"])
    def test_run_suite_matches_run_all_suites(self, perturbed, monkeypatch, tmp_path):
        population = range_specs("all", 6, connected_only=True)
        if perturbed:  # S + 1 makes checks fail, so each bound has outcomes to report
            real = measures._sums

            def off_by_one(ctx):  # nS + n is S + 1
                m1, ns, v = real(ctx)
                return m1, ns + ctx.n, v

            monkeypatch.setattr(measures, "_sums", off_by_one)
        cache = str(tmp_path)
        full = {rep.suite_id: rep for rep in run_all_suites(population, cache_dir=cache)}
        bounds = full["bounds"]
        applies = Counter(  # graph by graph, each bound's count of graphs it applies to
            rec.bound_id
            for codes in enumerate_range(population, cache_dir=cache)
            for code in codes
            for rec in bound_report(parse_graph6(code))
            if rec.agreement != measures.NOT_APPLICABLE
        )
        kept = 0
        for suite_id in SUITE_IDS:
            want = full.get(suite_id)
            if want is None:
                want = bounds._replace(
                    suite_id=suite_id,
                    graphs_checked=applies[suite_id],
                    violations=tuple(v for v in bounds.violations if v.check == suite_id),
                    findings=tuple(f for f in bounds.findings if f.check == suite_id),
                )
                kept += len(want.violations)
            got = run_suite(population, suite_id, cache_dir=cache)
            assert report_json(got, include_timing=False) == report_json(
                want, include_timing=False
            )
        assert kept == len(bounds.violations)  # every bounds outcome is some bound's
        assert (kept > 0) == perturbed
        assert len(applies) == 11 and min(applies.values()) < bounds.graphs_checked


class TestUnitGapOmega:
    """7-vertex bidegreed graphs with degree gap 1 all share Var/S = 1/14."""

    def build_population(self):
        from graphirr.families import cycle

        chorded = from_edge_list(7, cycle(7).edges() + [(0, 2)])  # m = 8, degrees {3, 2}
        dense = from_edge_list(
            7,
            [
                (u, v)
                for u in range(7)
                for v in range(u + 1, 7)
                if (u, v) not in {(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)}
            ],
        )  # K_7 minus two paths: m = 16, degrees {5, 4}
        return [path(7), chorded, dense]

    def test_omega_constant_across_edge_counts(self):
        seen_m = set()
        for g in self.build_population():
            ms = measure_set(g)
            st = sorted(set(g.degrees()))
            assert len(st) == 2 and st[1] - st[0] == 1
            assert ms.omega == F(1, 14), g
            seen_m.add(g.m)
        assert seen_m == {6, 8, 16}

    def test_suite_over_population(self):
        rep = run_suite(self.build_population(), "omega")
        assert rep.passed and rep.graphs_checked == 3


class TestWorkerInvariance:
    def test_report_independent_of_workers(self):
        specs = [EnumerationSpec(n=5, connected_only=True)]
        a = run_suite(specs, "bounds", workers=1)
        b = run_suite(specs, "bounds", workers=2)
        assert report_json(a, include_timing=False) == report_json(b, include_timing=False)


class TestSplitK:
    def test_rule_values(self):
        assert max_deviation_split_k(12) == (4,)
        assert max_deviation_split_k(7) == (2,)
        assert max_deviation_split_k(30) == (10,)

    def test_tie_when_n_mod_3_is_2(self):
        assert max_deviation_split_k(5) == (1, 2)
        assert max_deviation_split_k(8) == (2, 3)
        # the tie is exact
        assert measure_set(complete_split(8, 2)).s == measure_set(
            complete_split(8, 3)
        ).s

    @pytest.mark.parametrize("n", range(4, 31))
    def test_rule_matches_brute_force(self, n):
        assert max_deviation_split_k(n) == split_deviation_argmax(n)

    def test_brute_force_matches_built_graphs(self):
        # the argmax reads S off the degree multiset; build each CS(n, k) instead
        for n in range(4, 25):
            s = {k: measure_set(complete_split(n, k)).s for k in range(1, n)}
            assert split_deviation_argmax(n) == tuple(k for k in s if s[k] == max(s.values()))

    def test_small_n_rejected(self):
        with pytest.raises(InputError):
            max_deviation_split_k(3)
