import dataclasses
import sys
import time
from fractions import Fraction as F

import pytest

from graphirr import graph, verify
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
from graphirr.measures import measure_set
from graphirr.serialize import report_json
from graphirr.spectral import TwoWalkParams
from graphirr.verify import (
    SUITE_IDS,
    ExtremalResult,
    check_deviation_conjecture,
    check_omega_conjecture,
    extremal_search,
    max_deviation_split_k,
    run_all_suites,
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
        rep = run_suite([wheel(6), complete_split(7, 2)], "dominating_var_cap")
        assert rep.passed

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
        uni_spec = EnumerationSpec(n=10, population="unicyclic")
        rep = run_suite(uni_spec, "cyclic")
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
        real = graph.degree_stats
        seen = []

        def counting(g):
            seen.append(canonical_code(g))
            return real(g)

        for name, module in list(sys.modules.items()):
            if name.startswith("graphirr") and getattr(module, "degree_stats", None) is real:
                monkeypatch.setattr(module, "degree_stats", counting)
        specs = [EnumerationSpec(n=k, connected_only=True) for k in range(1, 6)]
        reports = run_all_suites(specs)
        codes = [code for codes in enumerate_range(specs) for code in codes]
        first_of_profile: dict[tuple, str] = {}
        for code in codes:  # sorted within each n, so the first is the least code
            g = parse_graph6(code)
            first_of_profile.setdefault((g.n, tuple(sorted(g.degrees()))), code)
        assert sorted(seen) == sorted(first_of_profile.values())
        assert len(seen) == 29 and reports[0].graphs_checked == len(codes) == 31
        seen.clear()
        graphs = [star(5), wheel(6), path(4), path(4)]
        assert run_all_suites(graphs)[0].graphs_checked == 4
        assert sorted(seen) == sorted(canonical_code(g) for g in graphs[:3])

    def test_elapsed_times_suite_evaluation_only(self, monkeypatch):
        real = verify.enumerate_range_cached

        def slow(*args, **kwargs):
            time.sleep(0.2)
            return real(*args, **kwargs)

        monkeypatch.setattr(verify, "enumerate_range_cached", slow)
        spec = EnumerationSpec(n=4, connected_only=True)
        assert run_suite(spec, "bounds").elapsed < 0.2
        assert all(rep.elapsed < 0.2 for rep in run_all_suites(spec))
        assert check_deviation_conjecture(spec).elapsed < 0.2
        assert check_omega_conjecture(spec).elapsed < 0.2

    def test_spectral_suite_reports_radius_failure(self, monkeypatch):
        # star(4) has Dmin = 1; a = 4, b = -3 gives mu = (4 - 2)/2 = 1 = Dmin
        monkeypatch.setattr(
            verify, "two_walk_params", lambda g, ctx=None: TwoWalkParams(4, -3)
        )
        rep = run_suite([star(4)], "spectral")
        radius = [(v.lhs, v.rhs) for v in rep.violations if v.check == "two_walk_radius"]
        assert radius == [("4", "4")]


_ENTRY_POINTS = {
    "run_all_suites": run_all_suites,
    "run_suite": lambda population: run_suite(population, "bounds"),
    "check_deviation_conjecture": check_deviation_conjecture,
    "check_omega_conjecture": check_omega_conjecture,
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
                st = degree_stats(g)
                assert sorted(st.degrees) == sorted(shared.stats.degrees)
                assert dataclasses.replace(st, degrees=shared.stats.degrees) == shared.stats
                assert classify(g, st) == shared.cls
                assert measure_set(g, st) == shared.ms

    def test_outcomes_reach_every_graph_of_a_profile(self, monkeypatch):
        # two trees with degrees (3, 2, 2, 1, 1, 1): the leaf hangs off vertex 1 or 2
        spine = [(0, 1), (1, 2), (2, 3), (3, 4)]
        a, b = (from_edge_list(6, spine + [(v, 5)]) for v in (1, 2))
        real = verify.context

        def off_by_one(g):  # S + 1 makes most checks fail
            ctx = real(g)
            return dataclasses.replace(ctx, ms=dataclasses.replace(ctx.ms, s=ctx.ms.s + 1))

        monkeypatch.setattr(verify, "context", off_by_one)
        reports = run_all_suites([a, b]) + [check_deviation_conjecture([a, b])]
        code_a, code_b = canonical_code(a), canonical_code(b)
        assert code_a != code_b
        for rep in reports:
            per_code = {
                code: [dataclasses.replace(v, graph="") for v in rep.violations if v.graph == code]
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
    """``run_suite`` reports what the full run reports for the same id."""

    @pytest.mark.parametrize("perturbed", [False, True], ids=["connected-6", "s-plus-one"])
    def test_run_suite_matches_run_all_suites(self, perturbed, monkeypatch, tmp_path):
        population = range_specs("all", 6, connected_only=True)
        if perturbed:  # S + 1 makes checks fail, so the bound filter has outcomes to keep
            real = verify.context

            def off_by_one(g):
                ctx = real(g)
                return dataclasses.replace(ctx, ms=dataclasses.replace(ctx.ms, s=ctx.ms.s + 1))

            monkeypatch.setattr(verify, "context", off_by_one)
        cache = str(tmp_path)
        full = {rep.suite_id: rep for rep in run_all_suites(population, cache_dir=cache)}
        bounds = full["bounds"]
        kept = 0
        for suite_id in SUITE_IDS:
            want = full.get(suite_id)
            if want is None:
                want = dataclasses.replace(
                    bounds,
                    suite_id=suite_id,
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


class TestUnitGapOmega:
    """7-vertex bidegreed graphs with degree gap 1 all share Var/S = 1/14."""

    def build_population(self):
        from graphirr.families import cycle

        chorded = cycle(7).with_edge(0, 2)  # m = 8, degrees {3, 2}
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

    def test_small_n_rejected(self):
        with pytest.raises(InputError):
            max_deviation_split_k(3)
