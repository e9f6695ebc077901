"""Verification suites over graph populations, conjecture scans, extremal search.

A suite walks a population of isomorphism-class representatives and records

* violations -- an asserted inequality or identity failed (hard failure);
* findings   -- an observed equality disagrees with the documented structural
  condition for a bound whose condition is known to be ambiguous, or an
  equality shows up outside the expected family during a conjecture scan;
* equalities -- informational list of equality cases.

Reports are deterministic: populations arrive sorted by canonical code and
all outcome lists are re-sorted before packaging, so worker count and
scheduling cannot change the result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .canon import canonical_code
from .enumeration import EnumerationSpec, enumerate_codes_cached
from .errors import InputError
from .families import complete_split
from .graph import Graph
from .io import parse_graph6
from .measures import (
    _BOUNDS,
    AMBIGUOUS_BOUNDS,
    BOUND_IDS,
    CONDITION_MISMATCH,
    NOT_APPLICABLE,
    GraphContext,
    _branch_weight,
    _cyclic_range,
    _degrees_within_extremes_or_mean,
    _evaluate,
    bound_report,
    context,
    cyclic_formulas,
    measure_set,
    tree_formulas,
)
from .serialize import fraction_text
from .spectral import (
    two_walk_params,
    two_walk_radius_test,
    variance_spectral_identity,
)


@dataclass(frozen=True)
class Violation:
    graph: str
    check: str
    lhs: str
    rhs: str
    note: str = ""


@dataclass(frozen=True)
class Finding:
    graph: str
    check: str
    note: str


@dataclass(frozen=True)
class EqualityCase:
    graph: str
    check: str
    note: str = ""


@dataclass(frozen=True)
class VerificationReport:
    suite_id: str
    population: str
    graphs_checked: int
    violations: tuple[Violation, ...]
    findings: tuple[Finding, ...]
    equalities: tuple[EqualityCase, ...]
    elapsed: float  # seconds in suite evaluation; enumeration and contexts excluded

    @property
    def passed(self) -> bool:
        return not self.violations


class _Outcome:
    def __init__(self) -> None:
        self.checked = 0
        self.violations: list[Violation] = []
        self.findings: list[Finding] = []
        self.equalities: list[EqualityCase] = []

    def expect(
        self,
        code: str,
        check: str,
        ok: bool,
        lhs: Fraction,
        rhs: Fraction,
        note: str = "",
    ) -> None:
        if not ok:
            self.violations.append(
                Violation(code, check, fraction_text(lhs), fraction_text(rhs), note)
            )

    def expect_eq(
        self, code: str, check: str, lhs: Fraction, rhs: Fraction, note: str = ""
    ) -> None:
        self.expect(code, check, lhs == rhs, lhs, rhs, note)

    def expect_iff(
        self,
        code: str,
        check: str,
        ok: bool,
        lhs: Fraction,
        rhs: Fraction,
        predicted: bool,
        equality_check: Optional[str] = None,
    ) -> None:
        """The inequality ``check``, and equality exactly when ``predicted``."""
        self.expect(code, check, ok, lhs, rhs)
        self.expect(
            code,
            equality_check or check + "_equality_iff",
            (lhs == rhs) == predicted,
            lhs,
            rhs,
            "equality condition mismatch",
        )


Population = Union[EnumerationSpec, Sequence[EnumerationSpec], Sequence[Graph]]
#: (canonical code, context) per graph, sorted by code.
Pairs = list[tuple[str, GraphContext]]


def _materialise(
    population: Population, workers: int, cache_dir: Optional[str]
) -> tuple[Pairs, str]:
    """The population's graphs, each with the one context every suite reads."""
    if isinstance(population, EnumerationSpec):
        population = [population]
    population = list(population)
    if population and isinstance(population[0], EnumerationSpec):
        for spec in population:
            spec.validate()  # reject out-of-cap requests before any work
        pairs: Pairs = []
        descs = []
        for spec in population:
            codes = enumerate_codes_cached(spec, workers=workers, cache_dir=cache_dir)
            pairs.extend((c, context(parse_graph6(c))) for c in codes)
            descs.append(spec.describe())
        return pairs, "; ".join(descs)
    graphs = list(population)
    coded = sorted(((canonical_code(g), g) for g in graphs), key=lambda item: item[0])
    return [(c, context(g)) for c, g in coded], f"explicit list of {len(graphs)} graphs"


# --- individual suites ------------------------------------------------------


def _suite_bounds(pairs: Pairs, only: Optional[str] = None) -> _Outcome:
    out = _Outcome()
    for code, ctx in pairs:
        out.checked += 1
        for rec in bound_report(ctx.g, ctx):
            if only is not None and rec.bound_id != only:
                continue
            if rec.agreement == NOT_APPLICABLE:
                continue
            out.expect(
                code, rec.bound_id, rec.holds, rec.lhs, rec.rhs, "inequality failed"
            )
            if rec.agreement == CONDITION_MISMATCH:
                note = (
                    "equality observed without the documented condition"
                    if rec.is_equality
                    else "documented equality condition held strictly"
                )
                if rec.bound_id in AMBIGUOUS_BOUNDS:
                    out.findings.append(Finding(code, rec.bound_id, note))
                else:
                    out.expect(code, rec.bound_id, False, rec.lhs, rec.rhs, note)
    return out


def _suite_bidegreed(pairs: Pairs) -> _Outcome:
    """Exact relations tying S, IRD and Var together on two-degree graphs."""
    out = _Outcome()
    for code, ctx in pairs:
        if not (ctx.cls.is_connected and ctx.cls.is_bidegreed):
            continue
        out.checked += 1
        ms = ctx.ms
        out.expect_eq(code, "s_eq_ird", ms.s, ms.ird)
        out.expect_eq(code, "two_n_var_eq_gap_s", 2 * ctx.n * ms.var, ctx.gap * ms.s)
        closed = Fraction(ctx.n_max * ctx.n_min * ctx.gap**2, ctx.n**2)
        out.expect_eq(code, "var_product_closed_form", ms.var, closed)
        out.expect_eq(code, "var_decomposition_exact", ms.var, ctx.product_bound)
    return out


def _suite_balanced(pairs: Pairs) -> _Outcome:
    """Balanced bidegreed graphs: S equals IRR and n^2 Var equals S^2."""
    out = _Outcome()
    for code, ctx in pairs:
        if not (ctx.cls.is_connected and ctx.cls.is_balanced_bidegreed):
            continue
        out.checked += 1
        out.expect_eq(code, "s_eq_irr", ctx.ms.s, ctx.ms.irr)
        out.expect_eq(
            code, "n_sq_var_eq_s_sq", ctx.n**2 * ctx.ms.var, ctx.ms.s**2
        )
    return out


def _suite_degree_counts(pairs: Pairs) -> _Outcome:
    """Pendant/degree-2 counts from the cycle rank and higher-degree census."""
    out = _Outcome()
    for code, ctx in pairs:
        if not ctx.cls.is_connected or ctx.n < 2:
            continue
        out.checked += 1
        hist = ctx.stats.histogram
        c = ctx.cls.cyclomatic or 0
        bw = _branch_weight(hist)
        n_high = sum(cnt for d, cnt in hist.items() if d >= 3)
        out.expect_eq(
            code, "pendant_count", Fraction(hist.get(1, 0)), Fraction(2 - 2 * c + bw)
        )
        out.expect_eq(
            code,
            "degree_two_count",
            Fraction(hist.get(2, 0)),
            Fraction(2 * c + ctx.n - 2 - bw - n_high),
        )
    return out


def _is_path_graph(ctx: GraphContext) -> bool:
    return ctx.cls.is_tree and ctx.stats.max_degree <= 2


def _suite_trees(pairs: Pairs) -> _Outcome:
    out = _Outcome()
    for code, ctx in pairs:
        if not ctx.cls.is_tree or ctx.n < 2:
            continue
        out.checked += 1
        ms = ctx.ms
        tf = tree_formulas(ctx.g, ctx)
        out.expect_eq(code, "tree_s_closed", tf.s_closed, ms.s)
        out.expect_eq(code, "tree_var_closed", tf.var_closed, ms.var)
        out.expect_eq(code, "tree_irr_closed", tf.irr_closed, ms.irr)
        out.expect_eq(code, "tree_s_from_pendants", tf.n1_based_s, ms.s)

        is_path = _is_path_graph(ctx)
        n = ctx.n
        out.expect_iff(
            code, "tree_s_floor", ms.s >= tf.s_floor, ms.s, tf.s_floor, is_path
        )
        out.expect_iff(
            code,
            "tree_var_floor",
            ms.var >= tf.var_floor,
            ms.var,
            tf.var_floor,
            is_path,
        )
        if n >= 3:
            half_n = Fraction(n, 2)
            out.expect_iff(
                code, "tree_irr_floor", ms.irr >= half_n, ms.irr, half_n, is_path
            )

        # IRD bracketed by the branch-weight bounds, tight iff no middle degrees
        no_mid = all(d in (1, 2, ctx.stats.max_degree) for d in ctx.stats.degree_set)
        out.expect_iff(
            code, "tree_ird_upper", ms.ird <= tf.ird_upper, ms.ird, tf.ird_upper, no_mid
        )
        out.expect_iff(
            code, "tree_ird_lower", ms.ird >= tf.ird_lower, ms.ird, tf.ird_lower, no_mid
        )

        # mean-relative identity: Var - S/(2n) is a weighted branch sum, >= 0
        gap_val = ms.var - ms.s / (2 * n)
        out.expect_eq(code, "tree_var_s_gap_identity", gap_val, tf.var_s_gap)
        out.expect_iff(
            code,
            "tree_var_s_gap_sign",
            gap_val >= 0,
            gap_val,
            Fraction(0),
            is_path,
            "tree_var_s_gap_equality_iff",
        )
        if n >= 4:
            assert ms.omega is not None
            floor = Fraction(1, 2 * n)
            out.expect_iff(
                code, "tree_omega_floor", ms.omega >= floor, ms.omega, floor, is_path
            )
        if n >= 3:
            out.expect_iff(
                code,
                "tree_s_ge_ird",
                ms.s >= ms.ird,
                ms.s,
                ms.ird,
                ctx.cls.is_bidegreed,
            )
    return out


_BOUND_DEFS = {b.bound_id: b for b in _BOUNDS}


def _suite_cyclic(pairs: Pairs) -> _Outcome:
    out = _Outcome()
    for code, ctx in pairs:
        if not _cyclic_range(ctx):
            continue
        out.checked += 1
        ms = ctx.ms
        cf = cyclic_formulas(ctx.g, ctx)
        out.expect_eq(code, "cyclic_s_closed", cf.s_closed, ms.s)
        out.expect_eq(code, "cyclic_var_closed", cf.var_closed, ms.var)
        if ctx.cls.is_unicyclic:
            assert cf.unicyclic_s is not None and cf.unicyclic_residue is not None
            out.expect_eq(code, "unicyclic_s_eq_2n1", cf.unicyclic_s, ms.s)
            nvar_minus_s = ctx.n * ms.var - ms.s
            out.expect_eq(
                code, "unicyclic_nvar_minus_s", nvar_minus_s, cf.unicyclic_residue
            )
            if not ctx.cls.is_regular:
                assert ms.omega is not None
                floor = Fraction(1, ctx.n)
                within_123 = all(d <= 3 for d in ctx.stats.degree_set)
                out.expect_iff(
                    code,
                    "unicyclic_omega_floor",
                    ms.omega >= floor,
                    ms.omega,
                    floor,
                    within_123,
                )
        # two bounds of the suite, reported under this suite's check names
        rec = _evaluate(_BOUND_DEFS["omega_ge_cyclic_floor"], ctx)
        out.expect(code, "cyclic_omega_floor", rec.holds, rec.lhs, rec.rhs)
        rec = _evaluate(_BOUND_DEFS["s_le_pendant_cyclic_cap"], ctx)
        out.expect_iff(
            code,
            "pendant_cyclic_cap",
            rec.holds,
            rec.lhs,
            rec.rhs,
            rec.predicted_equality,
        )
    return out


def _suite_omega(pairs: Pairs) -> _Outcome:
    """Var/S of a bidegreed graph depends only on n and the degree gap."""
    out = _Outcome()
    for code, ctx in pairs:
        if not (ctx.cls.is_connected and ctx.cls.is_bidegreed):
            continue
        out.checked += 1
        assert ctx.ms.omega is not None
        expected = Fraction(ctx.gap, 2 * ctx.n)
        out.expect_eq(code, "omega_gap_ratio", ctx.ms.omega, expected)
        if ctx.gap == 1:
            out.expect_eq(
                code, "omega_unit_gap", ctx.ms.omega, Fraction(1, 2 * ctx.n)
            )
    return out


def _suite_spectral(pairs: Pairs) -> _Outcome:
    out = _Outcome()
    for code, ctx in pairs:
        if not ctx.cls.is_connected or ctx.cls.is_regular:
            continue
        params = two_walk_params(ctx.g, ctx)
        if params is None:
            continue
        out.checked += 1
        out.expect(
            code,
            "two_walk_integral",
            params.a >= 0,
            Fraction(params.a),
            Fraction(0),
        )
        ident = variance_spectral_identity(ctx.g, ctx)
        out.expect(
            code,
            "two_walk_var_identity",
            ident.matches,
            ident.var_via_params,
            ctx.ms.var,
        )
        holds, disc, square = two_walk_radius_test(params, ctx.stats.min_degree)
        out.expect(
            code,
            "two_walk_radius",
            holds,
            Fraction(disc),
            Fraction(square),
            "a^2+4b <= (a-2*Dmin)^2: Dmin <= mu, so lambda is not the spectral radius",
        )
    return out


def _suite_max_zagreb_universal(pairs: Pairs) -> _Outcome:
    """Among same-order irregular graphs, max-M1 graphs have a universal vertex.

    Meaningful only when the population contains, for each order present,
    every connected irregular graph of that order.
    """
    out = _Outcome()
    by_n: dict[int, list[tuple[str, GraphContext]]] = {}
    for code, ctx in pairs:
        if ctx.cls.is_regular or not ctx.cls.is_connected:
            continue
        by_n.setdefault(ctx.n, []).append((code, ctx))
    for n, items in sorted(by_n.items()):
        top = max(ctx.ms.m1 for _, ctx in items)
        for code, ctx in items:
            if ctx.ms.m1 != top:
                continue
            out.checked += 1
            out.expect(
                code,
                "max_zagreb_has_universal",
                ctx.stats.universal_count >= 1,
                ctx.ms.m1,
                top,
                f"max first Zagreb index among irregular graphs on {n} vertices",
            )
    return out


_SUITES: dict[str, Callable[[Pairs], _Outcome]] = {
    "bounds": _suite_bounds,
    "bidegreed": _suite_bidegreed,
    "balanced": _suite_balanced,
    "degree_counts": _suite_degree_counts,
    "trees": _suite_trees,
    "cyclic": _suite_cyclic,
    "omega": _suite_omega,
    "spectral": _suite_spectral,
    "max_zagreb_universal": _suite_max_zagreb_universal,
}

SUITE_IDS = tuple(_SUITES) + tuple(BOUND_IDS)


def run_suite(
    population: Population,
    suite_id: str,
    *,
    workers: int = 1,
    cache_dir: Optional[str] = None,
) -> VerificationReport:
    """Run one suite over a population and package a deterministic report."""
    pairs, desc = _materialise(population, workers, cache_dir)
    start = time.perf_counter()
    if suite_id in _SUITES:
        outcome = _SUITES[suite_id](pairs)
    elif suite_id in BOUND_IDS:
        outcome = _suite_bounds(pairs, only=suite_id)
    else:
        raise InputError(f"unknown suite {suite_id!r}; choose from {sorted(SUITE_IDS)}")
    return _package(suite_id, desc, outcome, start)


def run_all_suites(
    population: Population,
    *,
    workers: int = 1,
    cache_dir: Optional[str] = None,
) -> list[VerificationReport]:
    pairs, desc = _materialise(population, workers, cache_dir)
    reports = []
    for suite_id, fn in _SUITES.items():
        start = time.perf_counter()
        reports.append(_package(suite_id, desc, fn(pairs), start))
    return reports


def _package(
    suite_id: str, desc: str, outcome: _Outcome, start: float
) -> VerificationReport:
    return VerificationReport(
        suite_id=suite_id,
        population=desc,
        graphs_checked=outcome.checked,
        violations=tuple(sorted(outcome.violations, key=lambda v: (v.graph, v.check))),
        findings=tuple(sorted(outcome.findings, key=lambda f: (f.graph, f.check))),
        equalities=tuple(
            sorted(outcome.equalities, key=lambda e: (e.graph, e.check))
        ),
        elapsed=time.perf_counter() - start,
    )


# --- conjecture scans -------------------------------------------------------


def check_deviation_conjecture(
    population: Population,
    *,
    workers: int = 1,
    cache_dir: Optional[str] = None,
) -> VerificationReport:
    """Scan for S >= IRD and Var >= IRR*IRD/n^2 over arbitrary simple graphs.

    Equality in both is expected exactly when every degree lies in
    {min degree, average degree, max degree}; deviations from that pattern
    are reported as findings, never as violations.
    """
    pairs, desc = _materialise(population, workers, cache_dir)
    start = time.perf_counter()
    out = _Outcome()
    for code, ctx in pairs:
        out.checked += 1
        ms = ctx.ms
        second_rhs = ms.irr * ms.ird / Fraction(ctx.n**2)
        out.expect(code, "s_ge_ird", ms.s >= ms.ird, ms.s, ms.ird)
        out.expect(
            code, "var_ge_irr_ird", ms.var >= second_rhs, ms.var, second_rhs
        )
        predicted = _degrees_within_extremes_or_mean(ctx)
        for check, equal in (
            ("s_eq_ird", ms.s == ms.ird),
            ("var_eq_irr_ird", ms.var == second_rhs),
        ):
            if equal:
                out.equalities.append(EqualityCase(code, check))
            if equal != predicted:
                note = "equality pattern disagrees with the degree-set condition"
                out.findings.append(Finding(code, check, note))
    return _package("conjecture-ird", desc, out, start)


def check_omega_conjecture(
    population: Population,
    *,
    workers: int = 1,
    cache_dir: Optional[str] = None,
) -> VerificationReport:
    """Scan for Var/S >= 1/(2n), tested as 2n*Var >= S; regular graphs skipped.

    Equality is expected exactly for bidegreed graphs with degree gap 1;
    other equality cases are recorded as findings.
    """
    pairs, desc = _materialise(population, workers, cache_dir)
    start = time.perf_counter()
    out = _Outcome()
    for code, ctx in pairs:
        if ctx.cls.is_regular:
            continue
        out.checked += 1
        lhs = 2 * ctx.n * ctx.ms.var
        out.expect(code, "two_n_var_ge_s", lhs >= ctx.ms.s, lhs, ctx.ms.s)
        if lhs == ctx.ms.s:
            out.equalities.append(EqualityCase(code, "omega_floor"))
            if not (ctx.cls.is_bidegreed and ctx.gap == 1):
                out.findings.append(
                    Finding(
                        code,
                        "omega_floor",
                        "equality outside the unit-gap bidegreed family",
                    )
                )
    return _package("conjecture-omega", desc, out, start)


# --- extremal search --------------------------------------------------------


@dataclass(frozen=True)
class ExtremalResult:
    n: int
    m: int
    max_s: Fraction
    max_var: Fraction
    max_s_graphs: tuple[str, ...]
    max_var_graphs: tuple[str, ...]
    coincide: bool


def extremal_search(
    n: int,
    m: int,
    *,
    workers: int = 1,
    cache_dir: Optional[str] = None,
) -> ExtremalResult:
    """Maximisers of S and of Var over connected classes with given n, m.

    ``coincide`` answers whether every deviation maximiser also maximises the
    variance.  Ties are reported in full.
    """
    if not (n - 1 <= m <= n * (n - 1) // 2):
        raise InputError(f"no connected graphs with n={n}, m={m}")
    spec = EnumerationSpec(n=n, m=m, connected_only=True)
    codes = enumerate_codes_cached(spec, workers=workers, cache_dir=cache_dir)
    if not codes:
        raise InputError(f"no connected graphs with n={n}, m={m}")
    best_s: Fraction | None = None
    best_var: Fraction | None = None
    s_graphs: list[str] = []
    var_graphs: list[str] = []
    for code in codes:
        ms = measure_set(parse_graph6(code))
        if best_s is None or ms.s > best_s:
            best_s, s_graphs = ms.s, [code]
        elif ms.s == best_s:
            s_graphs.append(code)
        if best_var is None or ms.var > best_var:
            best_var, var_graphs = ms.var, [code]
        elif ms.var == best_var:
            var_graphs.append(code)
    assert best_s is not None and best_var is not None
    return ExtremalResult(
        n=n,
        m=m,
        max_s=best_s,
        max_var=best_var,
        max_s_graphs=tuple(sorted(s_graphs)),
        max_var_graphs=tuple(sorted(var_graphs)),
        coincide=set(s_graphs) <= set(var_graphs),
    )


def max_deviation_split_k(n: int) -> tuple[int, ...]:
    """Divisibility-rule clique sizes maximising S over complete split graphs.

    Exactly one rule case applies unless n = 2 (mod 3), where two adjacent
    values of k tie; both are returned, sorted.
    """
    if n < 4:
        raise InputError("rule defined for n >= 4")
    ks = set()
    for shift in (0, -1, -2, 1):
        if (n + shift) % 3 == 0:
            ks.add((n + shift) // 3)
    return tuple(sorted(ks))


def split_deviation_argmax(n: int) -> tuple[int, ...]:
    """Brute-force argmax of S(CS(n, k)) over k, by building each graph."""
    if n < 4:
        raise InputError("need n >= 4")
    best: Fraction | None = None
    arg: list[int] = []
    for k in range(1, n):
        s = measure_set(complete_split(n, k)).s
        if best is None or s > best:
            best, arg = s, [k]
        elif s == best:
            arg.append(k)
    return tuple(arg)
