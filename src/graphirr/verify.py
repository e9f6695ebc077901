"""Verification suites over graph populations, conjecture scans, extremal search.

A suite walks a population of isomorphism-class representatives and records

* violations -- an asserted inequality or identity failed (hard failure);
* findings   -- an observed equality disagrees with the documented structural
  condition for a bound whose condition is known to be ambiguous, or an
  equality shows up outside the expected family during a conjecture scan;
* equalities -- informational list of equality cases.

Every check but one reads only a graph's degree profile: its order, sorted
degrees and connectivity.  The population is grouped by profile, each profile
gets one context, and every report but ``spectral`` runs through the loop of
:func:`_per_profile`, which makes the report's check once for each profile it
applies to and records the outcome under every code in it.  The two-walk fit
of ``spectral`` reads neighbour-degree sums, which the degrees do not
determine, and is the only check made per graph.  No suite restates a check
that another makes on the same graphs, except ``balanced``, whose two
identities are equality cases of ``s_le_irr`` and ``s_sq_le_n_sq_var``.

Reports are deterministic: all outcome lists are sorted by graph code before
packaging, so grouping, worker count and scheduling cannot change the result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

from .canon import canonical_code
from .enumeration import EnumerationSpec, enumerate_range_cached
from .errors import InputError
from .families import complete_split
from .graph import Graph, is_connected
from .io import parse_graph6
from .measures import (
    AMBIGUOUS_BOUNDS,
    BOUND_IDS,
    CONDITION_MISMATCH,
    NOT_APPLICABLE,
    GraphContext,
    _branch_weight,
    _cyclic_range,
    _degrees_within_extremes_or_mean,
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
    elapsed: float  # seconds in suite evaluation; enumeration, profiles and contexts excluded

    @property
    def passed(self) -> bool:
        return not self.violations


class _Outcome:
    """Outcomes of one report; each is recorded once for every code in ``codes``.

    The loop that runs a check sets ``codes`` to the graphs the check is about.
    """

    def __init__(self) -> None:
        self.checked = 0
        self.codes: Sequence[str] = ()
        self.violations: list[Violation] = []
        self.findings: list[Finding] = []
        self.equalities: list[EqualityCase] = []

    def expect(self, check: str, ok: bool, lhs: Fraction, rhs: Fraction, note: str = "") -> None:
        if not ok:
            lhs_text, rhs_text = fraction_text(lhs), fraction_text(rhs)
            self.violations += (Violation(c, check, lhs_text, rhs_text, note) for c in self.codes)

    def expect_eq(self, check: str, lhs: Fraction, rhs: Fraction) -> None:
        self.expect(check, lhs == rhs, lhs, rhs)

    def find(self, check: str, note: str) -> None:
        self.findings += (Finding(c, check, note) for c in self.codes)

    def equal(self, check: str) -> None:
        self.equalities += (EqualityCase(c, check) for c in self.codes)

    def expect_iff(
        self,
        check: str,
        ok: bool,
        lhs: Fraction,
        rhs: Fraction,
        predicted: bool,
        equality_check: Optional[str] = None,
    ) -> None:
        """The inequality ``check``, and equality exactly when ``predicted``."""
        self.expect(check, ok, lhs, rhs)
        self.expect(
            equality_check or check + "_equality_iff",
            (lhs == rhs) == predicted,
            lhs,
            rhs,
            "equality condition mismatch",
        )


Population = Union[EnumerationSpec, Sequence[EnumerationSpec], Sequence[Graph]]


class _Profile(NamedTuple):
    """The graphs of one degree profile, with the context they share.

    ``ctx`` is the first graph's context.  Its degree statistics (all but the
    labelled ``degrees``), classification and measures are those of every
    graph here, so they are all that a degree-only check may read.
    """

    codes: tuple[str, ...]
    graphs: tuple[Graph, ...]
    ctx: GraphContext


def _materialise(
    population: Population, workers: int, cache_dir: Optional[str]
) -> tuple[list[_Profile], str]:
    """The population's graphs grouped by (order, sorted degrees, connectivity).

    Each group keeps the order its graphs came in and gets one context.
    """
    if isinstance(population, EnumerationSpec):
        population = [population]
    population = list(population)
    if population and isinstance(population[0], EnumerationSpec):
        lists = enumerate_range_cached(population, workers=workers, cache_dir=cache_dir)
        coded = [(c, parse_graph6(c)) for codes in lists for c in codes]
        desc = "; ".join(spec.describe() for spec in population)
    else:
        coded = sorted(((canonical_code(g), g) for g in population), key=lambda item: item[0])
        desc = f"explicit list of {len(coded)} graphs"
    if not coded:
        raise InputError(f"empty population ({desc}): there is nothing to check")
    groups: dict[tuple, list[tuple[str, Graph]]] = {}
    for code, g in coded:
        key = (g.n, tuple(sorted(g.degrees())), is_connected(g))
        groups.setdefault(key, []).append((code, g))
    profiles = []
    for group in groups.values():
        codes, graphs = zip(*group)
        profiles.append(_Profile(codes, graphs, context(graphs[0])))
    return profiles, desc


# --- degree-only checks, each made once for a profile -----------------------


def _check_bounds(out: _Outcome, ctx: GraphContext) -> None:
    for rec in bound_report(ctx.g, ctx):
        if rec.agreement == NOT_APPLICABLE:
            continue
        out.expect(rec.bound_id, rec.holds, rec.lhs, rec.rhs, "inequality failed")
        if rec.agreement == CONDITION_MISMATCH:
            note = (
                "equality observed without the documented condition"
                if rec.is_equality
                else "documented equality condition held strictly"
            )
            if rec.bound_id in AMBIGUOUS_BOUNDS:
                out.find(rec.bound_id, note)
            else:
                out.expect(rec.bound_id, False, rec.lhs, rec.rhs, note)


def _check_bidegreed(out: _Outcome, ctx: GraphContext) -> None:
    """S equals IRD on two-degree graphs (Var = gap*S/(2n) is ``omega_gap_ratio``)."""
    out.expect_eq("s_eq_ird", ctx.ms.s, ctx.ms.ird)


def _check_balanced(out: _Outcome, ctx: GraphContext) -> None:
    """Balanced bidegreed graphs: S equals IRR and n^2 Var equals S^2."""
    out.expect_eq("s_eq_irr", ctx.ms.s, ctx.ms.irr)
    out.expect_eq("n_sq_var_eq_s_sq", ctx.n**2 * ctx.ms.var, ctx.ms.s**2)


def _check_degree_counts(out: _Outcome, ctx: GraphContext) -> None:
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


def _check_trees(out: _Outcome, ctx: GraphContext) -> None:
    ms = ctx.ms
    tf = tree_formulas(ctx.g, ctx)
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
    if n >= 4:
        assert ms.omega is not None
        floor = Fraction(1, 2 * n)
        out.expect_iff("tree_omega_floor", ms.omega >= floor, ms.omega, floor, is_path)
    if n >= 3:
        out.expect_iff("tree_s_ge_ird", ms.s >= ms.ird, ms.s, ms.ird, ctx.cls.is_bidegreed)


def _check_cyclic(out: _Outcome, ctx: GraphContext) -> None:
    """Closed forms for cycle rank 1..(n+2)/2; their two bounds are ``bounds`` entries."""
    ms = ctx.ms
    cf = cyclic_formulas(ctx.g, ctx)
    out.expect_eq("cyclic_s_closed", cf.s_closed, ms.s)
    out.expect_eq("cyclic_var_closed", cf.var_closed, ms.var)
    if not ctx.cls.is_unicyclic:
        return
    assert cf.unicyclic_s is not None and cf.unicyclic_residue is not None
    out.expect_eq("unicyclic_s_eq_2n1", cf.unicyclic_s, ms.s)
    out.expect_eq("unicyclic_nvar_minus_s", ctx.n * ms.var - ms.s, cf.unicyclic_residue)
    if not ctx.cls.is_regular:
        assert ms.omega is not None
        floor = Fraction(1, ctx.n)
        within_123 = all(d <= 3 for d in ctx.stats.degree_set)
        out.expect_iff(
            "unicyclic_omega_floor", ms.omega >= floor, ms.omega, floor, within_123
        )


def _check_omega(out: _Outcome, ctx: GraphContext) -> None:
    """Var/S of a bidegreed graph depends only on n and the degree gap."""
    assert ctx.ms.omega is not None
    out.expect_eq("omega_gap_ratio", ctx.ms.omega, Fraction(ctx.gap, 2 * ctx.n))


def _check_deviation_conjecture(out: _Outcome, ctx: GraphContext) -> None:
    ms = ctx.ms
    second_rhs = ms.irr * ms.ird / Fraction(ctx.n**2)
    out.expect("s_ge_ird", ms.s >= ms.ird, ms.s, ms.ird)
    out.expect("var_ge_irr_ird", ms.var >= second_rhs, ms.var, second_rhs)
    predicted = _degrees_within_extremes_or_mean(ctx)
    for check, equal in (("s_eq_ird", ms.s == ms.ird), ("var_eq_irr_ird", ms.var == second_rhs)):
        if equal:
            out.equal(check)
        if equal != predicted:
            out.find(check, "equality pattern disagrees with the degree-set condition")


def _check_omega_conjecture(out: _Outcome, ctx: GraphContext) -> None:
    lhs = 2 * ctx.n * ctx.ms.var
    out.expect("two_n_var_ge_s", lhs >= ctx.ms.s, lhs, ctx.ms.s)
    if lhs == ctx.ms.s:
        out.equal("omega_floor")
        if not (ctx.cls.is_bidegreed and ctx.gap == 1):
            out.find("omega_floor", "equality outside the unit-gap bidegreed family")


_Run = Callable[[list[_Profile]], _Outcome]


def _per_profile(
    applies: Callable[[GraphContext], bool], check: Callable[[_Outcome, GraphContext], None]
) -> _Run:
    """A degree-only report: ``check`` made once for each profile that ``applies`` to."""

    def run(profiles: list[_Profile]) -> _Outcome:
        out = _Outcome()
        for profile in profiles:
            if applies(profile.ctx):
                out.checked += len(profile.codes)
                out.codes = profile.codes
                check(out, profile.ctx)
        return out

    return run


# --- the per-graph suite and the per-order maximum --------------------------


def _suite_spectral(profiles: list[_Profile]) -> _Outcome:
    """The one per-graph suite: neighbour-degree sums are not read from the degrees."""
    out = _Outcome()
    for codes, graphs, ctx in profiles:
        if not ctx.cls.is_connected or ctx.cls.is_regular:
            continue
        for code, g in zip(codes, graphs):
            params = two_walk_params(g, ctx)
            if params is None:
                continue
            out.checked += 1
            out.codes = (code,)
            out.expect("two_walk_integral", params.a >= 0, Fraction(params.a), Fraction(0))
            ident = variance_spectral_identity(g, ctx, params)
            out.expect(
                "two_walk_var_identity", ident.matches, ident.var_via_params, ctx.ms.var
            )
            holds, disc, square = two_walk_radius_test(params, ctx.stats.min_degree)
            out.expect(
                "two_walk_radius",
                holds,
                Fraction(disc),
                Fraction(square),
                "a^2+4b <= (a-2*Dmin)^2: Dmin <= mu, so lambda is not the spectral radius",
            )
    return out


def _suite_max_zagreb_universal(profiles: list[_Profile]) -> _Outcome:
    """Among same-order irregular graphs, max-M1 graphs have a universal vertex.

    Meaningful only when the population contains, for each order present,
    every connected irregular graph of that order.
    """

    def irregular(c: GraphContext) -> bool:
        return c.cls.is_connected and not c.cls.is_regular

    top: dict[int, Fraction] = {}  # the largest M1 of each order
    for ctx in (p.ctx for p in profiles if irregular(p.ctx)):
        top[ctx.n] = max(top.get(ctx.n, ctx.ms.m1), ctx.ms.m1)

    def check(out: _Outcome, ctx: GraphContext) -> None:
        out.expect(
            "max_zagreb_has_universal",
            ctx.stats.universal_count >= 1,
            ctx.ms.m1,
            top[ctx.n],
            f"max first Zagreb index among irregular graphs on {ctx.n} vertices",
        )

    return _per_profile(lambda c: irregular(c) and c.ms.m1 == top[c.n], check)(profiles)


def _connected_bidegreed(c: GraphContext) -> bool:
    return c.cls.is_connected and c.cls.is_bidegreed


_SUITES: dict[str, _Run] = {
    "bounds": _per_profile(lambda c: True, _check_bounds),
    "bidegreed": _per_profile(_connected_bidegreed, _check_bidegreed),
    "balanced": _per_profile(
        lambda c: c.cls.is_connected and c.cls.is_balanced_bidegreed, _check_balanced
    ),
    "degree_counts": _per_profile(
        lambda c: c.cls.is_connected and c.n >= 2, _check_degree_counts
    ),
    "trees": _per_profile(lambda c: c.cls.is_tree and c.n >= 2, _check_trees),
    "cyclic": _per_profile(_cyclic_range, _check_cyclic),
    "omega": _per_profile(_connected_bidegreed, _check_omega),
    "spectral": _suite_spectral,
    "max_zagreb_universal": _suite_max_zagreb_universal,
}
_SCANS: dict[str, _Run] = {
    "conjecture-ird": _per_profile(lambda c: True, _check_deviation_conjecture),
    "conjecture-omega": _per_profile(lambda c: not c.cls.is_regular, _check_omega_conjecture),
}

SUITE_IDS = tuple(_SUITES) + tuple(BOUND_IDS)


def _reports(
    population: Population,
    report_ids: Iterable[str],
    workers: int,
    cache_dir: Optional[str],
) -> list[VerificationReport]:
    """Materialise ``population`` once, then run, time and package each report."""

    def by_graph(items: list) -> tuple:
        return tuple(sorted(items, key=lambda x: (x.graph, x.check)))

    profiles, desc = _materialise(population, workers, cache_dir)
    reports = []
    for report_id in report_ids:
        start = time.perf_counter()
        out = {**_SUITES, **_SCANS}[report_id](profiles)
        reports.append(
            VerificationReport(
                suite_id=report_id,
                population=desc,
                graphs_checked=out.checked,
                violations=by_graph(out.violations),
                findings=by_graph(out.findings),
                equalities=by_graph(out.equalities),
                elapsed=time.perf_counter() - start,
            )
        )
    return reports


def run_suite(
    population: Population,
    suite_id: str,
    *,
    workers: int = 1,
    cache_dir: Optional[str] = None,
) -> VerificationReport:
    """Run one suite over a population and package a deterministic report.

    A bound id gives the ``bounds`` report cut down to that bound's outcomes.
    """
    if suite_id not in SUITE_IDS:
        raise InputError(f"unknown suite {suite_id!r}; choose from {sorted(SUITE_IDS)}")
    if suite_id in _SUITES:
        return _reports(population, [suite_id], workers, cache_dir)[0]
    (rep,) = _reports(population, ["bounds"], workers, cache_dir)
    return replace(
        rep,
        suite_id=suite_id,
        violations=tuple(v for v in rep.violations if v.check == suite_id),
        findings=tuple(f for f in rep.findings if f.check == suite_id),
    )


def run_all_suites(
    population: Population,
    *,
    workers: int = 1,
    cache_dir: Optional[str] = None,
) -> list[VerificationReport]:
    return _reports(population, _SUITES, workers, cache_dir)


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
    return _reports(population, ["conjecture-ird"], workers, cache_dir)[0]


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
    return _reports(population, ["conjecture-omega"], workers, cache_dir)[0]


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
    profiles, _ = _materialise(spec, workers, cache_dir)

    def maximisers(measure: str) -> tuple[Fraction, tuple[str, ...]]:
        top = max(getattr(p.ctx.ms, measure) for p in profiles)  # S and Var read the degrees
        codes = (c for p in profiles if getattr(p.ctx.ms, measure) == top for c in p.codes)
        return top, tuple(sorted(codes))

    max_s, s_graphs = maximisers("s")
    max_var, var_graphs = maximisers("var")
    return ExtremalResult(
        n=n,
        m=m,
        max_s=max_s,
        max_var=max_var,
        max_s_graphs=s_graphs,
        max_var_graphs=var_graphs,
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
