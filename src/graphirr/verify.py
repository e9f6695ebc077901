"""Verification suites over graph populations, conjecture scans, extremal search.

A suite walks a population of isomorphism-class representatives and records

* violations -- an asserted inequality or identity failed (hard failure);
* findings   -- during a conjecture scan, an equality disagrees with the
  family in which the scan expects it;
* equalities -- informational list of equality cases.

Every check but one reads only a graph's degree profile: its order, sorted
degrees and connectivity, which is what a :class:`GraphContext` holds.  The
population is grouped by context, and every report but ``spectral`` runs
through the loop of :func:`_per_profile`, which makes the report's check once
for each context it applies to and records the outcome under every code of
that profile.  The two-walk fit of ``spectral`` reads neighbour-degree sums,
which the degrees do not determine, and is the only check made per graph:
the suite calls ``spectral._two_walk_fit`` on the graph's rows, since the
profile already says the graph is connected and irregular.  The bounds, the
tree and cyclic closed forms and the degree counts compare integers: the
numerators of both sides over one q > 0, from the profile's degree sums,
``measures._decide`` and ``measures._tree_sides``/``_cyclic_sides``.  The
sides become ``Fraction``s only for a violation, the one outcome that prints
them (``_Outcome.expect``).
Every row's equality condition is exact, so a bound at equality where its
row does not predict it, or strict where it does, is a violation like a
failed inequality.
Every report id is one entry of ``_REPORTS``: the suites, one entry per
bound of ``measures._BOUNDS``, which checks that bound alone on the graphs it
applies to, and the two conjecture scans.
No suite of ``--suite all`` restates a check that another makes on the same
graphs, except ``balanced``, whose two identities are equality cases of
``s_le_irr`` and ``s_sq_le_n_sq_var``.

Reports are deterministic: all outcome lists are sorted by graph code before
packaging, so grouping, worker count and scheduling cannot change the result.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

from .canon import canonical_code
from .enumeration import EnumerationSpec, enumerate_range
from .errors import InputError
from .graph import Graph, _degree_histogram, is_connected
from .io import parse_graph6
from .measures import (
    _BOUNDS,
    CONDITION_MISMATCH,
    GraphContext,
    _BoundDef,
    _branch_weight,
    _cyclic_range,
    _cyclic_sides,
    _decide,
    _degrees_within_extremes_or_mean,
    _tree_sides,
)
from .serialize import fraction_text
from .spectral import _two_walk_fit, _variance_spectral_identity, two_walk_radius_test

_Rational = Union[int, Fraction]  # a side of a check, or its numerator over some q


class Violation(NamedTuple):
    graph: str
    check: str
    lhs: str
    rhs: str
    note: str = ""


class Finding(NamedTuple):
    graph: str
    check: str
    note: str


class EqualityCase(NamedTuple):
    graph: str
    check: str
    note: str = ""


class VerificationReport(NamedTuple):
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

    def expect(
        self, check: str, ok: bool, lhs: _Rational, rhs: _Rational, note: str = "", q: int = 1
    ) -> None:
        """``check`` holds when ``ok``; its sides are lhs/q and rhs/q.

        A check may compare the numerators of two sides over one q > 0; the
        sides become ``Fraction``s only if it fails, as only then are they printed.
        """
        if not ok:
            lhs_text, rhs_text = fraction_text(Fraction(lhs, q)), fraction_text(Fraction(rhs, q))
            self.violations += (Violation(c, check, lhs_text, rhs_text, note) for c in self.codes)

    def expect_eq(self, check: str, lhs: _Rational, rhs: _Rational, q: int = 1) -> None:
        self.expect(check, lhs == rhs, lhs, rhs, q=q)

    def find(self, check: str, note: str) -> None:
        self.findings += (Finding(c, check, note) for c in self.codes)

    def equal(self, check: str) -> None:
        self.equalities += (EqualityCase(c, check) for c in self.codes)

    def expect_iff(
        self,
        check: str,
        ok: bool,
        lhs: _Rational,
        rhs: _Rational,
        predicted: bool,
        equality_check: Optional[str] = None,
        q: int = 1,
    ) -> None:
        """The inequality ``check``, and equality exactly when ``predicted``."""
        self.expect(check, ok, lhs, rhs, q=q)
        self.expect(
            equality_check or check + "_equality_iff",
            (lhs == rhs) == predicted,
            lhs,
            rhs,
            "equality condition mismatch",
            q,
        )


Population = Union[Sequence[EnumerationSpec], Sequence[Graph]]


class _Profile(NamedTuple):
    """The graphs of one degree profile, with the context they share.

    ``ctx`` is the profile itself, so its order, degree statistics,
    classification and measures are those of every graph here, and they are
    all that a degree-only check may read.
    """

    codes: tuple[str, ...]
    graphs: tuple[Graph, ...]
    ctx: GraphContext


def _materialise(
    population: Population, workers: int, cache_dir: Optional[str]
) -> tuple[list[_Profile], str]:
    """The population's graphs grouped by context, each group in the order its graphs came in."""
    population = list(population)
    if population and isinstance(population[0], EnumerationSpec):
        lists = enumerate_range(population, workers=workers, cache_dir=cache_dir)
        coded = [(c, parse_graph6(c)) for codes in lists for c in codes]
        desc = "; ".join(spec.describe() for spec in population)
    else:
        coded = sorted(((canonical_code(g), g) for g in population), key=lambda item: item[0])
        desc = f"explicit list of {len(coded)} graphs"
    if not coded:
        raise InputError(f"empty population ({desc}): there is nothing to check")
    # keyed by the sorted degrees, which give the histogram and are cheaper to
    # build; a profile's context is built once, from its first graph
    groups: dict[tuple[tuple[int, ...], bool], list[tuple[str, Graph]]] = {}
    for code, g in coded:
        key = tuple(sorted(map(int.bit_count, g.rows))), is_connected(g)
        groups.setdefault(key, []).append((code, g))
    profiles = []
    for (_, connected), group in groups.items():
        codes, graphs = zip(*group)
        ctx = GraphContext(_degree_histogram(graphs[0]), connected)
        ctx.cls, ctx.ms  # evaluated here, so that no report's elapsed pays for them
        profiles.append(_Profile(codes, graphs, ctx))
    return profiles, desc


# --- degree-only checks, each made once for a profile -----------------------


def _check_bound(defn: _BoundDef, out: _Outcome, ctx: GraphContext) -> None:
    """One bound on a profile it applies to: the inequality and its equality case."""
    left, right, q, holds, equal, _, agreement = _decide(defn, ctx)
    out.expect(defn.bound_id, holds, left, right, "inequality failed", q)
    if agreement == CONDITION_MISMATCH:
        note = (
            "equality observed without the documented condition"
            if equal
            else "documented equality condition held strictly"
        )
        out.expect(defn.bound_id, False, left, right, note, q)


def _check_bounds(out: _Outcome, ctx: GraphContext) -> None:
    for defn in _BOUNDS:
        if defn.applies(ctx):
            _check_bound(defn, out, ctx)


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
    out.expect_eq("pendant_count", hist.get(1, 0), 2 - 2 * c + bw)
    out.expect_eq("degree_two_count", hist.get(2, 0), 2 * c + ctx.n - 2 - bw - n_high)


def _check_trees(out: _Outcome, ctx: GraphContext) -> None:
    """The tree closed forms and brackets, each compared as numerators over one q.

    With (M1, nS, V) the profile's sums, S = nS/n, Var = V/n^2 and
    IRR = n*gap/2; IRD is read as the numerator and denominator of
    ``ctx.ms.ird``.  Each form of :func:`_tree_sides` is over the same
    denominator as the measure it is checked against, and the IRD brackets
    are compared cross-multiplied.
    """
    _, ns, v = ctx.sums
    n, gap = ctx.n, ctx.gap
    (
        (s_closed, _),
        (var_closed, _),
        (irr_closed, _),
        (ird_upper, upper_den),
        (ird_lower, lower_den),
        (n1_based_s, _),
        (s_floor, _),
        (var_floor, _),
        (var_s_gap, _),
    ) = _tree_sides(ctx)
    out.expect_eq("tree_s_closed", s_closed, ns, q=n)
    out.expect_eq("tree_var_closed", var_closed, v, q=n * n)
    out.expect_eq("tree_irr_closed", irr_closed, n * gap, q=2)
    out.expect_eq("tree_s_from_pendants", n1_based_s, ns, q=n)

    is_path = ctx.stats.max_degree <= 2
    out.expect_iff("tree_s_floor", ns >= s_floor, ns, s_floor, is_path, q=n)
    out.expect_iff("tree_var_floor", v >= var_floor, v, var_floor, is_path, q=n * n)
    if n >= 3:
        out.expect_iff("tree_irr_floor", n * gap >= n, n * gap, n, is_path, q=2)

    # IRD bracketed by the branch-weight bounds, tight iff no middle degrees
    no_mid = all(d in (1, 2, ctx.stats.max_degree) for d in ctx.stats.degree_set)
    ird, ird_den = ctx.ms.ird.numerator, ctx.ms.ird.denominator
    low, high = ird * upper_den, ird_upper * ird_den
    out.expect_iff("tree_ird_upper", low <= high, low, high, no_mid, q=ird_den * upper_den)
    low, high = ird * lower_den, ird_lower * ird_den
    out.expect_iff("tree_ird_lower", low >= high, low, high, no_mid, q=ird_den * lower_den)

    # mean-relative identity: Var - S/(2n) is a weighted branch sum, >= 0
    gap_val = 2 * v - ns  # over 2n^2
    out.expect_eq("tree_var_s_gap_identity", gap_val, var_s_gap, q=2 * n * n)
    out.expect_iff(
        "tree_var_s_gap_sign",
        gap_val >= 0,
        gap_val,
        0,
        is_path,
        "tree_var_s_gap_equality_iff",
        q=2 * n * n,
    )
    if n >= 3:
        s_side, ird_side = ns * ird_den, ird * n  # over n * ird_den
        bidegreed = ctx.cls.is_bidegreed
        out.expect_iff("tree_s_ge_ird", s_side >= ird_side, s_side, ird_side, bidegreed, q=n * ird_den)


def _check_cyclic(out: _Outcome, ctx: GraphContext) -> None:
    """Closed forms for cycle rank 1..(n+2)/2; their two bounds are ``bounds`` entries."""
    _, ns, v = ctx.sums
    n = ctx.n
    (s_closed, _), (var_closed, _), residue = _cyclic_sides(ctx)
    out.expect_eq("cyclic_s_closed", s_closed, ns, q=n)
    out.expect_eq("cyclic_var_closed", var_closed, v, q=n * n)
    if not ctx.cls.is_unicyclic:
        return
    assert residue is not None
    out.expect_eq("unicyclic_nvar_minus_s", v - ns, n * residue, q=n)  # n*Var - S over n
    if not ctx.cls.is_regular:
        # Omega = Var/S = V/(n * nS) against 1/n = nS/(n * nS); nS > 0 off regular graphs
        within_123 = all(d <= 3 for d in ctx.stats.degree_set)
        out.expect_iff("unicyclic_omega_floor", v >= ns, v, ns, within_123, q=n * ns)


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
            params = _two_walk_fit(g.rows)  # the profile says connected and irregular
            if params is None:
                continue
            out.checked += 1
            out.codes = (code,)
            ident = _variance_spectral_identity(ctx, params)
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


# the suites of ``verify --suite all``, then one report per bound, then the scans
_REPORTS: dict[str, _Run] = {
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
_SUITES = tuple(_REPORTS)
_REPORTS |= {d.bound_id: _per_profile(d.applies, partial(_check_bound, d)) for d in _BOUNDS}
SUITE_IDS = tuple(_REPORTS)
_REPORTS |= {
    "conjecture-ird": _per_profile(lambda c: True, _check_deviation_conjecture),
    "conjecture-omega": _per_profile(lambda c: not c.cls.is_regular, _check_omega_conjecture),
}


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
        out = _REPORTS[report_id](profiles)
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

    A bound id checks that bound alone, over the graphs it applies to: its
    ``graphs_checked`` counts those graphs, and its outcomes are the ones the
    ``bounds`` report records under that id.
    """
    if suite_id not in SUITE_IDS:
        raise InputError(f"unknown suite {suite_id!r}; choose from {sorted(SUITE_IDS)}")
    return _reports(population, [suite_id], workers, cache_dir)[0]


def run_all_suites(
    population: Population,
    *,
    workers: int = 1,
    cache_dir: Optional[str] = None,
) -> list[VerificationReport]:
    return _reports(population, _SUITES, workers, cache_dir)


# --- conjecture scans -------------------------------------------------------


def run_conjectures(
    population: Population,
    *,
    workers: int = 1,
    cache_dir: Optional[str] = None,
) -> list[VerificationReport]:
    """Both conjecture scans over one materialisation of ``population``."""
    return _reports(population, ["conjecture-ird", "conjecture-omega"], workers, cache_dir)


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


class ExtremalResult(NamedTuple):
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
    profiles, _ = _materialise([spec], workers, cache_dir)

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
    """Brute-force argmax of S(CS(n, k)) over k, from the profile (n-1)^k k^(n-k) alone."""
    if n < 4:
        raise InputError("need n >= 4")
    s = {k: GraphContext(((k, n - k), (n - 1, k)), True).ms.s for k in range(1, n - 1)}
    s[n - 1] = Fraction(0)  # CS(n, n-1) is K_n, which is regular
    top = max(s.values())
    return tuple(k for k in s if s[k] == top)
