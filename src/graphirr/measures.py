"""Exact-rational irregularity measures and the inequality suite.

The measures are ``fractions.Fraction``s, derived from three integer sums of
the degrees: M1 = sum d^2, nS = sum |n*d - 2m| = n*S and V = n*M1 - (2m)^2 =
n^2*Var.  A bound's verdict is one integer comparison: its row gives
(L, R, q) with q > 0 from (M1, nS, V), decides L against R, and its record's
sides are L/q and R/q.  The measures:

* ``m1``    -- first Zagreb index, sum of squared degrees
* ``s``     -- degree deviation, sum of |d_v - 2m/n|
* ``var``   -- degree variance, M1/n - (2m/n)^2
* ``ird``   -- harmonic-mean-weighted degree gap 2*Nmax*Nmin/(Nmax+Nmin)*(D-d)
* ``irr``   -- (n/2)*(D-d)
* ``omega`` -- var/s, defined only for irregular graphs

Each of them, every bound of ``_BOUNDS`` and every closed form here is a
function of the degree multiset and connectivity alone.  A
:class:`GraphContext` is exactly that degree profile, the sorted degree
histogram and a connectivity flag, and derives everything else from it on
first use, so graphs that share a profile share a context and ``verify``
evaluates them once per profile.  ``bound_report``, ``tree_formulas`` and
``cyclic_formulas`` take a graph, build its context and call the private
function of the same name, which reads the context alone.  ``verify``
reads the closed forms as integer numerators over known denominators
(``_tree_sides``, ``_cyclic_sides``) and calls ``_decide`` one bound at a
time, with the context of a whole profile.  ``_decide`` gives the verdict on
integers; ``_evaluate`` turns it into a record for ``bound_report``, the one
place where every record's two ``Fraction`` sides are built.
The two-walk fit in ``spectral`` reads neighbour-degree sums and is the only
check made per graph.

Each bound is checked by ``verify``'s ``bounds`` suite and by the report of
its own id, which covers the graphs the bound applies to.  Every row's
``predicted`` is its exact equality condition, proved in README: a record
agrees when the bound is at equality exactly where ``predicted`` holds, and
an equality anywhere else, or a strict bound where it holds, is a condition
mismatch.  The paper's Var bound for graphs with a dominating vertex is
``zagreb_le_split_bound`` at Dmax = n - 1.  An equality case may stand for a
closed form: ``s_le_pendant_cyclic_cap`` is tight exactly on unicyclic
graphs, where it reads S = 2*N1, and ``var_le_product_bound`` is tight on
bidegreed graphs, with right side Nmax*Nmin*(D-d)^2/n^2.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import ge, le, lt
from typing import Callable, NamedTuple, Optional

from .errors import InputError
from .graph import (
    Classification,
    DegreeStats,
    Graph,
    Histogram,
    _classify,
    _degree_histogram,
    _degree_stats,
    is_connected,
)


class MeasureSet(NamedTuple):
    m1: Fraction
    s: Fraction
    var: Fraction
    ird: Fraction
    irr: Fraction
    omega: Optional[Fraction]


class _ProfileKey(NamedTuple):
    histogram: Histogram
    connected: bool


class GraphContext(_ProfileKey):
    """A degree profile: the sorted (degree, count) pairs and connectivity.

    Two graphs have equal contexts exactly when they share order, sorted
    degrees and connectivity, and every field read by a suite is a function
    of those.  The order, degree statistics, classification, degree sums
    and measures are computed from the two fields on first read, once per
    context; the class has no ``__slots__``, so its instances keep them in
    ``__dict__``, while equality and hashing are those of the two-field tuple.
    """

    @cached_property
    def n(self) -> int:
        return sum(c for _, c in self.histogram)

    @cached_property
    def stats(self) -> DegreeStats:
        return _degree_stats(self.histogram)

    @cached_property
    def cls(self) -> Classification:
        return _classify(self.n, self.stats, self.connected)

    @cached_property
    def sums(self) -> tuple[int, int, int]:
        return _sums(self)

    @cached_property
    def ms(self) -> MeasureSet:
        return _measure_set(self)

    @property
    def m(self) -> int:
        return self.stats.edge_count

    @property
    def avg(self) -> Fraction:
        return self.stats.average_degree

    @property
    def gap(self) -> int:
        return self.stats.max_degree - self.stats.min_degree

    @property
    def n_max(self) -> int:
        return self.stats.histogram[self.stats.max_degree]

    @property
    def n_min(self) -> int:
        return self.stats.histogram[self.stats.min_degree]


def _sums(c: GraphContext) -> tuple[int, int, int]:
    """(M1, nS, V): sum of d^2, sum of |n*d - 2m|, and n*M1 - (2m)^2 = n^2 * Var."""
    n, twice_m = c.n, 2 * c.m
    m1 = sum(d * d * k for d, k in c.histogram)
    return m1, sum(abs(n * d - twice_m) * k for d, k in c.histogram), n * m1 - twice_m**2


def measure_set(g: Graph) -> MeasureSet:
    return context(g).ms


def _measure_set(c: GraphContext) -> MeasureSet:
    m1, ns, v = c.sums
    s, var = Fraction(ns, c.n), Fraction(v, c.n**2)
    return MeasureSet(
        m1=Fraction(m1),
        s=s,
        var=var,
        ird=Fraction(2 * c.n_max * c.n_min * c.gap, c.n_max + c.n_min),
        irr=Fraction(c.n * c.gap, 2),
        omega=var / s if s else None,
    )


def context(g: Graph) -> GraphContext:
    return GraphContext(_degree_histogram(g), is_connected(g))


# --- the inequality suite -------------------------------------------------

#: ``agreement`` verdicts of a BoundRecord.
CONFIRMED = "confirmed"
CONDITION_MISMATCH = "condition-mismatch"
NOT_APPLICABLE = "not-applicable"


class BoundRecord(NamedTuple):
    bound_id: str
    formula: str
    lhs: Fraction
    rhs: Fraction
    holds: bool
    is_equality: bool
    predicted_equality: bool
    agreement: str


class _BoundDef(NamedTuple):
    bound_id: str
    formula: str
    applies: Callable[[GraphContext], bool]
    # sides(c, M1, nS, V) = (L, R, q): the record's sides are L/q and R/q, so
    # holds(L, R) and L == R decide the verdict on integers.  q > 0 on every
    # row: it is a product of 2, n and n + gap, with nS in the two omega
    # rows, which apply only to irregular graphs, where nS > 0.
    sides: Callable[[GraphContext, int, int, int], tuple[int, int, int]]
    holds: Callable[[int, int], bool]  # holds(L, R): operator.le, ge or lt
    predicted: Callable[[GraphContext], bool]  # equality holds exactly when this does


def _regular_or_balanced(c: GraphContext) -> bool:
    return c.cls.is_regular or c.cls.is_balanced_bidegreed


def _two_degrees(c: GraphContext) -> bool:
    return c.cls.degree_class <= 2


def _degrees_within_extremes_or_mean(c: GraphContext) -> bool:
    allowed = {c.n * c.stats.min_degree, 2 * c.m, c.n * c.stats.max_degree}
    return all(c.n * d in allowed for d in c.stats.degree_set)


def _cyclic_range(c: GraphContext) -> bool:
    if not c.cls.is_connected:
        return False
    cyc = c.cls.cyclomatic
    return cyc is not None and 1 <= cyc and 2 * cyc <= c.n + 2


_BOUNDS: tuple[_BoundDef, ...] = (
    _BoundDef(
        bound_id="var_le_gap_s",
        formula="Var <= (Dmax-Dmin)/(2n) * S",
        applies=lambda c: True,
        sides=lambda c, m1, ns, v: (2 * v, c.gap * ns, 2 * c.n**2),
        holds=le,
        predicted=_degrees_within_extremes_or_mean,
    ),
    _BoundDef(
        bound_id="s_le_irr",
        formula="S <= (n/2)(Dmax-Dmin)",
        applies=lambda c: True,
        sides=lambda c, m1, ns, v: (2 * ns, c.n**2 * c.gap, 2 * c.n),
        holds=le,
        predicted=_regular_or_balanced,
    ),
    _BoundDef(
        bound_id="var_le_gap_sq4",
        formula="Var <= (Dmax-Dmin)^2/4",
        applies=lambda c: True,
        sides=lambda c, m1, ns, v: (4 * v, c.n**2 * c.gap**2, 4 * c.n**2),
        holds=le,
        predicted=_regular_or_balanced,
    ),
    _BoundDef(
        bound_id="var_le_product_bound",
        formula="Var <= (Dmax-2m/n)(2m/n-Dmin)",
        applies=lambda c: True,
        sides=lambda c, m1, ns, v: (
            v,
            (c.n * c.stats.max_degree - 2 * c.m) * (2 * c.m - c.n * c.stats.min_degree),
            c.n**2,
        ),
        holds=le,
        predicted=_two_degrees,
    ),
    _BoundDef(
        bound_id="s_ge_scaled_ird",
        formula="S >= 2*Nmax*Nmin*(Dmax-Dmin)/n",
        applies=lambda c: True,
        sides=lambda c, m1, ns, v: (ns, 2 * c.n_max * c.n_min * c.gap, c.n),
        holds=ge,
        predicted=_two_degrees,
    ),
    _BoundDef(
        bound_id="var_ge_scaled_irr_ird",
        formula="Var >= ((Nmax+Nmin)^2/n^4) * IRR * IRD",
        applies=lambda c: True,
        sides=lambda c, m1, ns, v: (
            c.n * v,
            (c.n_max + c.n_min) * c.n_max * c.n_min * c.gap**2,
            c.n**3,
        ),
        holds=ge,
        predicted=_two_degrees,
    ),
    _BoundDef(
        bound_id="s_sq_le_n_sq_var",
        formula="S^2 <= n^2 * Var",
        applies=lambda c: c.cls.is_connected,
        sides=lambda c, m1, ns, v: (ns * ns, c.n**2 * v, c.n**2),
        holds=le,
        predicted=_regular_or_balanced,
    ),
    _BoundDef(
        bound_id="zagreb_le_split_bound",
        formula="M1 <= 2m[2m+(n-1)(Dmax-Dmin)]/(n+Dmax-Dmin)",
        applies=lambda c: c.cls.is_connected,
        sides=lambda c, m1, ns, v: (
            m1 * (c.n + c.gap),
            2 * c.m * (2 * c.m + (c.n - 1) * c.gap),
            c.n + c.gap,
        ),
        holds=le,
        predicted=lambda c: c.cls.is_regular or c.cls.complete_split_k is not None,
    ),
    _BoundDef(
        bound_id="omega_lt_half",
        formula="Var/S < 1/2 for connected irregular graphs",
        applies=lambda c: c.cls.is_connected and not c.cls.is_regular,
        sides=lambda c, m1, ns, v: (2 * v, c.n * ns, 2 * c.n * ns),
        holds=lt,
        predicted=lambda c: False,
    ),
    _BoundDef(
        bound_id="omega_ge_cyclic_floor",
        formula="Var/S >= 1/n - 2/S for connected graphs with 1 <= c <= (n+2)/2",
        applies=lambda c: _cyclic_range(c) and not c.cls.is_regular,
        sides=lambda c, m1, ns, v: (v, ns - 2 * c.n**2, c.n * ns),
        holds=ge,
        predicted=lambda c: False,
    ),
    _BoundDef(
        bound_id="s_le_pendant_cyclic_cap",
        formula="S <= 2(N1 + 2c - 2) for connected graphs with 1 <= c <= (n+2)/2",
        applies=_cyclic_range,
        sides=lambda c, m1, ns, v: (
            ns,
            2 * c.n * (c.stats.histogram.get(1, 0) + 2 * (c.cls.cyclomatic or 0) - 2),
            c.n,
        ),
        holds=le,
        predicted=lambda c: c.cls.is_unicyclic,
    ),
)


def _decide(defn: _BoundDef, ctx: GraphContext) -> tuple[int, int, int, bool, bool, bool, str]:
    """One bound on a profile it applies to, decided with no ``Fraction`` built.

    Returns (L, R, q, holds, is_equality, predicted_equality, agreement): the
    record's sides are L/q and R/q, and the rest are its fields of those names.
    """
    left, right, q = defn.sides(ctx, *ctx.sums)
    equal = left == right
    predicted = defn.predicted(ctx)
    agree = CONFIRMED if equal == predicted else CONDITION_MISMATCH
    return left, right, q, defn.holds(left, right), equal, predicted, agree


def _evaluate(defn: _BoundDef, ctx: GraphContext) -> BoundRecord:
    """One bound on a profile it applies to: the verdict on integers, then the record."""
    left, right, q, *verdict = _decide(defn, ctx)
    lhs, rhs = Fraction(left, q), Fraction(right, q)
    return BoundRecord(defn.bound_id, defn.formula, lhs, rhs, *verdict)


def bound_report(g: Graph) -> list[BoundRecord]:
    """Evaluate the full inequality suite on one graph."""
    return _bound_report(context(g))


def _bound_report(ctx: GraphContext) -> list[BoundRecord]:
    return [
        _evaluate(d, ctx)
        if d.applies(ctx)
        else BoundRecord(
            d.bound_id, d.formula, Fraction(0), Fraction(0), True, False, False, NOT_APPLICABLE
        )
        for d in _BOUNDS
    ]


# --- closed forms for trees and low-cyclomatic graphs ---------------------


class TreeFormulas(NamedTuple):
    s_closed: Fraction
    var_closed: Fraction
    irr_closed: Fraction
    ird_upper: Fraction
    ird_lower: Fraction
    n1_based_s: Fraction
    s_floor: Fraction  # S of the path, the least S over trees on n vertices
    var_floor: Fraction  # Var of the path, likewise
    var_s_gap: Fraction  # Var - S/(2n) as a weighted sum over degrees >= 3


def _branch_weight(hist: dict[int, int]) -> int:
    """sum over degrees i >= 3 of (i-2) * N_i."""
    return sum((d - 2) * c for d, c in hist.items() if d >= 3)


def tree_formulas(t: Graph) -> TreeFormulas:
    return _tree_formulas(context(t))


def _tree_formulas(ctx: GraphContext) -> TreeFormulas:
    return TreeFormulas(*(Fraction(p, q) for p, q in _tree_sides(ctx)))


def _tree_sides(ctx: GraphContext) -> list[tuple[int, int]]:
    """The fields of :class:`TreeFormulas` as (numerator, denominator) pairs, in order.

    Each denominator is the one of the measure that ``verify`` checks the
    field against: n for the forms of S, n^2 for those of Var, 2 for IRR and
    2n^2 for ``var_s_gap``, as for Var - S/(2n); the two IRD brackets keep
    their own.  So the checks compare integers.
    """
    if not ctx.cls.is_tree or ctx.n < 2:
        raise InputError("tree formulas need a tree on at least two vertices")
    n = ctx.n
    hist = ctx.stats.histogram
    bw = _branch_weight(hist)
    dmax = ctx.stats.max_degree
    n_top = hist[dmax]
    n1 = hist.get(1, 0)
    n2 = hist.get(2, 0)
    high = sum((d - 1) * (d - 2) * c for d, c in hist.items() if d >= 3)
    # each degree-d vertex, d >= 3, adds (d-2)(d - (2n-2)/n)/n to var_s_gap
    var_gap = sum((d - 2) * (n * d - 2 * n + 2) * c for d, c in hist.items() if d >= 3)
    return [
        (2 * (n - 2) * (2 + bw), n),  # s_closed
        (2 * (n - 2) + n * high, n * n),  # var_closed
        (n * (dmax - 1), 2),  # irr_closed
        (  # ird_upper
            4 * n_top * (dmax - 1) + 2 * n_top * bw * (dmax - 1),
            2 + (dmax - 1) * n_top,
        ),
        (  # ird_lower
            4 * n_top * (dmax - 1) + 2 * n_top * n_top * (dmax - 2) * (dmax - 1),
            2 + (dmax - 2) * (n - n1 - n2) + n_top,
        ),
        (2 * (n - 2) * n1, n),  # n1_based_s
        (4 * (n - 2), n),  # s_floor
        (2 * (n - 2), n * n),  # var_floor
        (2 * var_gap, 2 * n * n),  # var_s_gap
    ]


class CyclicFormulas(NamedTuple):
    s_closed: Fraction
    var_closed: Fraction
    unicyclic_residue: Optional[Fraction]  # n*Var - S, present only when m == n


def cyclic_formulas(g: Graph) -> CyclicFormulas:
    return _cyclic_formulas(context(g))


def _cyclic_formulas(ctx: GraphContext) -> CyclicFormulas:
    (s_num, n), (var_num, n_sq), residue = _cyclic_sides(ctx)
    return CyclicFormulas(
        s_closed=Fraction(s_num, n),
        var_closed=Fraction(var_num, n_sq),
        unicyclic_residue=None if residue is None else Fraction(residue),
    )


def _cyclic_sides(
    ctx: GraphContext,
) -> tuple[tuple[int, int], tuple[int, int], Optional[int]]:
    """``s_closed`` and ``var_closed`` as (numerator, denominator) pairs.

    The denominators are n and n^2, those of S and Var, so ``verify`` compares
    integers; the unicyclic residue is an integer, or None unless m == n.
    """
    if not _cyclic_range(ctx):
        raise InputError(
            "closed forms need a connected graph with 1 <= cycle rank <= (n+2)/2"
        )
    n, m = ctx.n, ctx.m
    hist = ctx.stats.histogram
    s_num = 2 * sum(c * (d * n - 2 * m) for d, c in hist.items() if d >= 3)
    high = sum((d - 1) * (d - 2) * c for d, c in hist.items() if d >= 3)
    var_num = n * high - 2 * (2 * m - n) * (m - n)
    residue = sum((d - 2) * (d - 3) * c for d, c in hist.items() if d >= 4)
    return (s_num, n), (var_num, n * n), residue if m == n else None
