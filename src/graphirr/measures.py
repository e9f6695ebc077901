"""Exact-rational irregularity measures and the inequality suite.

Every quantity is a ``fractions.Fraction``; equality checks are exact.  The
measures:

* ``m1``    -- first Zagreb index, sum of squared degrees
* ``s``     -- degree deviation, sum of |d_v - 2m/n|
* ``var``   -- degree variance, M1/n - (2m/n)^2
* ``ird``   -- harmonic-mean-weighted degree gap 2*Nmax*Nmin/(Nmax+Nmin)*(D-d)
* ``irr``   -- (n/2)*(D-d)
* ``omega`` -- var/s, defined only for irregular graphs

Each of them, every bound of ``_BOUNDS`` and every closed form here is a
function of the degree multiset and connectivity alone, so graphs that share
those share a :class:`GraphContext` in everything but ``g`` and the labelled
``stats.degrees``; ``verify`` evaluates them once per such degree profile.
The two-walk fit in ``spectral`` reads neighbour-degree sums and is the only
check made per graph.

Each bound is reported by ``verify``'s ``bounds`` suite alone; its equality
case may stand for a closed form (on bidegreed graphs ``var_le_product_bound``
is tight, with right side Nmax*Nmin*(D-d)^2/n^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .errors import InputError
from .graph import Classification, DegreeStats, Graph, classify, degree_stats


@dataclass(frozen=True)
class MeasureSet:
    m1: Fraction
    s: Fraction
    var: Fraction
    ird: Fraction
    irr: Fraction
    omega: Optional[Fraction]


@dataclass(frozen=True)
class GraphContext:
    """A graph's degree statistics, classification and measures, read by every suite.

    ``verify`` builds one per degree profile and shares it among the graphs
    of the profile, whose fields agree in all but ``g`` and ``stats.degrees``.
    """

    g: Graph
    stats: DegreeStats
    cls: Classification
    ms: MeasureSet

    @property
    def n(self) -> int:
        return self.g.n

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

    @property
    def product_bound(self) -> Fraction:
        """(Dmax - 2m/n)(2m/n - Dmin), the Bhatia-Davis cap on Var; exact iff <= 2 degrees."""
        return (self.stats.max_degree - self.avg) * (self.avg - self.stats.min_degree)


def first_zagreb(g: Graph, stats: Optional[DegreeStats] = None) -> Fraction:
    st = stats if stats is not None else degree_stats(g)
    return Fraction(sum(d * d * c for d, c in st.histogram.items()))


def measure_set(g: Graph, stats: Optional[DegreeStats] = None) -> MeasureSet:
    st = stats if stats is not None else degree_stats(g)
    n = g.n
    avg = st.average_degree
    m1 = first_zagreb(g, st)
    s = sum((abs(d - avg) * c for d, c in st.histogram.items()), Fraction(0))
    var = m1 / n - avg * avg
    gap = st.max_degree - st.min_degree
    n_max = st.histogram[st.max_degree]
    n_min = st.histogram[st.min_degree]
    ird = Fraction(2 * n_max * n_min * gap, n_max + n_min)
    irr = Fraction(n * gap, 2)
    return MeasureSet(
        m1=m1,
        s=s,
        var=var,
        ird=ird,
        irr=irr,
        omega=var / s if s else None,
    )


def context(g: Graph) -> GraphContext:
    st = degree_stats(g)
    return GraphContext(g=g, stats=st, cls=classify(g, st), ms=measure_set(g, st))


# --- the inequality suite -------------------------------------------------

#: ``agreement`` verdicts of a BoundRecord.
CONFIRMED = "confirmed"
CONDITION_MISMATCH = "condition-mismatch"
NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class BoundRecord:
    bound_id: str
    formula: str
    lhs: Fraction
    rhs: Fraction
    holds: bool
    is_equality: bool
    predicted_equality: bool
    agreement: str


@dataclass(frozen=True)
class _BoundDef:
    bound_id: str
    formula: str
    applies: Callable[[GraphContext], bool]
    lhs: Callable[[GraphContext], Fraction]
    rhs: Callable[[GraphContext], Fraction]
    direction: str  # "le" or "ge", always lhs OP rhs
    predicted: Callable[[GraphContext], bool]
    equality_mode: str  # "iff", or "if" (sufficient only)
    strict: bool = False
    ambiguous: bool = False  # condition mismatches are findings, not failures


def _regular_or_balanced(c: GraphContext) -> bool:
    return c.cls.is_regular or c.cls.is_balanced_bidegreed


def _two_degrees(c: GraphContext) -> bool:
    return c.cls.degree_class <= 2


def _degrees_within_extremes_or_mean(c: GraphContext) -> bool:
    allowed = {
        Fraction(c.stats.min_degree),
        c.avg,
        Fraction(c.stats.max_degree),
    }
    return all(Fraction(d) in allowed for d in c.stats.degree_set)


def _is_split(c: GraphContext) -> bool:
    return c.cls.complete_split_k is not None


def _cyclic_range(c: GraphContext) -> bool:
    if not c.cls.is_connected:
        return False
    cyc = c.cls.cyclomatic
    return cyc is not None and 1 <= cyc and 2 * cyc <= c.n + 2


def _false(_: GraphContext) -> bool:
    return False


_BOUNDS: tuple[_BoundDef, ...] = (
    _BoundDef(
        bound_id="var_le_gap_s",
        formula="Var <= (Dmax-Dmin)/(2n) * S",
        applies=lambda c: True,
        lhs=lambda c: c.ms.var,
        rhs=lambda c: Fraction(c.gap, 2 * c.n) * c.ms.s,
        direction="le",
        predicted=_degrees_within_extremes_or_mean,
        equality_mode="iff",
    ),
    _BoundDef(
        bound_id="s_le_irr",
        formula="S <= (n/2)(Dmax-Dmin)",
        applies=lambda c: True,
        lhs=lambda c: c.ms.s,
        rhs=lambda c: c.ms.irr,
        direction="le",
        predicted=_regular_or_balanced,
        equality_mode="iff",
    ),
    _BoundDef(
        bound_id="var_le_gap_sq4",
        formula="Var <= (Dmax-Dmin)^2/4",
        applies=lambda c: True,
        lhs=lambda c: c.ms.var,
        rhs=lambda c: Fraction(c.gap * c.gap, 4),
        direction="le",
        predicted=_regular_or_balanced,
        equality_mode="iff",
    ),
    _BoundDef(
        bound_id="var_le_product_bound",
        formula="Var <= (Dmax-2m/n)(2m/n-Dmin)",
        applies=lambda c: True,
        lhs=lambda c: c.ms.var,
        rhs=lambda c: c.product_bound,
        direction="le",
        predicted=_two_degrees,
        equality_mode="iff",
    ),
    _BoundDef(
        bound_id="s_ge_scaled_ird",
        formula="S >= 2*Nmax*Nmin*(Dmax-Dmin)/n",
        applies=lambda c: True,
        lhs=lambda c: c.ms.s,
        rhs=lambda c: Fraction(2 * c.n_max * c.n_min * c.gap, c.n),
        direction="ge",
        predicted=_two_degrees,
        equality_mode="iff",
        ambiguous=True,
    ),
    _BoundDef(
        bound_id="var_ge_scaled_irr_ird",
        formula="Var >= ((Nmax+Nmin)^2/n^4) * IRR * IRD",
        applies=lambda c: True,
        lhs=lambda c: c.ms.var,
        rhs=lambda c: Fraction((c.n_max + c.n_min) ** 2, c.n**4)
        * c.ms.irr
        * c.ms.ird,
        direction="ge",
        predicted=_two_degrees,
        equality_mode="iff",
    ),
    _BoundDef(
        bound_id="bidegreed_var_cap",
        formula="Var <= (Dmax-Dmin)^2/4 for bidegreed graphs",
        applies=lambda c: c.cls.is_connected and c.cls.is_bidegreed,
        lhs=lambda c: c.ms.var,
        rhs=lambda c: Fraction(c.gap * c.gap, 4),
        direction="le",
        predicted=lambda c: c.cls.is_balanced_bidegreed,
        equality_mode="iff",
    ),
    _BoundDef(
        bound_id="dominating_var_cap",
        formula="Var <= (2m/n)[2m+(n-1)(n-1-Dmin)]/(2n-1-Dmin) - (2m/n)^2",
        applies=lambda c: c.cls.is_dominating,
        lhs=lambda c: c.ms.var,
        rhs=lambda c: c.avg
        * Fraction(
            2 * c.m + (c.n - 1) * (c.n - 1 - c.stats.min_degree),
            2 * c.n - 1 - c.stats.min_degree,
        )
        - c.avg * c.avg,
        direction="le",
        predicted=_is_split,
        equality_mode="if",
    ),
    _BoundDef(
        bound_id="s_sq_le_n_sq_var",
        formula="S^2 <= n^2 * Var",
        applies=lambda c: c.cls.is_connected,
        lhs=lambda c: c.ms.s * c.ms.s,
        rhs=lambda c: c.n * c.n * c.ms.var,
        direction="le",
        predicted=_regular_or_balanced,
        equality_mode="iff",
    ),
    _BoundDef(
        bound_id="zagreb_le_split_bound",
        formula="M1 <= 2m[2m+(n-1)(Dmax-Dmin)]/(n+Dmax-Dmin)",
        applies=lambda c: c.cls.is_connected,
        lhs=lambda c: c.ms.m1,
        rhs=lambda c: Fraction(
            2 * c.m * (2 * c.m + (c.n - 1) * c.gap), c.n + c.gap
        ),
        direction="le",
        predicted=lambda c: c.cls.is_regular or _is_split(c),
        equality_mode="if",
    ),
    _BoundDef(
        bound_id="omega_lt_half",
        formula="Var/S < 1/2 for connected irregular graphs",
        applies=lambda c: c.cls.is_connected and not c.cls.is_regular,
        lhs=lambda c: c.ms.omega if c.ms.omega is not None else Fraction(0),
        rhs=lambda c: Fraction(1, 2),
        direction="le",
        predicted=_false,
        equality_mode="if",
        strict=True,
    ),
    _BoundDef(
        bound_id="omega_ge_cyclic_floor",
        formula="Var/S >= 1/n - 2/S for connected graphs with 1 <= c <= (n+2)/2",
        applies=lambda c: _cyclic_range(c) and not c.cls.is_regular,
        lhs=lambda c: c.ms.omega if c.ms.omega is not None else Fraction(0),
        rhs=lambda c: Fraction(1, c.n) - Fraction(2) / c.ms.s,
        direction="ge",
        predicted=_false,
        equality_mode="if",
    ),
    _BoundDef(
        bound_id="s_le_pendant_cyclic_cap",
        formula="S <= 2(N1 + 2c - 2) for connected graphs with 1 <= c <= (n+2)/2",
        applies=_cyclic_range,
        lhs=lambda c: c.ms.s,
        rhs=lambda c: Fraction(
            2 * (c.stats.histogram.get(1, 0) + 2 * (c.cls.cyclomatic or 0) - 2)
        ),
        direction="le",
        predicted=lambda c: c.cls.is_unicyclic,
        equality_mode="iff",
    ),
)

AMBIGUOUS_BOUNDS = frozenset(b.bound_id for b in _BOUNDS if b.ambiguous)
BOUND_IDS = tuple(b.bound_id for b in _BOUNDS)


def _evaluate(defn: _BoundDef, ctx: GraphContext) -> BoundRecord:
    if not defn.applies(ctx):
        return BoundRecord(
            bound_id=defn.bound_id,
            formula=defn.formula,
            lhs=Fraction(0),
            rhs=Fraction(0),
            holds=True,
            is_equality=False,
            predicted_equality=False,
            agreement=NOT_APPLICABLE,
        )
    lhs = defn.lhs(ctx)
    rhs = defn.rhs(ctx)
    equal = lhs == rhs
    if defn.direction == "le":
        holds = lhs < rhs if defn.strict else lhs <= rhs
    else:
        holds = lhs > rhs if defn.strict else lhs >= rhs
    predicted = defn.predicted(ctx)
    if defn.equality_mode == "iff":
        agree = CONFIRMED if equal == predicted else CONDITION_MISMATCH
    else:
        agree = CONFIRMED if (not predicted or equal) else CONDITION_MISMATCH
    return BoundRecord(
        bound_id=defn.bound_id,
        formula=defn.formula,
        lhs=lhs,
        rhs=rhs,
        holds=holds,
        is_equality=equal,
        predicted_equality=predicted,
        agreement=agree,
    )


def bound_report(g: Graph, ctx: Optional[GraphContext] = None) -> list[BoundRecord]:
    """Evaluate the full inequality suite on one graph."""
    ctx = ctx if ctx is not None else context(g)
    return [_evaluate(d, ctx) for d in _BOUNDS]


# --- closed forms for trees and low-cyclomatic graphs ---------------------


@dataclass(frozen=True)
class TreeFormulas:
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


def tree_formulas(t: Graph, ctx: Optional[GraphContext] = None) -> TreeFormulas:
    ctx = ctx if ctx is not None else context(t)
    if not ctx.cls.is_tree or ctx.n < 2:
        raise InputError("tree formulas need a tree on at least two vertices")
    n = ctx.n
    hist = ctx.stats.histogram
    bw = _branch_weight(hist)
    s_floor = Fraction(4 * (n - 2), n)
    var_floor = Fraction(2 * (n - 2), n * n)
    s_closed = s_floor + Fraction(2 * (n - 2), n) * bw
    var_closed = var_floor + Fraction(
        sum((d - 1) * (d - 2) * c for d, c in hist.items() if d >= 3), n
    )
    # each degree-d vertex, d >= 3, adds (d-2)(d - (2n-2)/n)/n
    var_s_gap = Fraction(
        sum((d - 2) * (n * d - 2 * n + 2) * c for d, c in hist.items() if d >= 3),
        n * n,
    )
    dmax = ctx.stats.max_degree
    n_top = hist[dmax]
    n1 = hist.get(1, 0)
    n2 = hist.get(2, 0)
    irr_closed = Fraction(n * (dmax - 1), 2)
    ird_upper = Fraction(
        4 * n_top * (dmax - 1) + 2 * n_top * bw * (dmax - 1),
        2 + (dmax - 1) * n_top,
    )
    ird_lower = Fraction(
        4 * n_top * (dmax - 1) + 2 * n_top * n_top * (dmax - 2) * (dmax - 1),
        2 + (dmax - 2) * (n - n1 - n2) + n_top,
    )
    n1_based_s = Fraction(2 * (n - 2) * n1, n)
    return TreeFormulas(
        s_closed=s_closed,
        var_closed=var_closed,
        irr_closed=irr_closed,
        ird_upper=ird_upper,
        ird_lower=ird_lower,
        n1_based_s=n1_based_s,
        s_floor=s_floor,
        var_floor=var_floor,
        var_s_gap=var_s_gap,
    )


@dataclass(frozen=True)
class CyclicFormulas:
    s_closed: Fraction
    var_closed: Fraction
    unicyclic_s: Optional[Fraction]  # 2*N1, present only when m == n
    unicyclic_residue: Optional[Fraction]  # n*Var - S, present only when m == n


def cyclic_formulas(g: Graph, ctx: Optional[GraphContext] = None) -> CyclicFormulas:
    ctx = ctx if ctx is not None else context(g)
    if not _cyclic_range(ctx):
        raise InputError(
            "closed forms need a connected graph with 1 <= cycle rank <= (n+2)/2"
        )
    n, m = ctx.n, ctx.m
    hist = ctx.stats.histogram
    s_closed = Fraction(
        2 * sum(c * (d * n - 2 * m) for d, c in hist.items() if d >= 3), n
    )
    var_closed = Fraction(
        sum((d - 1) * (d - 2) * c for d, c in hist.items() if d >= 3), n
    ) - Fraction(2 * (2 * m - n) * (m - n), n * n)
    unicyclic = m == n
    residue = sum((d - 2) * (d - 3) * c for d, c in hist.items() if d >= 4)
    return CyclicFormulas(
        s_closed=s_closed,
        var_closed=var_closed,
        unicyclic_s=Fraction(2 * hist.get(1, 0)) if unicyclic else None,
        unicyclic_residue=Fraction(residue) if unicyclic else None,
    )
