"""Two-walk linearity detection, the variance identity and the exact radius test.

A connected irregular graph is 2-walk (a, b)-linear when the neighbour
degree sum satisfies S(u) = a*d(u) + b at every vertex for a single integer
pair (a, b).  With A the adjacency matrix and d the degree vector that reads
A*1 = d and A*d = a*d + b*1, so A keeps span{1, d} invariant and acts there
with the two main eigenvalues lambda, mu = (a +- sqrt(D))/2, D = a^2 + 4b.

* The degree variance factors as (lambda - 2m/n)(2m/n - mu), which expands
  to the all-rational form a*(2m/n) + b - (2m/n)^2 used here.
* d - mu*1 is an eigenvector for lambda.  By Perron-Frobenius the adjacency
  matrix of a connected graph has exactly one eigenvalue with a positive
  eigenvector, its spectral radius, and every eigenvector of the radius has
  entries of one strict sign.  Since mu <= lambda <= Dmax, the entries
  d_v - mu cannot all be negative, so lambda is the spectral radius iff
  Dmin > mu.  With t = a - 2*Dmin that is ``t < 0 or D > t^2``: a test on
  integers that decides the radius without computing it.

The fit itself is :func:`_two_walk_fit`, on the adjacency rows alone.
:func:`two_walk_params` first checks that the graph is connected and
irregular; ``verify``'s spectral suite calls ``_two_walk_fit`` directly,
because each graph's profile already says both.

Every affine fit of a connected irregular graph is such a pair, so
:func:`two_walk_params` rejects nothing once the line is found:

* a = lambda + mu and b = -lambda*mu are rational, and lambda, mu are
  eigenvalues of an integer matrix, hence algebraic integers; a rational
  algebraic integer is an integer.
* a^2 + 4b = (lambda - mu)^2 >= 0.
* a >= 0: if lambda is the spectral radius then |mu| <= lambda; otherwise
  d - mu*1 is an eigenvector of a non-Perron eigenvalue, so its entries
  change sign and mu > Dmin >= 1, with lambda > mu too.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .errors import InputError
from .graph import Graph, is_connected
from .measures import GraphContext, context


class _Fit(NamedTuple):
    a: int
    b: int


class TwoWalkParams(_Fit):
    """The fit S(u) = a*d(u) + b, with a >= 0 and a^2 + 4b >= 0."""

    def __new__(cls, a: int, b: int) -> TwoWalkParams:
        if a < 0:
            raise InputError("two-walk parameter a must be non-negative")
        if a * a + 4 * b < 0:
            raise InputError("two-walk parameters must have a^2 + 4b >= 0")
        return super().__new__(cls, a, b)


def two_walk_params(g: Graph) -> Optional[TwoWalkParams]:
    """Fit S(u) = a*d(u) + b over all vertices; None when no single fit exists.

    ``g`` must be connected and irregular.  The fit is decided in integers,
    from the degrees and neighbourhoods alone: no context is built.
    """
    if not is_connected(g):
        raise InputError("two-walk detection needs a connected graph")
    degs = g.degrees()
    if max(degs) == min(degs):
        raise InputError("two-walk parameters are not unique for regular graphs")
    return _two_walk_fit(g.rows)


def _two_walk_fit(rows: Sequence[int]) -> Optional[TwoWalkParams]:
    """:func:`two_walk_params` of the graph with adjacency bitmasks ``rows``, unchecked.

    The caller vouches that the graph is connected and irregular: ``verify``
    reads both from the profile, so the fit is all it pays for per graph.
    """
    degs = [r.bit_count() for r in rows]

    def degree_sum(row: int) -> int:  # S(w) of the vertex w whose row this is
        total = 0
        while row:
            low = row & -row
            total += degs[low.bit_length() - 1]
            row ^= low
        return total

    # vertex 0 and the first vertex w of another degree fix the line: slope
    # a = num/den, intercept b = b_den/den.  Each vertex is tested with den
    # cleared, those before w by S alone, and the first one off the line
    # ends the fit.
    d0, s0 = degs[0], degree_sum(rows[0])
    w = 1
    while degs[w] == d0:
        if degree_sum(rows[w]) != s0:
            return None
        w += 1
    num, den = degree_sum(rows[w]) - s0, degs[w] - d0
    b_den = s0 * den - num * d0
    for d, row in zip(degs[w + 1 :], rows[w + 1 :]):
        if degree_sum(row) * den != num * d + b_den:
            return None
    a = num // den  # exact: see the module docstring
    return TwoWalkParams(a=a, b=s0 - a * d0)


def two_walk_radius_test(p: TwoWalkParams, min_degree: int) -> tuple[bool, int, int]:
    """Decide exactly whether lambda = (a + sqrt(D))/2 is the spectral radius.

    Returns ``(holds, D, t*t)`` with D = a^2 + 4b and t = a - 2*min_degree;
    ``holds`` is ``t < 0 or D > t*t`` (see the module docstring), and when it
    fails the two integers returned are the ones that were compared.
    """
    disc = p.a * p.a + 4 * p.b
    t = p.a - 2 * min_degree
    return t < 0 or disc > t * t, disc, t * t


class VarianceIdentity(NamedTuple):
    var_via_params: Fraction
    matches: bool


def variance_spectral_identity(g: Graph) -> VarianceIdentity:
    """Check Var == (lambda - 2m/n)(2m/n - mu) exactly.

    With lambda+mu = a and lambda*mu = -b the product equals
    a*(2m/n) + b - (2m/n)^2, so no irrational arithmetic is needed.
    """
    p = two_walk_params(g)
    if p is None:
        raise InputError("graph is not 2-walk linear")
    return _variance_spectral_identity(context(g), p)


def _variance_spectral_identity(ctx: GraphContext, p: TwoWalkParams) -> VarianceIdentity:
    """The identity for the fit ``p`` of a graph with context ``ctx``."""
    c = ctx.avg
    value = c * p.a + p.b - c * c
    return VarianceIdentity(var_via_params=value, matches=value == ctx.ms.var)
