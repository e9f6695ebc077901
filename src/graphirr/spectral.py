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
from typing import NamedTuple, Optional

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
