"""Genus pipeline: manifolds in, exact q-expansions out.

Two independent routes to the same numbers:

* the Pontryagin route (`genus`, with `genus_columns`, `Hypersurface` and
  `hypersurface_pont`) lives in `pontryagin`, all that a cold `genus` or
  `hypersurface` command runs, and its public names are bound here too:
  the log coefficients of the per-root factor in closed form (no theta
  product is built) -> Hirzebruch's recursion for the class in p_1..p_n ->
  the row view of its weight-n columns, memoized per (kind, n, uorder),
  times the Pontryagin numbers of M (`_pair_rows`, which ends the bundle
  route too), in the hyperbolic normalization x = 2*pi*sqrt(-1)*z;
* the residue route (`hypersurface_genus`) for hypersurfaces X(N; d) in
  CP^N, which extracts one coefficient of f(x)^(N+1) (d x)/f(d x), lives
  here with its factors, the twisted A-hat pairings and the dim-8 identity.

The residue route accepts either normalization of a factor.  The rotated
(tan) convention, the one used for classical residue formulas, agrees with
the genus for N = 1 mod 4 (x -> ix, `chern.rotate_x`, scales the extracted
coefficient by i^(N-1)); the hyperbolic (tanh) convention agrees for every
admissible N and is the default.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .chern import Manifold, PontPoly, RootSeries, ch_tangent, pair, rotate_x
from .errors import NonUnitConstant
from .pontryagin import GenusKind, Hypersurface, _even_poly, _p_class, genus, genus_log, half_x_over_sinh_half_poly
from .pontryagin import hypersurface_pont  # noqa: F401  (bound here as before)
from .series import USeries


@lru_cache(maxsize=128)
def ahat_class(n: int, uorder: int) -> PontPoly:
    return PontPoly._raw(_p_class(*genus_log(GenusKind.AHAT, n, uorder), n), n, uorder)


def twisted_ahat_series(m: Manifold, c: PontPoly) -> USeries:
    """<A-hat(TM) c, [M]> as a u-series (the q-graded twisted index)."""
    return pair(ahat_class(m.n, c.uorder) * c, m)


def twisted_ahat(m: Manifold, c: PontPoly) -> Fraction:
    """u^0 part of the twisted A-hat pairing (the index when c is a bundle)."""
    return twisted_ahat_series(m, c).coeff(0)


# ---------------------------------------------------------------------------
# The dimension-8 cancellation identity
# ---------------------------------------------------------------------------


def cancellation_class() -> PontPoly:
    """Weight-2 part of L-hat - (24 A-hat - A-hat ch(T_C)); identically zero."""
    lhat = PontPoly._raw(_p_class(*genus_log(GenusKind.LHAT, 2, 1), 2), 2, 1)
    ahat = ahat_class(2, 1)
    twisted = ahat * ch_tangent(2, 2, 1)
    return (lhat - (ahat * 24 - twisted)).weight_part(2)


def cancellation_residual(p11, p2) -> Fraction:
    """sigma - (24 A-hat - <A-hat ch(T_C)>) on a dim-8 manifold; always 0."""
    m = Manifold("dim8", 8, {(1, 1): Fraction(p11), (2,): Fraction(p2)})
    sigma = genus(m, GenusKind.LHAT, 1).coeff(0)
    ahat = genus(m, GenusKind.AHAT, 1).coeff(0)
    twisted = twisted_ahat(m, ch_tangent(2, 2, 1))
    return sigma - (24 * ahat - twisted)


# ---------------------------------------------------------------------------
# The residue route for hypersurfaces X(N; d) in CP^N
# ---------------------------------------------------------------------------


def hypersurface_genus(h: Hypersurface, f: RootSeries) -> USeries:
    """[x^N] of f(x)^(N+1) (d x) / f(d x): the residue-style genus of X(N; d).

    `f` may be a plain characteristic factor (signature, A-hat) or a full
    q-dependent per-root series; it must satisfy f(0) = 1 for the result to
    be the genus itself.
    """
    N, d = h.ambient, h.degree
    if f.xdeg < N + 1:
        raise ValueError(f"factor needs xdeg >= {N + 1}, got {f.xdeg}")
    if not f.coeff(0).constant():
        raise NonUnitConstant("hypersurface factor value at x = 0 is not invertible")
    f = f.truncate_x(N + 1)
    dx = RootSeries({1: USeries.const(d, f.uorder)}, N + 1, f.uorder)
    integrand = f ** (N + 1) * f.scale_x(d).inverse() * dx
    return integrand.coeff(N)


def _residue_factor(poly, xdeg: int, uorder: int, convention: str) -> RootSeries:
    if convention == "tan":
        poly = rotate_x(poly)
    elif convention != "tanh":
        raise ValueError(f"unknown convention {convention!r}")
    return RootSeries.from_xpoly(poly, xdeg, uorder)


def x_over_tanh_poly(xdeg: int) -> dict[int, Fraction]:
    """x / tanh(x), coefficients 4^k B_2k: the signature factor in complex Chern-root normalization."""
    return _even_poly(xdeg, lambda k, b: 4**k * b)


def signature_factor(xdeg: int, uorder: int = 1, convention: str = "tanh") -> RootSeries:
    """x/tanh(x) (or its rotation x/tan(x)) for the residue route."""
    return _residue_factor(x_over_tanh_poly(xdeg), xdeg, uorder, convention)


def ahat_factor(xdeg: int, uorder: int = 1, convention: str = "tanh") -> RootSeries:
    """(x/2)/sinh(x/2) (or (x/2)/sin(x/2)) for the residue route."""
    return _residue_factor(half_x_over_sinh_half_poly(xdeg), xdeg, uorder, convention)
