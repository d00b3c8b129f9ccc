"""Per-root characteristic factors of the genera: the theta products, a cross-check route.

The normalized ratios x theta'(0)/theta(x), theta1(x)/theta1(0) and
theta2(x)/theta2(0) are built as even RootSeries with rational coefficients:
with x = 2*pi*sqrt(-1)*z the eta-like prefactors cancel and all trigonometry
is hyperbolic.  Per power u^k, a product over m of (1 -+ u^w y^(+-1))
factors, y = e^x, is an integer Laurent polynomial in y, symmetric under
y -> 1/y, so only its half j >= 0 is kept; per weight w one in-place pass
applies the pair (1 + c u^w y)(1 + c u^w/y) = 1 + c u^w (y + 1/y) + u^(2w)
and one the squared scalar (1 + c u^w)^2.  The product becomes an x-series
once, [u^k x^(2i)] = sum_j c_(k,j) j^(2i) / (2i)! with the j > 0 terms
doubled, times the prefactor (x/2)/sinh(x/2) or cosh(x/2), whose x^(2k)
coefficients are Bernoulli closed forms (Hirzebruch, Topological Methods in
Algebraic Geometry, 1.5).  These products serve the residue route and the
public API.  The Pontryagin route builds none: `pontryagin.genus_log` gives
the a_k = [x^(2k)] log(f/f(0)) of each genus factor in closed form.  The
theta families (`_FAMILIES`), the genera (`GenusKind`, `_LOGS`) and the
prefactors they name live in `pontryagin` with it, and both routes read
those tables; their names are bound here too.  `weighted_product` is the
one weight-checked infinite product of the public API.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from operator import add, sub
from typing import Iterable, Tuple

from .chern import RootSeries
from .errors import WeightViolation
from .pontryagin import _FAMILIES, _LOGS, GenusKind, _even_poly, half_x_over_sinh_half_poly
from .series import RowView, USeries, _RingOps, row_product

XPoly = dict[int, Fraction]


def x_over_tanh_half_poly(xdeg: int) -> XPoly:
    """x / tanh(x/2), coefficients 2 B_2k: the u^0 slice of the Ell1 factor (L-hat factor)."""
    return _even_poly(xdeg, lambda k, b: 2 * b)


# ---------------------------------------------------------------------------
# Theta product factors
# ---------------------------------------------------------------------------

# Per u-power k, the coefficients c_(k,j), j >= 0, of the integer Laurent
# polynomial sum_j c_(k,j) y^j, y = e^x.  Every factor is symmetric under
# y -> 1/y, so c_(k,-j) = c_(k,j) and only the half j >= 0 is kept.
Half = list[list[int]]


def _apply(prod: Half, w: int, c: int, pair: bool, divide: bool) -> None:
    """prod *= F or prod /= F in place, F = 1 + c u^w L + u^(2w), c = +-1:
    L = y + 1/y for the pair (1 + c u^w y)(1 + c u^w/y), L = 2 for the
    squared scalar (1 + c u^w)^2.

    Multiplying, k descends, so u^(k-w) and u^(k-2w) are still the old P;
    dividing, Q_k = P_k - c L Q_(k-w) - Q_(k-2w) with k ascending.
    """
    lin = add if (c > 0) != divide else sub
    sq = sub if divide else add
    ks = range(w, len(prod)) if divide else range(len(prod) - 1, w - 1, -1)
    for k in ks:
        src, dst = prod[k - w], prod[k]
        # (y + 1/y) on a half: [j] <- [j-1] + [j+1], with [-1] = [1].  The
        # map stops at the end of dst; all it can drop is src's spare zero.
        lift = map(add, src[1:2] + src, src[1:] + [0, 0]) if pair else map(add, src, src)
        dst[: len(src) + pair] = map(lin, dst, lift)
        if k >= 2 * w:
            low = prod[k - 2 * w]
            dst[: len(low)] = map(sq, dst, low)


def _apply_family(prod: Half, kind: str) -> None:
    """Multiply prod by every factor (1 + c u^w y)(1 + c u^w/y) / (1 + c u^w)^2 of one
    `_FAMILIES` product, or by its inverse when the pair divides.

    A factor of weight w only touches u^k with k >= w, so factors of weight
    >= the order are never applied.
    """
    first, c, divides, _ = _FAMILIES[kind]
    for w in range(first, len(prod), 2):
        _apply(prod, w, c, True, divides)
        _apply(prod, w, c, False, not divides)


def _theta_product(kinds: tuple[str, ...], prefactor: XPoly, xdeg: int, uorder: int) -> RootSeries:
    """prefactor(x) times the theta products of `kinds`, as an even RootSeries."""
    if xdeg < 1 or uorder < 1:
        raise ValueError("xdeg and uorder must be >= 1")
    # |j| <= (k+1)/2 at u^k: every y-factor has weight >= 2 but theta2's
    # first pair, which is multiplied once.  One spare zero slot per row
    # keeps [1] in range and absorbs the top of the (y + 1/y) shift.
    prod: Half = [[0] * ((k + 1) // 2 + 2) for k in range(uorder)]
    prod[0][0] = 1
    for kind in kinds:
        _apply_family(prod, kind)
    # Only even x-powers occur: [u^k x^(2i)] = sum_j c_(k,j) j^(2i) / (2i)!,
    # the j > 0 terms counted twice for their mirror images at -j.
    width = len(prod[-1])
    view = RowView(tuple((k, (*row, *[0] * (width - len(row)))) for k, row in enumerate(prod)), 1)
    series = {}
    for i in range((xdeg + 1) // 2):
        weights = [(1 if j == 0 else 2) * j ** (2 * i) for j in range(width)]
        series[2 * i] = USeries._make(row_product(view, weights, uorder), factorial(2 * i))
    return RootSeries(series, xdeg, uorder) * RootSeries.from_xpoly(prefactor, xdeg, uorder)


@lru_cache(maxsize=128)
def theta_factor(kind: str, xdeg: int, uorder: int) -> RootSeries:
    """Normalized per-root theta ratio as an even RootSeries.

    kind "theta":  (x/2)/sinh(x/2) * prod_m (1-q^m)^2 / ((1-q^m e^x)(1-q^m e^-x))
    kind "theta1": cosh(x/2) * prod_m (1+q^m e^x)(1+q^m e^-x) / (1+q^m)^2
    kind "theta2": prod_m (1-q^(m-1/2) e^x)(1-q^(m-1/2) e^-x) / (1-q^(m-1/2))^2

    The m-th factor of each product deviates from 1 only at u-order 2m
    (theta, theta1) or 2m-1 (theta2), so the truncated product is finite.
    """
    if kind not in _FAMILIES:
        raise ValueError(f"unknown theta factor kind {kind!r}")
    return _theta_product((kind,), _FAMILIES[kind][3](xdeg), xdeg, uorder)


@lru_cache(maxsize=128)
def genus_root_series(kind: GenusKind, xdeg: int, uorder: int) -> RootSeries:
    """The per-root factor of a genus, ready for `genus_class`: the prefactor and theta
    families of `_LOGS`.

    Ell1 carries a per-root 2 (accumulating to the global 2^(2n)): its prefactor is
    2 (x/2)/sinh(x/2) cosh(x/2) = x/tanh(x/2), so its value at x = 0 is the constant 2.
    A-hat and L-hat have no family, so no q-dependence.
    """
    tanh, families = _LOGS[GenusKind(kind).value]
    prefactor = x_over_tanh_half_poly if tanh else half_x_over_sinh_half_poly
    return _theta_product(families, prefactor(xdeg), xdeg, uorder)


def weighted_product(factors: Iterable[Tuple[int, _RingOps]], one: _RingOps, order: int):
    """Product of `one` and an infinite family of factors, truncated at u-order `order`.

    `factors` yields (weight, factor) pairs with strictly increasing weights;
    each factor must equal 1 + O(u^weight).  Only factors of weight < order
    contribute, so a lazy generator terminates after finitely many terms and
    the result does not depend on the rest of the family.  The factors may be
    any ring class with a u-`valuation` (`USeries`, `RootSeries`, ...).
    """
    result = one
    last_weight = None
    for weight, factor in factors:
        if last_weight is not None and weight <= last_weight:
            raise WeightViolation(
                f"factor weights must strictly increase ({weight} after {last_weight})"
            )
        last_weight = weight
        if weight >= order:
            break
        val = (factor - 1).valuation()
        if val is not None and val < weight:
            raise WeightViolation(
                f"factor deviates from 1 at u^{val}, below declared weight {weight}"
            )
        result = result * factor
    return result
