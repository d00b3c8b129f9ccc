"""Per-root characteristic factors of the genera, from theta products.

The normalized ratios x theta'(0)/theta(x), theta1(x)/theta1(0) and
theta2(x)/theta2(0) are built directly as even RootSeries: the q^(1/8) and
eta-like prefactors cancel in the ratios, and with x = 2*pi*sqrt(-1)*z all
trigonometry collapses to hyperbolic series with rational coefficients, so
nothing transcendental is ever materialized.

Each infinite product over m of (1 -+ u^w e^(+-x)) factors has, per power
u^k, an integer Laurent polynomial sum_j c_(k,j) y^j in y = e^x as its
coefficient.  Every factor is symmetric under y -> 1/y, so c_(k,-j) =
c_(k,j) and the product keeps only j >= 0, one dense integer list per
u-power.  Per weight w, one in-place pass applies the pair
(1 + c u^w y)(1 + c u^w/y) = 1 + c u^w (y + 1/y) + u^(2w) and one the squared
scalar (1 + c u^w)^2.  The product is converted to x once at the end,
[u^k x^(2i)] = sum_j c_(k,j) j^(2i) / (2i)! with the j > 0 terms doubled,
and multiplied once by the u-constant prefactor (x/2)/sinh(x/2) or
cosh(x/2).  The prefactors in x are closed forms: their x^(2k) coefficients
are Bernoulli numbers B_2k (or 1/4^k for cosh) over (2k)! (Hirzebruch,
Topological Methods in Algebraic Geometry, section 1.5).
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from operator import add, mul, sub

from .chern import RootSeries
from .series import USeries

XPoly = dict[int, Fraction]


# ---------------------------------------------------------------------------
# The u-constant prefactors in x, in closed form
# ---------------------------------------------------------------------------


def _even_poly(xdeg: int, coeff) -> XPoly:
    """sum_{2k < xdeg} coeff(k, B_2k) x^(2k) / (2k)! with the Bernoulli numbers B_2k.

    B_0..B_(xdeg-1) follow from B_0 = 1 and sum_{j<=i} C(i+1, j) B_j = 0 (i >= 1).
    """
    b = [Fraction(1)]
    for i in range(1, xdeg):
        b.append(-sum(comb(i + 1, j) * b[j] for j in range(i)) / (i + 1))
    return {2 * k: coeff(k, b[2 * k]) / factorial(2 * k) for k in range((xdeg + 1) // 2)}


def cosh_half_poly(xdeg: int) -> XPoly:
    """cosh(x/2): coefficients 1/4^k."""
    return _even_poly(xdeg, lambda k, b: Fraction(1, 4**k))


def half_x_over_sinh_half_poly(xdeg: int) -> XPoly:
    """(x/2) / sinh(x/2), coefficients (2/4^k - 1) B_2k: the u^0 slice of the theta factor (A-hat factor)."""
    return _even_poly(xdeg, lambda k, b: (Fraction(2, 4**k) - 1) * b)


def x_over_tanh_half_poly(xdeg: int) -> XPoly:
    """x / tanh(x/2), coefficients 2 B_2k: the u^0 slice of the Ell1 factor (L-hat factor)."""
    return _even_poly(xdeg, lambda k, b: 2 * b)


def x_over_tanh_poly(xdeg: int) -> XPoly:
    """x / tanh(x), coefficients 4^k B_2k: the signature factor in complex Chern-root normalization."""
    return _even_poly(xdeg, lambda k, b: 4**k * b)


def rotate_poly(a: XPoly) -> XPoly:
    """x -> ix on an even polynomial (tanh-to-tan convention switch)."""
    if any(k % 2 for k in a):
        raise ValueError("rotation only applies to even polynomials")
    return {k: (v if k % 4 == 0 else -v) for k, v in a.items()}


# ---------------------------------------------------------------------------
# Theta product factors
# ---------------------------------------------------------------------------

# Per u-power k, the coefficients c_(k,j), j >= 0, of the integer Laurent
# polynomial sum_j c_(k,j) y^j, y = e^x.  Every factor is symmetric under
# y -> 1/y, so c_(k,-j) = c_(k,j) and only the half j >= 0 is kept.
Half = list[list[int]]

# kind -> (weight of the m = 1 factor, sign c in the factors 1 + c u^w y^(+-1)
# and 1 + c u^w).  The weights step by 2.
_FAMILIES = {"theta": (2, -1), "theta1": (2, 1), "theta2": (1, -1)}

# kind -> its u-constant prefactor in x, as a function of xdeg.
_PREFACTORS = {
    "theta": half_x_over_sinh_half_poly,
    "theta1": cosh_half_poly,
    "theta2": lambda xdeg: {0: Fraction(1)},
}


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
    """Multiply prod by every factor m >= 1 of one theta product.

    theta:  (1-u^w)^2 / ((1-u^w y)(1-u^w/y)),   w = 2m
    theta1: (1+u^w y)(1+u^w/y) / (1+u^w)^2,     w = 2m
    theta2: (1-u^w y)(1-u^w/y) / (1-u^w)^2,     w = 2m-1

    A factor of weight w only touches u^k with k >= w, so factors of weight
    >= the order are never applied.
    """
    first, c = _FAMILIES[kind]
    for w in range(first, len(prod), 2):
        _apply(prod, w, c, True, kind == "theta")
        _apply(prod, w, c, False, kind != "theta")


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
    series = {}
    for i in range((xdeg + 1) // 2):
        weights = [(1 if j == 0 else 2) * j ** (2 * i) for j in range(width)]
        series[2 * i] = USeries._make([sum(map(mul, row, weights)) for row in prod], factorial(2 * i))
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
    return _theta_product((kind,), _PREFACTORS[kind](xdeg), xdeg, uorder)


class GenusKind(str, Enum):
    AHAT = "ahat"
    LHAT = "lhat"
    ELL1 = "ell1"
    ELL2 = "ell2"
    WITTEN = "witten"


@lru_cache(maxsize=128)
def genus_root_series(kind: GenusKind, xdeg: int, uorder: int) -> RootSeries:
    """The per-root factor of a genus, ready for `genus_class`.

    Ell1 carries a per-root 2 (accumulating to the global 2^(2n)), so its
    value at x = 0 is the constant 2; all q-dependence of A-hat and L-hat is
    trivial by definition.
    """
    kind = GenusKind(kind)
    if kind is GenusKind.AHAT:
        return RootSeries.from_xpoly(half_x_over_sinh_half_poly(xdeg), xdeg, uorder)
    if kind is GenusKind.LHAT:
        return RootSeries.from_xpoly(x_over_tanh_half_poly(xdeg), xdeg, uorder)
    if kind is GenusKind.WITTEN:
        return theta_factor("theta", xdeg, uorder)
    if kind is GenusKind.ELL1:
        # 2 (x/2)/sinh(x/2) cosh(x/2) = x/tanh(x/2)
        return _theta_product(("theta", "theta1"), x_over_tanh_half_poly(xdeg), xdeg, uorder)
    return _theta_product(("theta", "theta2"), half_x_over_sinh_half_poly(xdeg), xdeg, uorder)
