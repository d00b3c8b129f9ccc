"""Per-root characteristic factors of the genera: the theta products, a cross-check route.

The normalized ratios x theta'(0)/theta(x), theta1(x)/theta1(0) and
theta2(x)/theta2(0) are built as even RootSeries with rational coefficients:
with x = 2*pi*sqrt(-1)*z the eta-like prefactors cancel and all trigonometry
is hyperbolic.  With y = e^x, each factor of a theta family,
(1 + c u^w y)(1 + c u^w/y) / (1 + c u^w)^2 with c = +-1, is 1 + S_w Z for
Z = y + 1/y - 2 = sum_(i>=1) 2 x^(2i)/(2i)! and the integer series
S_w = c u^w/(1 + c u^w)^2 = -sum_(r>=1) r (-c)^r u^(w r).  Since Z = O(x^2),
a product of such factors, or of their inverses, is a polynomial in Z of
degree below xdeg/2 with USeries coefficients, one sparse product per degree
per factor.  It is rewritten in x once, through the closed form of the powers
of Z, and multiplied by the prefactor (x/2)/sinh(x/2) or cosh(x/2), whose
x^(2k) coefficients are Bernoulli closed forms (Hirzebruch, Topological
Methods in Algebraic Geometry, 1.5).  These products serve the residue route
and the public API.  The Pontryagin route builds none: `pontryagin.genus_log`
gives the a_k = [x^(2k)] log(f/f(0)) of each genus factor in closed form.
The theta families (`_FAMILIES`), the genera (`GenusKind`, `_LOGS`) and the
prefactors they name live in `pontryagin` with it, and both routes read
those tables; their names are bound here too.  `weighted_product` is the
one weight-checked infinite product of the public API.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Iterable, Tuple

from .chern import RootSeries
from .errors import WeightViolation
from .pontryagin import _FAMILIES, _LOGS, GenusKind, _even_poly, half_x_over_sinh_half_poly
from .series import USeries, _RingOps, linear_combination


def x_over_tanh_half_poly(xdeg: int) -> dict[int, Fraction]:
    """x / tanh(x/2), coefficients 2 B_2k: the u^0 slice of the Ell1 factor (L-hat factor)."""
    return _even_poly(xdeg, lambda k, b: 2 * b)


def _theta_product(kinds: tuple[str, ...], prefactor: dict[int, Fraction], xdeg: int, uorder: int) -> RootSeries:
    """prefactor(x) times the theta products of `kinds`, as an even RootSeries."""
    if xdeg < 1 or uorder < 1:
        raise ValueError("xdeg and uorder must be >= 1")
    top = (xdeg - 1) // 2  # Z^j = O(x^(2j)): only j <= top reaches below x^xdeg
    poly = [USeries.one(uorder)] + [USeries.zero(uorder)] * top  # sum_j poly[j] Z^j
    for kind in kinds:
        first, c, divides, _ = _FAMILIES[kind]
        sign = 1 if divides else -1
        # s is S_w when the family multiplies and -S_w when it divides; only w < uorder counts.
        # Times 1 + S_w Z, poly[j] += S_w poly[j - 1] with j descending, from the old
        # poly[j - 1]; over it, poly[j] -= S_w poly[j - 1] with j ascending, from the new one.
        for w in range(first, uorder, 2):
            s = USeries({w * r: sign * r * (-c) ** r for r in range(1, (uorder - 1) // w + 1)}, uorder)
            for j in range(1, top + 1) if divides else range(top, 0, -1):
                poly[j] = poly[j] + poly[j - 1] * s
    # Z^j = (y^(1/2) - y^(-1/2))^(2j) = sum_m (-1)^m C(2j, m) y^(j-m), so (2i)! [x^(2i)] Z^j
    # is the integer sum_m (-1)^m C(2j, m) (j - m)^(2i), which is 0 for i < j.
    series = {}
    for i in range(top + 1):
        z = (sum((-1) ** m * comb(2 * j, m) * (j - m) ** (2 * i) for m in range(2 * j + 1))
             for j in range(i + 1))
        series[2 * i] = linear_combination(zip(z, poly), uorder) * Fraction(1, factorial(2 * i))
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
