import functools
import itertools
import math
from fractions import Fraction as F

import pytest
import sympy

from ellgen.chern import RootSeries, _log_coefficients, genus_class, partitions_of, rotate_x
from ellgen.errors import OddTermPresent, WeightViolation
from ellgen.genera import ahat_class, x_over_tanh_poly
from ellgen.pontryagin import _bernoulli, cosh_half_poly, genus_columns, genus_log
from ellgen.series import USeries, row_view
from ellgen.theta import (
    GenusKind,
    _theta_product,
    genus_root_series,
    half_x_over_sinh_half_poly,
    theta_factor,
    weighted_product,
    x_over_tanh_half_poly,
)


def sympy_even_coeffs(expr, var, xdeg):
    ser = sympy.series(expr, var, 0, xdeg).removeO()
    out = {}
    for k in range(xdeg):
        c = sympy.Rational(ser.coeff(var, k))
        if c:
            out[k] = F(int(c.p), int(c.q))
    return out


def test_hyperbolic_polys_match_sympy():
    x = sympy.symbols("x")
    assert x_over_tanh_half_poly(10) == sympy_even_coeffs(x / sympy.tanh(x / 2), x, 10)
    assert x_over_tanh_poly(10) == sympy_even_coeffs(x / sympy.tanh(x), x, 10)
    assert rotate_x(x_over_tanh_poly(10)) == sympy_even_coeffs(x / sympy.tan(x), x, 10)
    assert rotate_x(half_x_over_sinh_half_poly(10)) == sympy_even_coeffs(
        (x / 2) / sympy.sin(x / 2), x, 10
    )


def test_prefactor_closed_forms_match_sympy_at_every_xdeg():
    x = sympy.symbols("x")
    cases = {
        half_x_over_sinh_half_poly: (x / 2) / sympy.sinh(x / 2),
        x_over_tanh_half_poly: x / sympy.tanh(x / 2),
        x_over_tanh_poly: x / sympy.tanh(x),
        cosh_half_poly: sympy.cosh(x / 2),
    }
    for poly, expr in cases.items():
        full = sympy_even_coeffs(expr, x, 24)
        for xdeg in range(1, 25):
            got = poly(xdeg)
            assert got == {k: v for k, v in full.items() if k < xdeg}, (poly.__name__, xdeg)
            assert all(type(v) is F for v in got.values())


def bernoulli_recurrence(m):
    """B_0..B_(m-1) as Fractions, from B_0 = 1 and sum_{j<=i} C(i+1, j) B_j = 0 (i >= 1)."""
    b = [F(1)]
    for i in range(1, m):
        b.append(-sum(math.comb(i + 1, j) * b[j] for j in range(i)) / (i + 1))
    return b


def test_bernoulli_numbers_from_tangent_numbers_match_the_recurrence():
    reference = bernoulli_recurrence(121)
    pairs = _bernoulli(60)
    assert len(pairs) == 61
    for k, (p, q) in enumerate(pairs):
        assert q > 0 and math.gcd(p, q) == 1, k  # reduced
        assert F(p, q) == reference[2 * k], k
    assert _bernoulli(0) == [(1, 1)] and _bernoulli(3) == [(1, 1), (1, 6), (-1, 30), (1, 42)]


def test_theta_u0_slice_is_ahat_factor():
    tf = theta_factor("theta", 8, 3)
    expected = half_x_over_sinh_half_poly(8)
    for k in range(8):
        assert tf.coeff(k).coeff(0) == expected.get(k, F(0))


def test_theta_factors_are_one_at_x_zero():
    for kind in ("theta", "theta1", "theta2"):
        tf = theta_factor(kind, 5, 8)
        assert tf.coeff(0) == USeries.one(8)


def test_theta2_first_u_coefficient():
    # the m=1 factor contributes -(e^x + e^-x - 2) q^(1/2): direct expansion
    tf = theta_factor("theta2", 8, 2)
    assert tf.coeff(2).coeff(1) == F(-1)
    assert tf.coeff(4).coeff(1) == F(-1, 12)
    assert tf.coeff(6).coeff(1) == F(-2, 720)


def test_theta2_factor_oracle():
    # independent expansion of the m-th factor as USeries arithmetic
    uorder, xdeg = 8, 6
    tf = theta_factor("theta2", xdeg, uorder)
    direct = RootSeries.const(1, xdeg, uorder)
    for m in (1, 2, 3, 4):
        w = 2 * m - 1
        ex = {k: F(1, sympy.factorial(k)) for k in range(xdeg)}
        emx = {k: (F(-1) ** k) * v for k, v in ex.items()}
        one = RootSeries.const(1, xdeg, uorder)
        t = USeries({w: 1}, uorder)
        fac = (one - RootSeries.from_xpoly(ex, xdeg, uorder) * t) * (
            one - RootSeries.from_xpoly(emx, xdeg, uorder) * t
        )
        scalar = (USeries.one(uorder) - t) ** (-2)
        direct = direct * fac * scalar
    assert tf == direct


def test_evenness_and_value_at_zero():
    for kind, value in [
        (GenusKind.AHAT, 1),
        (GenusKind.LHAT, 2),
        (GenusKind.ELL1, 2),
        (GenusKind.ELL2, 1),
        (GenusKind.WITTEN, 1),
    ]:
        rs = genus_root_series(kind, 6, 6)
        assert rs.is_even
        assert rs.coeff(0) == USeries.const(value, 6)


@pytest.mark.parametrize("kind", list(GenusKind))
def test_genus_root_series_rejects_uorder_zero_for_every_kind(kind):
    # A-hat and L-hat carry no theta family, but share the product's xdeg/uorder >= 1 check
    with pytest.raises(ValueError, match="uorder"):
        genus_root_series(kind, 4, 0)


def test_ell1_u0_slice_is_lhat_factor():
    rs = genus_root_series(GenusKind.ELL1, 8, 3)
    expected = x_over_tanh_half_poly(8)
    for k in range(8):
        assert rs.coeff(k).coeff(0) == expected.get(k, F(0))


def test_ell2_u0_slice_is_ahat_factor():
    rs = genus_root_series(GenusKind.ELL2, 8, 3)
    expected = half_x_over_sinh_half_poly(8)
    for k in range(8):
        assert rs.coeff(k).coeff(0) == expected.get(k, F(0))


def test_witten_is_ell2_without_theta2():
    xdeg, uorder = 6, 8
    ell2 = genus_root_series(GenusKind.ELL2, xdeg, uorder)
    witten = genus_root_series(GenusKind.WITTEN, xdeg, uorder)
    assert ell2 == witten * theta_factor("theta2", xdeg, uorder)


def test_u_support_parity():
    ell1 = genus_root_series(GenusKind.ELL1, 6, 9)
    witten = genus_root_series(GenusKind.WITTEN, 6, 9)
    ell2 = genus_root_series(GenusKind.ELL2, 6, 9)
    for k in range(6):
        assert ell1.coeff(k).is_even_support()
        assert witten.coeff(k).is_even_support()
    assert any(not ell2.coeff(k).is_even_support() for k in range(6))


def test_factor_weight_contract():
    # the m-th factor deviates from 1 at u-order >= 2m (theta) / 2m-1 (theta2)
    uorder = 12
    for kind, weight_of in [("theta", lambda m: 2 * m), ("theta1", lambda m: 2 * m), ("theta2", lambda m: 2 * m - 1)]:
        low = theta_factor(kind, 5, weight_of(2))
        full = theta_factor(kind, 5, uorder)
        # truncating the full product to below the m=2 weight must agree with
        # the product that never saw factors m >= 2
        assert RootSeries({k: s.truncate(weight_of(2)) for k, s in full.items()}, 5, weight_of(2)) == low


def test_rotate_requires_even():
    rs = RootSeries.from_xpoly({1: F(1)}, 4, 1)
    with pytest.raises(OddTermPresent):
        rotate_x(dict(rs.items()))


def test_rotate_is_x_to_ix_and_an_involution():
    for kind in ("theta", "theta1", "theta2"):
        f = dict(theta_factor(kind, 9, 6).items())
        assert rotate_x(rotate_x(f)) == f
        assert rotate_x(f)[2] == -f[2] and rotate_x(f)[4] == f[4]


def test_rs_product_weight_violation():
    def bad():
        yield 4, RootSeries.const(1, 3, 8) + RootSeries.const(USeries({1: 1}, 8), 3, 8)

    with pytest.raises(WeightViolation):
        weighted_product(bad(), RootSeries.const(1, 3, 8), 8)


def test_weighted_product_rootseries_weights_must_increase():
    def bad():
        yield 1, RootSeries.const(1, 3, 8) + RootSeries.const(USeries({2: 1}, 8), 3, 8)
        yield 1, RootSeries.const(1, 3, 8) + RootSeries.const(USeries({2: 1}, 8), 3, 8)

    with pytest.raises(WeightViolation, match="strictly increase"):
        weighted_product(bad(), RootSeries.const(1, 3, 8), 8)


# -- oracle: the product built factor by factor as RootSeries ------------------


@functools.lru_cache(maxsize=None)
def oracle_theta_factor(kind, xdeg, uorder):
    """Each factor m as a RootSeries, multiplied in with `weighted_product`; the
    theta denominators inverted as series (shares no code with the integer
    Laurent-polynomial construction of `theta_factor`)."""
    two_cosh = RootSeries.from_xpoly(
        {k: F(2, sympy.factorial(k)) for k in range(0, xdeg, 2)}, xdeg, uorder
    )
    one = RootSeries.const(1, xdeg, uorder)

    def factors():
        m = 1
        while True:
            if kind == "theta2":
                w = 2 * m - 1
                core = one - two_cosh * USeries({w: 1}, uorder) + USeries({2 * w: 1}, uorder)
                scalar = (USeries.one(uorder) - USeries({w: 1}, uorder)) ** (-2)
                yield w, core * scalar
            elif kind == "theta1":
                w = 2 * m
                core = one + two_cosh * USeries({w: 1}, uorder) + USeries({2 * w: 1}, uorder)
                scalar = (USeries.one(uorder) + USeries({w: 1}, uorder)) ** (-2)
                yield w, core * scalar
            else:
                w = 2 * m
                den = one - two_cosh * USeries({w: 1}, uorder) + USeries({2 * w: 1}, uorder)
                num = (USeries.one(uorder) - USeries({w: 1}, uorder)) ** 2
                yield w, den.inverse() * num
            m += 1

    prod = weighted_product(factors(), RootSeries.const(1, xdeg, uorder), uorder)
    x = sympy.symbols("x")
    if kind == "theta":
        prefactor = sympy_even_coeffs((x / 2) / sympy.sinh(x / 2), x, xdeg)
    elif kind == "theta1":
        prefactor = sympy_even_coeffs(sympy.cosh(x / 2), x, xdeg)
    else:
        return prod
    return prod * RootSeries.from_xpoly(prefactor, xdeg, uorder)


@pytest.mark.parametrize("kind", ["theta", "theta1", "theta2"])
def test_theta_factor_matches_rootseries_oracle(kind):
    for xdeg in (1, 2, 5, 8, 14):
        for uorder in (1, 2, 3, 8, 24):
            assert theta_factor(kind, xdeg, uorder) == oracle_theta_factor(kind, xdeg, uorder), (xdeg, uorder)


@pytest.mark.parametrize("xdeg, uorder", [(6, 24), (8, 12), (10, 9)])
def test_genus_root_series_matches_oracle_products(xdeg, uorder):
    x = sympy.symbols("x")
    theta = oracle_theta_factor("theta", xdeg, uorder)
    expected = {
        GenusKind.AHAT: RootSeries.from_xpoly(sympy_even_coeffs((x / 2) / sympy.sinh(x / 2), x, xdeg), xdeg, uorder),
        GenusKind.LHAT: RootSeries.from_xpoly(sympy_even_coeffs(x / sympy.tanh(x / 2), x, xdeg), xdeg, uorder),
        GenusKind.WITTEN: theta,
        GenusKind.ELL1: theta * oracle_theta_factor("theta1", xdeg, uorder) * 2,
        GenusKind.ELL2: theta * oracle_theta_factor("theta2", xdeg, uorder),
    }
    assert set(expected) == set(GenusKind)
    for kind, value in expected.items():
        assert genus_root_series(kind, xdeg, uorder) == value, kind


# The dict-Laurent theta product the symmetric-half one replaced: one dict
# j -> int per u-power over all j, each factor applied by its own pass.
def _ref_multiply(prod, w, shift, c):
    for k in range(len(prod) - 1, w - 1, -1):
        dst = prod[k]
        for j, v in prod[k - w].items():
            dst[j + shift] = dst.get(j + shift, 0) + c * v


def _ref_divide(prod, w, shift, c):
    for k in range(w, len(prod)):
        dst = prod[k]
        for j, v in prod[k - w].items():
            dst[j + shift] = dst.get(j + shift, 0) - c * v


def _ref_apply_family(prod, kind):
    first, c = {"theta": (2, -1), "theta1": (2, 1), "theta2": (1, -1)}[kind]
    pair_op, scalar_op = (_ref_divide, _ref_multiply) if kind == "theta" else (_ref_multiply, _ref_divide)
    for w in range(first, len(prod), 2):
        pair_op(prod, w, 1, c)
        pair_op(prod, w, -1, c)
        scalar_op(prod, w, 0, c)
        scalar_op(prod, w, 0, c)


def _ref_theta_product(kinds, prefactor, xdeg, uorder):
    prod = [{} for _ in range(uorder)]
    prod[0][0] = 1
    for kind in kinds:
        _ref_apply_family(prod, kind)
    coeffs = {}
    for d in range(0, xdeg, 2):
        moments = [sum(v * j**d for j, v in row.items()) for row in prod]
        coeffs[d] = USeries({k: F(s, math.factorial(d)) for k, s in enumerate(moments)}, uorder)
    return RootSeries(coeffs, xdeg, uorder) * RootSeries.from_xpoly(prefactor, xdeg, uorder)


@pytest.mark.parametrize(
    "kinds", [("theta",), ("theta1",), ("theta2",), ("theta", "theta1"), ("theta", "theta2")]
)
@pytest.mark.parametrize("xdeg", [1, 2, 6, 8, 14, 42])
def test_theta_product_matches_dict_laurent_reference(kinds, xdeg):
    prefactor = half_x_over_sinh_half_poly(xdeg)
    for uorder in (1, 2, 3, 12, 24, 64):
        expected = _ref_theta_product(kinds, prefactor, xdeg, uorder)
        assert _theta_product(kinds, prefactor, xdeg, uorder) == expected, (kinds, xdeg, uorder)


# -- the definition: every factor 1 + S_w Z a RootSeries of its own ---------------
# (1 + c u^w y)(1 + c u^w/y) / (1 + c u^w)^2 = 1 + S_w Z with y = e^x, Z = y + 1/y - 2 and
# S_w = c u^w / (1 + c u^w)^2.  The family parameters are written out here, not read from
# `_FAMILIES`, so that a wrong sign or a lost inverse there shows up as a mismatch.


@functools.lru_cache(maxsize=None)
def definition_family(kind, xdeg, uorder):
    """prod_w (1 + S_w Z), or prod_w (1 + S_w Z)^(-1) for theta with each factor inverted on its
    own, multiplied through `weighted_product`."""
    first, c, divides = {"theta": (2, -1, True), "theta1": (2, 1, False), "theta2": (1, -1, False)}[kind]
    z = RootSeries.from_xpoly({k: F(2, math.factorial(k)) for k in range(2, xdeg, 2)}, xdeg, uorder)

    def factors():
        for w in itertools.count(first, 2):
            t = USeries({w: c}, uorder)
            f = 1 + z * (t * (1 + t) ** -2)
            yield w, f.inverse() if divides else f

    return weighted_product(factors(), RootSeries.const(1, xdeg, uorder), uorder)


@pytest.mark.parametrize("xdeg, uorder", [(5, 8), (13, 24), (5, 96), (33, 16)])
def test_theta_products_match_their_definition_factor_by_factor(xdeg, uorder):
    def pre(poly):
        return RootSeries.from_xpoly(poly(xdeg), xdeg, uorder)

    half, tanh = pre(half_x_over_sinh_half_poly), pre(x_over_tanh_half_poly)
    theta, theta1, theta2 = (definition_family(kind, xdeg, uorder) for kind in ("theta", "theta1", "theta2"))
    assert theta_factor("theta", xdeg, uorder) == theta * half
    assert theta_factor("theta1", xdeg, uorder) == theta1 * pre(cosh_half_poly)
    assert theta_factor("theta2", xdeg, uorder) == theta2
    expected = {
        GenusKind.AHAT: half,
        GenusKind.LHAT: tanh,
        GenusKind.WITTEN: theta * half,
        GenusKind.ELL1: theta * theta1 * tanh,
        GenusKind.ELL2: theta * theta2 * half,
    }
    assert set(expected) == set(GenusKind)
    for kind, value in expected.items():
        assert genus_root_series(kind, xdeg, uorder) == value, kind


# -- closed-form log coefficients against the theta products -------------------
# The genus columns take a_k = [x^(2k)] log(f/f(0)) from `genus_log` (Bernoulli
# numbers and divisor sums); the theta product f = genus_root_series, run
# through the log recursion of `chern`, shares no code with that closed form.

CROSS_UORDERS = (1, 2, 3, 5, 12, 16, 24, 48, 64)


@pytest.mark.parametrize("kind", list(GenusKind))
def test_genus_columns_match_the_theta_product(kind):
    for n in range(1, 9):
        for uorder in CROSS_UORDERS:
            f = genus_root_series(kind, 2 * n + 2, uorder)
            assert genus_log(kind, n, uorder) == _log_coefficients(f, n), (n, uorder)
            full = genus_class(f, n)
            assert genus_columns(kind, n, uorder) == row_view([full.coeff(p) for p in partitions_of(n)]), (n, uorder)
            if kind is GenusKind.AHAT:
                assert ahat_class(n, uorder) == full, (n, uorder)


def test_genus_log_rejects_an_empty_order():
    with pytest.raises(ValueError, match="uorder"):
        genus_log(GenusKind.ELL2, 2, 0)
