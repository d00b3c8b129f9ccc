import math
import random
from fractions import Fraction as F

import mpmath
import pytest

from ellgen import modular, pontryagin, series, theta
from ellgen.chern import Manifold, partitions_of
from ellgen.errors import NotInUpperHalfPlane, ResidualNonzero, ToleranceNotReached
from ellgen.genera import Hypersurface, genus, hypersurface_pont
from ellgen.modular import (
    ModBasisDecomp,
    delta1,
    delta2,
    eps1,
    eps2,
    expand_in_basis,
    law_tolerance,
    numeric_eval,
    reconstruct_ell1,
)
from ellgen.series import USeries

K3 = Manifold("K3", 4, {(1,): F(-48)})
QUADRIC = hypersurface_pont(Hypersurface(5, 2))


def divisor_sum_oracle(k, predicate, power=1):
    return sum(d**power for d in range(1, k + 1) if k % d == 0 and predicate(d, k // d))


# -- q-expansions ------------------------------------------------------------

def test_delta1_printed_coefficients():
    d = delta1(8)
    assert [d.coeff(k) for k in (0, 2, 4)] == [F(1, 4), 6, 6]


def test_eps1_printed_coefficients():
    e = eps1(8)
    assert [e.coeff(k) for k in (0, 2, 4)] == [F(1, 16), -1, 7]


def test_delta2_printed_coefficients():
    d = delta2(8)
    assert [d.coeff(k) for k in (0, 1, 2)] == [F(-1, 8), -3, -3]


def test_eps2_printed_coefficients():
    e = eps2(8)
    assert [e.coeff(k) for k in (0, 1, 2)] == [0, 1, 8]


def test_eps2_u3_divisor_sum():
    assert eps2(8).coeff(3) == 28 == divisor_sum_oracle(3, lambda d, q: q % 2 == 1, 3)


def test_divisor_sums_against_oracle():
    d1, e1, d2, e2 = delta1(25), eps1(25), delta2(25), eps2(25)
    for k in range(1, 12):
        odd = divisor_sum_oracle(k, lambda d, q: d % 2 == 1)
        assert d1.coeff(2 * k) == 6 * odd
        assert d2.coeff(k) == -3 * odd
        assert e1.coeff(2 * k) == divisor_sum_oracle(k, lambda d, q: True, 3) - 2 * divisor_sum_oracle(k, lambda d, q: d % 2 == 1, 3)
        assert e2.coeff(k) == divisor_sum_oracle(k, lambda d, q: q % 2 == 1, 3)


def test_integral_q_support():
    assert delta1(24).is_even_support()
    assert eps1(24).is_even_support()


# -- basis decomposition -------------------------------------------------------

def test_expand_k3():
    dec = expand_in_basis(genus(K3, "ell2", 12), 1)
    assert dec.h == (F(-2),)
    assert dec.all_integer


def test_expand_zero_series():
    dec = expand_in_basis(USeries.zero(8), 3)
    assert dec.h == (0, 0)
    assert dec.all_integer


def test_expand_quadric():
    dec = expand_in_basis(genus(QUADRIC, "ell2", 12), 2)
    assert dec.h == (0, 2)
    assert dec.all_integer


def test_expand_planted_h_vectors():
    rng = random.Random(5)
    for n in (1, 2, 3, 4, 5):
        for _ in range(4):
            h = tuple(F(rng.randint(-9, 9)) for _ in range(n // 2 + 1))
            series = USeries.zero(14)
            for r, hr in enumerate(h):
                series = series + (delta2(14) * 8) ** (n - 2 * r) * eps2(14) ** r * hr
            dec = expand_in_basis(series, n)
            assert dec.h == h


def test_expand_rejects_off_span_series():
    e2 = genus(K3, "ell2", 12)
    perturbed = e2 + USeries.monomial(5, 1, 12)
    with pytest.raises(ResidualNonzero):
        expand_in_basis(perturbed, 1)


def test_expand_needs_enough_order():
    with pytest.raises(ValueError):
        expand_in_basis(USeries.zero(1), 3)


def test_fractional_h_reported_not_rejected():
    m = Manifold("frac", 4, {(1,): F(1, 3)})
    dec = expand_in_basis(genus(m, "ell2", 10), 1)
    assert not dec.all_integer


# -- reconstruction of Ell_1 ----------------------------------------------------

def test_reconstruct_k3():
    rec = reconstruct_ell1(ModBasisDecomp(1, (F(-2),)), 8)
    assert rec == genus(K3, "ell1", 8)
    assert rec.coeff(0) == -16
    assert rec.coeff(2) == -384


def test_reconstruct_zero():
    assert reconstruct_ell1(ModBasisDecomp(2, (F(0), F(0))), 8).is_zero()


@pytest.mark.parametrize("n, h", [(2, (1, 2, 7)), (2, (1,)), (5, (1, 2)), (1, ()), (0, (1,)), (-2, ())])
def test_decomposition_needs_one_coordinate_per_basis_element(n, h):
    # a wrong length used to be read silently: extra coordinates dropped, missing ones as 0
    with pytest.raises(ValueError, match="coordinates"):
        ModBasisDecomp(n, tuple(map(F, h)))


def test_reconstruct_quadric():
    dec = expand_in_basis(genus(QUADRIC, "ell2", 21), 2)
    assert reconstruct_ell1(dec, 21) == genus(QUADRIC, "ell1", 21)


def test_modular_relation_random_manifolds():
    rng = random.Random(6)
    for n in (1, 2, 3):
        for _ in range(5):
            pont = {p: F(rng.randint(-40, 40), rng.randint(1, 5)) for p in partitions_of(n)}
            m = Manifold("rand", 4 * n, pont)
            e2 = genus(m, "ell2", 13)
            dec = expand_in_basis(e2, n)
            assert reconstruct_ell1(dec, 13) == genus(m, "ell1", 13)


# -- the memoized bases against a direct construction -------------------------

def basis_oracle(delta, eps, n, r, uorder):
    """(8 delta)^(n-2r) eps^r as n - r plain factors, built afresh on each call."""
    out = USeries.one(uorder)
    for factor in [delta(uorder) * 8] * (n - 2 * r) + [eps(uorder)] * r:
        out = out * factor
    return out


@pytest.mark.parametrize("uorder", [4, 24])
@pytest.mark.parametrize("n", range(1, 9))
def test_bases_match_direct_construction(n, uorder):
    rng = random.Random(10 * n + uorder)
    for _ in range(3):
        h = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n // 2 + 1))
        e2 = USeries.zero(uorder)
        e1 = USeries.zero(uorder)
        for r, hr in enumerate(h):
            e2 = e2 + basis_oracle(delta2, eps2, n, r, uorder) * hr
            e1 = e1 + basis_oracle(delta1, eps1, n, r, uorder) * hr
        assert reconstruct_ell1(ModBasisDecomp(n, h), uorder) == e1 * 4**n
        if uorder < n // 2 + 1:
            with pytest.raises(ValueError, match="too small"):
                expand_in_basis(e2, n)
        else:
            assert expand_in_basis(e2, n).h == h


def test_basis_memos_are_bounded():
    from ellgen.modular import _basis1, _basis2

    assert _basis1.cache_info().maxsize == _basis2.cache_info().maxsize == 128


# -- numeric evaluation ----------------------------------------------------------

def test_numeric_constant():
    value, tail = numeric_eval(USeries.const(5, 8), 0.3 + 2j)
    assert value == 5
    assert tail == 0 or tail < 1e-6


def test_numeric_requires_upper_half_plane():
    with pytest.raises(NotInUpperHalfPlane):
        numeric_eval(USeries.one(4), 1.0 - 0.5j)


def test_transformation_law_at_fixed_point():
    order = 48
    d2v, d2t = numeric_eval(delta2(order), 1j)
    d1v, d1t = numeric_eval(delta1(order), 1j)
    assert abs(d2v + d1v) < 1e-9
    assert d2t + d1t < 1e-12
    e2v, _ = numeric_eval(eps2(order), 1j)
    e1v, _ = numeric_eval(eps1(order), 1j)
    assert abs(e2v - e1v) < 1e-9


def test_transformation_law_off_fixed_point():
    order = 60
    # tau = 2i: delta2(-1/tau) = tau^2 delta1(tau) reads delta2(i/2) = -4 delta1(2i)
    d2v, d2t = numeric_eval(delta2(order), 0.5j)
    d1v, d1t = numeric_eval(delta1(order), 2j)
    assert abs(d2v - (2j) ** 2 * d1v) < 1e-8
    e2v, _ = numeric_eval(eps2(order), 0.5j)
    e1v, _ = numeric_eval(eps1(order), 2j)
    assert abs(e2v - (2j) ** 4 * e1v) < 1e-8


def test_tail_bound_is_honest_for_geometric_series():
    # for a geometric series the bound dominates the true truncation error
    order = 12
    s = USeries({k: 1 for k in range(order)}, order)
    tau = 1j
    value, tail = numeric_eval(s, tau)
    import cmath

    w = cmath.exp(1j * cmath.pi * tau)
    true_tail = abs(w**order / (1 - w))
    assert tail >= true_tail * 0.99


# -- the one divisor-sum sieve -------------------------------------------------

@pytest.mark.parametrize("uorder", [1, 2, 3, 24, 200])
def test_divisor_sums_match_brute_force_divisors_at_every_call(monkeypatch, uorder):
    # every (first, step, term) that the four forms and the genus logs pass to the sieve,
    # against t[N] = sum of term(r) over the divisors r of N with N/r in {first, first + step, ...}
    calls = []

    def spy(order, first, step, term):
        # checked here: genus_log's term closes over its loop variable k
        out = series.divisor_sums(order, first, step, term)
        expected = [
            sum(term(r) for r in range(1, N + 1) if N % r == 0 and N // r >= first and (N // r - first) % step == 0)
            for N in range(order)
        ]
        assert out == expected, (order, first, step)
        calls.append((first, step))
        return out

    monkeypatch.setattr(modular, "divisor_sums", spy)
    monkeypatch.setattr(pontryagin, "divisor_sums", spy)  # genus_log's home
    for form in (delta1, eps1, delta2, eps2):
        form(uorder)
    for kind in theta.GenusKind:
        pontryagin.genus_log(kind, 3, uorder)
    assert set(calls) == {(1, 1), (1, 2), (2, 2)}
    assert len(calls) == 4 + 3 * 5  # witten one family, ell1 and ell2 two, for k = 1..3


# -- the proven tolerance of the transformation laws ---------------------------

def _mp_value(coeff, t, terms):
    """sum_{k < terms} coeff(k) u^k at u = e^(pi i t), in mpmath at the working precision."""
    u = mpmath.exp(mpmath.mpc(0, 1) * mpmath.pi * t)
    return mpmath.fsum(coeff(k) * u**k for k in range(terms))


def _mp_forms(tau, terms=700):
    """(delta2, eps2) at -1/tau and (delta1, eps1) at tau, exact tau, from the divisor-sum oracle."""
    odd = lambda d, q: d % 2 == 1  # noqa: E731
    coeffs = {
        "delta1": lambda k: F(1, 4) if k == 0 else 6 * divisor_sum_oracle(k // 2, odd) if k % 2 == 0 else 0,
        "eps1": lambda k: F(1, 16) if k == 0 else (
            divisor_sum_oracle(k // 2, lambda d, q: d % 2 == 0, 3) - divisor_sum_oracle(k // 2, odd, 3)
            if k % 2 == 0 else 0),
        "delta2": lambda k: F(-1, 8) if k == 0 else -3 * divisor_sum_oracle(k, odd),
        "eps2": lambda k: divisor_sum_oracle(k, lambda d, q: q % 2 == 1, 3),
    }
    t = mpmath.mpc(tau.real, tau.imag)
    points = {"delta1": t, "eps1": t, "delta2": -1 / t, "eps2": -1 / t}
    mp = lambda v: mpmath.mpf(v.numerator) / v.denominator if isinstance(v, F) else mpmath.mpf(v)  # noqa: E731
    return {name: _mp_value(lambda k: mp(c(k)), points[name], terms) for name, c in coeffs.items()}


@pytest.mark.parametrize("tau", [1j, 1 + 1j, 0.1j, 0.5 + 2j, 2j, 0.25 + 1j])
def test_law_tolerance_bounds_the_float_error_against_mpmath(tau):
    with mpmath.workdps(50):
        exact = _mp_forms(tau)
        t = mpmath.mpc(tau.real, tau.imag)
        # the oracle itself: the laws hold to 50 digits
        assert abs(exact["delta2"] - t**2 * exact["delta1"]) < mpmath.mpf(10) ** -40
        assert abs(exact["eps2"] - t**4 * exact["eps1"]) < mpmath.mpf(10) ** -40
        order, dtol, etol = law_tolerance(tau, 40)
        assert dtol <= modular.LAW_TARGET and etol <= modular.LAW_TARGET
        got = {
            "delta2": numeric_eval(delta2(order), -1 / tau)[0], "delta1": numeric_eval(delta1(order), tau)[0],
            "eps2": numeric_eval(eps2(order), -1 / tau)[0], "eps1": numeric_eval(eps1(order), tau)[0],
        }
        err = {k: abs(mpmath.mpc(v.real, v.imag) - exact[k]) for k, v in got.items()}
        assert err["delta2"] + abs(t) ** 2 * err["delta1"] <= dtol, (order, err, dtol)
        assert err["eps2"] + abs(t) ** 4 * err["eps1"] <= etol, (order, err, etol)
    assert abs(got["delta2"] - tau**2 * got["delta1"]) <= dtol
    assert abs(got["eps2"] - tau**4 * got["eps1"]) <= etol


@pytest.mark.parametrize("tau", [0.01j, 0.1j])
def test_law_tolerance_raises_the_order_where_u40_is_too_short(tau):
    # at u^40 these points once passed under heuristic tolerances of 6.4e5 and 0.90
    assert max(law_tolerance(tau, 40, target=math.inf)[1:]) > modular.LAW_TARGET
    order, dtol, etol = law_tolerance(tau, 40)
    assert order > 40 and max(dtol, etol) <= modular.LAW_TARGET
    # the order is the smallest one that meets the target
    assert max(law_tolerance(tau, order - 1, target=math.inf)[1:]) > modular.LAW_TARGET


def test_law_tolerance_is_inconclusive_near_the_real_axis():
    with pytest.raises(ToleranceNotReached, match="inconclusive"):
        law_tolerance(1e-9 + 1e-9j, 40)


def test_power_tail_closed_form_matches_the_sum():
    with mpmath.workdps(30):
        assert modular._ZETA3 >= mpmath.zeta(3)
    for j in range(4):
        for n in (1, 2, 7, 40):
            for y in (0.0, 0.05, 0.5, 0.9):
                direct = mpmath.nsum(lambda m: m**j * mpmath.mpf(y) ** m, [n, mpmath.inf]) if y else 0
                assert modular._power_tail(j, n, y) == pytest.approx(float(direct), rel=1e-12, abs=0)
