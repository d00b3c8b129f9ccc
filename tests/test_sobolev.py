import math

import pytest
import scipy.integrate as si

import ellgen.sobolev
from ellgen.errors import ExponentRangeViolation, ToleranceNotReached
from ellgen.sobolev import (
    moser_constant,
    moser_exponents,
    poincare_s,
    radius_r,
    sobolev_c,
    sphere_volume,
    wallis,
)


def quad_oracle(f, a, b):
    value, _ = si.quad(f, a, b, epsabs=1e-13, epsrel=1e-12, limit=300)
    return value


# -- wallis integrals ----------------------------------------------------------

def test_wallis_small_values():
    assert wallis(2) == 2.0
    assert abs(wallis(3) - math.pi / 2) < 1e-15
    assert abs(wallis(5) - 3 * math.pi / 8) < 1e-15


def test_wallis_against_quadrature():
    for m in range(1, 21):
        direct = quad_oracle(lambda t: math.sin(t) ** (m - 1), 0.0, math.pi)
        assert abs(wallis(m) - direct) < 1e-10


# -- the radius constant C(b) ----------------------------------------------------

def residual(m, b, x):
    F = quad_oracle(lambda t: (math.cosh(t) + x * math.sinh(t)) ** (m - 1), 0.0, b)
    return abs(x * F - wallis(m))


def test_defining_equation_residual_spot():
    x = sobolev_c(16, 1.0, 1e-11)
    assert residual(16, 1.0, x) < 1e-10


@pytest.mark.parametrize("m", [3, 7, 12, 20])
@pytest.mark.parametrize("b", [0.1, 1.0, 5.0])
def test_defining_equation_residual_grid(m, b):
    x = sobolev_c(m, b, 1e-11)
    assert residual(m, b, x) < 1e-10


def test_monotone_decreasing_in_b():
    values = [sobolev_c(8, b, 1e-11) for b in (0.1, 0.3, 0.9, 2.7)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_small_b_limit():
    # expanding the root equation at b -> 0 with s = x b fixed gives
    # ((1+s)^m - 1)/m = wallis(m), i.e. b C(b) -> (m wallis(m) + 1)^(1/m) - 1
    for m in (3, 8, 16):
        s_limit = (m * wallis(m) + 1.0) ** (1.0 / m) - 1.0
        got = 1e-4 * sobolev_c(m, 1e-4, 1e-11)
        assert abs(got - s_limit) / s_limit < 1e-3


def reference_bisect_root(m, b, tol):
    """Plain bisection from [0, W/F(0) + 1], the solver sobolev_c replaced."""
    target = wallis(m)
    qtol = tol / 10.0
    hi = target / ellgen.sobolev._closed_form_F(m, b, 0.0) + 1.0
    while ellgen.sobolev._xF(m, b, hi, qtol) < target:
        hi *= 2.0
        if not math.isfinite(hi):
            raise ToleranceNotReached("bracketing diverged")
    lo = 0.0
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        value = ellgen.sobolev._xF(m, b, mid, qtol)
        if abs(value - target) < tol:
            return mid
        if value < target:
            lo = mid
        else:
            hi = mid
    raise ToleranceNotReached(f"residual tolerance {tol} not reached after 400 bisections")


def test_solver_against_reference_bisection(monkeypatch):
    calls = {"ref": 0, "new": 0}
    xF = ellgen.sobolev._xF
    side = "ref"

    def counted(*args):
        calls[side] += 1
        return xF(*args)

    monkeypatch.setattr(ellgen.sobolev, "_xF", counted)
    ref_misses = []
    for m in range(2, 65, 3):
        for b in (1e-4, 1e-3, 0.01, 0.05, 0.1, 0.3, 0.5, 1.0, 2.0, 4.0, 5.0):
            side = "ref"
            try:
                reference_bisect_root(m, b, 1e-11)
            except ToleranceNotReached:
                ref_misses.append((m, b))
            side = "new"
            x = sobolev_c(m, b, 1e-11)  # returns wherever the reference does, and more
            assert residual(m, b, x) < 1e-10, (m, b, x)
    # (m - 1) b = 305: the root is about 1.6e-113, beyond 400 halvings of
    # [0, 1] at the residual tolerance
    assert ref_misses == [(62, 5.0)]
    # 231 roots: 1204 evaluations measured for this solver, 17072 for the reference
    assert calls["new"] <= 1250, calls
    assert 10 * calls["new"] < calls["ref"], calls


@pytest.mark.parametrize("m, b", [(600, 0.8), (500, 1.0)])
def test_solver_root_far_below_one_at_large_m(m, b):
    # roots near 1e-74 and 1e-92, which the reference reaches in 280 and 340
    # halvings: false position from [0, 1] alone would creep up from 0 by
    # about one doubling per step and exceed the 400-step cap
    reference = reference_bisect_root(m, b, 1e-11)
    x = sobolev_c(m, b, 1e-11)
    assert residual(m, b, x) < 1e-10
    assert abs(x - reference) < 1e-9 * reference


@pytest.mark.parametrize("m, b", [(10000, 0.0153), (5000, 0.0226)])
def test_a_root_false_position_crawled_to_takes_few_evaluations(monkeypatch, m, b):
    # g(1) is about 3e62 (2e45) while W is 0.025 (0.035): false position from [0, 1] crept
    # up from 1e-64 (1e-47) by one doubling per step, 217 (153) evaluations, until a stalled end bisected
    calls = []
    xF = ellgen.sobolev._xF
    monkeypatch.setattr(ellgen.sobolev, "_xF", lambda *args: calls.append(args) or xF(*args))
    tol = 1e-11
    x = sobolev_c(m, b, tol)
    assert len(calls) <= 60
    assert abs(xF(m, b, x, 1e-13) - wallis(m)) < tol  # the residual `sobolev` reports


@pytest.mark.parametrize("x", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("m", [2, 3, 8, 64, 1030])
def test_closed_form_matches_the_binomial_sum(m, x):
    # the log-space sum of `_closed_form_F` against the direct sum of its binomial terms, which
    # stays in range up to m - 1 = 1029; x = 1 (B = 0) keeps one term, F(1) = expm1((m-1) b)/(m-1)
    b, A, B = 0.05, 0.5 * (1.0 + x), 0.5 * (1.0 - x)
    pieces = [b if 2 * k == m - 1 else math.expm1((2 * k - m + 1) * b) / (2 * k - m + 1) for k in range(m)]
    direct = sum(math.comb(m - 1, k) * A**k * B ** (m - 1 - k) * p for k, p in enumerate(pieces))
    got = ellgen.sobolev._closed_form_F(m, b, x)
    assert math.isclose(got, direct, rel_tol=m * 1e-15)
    if x == 1.0:
        assert math.isclose(got, math.expm1((m - 1) * b) / (m - 1), rel_tol=m * 1e-15)


def test_tolerance_not_reached():
    with pytest.raises(ToleranceNotReached):
        sobolev_c(12, 1.0, 1e-300)


@pytest.mark.parametrize("m", [2, 8, 64, 500])
def test_a_tolerance_below_the_rounding_of_x_f_is_refused(m):
    # W m 2^-53 is the least the rounding of x F(x) near W lets the residual certify; at the
    # parent a tol just below it returned a root, accepted on noise
    noise = wallis(m) * m * 2.0**-53
    with pytest.raises(ToleranceNotReached, match="below W m 2"):
        sobolev_c(m, 1e-9, 0.99 * noise)
    x = sobolev_c(m, 1e-9, 1.01 * noise)
    assert abs(x * si.quad(lambda t: (math.cosh(t) + x * math.sinh(t)) ** (m - 1), 0, 1e-9)[0] - wallis(m)) < 1e-9


def test_input_validation():
    with pytest.raises(ValueError):
        sobolev_c(1, 1.0, 1e-8)
    with pytest.raises(ValueError):
        sobolev_c(4, -1.0, 1e-8)
    with pytest.raises(ValueError):
        sobolev_c(4, 1.0, 0.0)


# -- radius R -------------------------------------------------------------------

def test_radius_linear_in_diameter():
    assert abs(radius_r(2.0, 1.0, 6) - 2 * radius_r(1.0, 1.0, 6)) < 1e-12


def test_radius_paper_instantiation():
    # b = sqrt(lambda_1 / (4n-1)) with diam <= 1 is an accepted input
    n, lam1 = 2, 0.7
    b = math.sqrt(lam1 / (4 * n - 1))
    r = radius_r(1.0, b, 4 * n)
    assert r > 0
    x = sobolev_c(4 * n, b, 1e-11)
    assert abs(r - 1.0 / (b * x)) < 1e-9 * r


def test_radius_small_b_limit():
    # b C(b) approaches the constant s* computed in test_small_b_limit, so
    # R approaches diam / s*
    m = 8
    s_limit = (m * wallis(m) + 1.0) ** (1.0 / m) - 1.0
    assert abs(radius_r(1.0, 1e-5, m) - 1.0 / s_limit) / (1.0 / s_limit) < 1e-3


# -- Poincare-Sobolev constant ----------------------------------------------------

def test_poincare_equal_exponents():
    assert poincare_s(2, 2, 123.0, 1.5, 6, 2.0) == pytest.approx(3.0)


def test_poincare_volume_normalization():
    m = 6
    s = poincare_s(3, 2, sphere_volume(m), 2.0, m, 1.0)
    assert s == pytest.approx(2.0)


def test_poincare_linear_in_radius():
    a = poincare_s(3, 2, 10.0, 1.0, 6, 1.0)
    b = poincare_s(3, 2, 10.0, 2.0, 6, 1.0)
    assert b == pytest.approx(2 * a)


def test_poincare_exponent_range():
    with pytest.raises(ExponentRangeViolation):
        poincare_s(100.0, 2, 1.0, 1.0, 3, 1.0)  # above m l2/(m-l2) = 6
    with pytest.raises(ExponentRangeViolation):
        poincare_s(0.5, 2, 1.0, 1.0, 6, 1.0)
    with pytest.raises(ExponentRangeViolation):
        poincare_s(2, 7, 1.0, 1.0, 6, 1.0)  # l2 >= m


def test_sphere_volume_values():
    assert sphere_volume(1) == pytest.approx(2 * math.pi)
    assert sphere_volume(2) == pytest.approx(4 * math.pi)
    assert sphere_volume(3) == pytest.approx(2 * math.pi**2)


# -- Moser iteration constants -----------------------------------------------------

def test_exponents_m4_p3():
    e = moser_exponents(4, 3)
    assert e.mu == 2.0
    assert e.eps == pytest.approx(1.0 / 3.0)
    assert e.K1 == pytest.approx(2.0)
    assert e.K2 == pytest.approx(2.0)


def test_closed_forms_match_partial_sums():
    # enough terms that the geometric tail is below the tolerance even for
    # mu close to 1 (mu = 1.4 at m = 7 needs ~130 terms)
    for m, p in [(3, 2), (4, 3), (7, 4.5), (12, 11)]:
        e = moser_exponents(m, p)
        k1 = sum(i * e.mu**-i for i in range(500))
        k2 = sum(e.mu**-i for i in range(500))
        assert abs(e.K1 - k1) < 1e-12
        assert abs(e.K2 - k2) < 1e-12


def test_eps_in_unit_interval_iff_p_above_half_m():
    for m, p in [(3, 1.6), (6, 3.01), (10, 9)]:
        e = moser_exponents(m, p)
        assert 0 < e.eps < 1
    with pytest.raises(ExponentRangeViolation):
        moser_exponents(6, 3.0)
    with pytest.raises(ExponentRangeViolation):
        moser_exponents(6, 1.0)


def test_moser_lambda_zero_closed_form():
    m, p = 4, 3
    e = moser_exponents(m, p)
    main = p * (e.mu - 1) / (e.mu * (p - 1) - p)
    expected = e.mu ** (2 * e.K1 * main) * 2 ** (2 * e.K2)
    assert moser_constant(m, p, 1.0, 0.0, 17.0) == pytest.approx(expected)
    assert moser_constant(m, p, 9.0, 0.0, 17.0) == pytest.approx(expected)


def test_moser_monotone_in_r_and_lambda():
    values_r = [moser_constant(5, 4, r, 2.0, 1.0) for r in (0.5, 1.0, 2.0, 4.0)]
    assert all(a < b for a, b in zip(values_r, values_r[1:]))
    values_l = [moser_constant(5, 4, 1.0, lam, 1.0) for lam in (0.0, 1.0, 4.0, 9.0)]
    assert all(a < b for a, b in zip(values_l, values_l[1:]))


def test_moser_rejects_bad_p():
    with pytest.raises(ExponentRangeViolation):
        moser_constant(4, 2.0, 1.0, 1.0, 1.0)


# NaN inputs are checked through the CLI, in a subprocess with a timeout:
# without the guard the quadrature recursion on NaN does not come back.
def test_infinite_inputs_rejected():
    with pytest.raises(ValueError):
        sobolev_c(8, math.inf, 1e-11)
    with pytest.raises(ValueError):
        sobolev_c(8, 1.0, math.inf)
    with pytest.raises(ValueError):
        radius_r(math.inf, 1.0, 8)
    with pytest.raises(ValueError):
        radius_r(1.0, math.inf, 8)
