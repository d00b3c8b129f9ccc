"""Acceptance suite: one test per criterion, with a printed verdict line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  The small-b clause of criterion 10 reads
b*C(b) = (m W + 1)^(1/m) - 1 + O(b^2) with W = wallis(m): substituting
s = x b and t = b tau, cosh t + x sinh t = 1 + s tau + O(b^2), so the root
equation x F(x) = W becomes ((1+s)^m - 1)/m = W + O(b^2).  The limit is
not W: that would need the x sinh t term to be negligible, i.e. s -> 0.
"""

import math
import random
import time
from fractions import Fraction as F

import scipy.integrate as si

from ellgen.bundles import BundleMonomial, VirtualBundlePoly, ch_virtual, ell2_via_bundles, expand_witten
from ellgen.chern import Manifold, ch_tangent, partitions_of
from ellgen.genera import (
    Hypersurface,
    ahat_factor,
    cancellation_class,
    cancellation_residual,
    genus,
    hypersurface_genus,
    hypersurface_pont,
    signature_factor,
)
from ellgen.modular import delta1, delta2, eps1, eps2, expand_in_basis, numeric_eval, reconstruct_ell1
from ellgen.series import USeries
from ellgen.sobolev import moser_exponents, sobolev_c, wallis
from ellgen.theta import GenusKind


def check(label, cond):
    print(f"[acceptance] {label}: {'PASS' if cond else 'FAIL'}")
    assert cond, label


def nan_max(a, b):
    """max that keeps a NaN from either side (the builtin drops a NaN second argument)."""
    return math.nan if math.isnan(a) or math.isnan(b) else max(a, b)


def random_manifold(n, rng):
    pont = {p: F(rng.randint(-50, 50), rng.randint(1, 6)) for p in partitions_of(n)}
    return Manifold(f"random-n{n}", 4 * n, pont)


def test_criterion_1_quadric_pipeline():
    t0 = time.perf_counter()
    h = Hypersurface(5, 2)
    m = hypersurface_pont(h)
    sigma = genus(m, "lhat", 1)
    ahat = genus(m, "ahat", 1)
    res_sig_tan = hypersurface_genus(h, signature_factor(6, 1, "tan"))
    res_sig_tanh = hypersurface_genus(h, signature_factor(6, 1, "tanh"))
    res_ahat = hypersurface_genus(h, ahat_factor(6, 1, "tanh"))
    elapsed = time.perf_counter() - t0
    ok = (
        m.pont_number((1, 1)) == 8
        and m.pont_number((2,)) == 14
        and sigma == USeries.const(2, 1)
        and ahat.is_zero()
        and res_sig_tan == USeries.const(2, 1)
        and res_sig_tanh == USeries.const(2, 1)
        and res_ahat.is_zero()
        and elapsed < 1.0
    )
    check(f"1 quadric pipeline (sigma=2, ahat=0, residue route, {elapsed:.3f}s)", ok)


def test_criterion_2_ell2_quadric_nonzero():
    m = hypersurface_pont(Hypersurface(5, 2))
    e2 = genus(m, "ell2", 2)
    ok = e2 == USeries({1: 2}, 2) and not e2.is_zero()
    check("2 Ell2(quadric) = 0 + 2 q^(1/2) + O(q), nonzero", ok)


def test_criterion_3_cancellation_identity():
    symbolic = cancellation_class().is_zero()
    rng = random.Random(0)
    numeric = all(
        cancellation_residual(
            F(rng.randint(-10**9, 10**9), rng.randint(1, 10**4)),
            F(rng.randint(-10**9, 10**9), rng.randint(1, 10**4)),
        )
        == 0
        for _ in range(100)
    )
    check("3 cancellation residual zero (symbolic + 100 random pairs)", symbolic and numeric)


def test_criterion_4_route_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(1)
    ok = True
    for n in (1, 2, 3):
        for _ in range(20):
            m = random_manifold(n, rng)
            if ell2_via_bundles(m, 6) != genus(m, "ell2", 6):
                ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    check(f"4 bundle route = theta route, n<=3, u-order 6 ({elapsed:.2f}s)", ok)


def test_criterion_5_modular_relation():
    rng = random.Random(2)
    ok = True
    for n in (1, 2, 3):
        for _ in range(8):
            m = random_manifold(n, rng)
            e2 = genus(m, "ell2", 12)
            dec = expand_in_basis(e2, n)
            if reconstruct_ell1(dec, 12) != genus(m, "ell1", 12):
                ok = False
    check("5 Ell1 = 2^(2n) sum h_r (8 delta1)^(n-2r) eps1^r, u-order 12", ok)


def test_criterion_6_delta_eps_expansions():
    d1, e1 = delta1(6), eps1(6)
    d2, e2 = delta2(4), eps2(4)
    ok = (
        [d1.coeff(0), d1.coeff(2), d1.coeff(4)] == [F(1, 4), 6, 6]
        and [e1.coeff(0), e1.coeff(2), e1.coeff(4)] == [F(1, 16), -1, 7]
        and [d2.coeff(0), d2.coeff(1), d2.coeff(2)] == [F(-1, 8), -3, -3]
        and [e2.coeff(1), e2.coeff(2)] == [1, 8]
    )
    check("6 delta/eps q-expansions match the printed coefficients", ok)


def test_criterion_7_witten_bundle_coefficients():
    ok = True
    for n in (1, 2, 3):
        b = expand_witten("theta2", n, 7)
        a = expand_witten("theta1", n, 7)
        b0 = b.coeff(0) == VirtualBundlePoly.const(1, n)
        b1 = b.coeff(1) == VirtualBundlePoly(
            {BundleMonomial.make(ext=(1,)): -1, BundleMonomial(): 4 * n}, n
        )
        a1 = a.coeff(2) == VirtualBundlePoly(
            {
                BundleMonomial.make(sym=(1,)): 1,
                BundleMonomial.make(ext=(1,)): 1,
                BundleMonomial(): -8 * n,
            },
            n,
        )
        # S^1(T) = Lambda^1(T) = T, so A_1 is 2 T_C M - C^(8n); confirm at ch level
        a1_ch = ch_virtual(a.coeff(2), n, 1) == ch_tangent(n, n, 1) * 2 - 8 * n
        ranks = all(b.coeff(k).virtual_rank() == 0 and a.coeff(k).virtual_rank() == 0 for k in range(1, 7))
        powers = all(b.coeff(k).max_power() <= k for k in range(7))
        ok = ok and b0 and b1 and a1 and a1_ch and ranks and powers
    check("7 B0 = C, B1 = -(T - C^4n), A1 = 2T - C^8n; ranks 0; powers <= k", ok)


def test_criterion_8_numeric_transformation_laws():
    order = 48
    d2v, _ = numeric_eval(delta2(order), 1j)
    d1v, _ = numeric_eval(delta1(order), 1j)
    e2v, _ = numeric_eval(eps2(order), 1j)
    e1v, _ = numeric_eval(eps1(order), 1j)
    fixed = abs(d2v + d1v) < 1e-9 and abs(e2v - e1v) < 1e-9
    # off the fixed point: tau = 2i, -1/tau = i/2, law delta2(i/2) = (2i)^2 delta1(2i)
    d2o, _ = numeric_eval(delta2(order), 0.5j)
    d1o, _ = numeric_eval(delta1(order), 2j)
    off = abs(d2o - (2j) ** 2 * d1o) < 1e-8
    check("8 transformation laws at tau = i (1e-9) and tau = 2i vs i/2 (1e-8)", fixed and off)


def sigma3(k):
    return sum(d**3 for d in range(1, k + 1) if k % d == 0)


def test_criterion_9_witten_modularity():
    uorder = 18  # q-order 8
    e4 = USeries(
        {0: F(1), **{2 * k: F(240 * sigma3(k)) for k in range(1, 9)}}, uorder
    )
    ok = True
    for t in (F(-2), F(1), F(3), F(5760), F(7, 3)):
        m = Manifold("p2-only", 8, {(2,): t})
        w = genus(m, "witten", uorder)
        ahat = genus(m, "ahat", 1).coeff(0)
        ok = ok and w == e4 * ahat
    check("9 Witten genus = A-hat * E4 to q-order 8 for 5 values of p2", ok)


def test_criterion_10a_sobolev_residual_grid():
    worst = 0.0
    for m in range(3, 21):
        for b in (0.1, 0.5, 1.0, 2.0, 5.0):
            x = sobolev_c(m, b, 1e-11)
            Fv, _ = si.quad(
                lambda t: (math.cosh(t) + x * math.sinh(t)) ** (m - 1),
                0.0,
                b,
                epsabs=1e-14,
                epsrel=1e-13,
                limit=300,
            )
            worst = nan_max(worst, abs(x * Fv - wallis(m)))
    check(f"10a defining-equation residual < 1e-10 on the grid (worst {worst:.1e})", worst < 1e-10)


def test_criterion_10b_small_b_asymptotic_as_stated():
    # Small-b clause of criterion 10: b C(b) = s* + O(b^2) with
    # s* = (m W + 1)^(1/m) - 1, W = wallis(m).  With s = x b, t = b tau the
    # integrand is 1 + s tau + O(b^2), so x F(x) = ((1+s)^m - 1)/m + O(b^2)
    # and the root equation x F(x) = W has b C(b) -> s*.  (The target W would
    # need x sinh t negligible, i.e. s -> 0, but s* is of order 1.)  Checked:
    # relative error < 1e-3 at b = 1e-4, and along b = 1e-1, ..., 1e-4 the
    # error shrinks at least 50x per decade, where O(b^2) gives 100x.
    bs = (1e-1, 1e-2, 1e-3, 1e-4)
    worst = 0.0
    slowest = math.inf
    ok = True
    for m in (3, 8, 16):
        s_limit = (m * wallis(m) + 1.0) ** (1.0 / m) - 1.0
        errs = [abs(b * sobolev_c(m, b, 1e-11) - s_limit) / s_limit for b in bs]
        worst = max(worst, errs[-1])
        ok = ok and errs[-1] < 1e-3
        for coarse, fine in zip(errs, errs[1:]):
            ok = ok and coarse >= 50.0 * fine
            slowest = min(slowest, coarse / fine if fine > 0 else math.inf)
    check(
        f"10b small-b limit b*C(b) -> (m W + 1)^(1/m) - 1 at O(b^2) "
        f"(worst rel {worst:.1e} at b=1e-4, slowest decay {slowest:.0f}x per decade)",
        ok,
    )


def test_criterion_10c_small_b_actual_limit():
    # the limit the equation does force, at the stated tolerance
    worst = 0.0
    for m in (3, 8, 16):
        s_limit = (m * wallis(m) + 1.0) ** (1.0 / m) - 1.0
        got = 1e-4 * sobolev_c(m, 1e-4, 1e-11)
        worst = nan_max(worst, abs(got - s_limit) / s_limit)
    check(f"10c small-b limit b*C(b) -> (m W + 1)^(1/m) - 1 (worst rel {worst:.1e})", worst < 1e-3)


def test_criterion_10d_moser_closed_forms():
    ok = True
    for m, p in [(3, 2.0), (4, 3.0)]:
        e = moser_exponents(m, p)
        k1 = sum(i * e.mu**-i for i in range(51))
        k2 = sum(e.mu**-i for i in range(51))
        ok = ok and abs(e.K1 - k1) < 1e-12 and abs(e.K2 - k2) < 1e-12
    check("10d Moser K1, K2 closed forms match partial sums to 1e-12", ok)


def test_criterion_11_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(3)
    ok = True

    # series ring laws and exp/log round trip
    def rand_series(order=10):
        return USeries(
            {rng.randint(0, order - 1): F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(5)},
            order,
        )

    for _ in range(25):
        a, b, c = rand_series(), rand_series(), rand_series()
        ok = ok and (a * b) * c == a * (b * c) and a * (b + c) == a * b + a * c
        z = a - USeries.const(a.coeff(0), a.order)
        ok = ok and z.exp().log() == z

    # pairing linearity and disjoint-union additivity
    from ellgen.chern import disjoint_union

    for n in (1, 2):
        m1, m2 = random_manifold(n, rng), random_manifold(n, rng)
        for kind in GenusKind:
            lhs = genus(disjoint_union(m1, m2), kind, 4)
            ok = ok and lhs == genus(m1, kind, 4) + genus(m2, kind, 4)
    elapsed = time.perf_counter() - t0
    check(f"11 property suites (ring laws, exp/log, additivity) ({elapsed:.2f}s)", ok)
