"""Closed-form oracles with no free parameters.

Quaternionic projective space HP^k has total Pontryagin class
p = (1+u)^(2k+2) / (1+4u), u the generator of H^4, and <u^k, [HP^k]> = 1.
Its elliptic genus is Ell_2 = eps_2^(k/2) for even k and 0 for odd k
(Ochanine 1987; Hirzebruch-Berger-Jung, Manifolds and Modular Forms,
ch. 4): in the basis (8 delta_2)^(k-2r) eps_2^r its coordinates are the unit
vector e_(k/2), or zero.  Its signature is 1 for even k and 0 for odd k,
and its A-hat genus is 0.

The discriminant identities eps_2 (delta_2^2 - eps_2)^2 = Delta(tau/2) / 2^12
and eps_1 (delta_1^2 - eps_1)^2 = Delta(2 tau), Delta = q prod_n (1 - q^n)^24,
tie the divisor-sum q-expansions of `modular` to an eta product that shares
no code with them (Hirzebruch-Berger-Jung, Manifolds and Modular Forms,
ch. 6; Landweber, LNM 1326).
"""

from fractions import Fraction
from math import comb, prod

import pytest

from ellgen.bundles import ell2_via_bundles
from ellgen.chern import Manifold, partitions_of
from ellgen.genera import genus
from ellgen.modular import delta1, delta2, eps1, eps2, expand_in_basis
from ellgen.series import USeries
from ellgen.theta import GenusKind


def quaternionic_projective_space(k):
    # p_i = [u^i] (1+u)^(2k+2) sum_j (-4u)^j
    p = [sum(comb(2 * k + 2, j) * (-4) ** (i - j) for j in range(i + 1)) for i in range(k + 1)]
    pont = {lam: prod(p[i] for i in lam) for lam in partitions_of(k)}
    return Manifold(f"HP^{k}", 4 * k, pont)


def test_hp2_pontryagin_numbers():
    # p_1 = 2u, p_2 = 7u^2 on HP^2
    m = quaternionic_projective_space(2)
    assert m.pont == {(1, 1): 4, (2,): 7}


@pytest.mark.parametrize("k", range(1, 9))
def test_hp_ell2_is_a_power_of_eps2(k):
    m = quaternionic_projective_space(k)
    h = expand_in_basis(genus(m, GenusKind.ELL2, 16), k).h
    unit = tuple(int(k % 2 == 0 and r == k // 2) for r in range(k // 2 + 1))
    assert h == unit


@pytest.mark.parametrize("k", range(1, 9))
def test_hp_signature_and_ahat(k):
    m = quaternionic_projective_space(k)
    assert genus(m, GenusKind.LHAT, 1).coeff(0) == (1 if k % 2 == 0 else 0)
    assert genus(m, GenusKind.AHAT, 1).coeff(0) == 0


@pytest.mark.parametrize("k", range(1, 6))
def test_hp_bundle_route_is_a_power_of_eps2(k):
    # the index route through the Witten bundles B_j, independent of the theta products
    m = quaternionic_projective_space(k)
    ell2 = ell2_via_bundles(m, 12)
    assert ell2 == genus(m, GenusKind.ELL2, 12)
    unit = tuple(int(k % 2 == 0 and r == k // 2) for r in range(k // 2 + 1))
    assert expand_in_basis(ell2, k).h == unit


def discriminant(w, uorder):
    """u^w prod_n (1 - u^(w n))^24, Delta at q = u^w, by in-place integer passes."""
    c = [int(k == w) for k in range(uorder)]
    for step in range(w, uorder, w):
        for _ in range(24):
            for k in range(uorder - 1, step - 1, -1):
                c[k] -= c[k - step]
    return USeries(dict(enumerate(c)), uorder)


def test_discriminant_is_the_eta_product():
    # Delta = q - 24 q^2 + 252 q^3 - 1472 q^4 + 4830 q^5 (tau(n), Ramanujan)
    assert discriminant(1, 6) == USeries({1: 1, 2: -24, 3: 252, 4: -1472, 5: 4830}, 6)


def test_eps2_discriminant_identity():
    uorder = 40
    d, e = delta2(uorder), eps2(uorder)
    assert e * (d * d - e) ** 2 == discriminant(1, uorder) * Fraction(1, 2**12)


def test_eps1_discriminant_identity():
    uorder = 40
    d, e = delta1(uorder), eps1(uorder)
    assert e * (d * d - e) ** 2 == discriminant(4, uorder)
