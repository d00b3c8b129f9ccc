import random
from fractions import Fraction as F
from functools import lru_cache
from math import comb

import pytest

from ellgen.bundles import (
    BundleMonomial,
    BundleQSeries,
    VirtualBundlePoly,
    _power_sum_terms,
    ch_monomial,
    ch_virtual,
    ell2_via_bundles,
    expand_witten,
    index_bundle,
)
from ellgen.chern import (
    Manifold,
    PontPoly,
    _log_coefficients,
    ch_tangent,
    newton_power_sum,
    pair,
    partitions_of,
)
from ellgen.errors import DimMismatch
from ellgen.genera import Hypersurface, ahat_class, genus, hypersurface_pont
from ellgen.series import USeries
from ellgen.theta import GenusKind, genus_root_series

K3 = Manifold("K3", 4, {(1,): F(-48)})
QUADRIC = hypersurface_pont(Hypersurface(5, 2))


def vbp(n, **named):
    terms = {}
    for key, coef in named.items():
        if key == "one":
            terms[BundleMonomial()] = coef
        else:
            kind, power = key[0], int(key[1:])
            mono = (
                BundleMonomial.make(sym=(power,))
                if kind == "S"
                else BundleMonomial.make(ext=(power,))
            )
            terms[mono] = coef
    return VirtualBundlePoly(terms, n)


# -- symbolic expansions -----------------------------------------------------

def test_b0_is_trivial_line():
    for n in (1, 2, 3):
        assert expand_witten("theta2", n, 4).coeff(0) == VirtualBundlePoly.const(1, n)


def test_b1_is_minus_reduced_tangent():
    for n in (1, 2, 3):
        expected = vbp(n, L1=-1, one=4 * n)
        assert expand_witten("theta2", n, 4).coeff(1) == expected


def test_a1_is_twice_reduced_tangent():
    # q^1 coefficient of Theta x Theta_1: S^1 + Lambda^1 - 8n, i.e.
    # 2 T_C M - C^(8n) since S^1(T) = Lambda^1(T) = T
    for n in (1, 2, 3):
        a1 = expand_witten("theta1", n, 4).coeff(2)
        assert a1 == vbp(n, S1=1, L1=1, one=-8 * n)
        assert ch_virtual(a1, n, 1) == ch_tangent(n, n, 1) * 2 - 8 * n


def test_theta1_twist_has_integral_q_support():
    a = expand_witten("theta1", 2, 9)
    assert all(a.coeff(k).is_zero() for k in range(1, 9, 2))


def test_virtual_ranks_vanish():
    for which in ("theta1", "theta2"):
        for n in (1, 2, 3):
            bqs = expand_witten(which, n, 7)
            assert bqs.coeff(0).virtual_rank() == 1
            for k in range(1, 7):
                assert bqs.coeff(k).virtual_rank() == 0


def test_tensor_power_bound():
    for n in (1, 2, 3):
        bqs = expand_witten("theta2", n, 7)
        for k in range(7):
            assert bqs.coeff(k).max_power() <= k


def test_integer_coefficients_by_construction():
    # VirtualBundlePoly stores int coefficients; spot-check a deep one
    b5 = expand_witten("theta2", 2, 7).coeff(5)
    assert all(isinstance(c, int) for _, c in b5.items())
    assert not b5.is_zero()


def test_pretty_printer():
    b1 = expand_witten("theta2", 2, 3).coeff(1)
    assert b1.pretty() == "-Λ^1(T) + 8·1"


# -- Chern characters --------------------------------------------------------

def test_ch_of_lambda1_matches_tangent():
    for n in (1, 2, 3):
        mono = BundleMonomial.make(ext=(1,))
        assert ch_monomial(mono, n, n, 1) == ch_tangent(n, n, 1)


def test_ch_of_s1_matches_tangent():
    assert ch_monomial(BundleMonomial(sym=(1,)), 2, 2, 1) == ch_tangent(2, 2, 1)


def test_ch_empty_monomial():
    from ellgen.chern import PontPoly

    assert ch_monomial(BundleMonomial(), 2, 2, 1) == PontPoly.const(1, 2, 1)


def test_ch_of_top_exterior_power_vanishes():
    # Lambda^(4n+1) of a rank-4n bundle is zero
    assert ch_monomial(BundleMonomial(ext=(5,)), 1, 1, 1).is_zero()
    assert ch_monomial(BundleMonomial(ext=(6,)), 1, 1, 1).is_zero()


def test_rank_constraint_drops_zero_bundles():
    v = VirtualBundlePoly({BundleMonomial.make(ext=(5,)): 3}, 1)
    assert v.is_zero()


def test_monomial_rank():
    assert BundleMonomial.make(ext=(2,)).rank(1) == comb(4, 2)
    assert BundleMonomial.make(sym=(2,)).rank(1) == comb(5, 2)
    assert BundleMonomial.make(sym=(1, 1), ext=(3,)).rank(1) == 16 * comb(4, 3)


def test_exterior_powers_sum_to_two_to_rank():
    # sum_b rank Lambda^b = 2^(4n)
    n = 2
    assert sum(BundleMonomial.make(ext=(b,)).rank(n) for b in range(1, 9)) + 1 == 2 ** (4 * n)


# -- index route ---------------------------------------------------------------

def test_index_trivial_bundle_is_ahat():
    assert index_bundle(K3, VirtualBundlePoly.const(1, 1)) == 2


def test_index_b1_k3():
    b1 = expand_witten("theta2", 1, 2).coeff(1)
    assert index_bundle(K3, b1) == 48


def test_index_b1_quadric():
    b1 = expand_witten("theta2", 2, 2).coeff(1)
    assert index_bundle(QUADRIC, b1) == 2


def test_index_dim_mismatch():
    with pytest.raises(DimMismatch):
        index_bundle(K3, VirtualBundlePoly.const(1, 2))


def test_ell2_via_bundles_quadric():
    assert ell2_via_bundles(QUADRIC, 2) == USeries({1: 2}, 2)


def test_ell2_via_bundles_zero_manifold():
    assert ell2_via_bundles(Manifold("z", 8, {}), 4).is_zero()


def test_ell2_via_bundles_k3():
    assert ell2_via_bundles(K3, 2) == USeries({0: 2, 1: 48}, 2)


def test_route_equivalence_random():
    rng = random.Random(11)
    for n in (1, 2, 3):
        for _ in range(20):
            pont = {p: F(rng.randint(-50, 50), rng.randint(1, 6)) for p in partitions_of(n)}
            m = Manifold("rand", 4 * n, pont)
            assert ell2_via_bundles(m, 6) == genus(m, "ell2", 6)


def test_both_routes_reject_an_empty_order():
    for m in (K3, QUADRIC, Manifold("z", 8, {})):
        with pytest.raises(ValueError, match="uorder must be >= 1"):
            genus(m, "ell2", 0)
        with pytest.raises(ValueError, match="uorder must be >= 1"):
            ell2_via_bundles(m, 0)


def test_expand_witten_rejects_nonpositive_rank():
    for n in (0, -1):
        with pytest.raises(ValueError):
            expand_witten("theta2", n, 4)


# -- oracle: the Chern characters as PontPoly products -----------------------
#
# A test-local copy of the p-basis construction: psi_k through
# newton_power_sum, the t-adic exp over PontPoly, and an unmemoized
# ch_monomial.  The module computes the same classes in the power-sum basis.


def _oracle_scaled_tangent_ch(k, n, nmax, uorder):
    result = PontPoly.const(4 * n, nmax, uorder)
    fact = 1
    for r in range(1, nmax + 1):
        fact *= (2 * r) * (2 * r - 1)
        result = result + newton_power_sum(r, nmax, uorder) * F(2 * k ** (2 * r), fact)
    return result


def _oracle_t_adic_exp(log_coeffs, tmax, nmax, uorder):
    out = [PontPoly.const(1, nmax, uorder)]
    for m in range(1, tmax + 1):
        acc = PontPoly({}, nmax, uorder)
        for j in range(1, m + 1):
            if not log_coeffs[j].is_zero():
                acc = acc + log_coeffs[j] * out[m - j] * j
        out.append(acc * F(1, m))
    return out


@lru_cache(maxsize=None)
def _oracle_power(a, n, nmax, uorder, sign):
    """ch(S^a T) for sign = 1, ch(Lambda^a T) for sign = -1."""
    log_coeffs = [PontPoly({}, nmax, uorder)] + [
        _oracle_scaled_tangent_ch(k, n, nmax, uorder) * F(sign ** (k - 1), k)
        for k in range(1, a + 1)
    ]
    return _oracle_t_adic_exp(log_coeffs, a, nmax, uorder)[a]


def _oracle_ch_monomial(mono, n, nmax, uorder):
    result = PontPoly.const(1, nmax, uorder)
    for a in mono.sym:
        result = result * _oracle_power(a, n, nmax, uorder, 1)
    for b in mono.ext:
        result = result * _oracle_power(b, n, nmax, uorder, -1)
    return result


def _oracle_ch_virtual(v, nmax, uorder):
    result = PontPoly({}, nmax, uorder)
    for mono, coef in v.items():
        result = result + _oracle_ch_monomial(mono, v.n, nmax, uorder) * coef
    return result


def _random_manifold(n, rng):
    pont = {p: F(rng.randint(-60, 60), rng.randint(1, 6)) for p in partitions_of(n)}
    return Manifold(f"rand-n{n}", 4 * n, pont)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_power_ch_matches_pontpoly_oracle(n):
    for uorder in (1, 3):
        for a in range(7):
            assert ch_monomial(BundleMonomial(sym=(a,)), n, n, uorder) == _oracle_power(a, n, n, uorder, 1)
            assert ch_monomial(BundleMonomial(ext=(a,)), n, n, uorder) == _oracle_power(a, n, n, uorder, -1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ch_virtual_matches_pontpoly_oracle(n):
    for which in ("theta1", "theta2"):
        bqs = expand_witten(which, n, 9)
        for k in range(9):
            v = bqs.coeff(k)
            for uorder in (1, 3):
                assert ch_virtual(v, n, uorder) == _oracle_ch_virtual(v, n, uorder)
                for mono, _ in v.items():
                    assert ch_monomial(mono, n, n, uorder) == _oracle_ch_monomial(mono, n, n, uorder)


def _reference_expand_witten(which, n, uorder):
    """The expansion with every scalar factor multiplied into the whole series in place."""

    def mul(a, b):
        out = {}
        for k1, v1 in a.items():
            for k2, v2 in b.items():
                if k1 + k2 < uorder:
                    out[k1 + k2] = out.get(k1 + k2, VirtualBundlePoly({}, n)) + v1 * v2
        return {k: v for k, v in out.items() if not v.is_zero()}

    def scalar(s):
        assert all(c.denominator == 1 for _, c in s.items())
        return {k: VirtualBundlePoly.const(int(c), n) for k, c in s.items()}

    rank = 4 * n
    sign = 1 if which == "theta1" else -1
    result = {0: VirtualBundlePoly.const(1, n)}
    m = 1
    while True:
        w_sym = 2 * m
        w_twist = 2 * m if which == "theta1" else 2 * m - 1
        if min(w_sym, w_twist) >= uorder:
            break
        if w_sym < uorder:
            sym = {w_sym * a: VirtualBundlePoly({BundleMonomial.make(sym=(a,)): 1}, n)
                   for a in range(1, (uorder - 1) // w_sym + 1)}
            result = mul(result, {0: VirtualBundlePoly.const(1, n), **sym})
            one_minus = USeries.one(uorder) - USeries.monomial(w_sym, 1, uorder)
            result = mul(result, scalar(one_minus**rank))
        if w_twist < uorder:
            ext = {w_twist * b: VirtualBundlePoly({BundleMonomial.make(ext=(b,)): sign**b}, n)
                   for b in range(1, (uorder - 1) // w_twist + 1)}
            result = mul(result, {0: VirtualBundlePoly.const(1, n), **ext})
            one_plus = USeries.one(uorder) + USeries.monomial(w_twist, sign, uorder)
            result = mul(result, scalar(one_plus ** (-rank)))
        m += 1
    return BundleQSeries(n, uorder, result)


@pytest.mark.parametrize("which", ["theta1", "theta2"])
def test_expand_witten_matches_in_place_reference(which):
    # the small grid holds the benchmark's (3, 12); add its (2, 16), and (4, 8)
    cases = [(n, uorder) for n in (1, 2, 3) for uorder in (1, 2, 3, 5, 8, 12)] + [(2, 16), (4, 8)]
    for n, uorder in cases:
        assert expand_witten(which, n, uorder) == _reference_expand_witten(which, n, uorder)


def test_memoized_expansion_is_read_only():
    b = expand_witten("theta2", 2, 8)
    with pytest.raises(TypeError):
        b.coeffs[3] = VirtualBundlePoly.const(7, 2)
    assert expand_witten("theta2", 2, 8).coeff(3) == _reference_expand_witten("theta2", 2, 8).coeff(3)


@pytest.mark.parametrize(
    "build",
    [
        lambda: VirtualBundlePoly({BundleMonomial.make(sym=(1,)): F(1, 2)}, 2),
        lambda: VirtualBundlePoly({BundleMonomial.make(sym=(1,)): 2.7}, 2),
        lambda: BundleMonomial.make(sym=(1.5,)),
        lambda: BundleMonomial.make(ext=(2, 1.5)),
    ],
    ids=["fraction-coefficient", "float-coefficient", "float-sym-power", "float-ext-power"],
)
def test_non_integral_bundle_inputs_are_rejected(build):
    with pytest.raises(ValueError):
        build()


def test_integral_bundle_inputs_of_other_types_are_read_exactly():
    s1 = BundleMonomial.make(sym=(1,))
    assert VirtualBundlePoly({s1: F(4, 2)}, 2) == VirtualBundlePoly({s1: 2}, 2)
    assert VirtualBundlePoly({s1: 3.0}, 2).coeff(s1) == 3
    assert BundleMonomial.make(sym=(2.0,), ext=(F(3),)) == BundleMonomial.make(sym=(2,), ext=(3,))


def test_index_class_memo_holds_one_entry_per_uorder():
    from ellgen.bundles import _index_class

    _index_class.cache_clear()
    ell2_via_bundles(K3, 6)
    ell2_via_bundles(K3, 7)
    ell2_via_bundles(Manifold("k3-twice", 4, {(1,): F(-96)}), 7)
    assert _index_class.cache_info().currsize == 2


# -- reference: the s-basis kernels over Fractions ----------------------------
#
# A test-local copy of the s-basis kernels as tuples of (mu, Fraction) items:
# products by partition union, each monomial's character built factor by
# factor, and the index as the weight-n part of A-hat(T) ch(v).  The module
# keeps the same classes as integer numerators over one denominator.


def _frac_mul(a, b, nmax):
    acc = {}
    for mu, c in a:
        for nu, d in b:
            if sum(mu) + sum(nu) <= nmax:
                key = tuple(sorted(mu + nu, reverse=True))
                acc[key] = acc.get(key, 0) + c * d
    return tuple((mu, c) for mu, c in acc.items() if c)


def _frac_combine(terms):
    acc = {}
    for f, c in terms:
        for mu, d in c:
            acc[mu] = acc.get(mu, 0) + f * d
    return tuple((mu, c) for mu, c in acc.items() if c)


def _frac_scaled_tangent(k, n, nmax):
    terms = [((), F(4 * n))]
    fact = 1
    for r in range(1, nmax + 1):
        fact *= (2 * r) * (2 * r - 1)
        terms.append(((r,), F(2 * k ** (2 * r), fact)))
    return tuple(terms)


@lru_cache(maxsize=None)
def _frac_power(a, n, nmax, sign):
    if a == 0:
        return (((), F(1)),)
    return _frac_combine(
        (F(sign ** (j - 1), a), _frac_mul(_frac_scaled_tangent(j, n, nmax), _frac_power(a - j, n, nmax, sign), nmax))
        for j in range(1, a + 1)
    )


def _frac_monomial(mono, n, nmax):
    result = (((), F(1)),)
    for a in mono.sym:
        result = _frac_mul(result, _frac_power(a, n, nmax, 1), nmax)
    for b in mono.ext:
        result = _frac_mul(result, _frac_power(b, n, nmax, -1), nmax)
    return result


def _frac_virtual(v, nmax):
    return _frac_combine((coef, _frac_monomial(mono, v.n, nmax)) for mono, coef in v.items())


def _frac_to_pont(c, nmax, uorder):
    terms = {}
    for mu, coef in c:
        for lam, t in _power_sum_terms(mu):
            terms[lam] = terms.get(lam, 0) + coef * t
    return PontPoly({lam: USeries.const(x, uorder) for lam, x in terms.items()}, nmax, uorder)


def _frac_ahat(n):
    # c_mu = f(0)^(2n) prod_k a_k^(m_k) / m_k!, m_k the multiplicity of k in mu, with
    # f(0) and the a_k read from the theta product (Macdonald, ch. I.2)
    f0, a = _log_coefficients(genus_root_series(GenusKind.AHAT, 2 * n + 2, 1), n)
    coeffs = {(): f0.constant() ** (2 * n)}
    for w in range(1, n + 1):
        for mu in partitions_of(w):
            k = mu[-1]
            coeffs[mu] = coeffs[mu[:-1]] * a[k - 1].constant() / mu.count(k)
    return tuple((mu, c) for mu, c in coeffs.items() if c)


def power_sum_number(mu, m):
    """<s_mu, [M]> = sum_lambda t_(mu lambda) P_lambda(M), s_mu = sum_lambda t_(mu lambda) p_lambda."""
    return sum((t * m.pont.get(lam, 0) for lam, t in _power_sum_terms(mu)), F(0))


def _frac_index(m, v):
    n = v.n
    ahat = _frac_ahat(n)
    top = [(mu, c) for mu, c in _frac_mul(ahat, _frac_virtual(v, n), n) if sum(mu) == n]
    return sum((c * power_sum_number(mu, m) for mu, c in top), F(0))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_integer_s_classes_match_fraction_kernels(n):
    for a in range(7):
        assert ch_monomial(BundleMonomial(sym=(a,)), n, n, 1) == _frac_to_pont(_frac_power(a, n, n, 1), n, 1)
        assert ch_monomial(BundleMonomial(ext=(a,)), n, n, 1) == _frac_to_pont(_frac_power(a, n, n, -1), n, 1)
    m = _random_manifold(n, random.Random(200 + n))
    for which in ("theta1", "theta2"):
        bqs = expand_witten(which, n, 8)
        for k in range(8):
            v = bqs.coeff(k)
            assert ch_virtual(v, n, 1) == _frac_to_pont(_frac_virtual(v, n), n, 1)
            for mono, _ in v.items():
                assert ch_monomial(mono, n, n, 1) == _frac_to_pont(_frac_monomial(mono, n, n), n, 1)
            assert index_bundle(m, v) == _frac_index(m, v)


@pytest.mark.parametrize("n,uorder", [(1, 16), (2, 12), (3, 10), (4, 8)])
def test_bundle_route_matches_theta_route_and_oracle(n, uorder):
    rng = random.Random(100 + n)
    b = expand_witten("theta2", n, uorder)
    for _ in range(4):
        m = _random_manifold(n, rng)
        assert ell2_via_bundles(m, uorder) == genus(m, "ell2", uorder)
        for k in range(uorder):
            oracle = pair(ahat_class(n, 1) * _oracle_ch_virtual(b.coeff(k), n, 1), m).coeff(0)
            assert index_bundle(m, b.coeff(k)) == oracle


def test_ch_converters_return_pont_polys_and_pair_is_chern_pair():
    # the route itself never loads `chern`; the public converters and `bundles.pair` still reach it
    from ellgen import bundles, chern

    v = expand_witten("theta2", 2, 4).coeff(2)
    assert type(ch_virtual(v, 2, 3)) is chern.PontPoly
    assert type(ch_monomial(BundleMonomial(sym=(1,)), 2, 2)) is chern.PontPoly
    assert bundles.pair is chern.pair
    with pytest.raises(AttributeError, match="no_such_name"):
        bundles.no_such_name


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bundle_route_pairs_the_index_vectors_in_the_s_basis(n):
    # Ell_2 = sum_mu <s_mu, [M]> col_mu with [u^k] col_mu the s-basis index vector of B_k, an
    # integer combination of the per-monomial vectors, each the weight-n part of its own A-hat
    # product: the pairing in the basis the vectors are built in, with no s -> p rewrite, no row
    # kernel and no product taken per bundle.
    from ellgen.bundles import _ahat_s, _ch_monomial_s, _s_mul

    rng = random.Random(300 + n)
    manifolds = [_random_manifold(n, rng) for _ in range(3)] + [Manifold("last", 4 * n, {partitions_of(n)[-1]: F(5, 7)})]
    top = len(partitions_of(n))  # the partitions of n come last in the weight order
    for uorder in (1, 2, 5, 12):
        b = expand_witten("theta2", n, uorder)
        cols = [USeries.zero(uorder) for _ in partitions_of(n)]
        for k in range(uorder):
            for mono, coef in b.coeff(k).items():
                nums, den = _s_mul(_ahat_s(n), _ch_monomial_s(mono, n, n), n)
                for i, x in enumerate(nums[-top:]):
                    cols[i] = cols[i] + USeries.monomial(k, coef * F(x, den), uorder)
        for m in manifolds:
            want = USeries.zero(uorder)
            for mu, col in zip(partitions_of(n), cols):
                want = want + col * power_sum_number(mu, m)
            assert ell2_via_bundles(m, uorder) == want, (uorder, m.name)
