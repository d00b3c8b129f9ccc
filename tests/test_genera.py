import importlib
import random
from fractions import Fraction as F

import pytest

from ellgen.chern import Manifold, ch_tangent, disjoint_union, partitions_of
from ellgen.errors import DimNotMultipleOf4, NonUnitConstant
from ellgen.genera import (
    Hypersurface,
    ahat_factor,
    cancellation_class,
    cancellation_residual,
    genus,
    hypersurface_genus,
    hypersurface_pont,
    signature_factor,
    twisted_ahat,
    twisted_ahat_series,
)
from ellgen.series import USeries
from ellgen.theta import GenusKind, genus_root_series

K3 = Manifold("K3", 4, {(1,): F(-48)})
QUADRIC = hypersurface_pont(Hypersurface(5, 2))


def random_manifold(n, rng, name="rand"):
    pont = {p: F(rng.randint(-50, 50), rng.randint(1, 6)) for p in partitions_of(n)}
    return Manifold(name, 4 * n, pont)


# -- genus values ------------------------------------------------------------

def test_ell2_k3_leading_terms():
    e2 = genus(K3, GenusKind.ELL2, 4)
    assert e2.coeff(0) == 2  # A-hat of K3
    # u^1 coefficient is -<A-hat ch(T_C - C^4)>, via the twisted route
    reduced = twisted_ahat(K3, ch_tangent(1, 1, 1)) - 4 * genus(K3, "ahat", 1).coeff(0)
    assert e2.coeff(1) == -reduced == 48


def test_ell1_k3_leading_terms():
    from ellgen.chern import genus_class, pair

    e1 = genus(K3, GenusKind.ELL1, 4)
    assert e1.coeff(0) == -16  # signature p1/3
    # q^1 coefficient is 2 <L-hat ch(T_C - C^4)>
    lhat = genus_class(genus_root_series(GenusKind.LHAT, 4, 1), 1)
    twisted = pair(lhat * ch_tangent(1, 1, 1), K3).coeff(0)
    assert e1.coeff(2) == 2 * (twisted - 4 * (-16)) == -384


def test_genus_zero_manifold():
    zero = Manifold("zero", 8, {})
    for kind in GenusKind:
        assert genus(zero, kind, 4).is_zero()


def test_constant_terms_are_classical_genera():
    rng = random.Random(1)
    for n in (1, 2, 3):
        m = random_manifold(n, rng)
        assert genus(m, "ell1", 3).coeff(0) == genus(m, "lhat", 1).coeff(0)
        assert genus(m, "ell2", 3).coeff(0) == genus(m, "ahat", 1).coeff(0)


def test_first_deformation_coefficients():
    from ellgen.chern import genus_class, pair

    rng = random.Random(2)
    for n in (1, 2):
        m = random_manifold(n, rng)
        sig = genus(m, "lhat", 1).coeff(0)
        ahat = genus(m, "ahat", 1).coeff(0)
        cht = ch_tangent(n, n, 1)
        red_a = twisted_ahat(m, cht) - 4 * n * ahat
        lhat = genus_class(genus_root_series(GenusKind.LHAT, 2 * n + 2, 1), n)
        red_l = pair(lhat * cht, m).coeff(0) - 4 * n * sig
        assert genus(m, "ell2", 2).coeff(1) == -red_a
        assert genus(m, "ell1", 3).coeff(2) == 2 * red_l


def test_genus_additive_under_disjoint_union():
    rng = random.Random(3)
    for n in (1, 2):
        a, b = random_manifold(n, rng, "a"), random_manifold(n, rng, "b")
        for kind in GenusKind:
            assert genus(disjoint_union(a, b), kind, 5) == genus(a, kind, 5) + genus(
                b, kind, 5
            )


def test_witten_genus_even_q_support():
    w = genus(K3, "witten", 9)
    assert w.is_even_support()


# -- twisted A-hat -----------------------------------------------------------

def test_twisted_ahat_trivial_twist():
    from ellgen.chern import PontPoly

    one = PontPoly.const(1, 2, 1)
    assert twisted_ahat(QUADRIC, one) == genus(QUADRIC, "ahat", 1).coeff(0)


def test_twisted_ahat_quadric():
    # weight-2 oracle: <A-hat ch(T_C)> = (37 p1^2 - 124 p2)/720
    cht = ch_tangent(2, 2, 1)
    assert twisted_ahat(QUADRIC, cht) == F(37 * 8 - 124 * 14, 720) == -2


def test_twisted_ahat_dim8_example():
    m = Manifold("m", 8, {(1, 1): F(4), (2,): F(7)})
    assert twisted_ahat(m, ch_tangent(2, 2, 1)) == -1


def test_twisted_ahat_series_vs_scalar():
    # the scalar form is the u^0 slice of the graded series
    cht = ch_tangent(1, 1, 4)
    series = twisted_ahat_series(K3, cht)
    assert series.order == 4
    assert series.coeff(0) == twisted_ahat(K3, cht)
    # a u-constant twist pairs to a constant series
    assert series == USeries.const(series.coeff(0), 4)


# -- the dimension-8 cancellation --------------------------------------------

def test_cancellation_quadric_instance():
    assert cancellation_residual(8, 14) == 0


def test_cancellation_zero():
    assert cancellation_residual(0, 0) == 0


def test_cancellation_random_pairs():
    rng = random.Random(4)
    for _ in range(100):
        p11 = F(rng.randint(-10**9, 10**9), rng.randint(1, 10**4))
        p2 = F(rng.randint(-10**9, 10**9), rng.randint(1, 10**4))
        assert cancellation_residual(p11, p2) == 0


def test_cancellation_symbolic():
    assert cancellation_class().is_zero()


def test_cancellation_pieces():
    # the three weight-2 polynomials behind the identity
    from ellgen.chern import genus_class

    lhat = genus_class(genus_root_series(GenusKind.LHAT, 6, 1), 2)
    ahat = genus_class(genus_root_series(GenusKind.AHAT, 6, 1), 2)
    twisted = ahat * ch_tangent(2, 2, 1)
    assert lhat.coeff((1, 1)) == USeries.const(F(-1, 45), 1)
    assert lhat.coeff((2,)) == USeries.const(F(7, 45), 1)
    assert twisted.coeff((1, 1)) == USeries.const(F(37, 720), 1)
    assert twisted.coeff((2,)) == USeries.const(F(-124, 720), 1)


# -- hypersurfaces -----------------------------------------------------------

def test_quadric_pontryagin_numbers():
    assert QUADRIC.dim == 8
    assert QUADRIC.pont_number((1, 1)) == 8
    assert QUADRIC.pont_number((2,)) == 14


def test_quadric_signature_and_ahat():
    assert genus(QUADRIC, "lhat", 1) == USeries.const(2, 1)
    assert genus(QUADRIC, "ahat", 1).is_zero()


def test_cp2_like_hypersurface():
    m = hypersurface_pont(Hypersurface(3, 1))
    assert m.pont_number((1,)) == 3
    assert genus(m, "lhat", 1) == USeries.const(1, 1)


def test_degree_zero_rejected():
    with pytest.raises(ValueError):
        Hypersurface(5, 0)


def test_wrong_dimension_rejected():
    with pytest.raises(DimNotMultipleOf4):
        hypersurface_pont(Hypersurface(4, 2))


def test_residue_signature_quadric():
    # Res_{x=0} tan(2x)/tan^6(x) = 2, and the hyperbolic twin agrees
    h = Hypersurface(5, 2)
    assert hypersurface_genus(h, signature_factor(6, 1, "tan")) == USeries.const(2, 1)
    assert hypersurface_genus(h, signature_factor(6, 1, "tanh")) == USeries.const(2, 1)


def test_residue_ahat_quadric_vanishes():
    h = Hypersurface(5, 2)
    assert hypersurface_genus(h, ahat_factor(6, 1, "tan")).is_zero()
    assert hypersurface_genus(h, ahat_factor(6, 1, "tanh")).is_zero()


def test_residue_constant_factor():
    h = Hypersurface(5, 2)
    one = signature_factor(6, 1) * 0 + 1
    assert hypersurface_genus(h, one).is_zero()


def test_residue_rotation_sign():
    # x -> ix rescales the extracted coefficient by i^(N-1): for N = 3 the
    # tan and tanh conventions differ by a sign
    h = Hypersurface(3, 1)
    assert hypersurface_genus(h, signature_factor(4, 1, "tanh")) == USeries.const(1, 1)
    assert hypersurface_genus(h, signature_factor(4, 1, "tan")) == USeries.const(-1, 1)


def test_residue_nonunit_rejected():
    h = Hypersurface(5, 2)
    zero_const = signature_factor(6, 1) * 0
    with pytest.raises(NonUnitConstant):
        hypersurface_genus(h, zero_const)


@pytest.mark.parametrize("ambient,degree", [(5, 2), (3, 1), (5, 4)])
def test_route_equivalence_classical(ambient, degree):
    h = Hypersurface(ambient, degree)
    m = hypersurface_pont(h)
    xdeg = ambient + 1
    assert hypersurface_genus(h, signature_factor(xdeg, 1)) == genus(m, "lhat", 1)
    assert hypersurface_genus(h, ahat_factor(xdeg, 1)) == genus(m, "ahat", 1)


def test_route_equivalence_ell2_series():
    h = Hypersurface(5, 2)
    factor = genus_root_series(GenusKind.ELL2, 6, 6)
    assert hypersurface_genus(h, factor) == genus(QUADRIC, "ell2", 6)


# -- Witten genus modularity consequence --------------------------------------

def sigma3(k):
    return sum(d**3 for d in range(1, k + 1) if k % d == 0)


def eisenstein_e4(uorder):
    c = {0: F(1)}
    for k in range(1, (uorder - 1) // 2 + 1):
        c[2 * k] = F(240 * sigma3(k))
    return USeries(c, uorder)


@pytest.mark.parametrize("t", [F(-2), F(1), F(3), F(5760), F(7, 3)])
def test_witten_genus_is_ahat_times_e4(t):
    m = Manifold("p2-only", 8, {(2,): t})
    uorder = 18  # q-order 8
    w = genus(m, "witten", uorder)
    ahat = genus(m, "ahat", 1).coeff(0)
    assert ahat == -t / 1440
    assert w == eisenstein_e4(uorder) * ahat


# -- genus as a memoized linear map on Pontryagin numbers ----------------------

def genus_number_oracle(m, kind, uorder):
    """f(0)^(2n) sum_{mu |- n} c_mu <s_mu, [M]>, paired in the s-basis.

    c_mu = prod_k a_k^(m_k) / m_k!, m_k the multiplicity of k in mu, is the
    closed form of exp(sum_k a_k s_k) (Macdonald, ch. I.2), with f(0) and
    the a_k read from the theta product.  It shares Newton's identities
    (`_power_sum_terms`) with the package, but neither Hirzebruch's
    recursion, the p-basis columns nor the row kernel.
    """
    from ellgen.chern import _log_coefficients

    n = m.n
    f0, a = _log_coefficients(genus_root_series(GenusKind(kind), 2 * n + 2, uorder), n)
    coeffs = {(): USeries.one(uorder)}
    for w in range(1, n + 1):
        for mu in partitions_of(w):
            k = mu[-1]
            coeffs[mu] = coeffs[mu[:-1]] * a[k - 1] / mu.count(k)
    acc = USeries.zero(uorder)
    for mu in partitions_of(n):
        acc = acc + coeffs[mu] * power_sum_number(mu, m)
    return acc * f0 ** (2 * n)


def power_sum_number(mu, m):
    """<s_mu, [M]> = sum_lambda t_(mu lambda) P_lambda(M), s_mu = sum_lambda t_(mu lambda) p_lambda."""
    from ellgen.bundles import _power_sum_terms

    return sum((t * m.pont.get(lam, 0) for lam, t in _power_sum_terms(mu)), F(0))


def oracle_manifolds(n, rng):
    parts = partitions_of(n)
    sparse = {p: F(rng.randint(-30, 30), rng.randint(1, 7)) for p in parts[::2]}
    yield random_manifold(n, rng)
    yield Manifold("missing", 4 * n, sparse)  # every other Pontryagin number absent
    yield Manifold("zero", 4 * n, {})


@pytest.mark.parametrize("n", [*range(1, 8), 12])
def test_genus_matches_s_basis_pairing(n):
    rng = random.Random(100 + n)
    manifolds = list(oracle_manifolds(n, rng))
    for kind in GenusKind:
        for uorder in (1, 2, 12, 24) if n < 8 else (1, 2, 3, 4):
            for m in manifolds:
                assert genus(m, kind, uorder) == genus_number_oracle(m, kind, uorder), (
                    kind, uorder, m.name
                )


def test_genus_columns_memo_serves_each_manifold():
    from ellgen.pontryagin import genus_columns

    genus_columns.cache_clear()
    rng = random.Random(7)
    first, second = random_manifold(3, rng, "first"), random_manifold(3, rng, "second")
    value_first = genus(first, GenusKind.ELL2, 10)
    assert value_first == genus_number_oracle(first, "ell2", 10)
    assert genus_columns.cache_info().misses == 1
    # a warm memo, reached through the string kind, pairs with the second
    # manifold's own numbers
    value_second = genus(second, "ell2", 10)
    assert value_second == genus_number_oracle(second, "ell2", 10)
    assert value_second != value_first
    info = genus_columns.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_genus_columns_memo_is_bounded():
    from ellgen.pontryagin import genus_columns

    assert genus_columns.cache_info().maxsize == 128


# genus_columns above and the modular bases in test_modular.py are the
# other memos keyed by a uorder
@pytest.mark.parametrize(
    "module, name",
    [
        ("genera", "ahat_class"),
        ("theta", "theta_factor"),
        ("theta", "genus_root_series"),
        ("bundles", "expand_witten"),
        ("bundles", "_index_class"),
    ],
)
def test_uorder_keyed_memos_are_bounded(module, name):
    memo = getattr(importlib.import_module(f"ellgen.{module}"), name)
    assert memo.cache_info().maxsize == 128
