import operator
import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ellgen.chern import (
    Manifold,
    PontPoly,
    RootSeries,
    _log_coefficients,
    ch_tangent,
    disjoint_union,
    genus_class,
    newton_power_sum,
    pair,
    partitions_of,
)
from ellgen.bundle_route import _power_sum_terms
from ellgen.errors import BadConstantTerm, DimMismatch, NonUnitConstant, OddTermPresent
from ellgen.genera import genus
from ellgen.series import USeries
from ellgen.theta import GenusKind, genus_root_series, half_x_over_sinh_half_poly


def const_poly(coeffs, nmax, uorder=1):
    return PontPoly({k: USeries.const(v, uorder) for k, v in coeffs.items()}, nmax, uorder)


# -- Newton power sums -------------------------------------------------------

def test_newton_s1():
    assert newton_power_sum(1, 3, 1) == const_poly({(1,): 1}, 3)


def test_newton_s2():
    assert newton_power_sum(2, 3, 1) == const_poly({(1, 1): 1, (2,): -2}, 3)


def test_newton_s3():
    # recursion oracle: s_3 = p1 s_2 - p2 s_1 + 3 p3
    s1 = newton_power_sum(1, 3, 1)
    s2 = newton_power_sum(2, 3, 1)
    p1, p2, p3 = (const_poly({(i,): 1}, 3) for i in (1, 2, 3))
    assert newton_power_sum(3, 3, 1) == p1 * s2 - p2 * s1 + p3 * 3
    assert newton_power_sum(3, 3, 1) == const_poly({(1, 1, 1): 1, (2, 1): -3, (3,): 3}, 3)


def test_newton_numeric_check():
    # evaluate s_4 at concrete variables y = (2, 3, 5, 7) against sum y_i^4
    ys = [F(2), F(3), F(5), F(7)]
    e = [F(1)]
    for y in ys:
        e = [e[0]] + [e[i] + y * e[i - 1] for i in range(1, len(e))] + [y * e[-1]]
    s4 = newton_power_sum(4, 4, 1)
    value = sum(
        s4.coeff(p).coeff(0) * sympy.prod([e[i] for i in p]) for p in partitions_of(4)
    )
    assert value == sum(y**4 for y in ys)


# -- genus_class against a sympy Taylor oracle -------------------------------

def sympy_taylor_fractions(expr, var, xdeg):
    ser = sympy.series(expr, var, 0, xdeg).removeO()
    out = {}
    for k in range(xdeg):
        c = sympy.Rational(ser.coeff(var, k))
        if c:
            out[k] = F(int(c.p), int(c.q))
    return out


def test_ahat_factor_matches_sympy():
    x = sympy.symbols("x")
    expected = sympy_taylor_fractions((x / 2) / sympy.sinh(x / 2), x, 10)
    assert half_x_over_sinh_half_poly(10) == expected


def test_genus_class_identity_factor():
    f = RootSeries.from_xpoly({0: 1}, 4, 1)
    assert genus_class(f, 1) == PontPoly.const(1, 1, 1)


def test_ahat_weight_one():
    f = genus_root_series(GenusKind.AHAT, 4, 1)
    cls = genus_class(f, 1)
    assert cls == const_poly({(): 1, (1,): F(-1, 24)}, 1)


def test_ahat_weight_two():
    f = genus_root_series(GenusKind.AHAT, 6, 1)
    cls = genus_class(f, 2)
    assert cls.coeff((1, 1)) == USeries.const(F(7, 5760), 1)
    assert cls.coeff((2,)) == USeries.const(F(-4, 5760), 1)


def test_genus_class_rejects_odd_terms():
    f = RootSeries.from_xpoly({0: 1, 1: 1}, 4, 1)
    with pytest.raises(OddTermPresent):
        genus_class(f, 1)


def test_genus_class_rejects_nonunit():
    f = RootSeries({0: USeries({1: 1}, 4), 2: USeries.one(4)}, 4, 4)
    with pytest.raises(NonUnitConstant):
        genus_class(f, 1)


# -- brute-force oracle: explicit 2n-variable expansion ----------------------

def brute_force_genus_terms(f, n):
    """Multiply prod_{j=1}^{2n} f(x_j) in 2n variables y_j = x_j^2 and reduce
    to elementary symmetric polynomials (hand-coded for weight <= 2)."""
    assert n <= 2 and f.is_even
    nvars = 2 * n
    uorder = f.uorder
    a = {k // 2: f.coeff(k) for k, _ in f.items()}
    zero = USeries.zero(uorder)
    poly = {(0,) * nvars: USeries.one(uorder)}
    for j in range(nvars):
        new = {}
        for expo, c in poly.items():
            for k, ak in a.items():
                if sum(expo) + k <= n:
                    e2 = expo[:j] + (expo[j] + k,) + expo[j + 1 :]
                    new[e2] = new.get(e2, zero) + c * ak
        poly = new

    terms = {(): poly.get((0,) * nvars, zero)}
    if n >= 1:
        singles = [poly.get(tuple(1 if i == j else 0 for i in range(nvars)), zero) for j in range(nvars)]
        assert all(s == singles[0] for s in singles), "not symmetric"
        terms[(1,)] = singles[0]
    if n == 2:
        squares = [poly.get(tuple(2 if i == j else 0 for i in range(nvars)), zero) for j in range(nvars)]
        assert all(s == squares[0] for s in squares)
        mixed = []
        for i in range(nvars):
            for j in range(i + 1, nvars):
                expo = tuple(1 if k in (i, j) else 0 for k in range(nvars))
                mixed.append(poly.get(expo, zero))
        assert all(s == mixed[0] for s in mixed)
        c2, c11 = squares[0], mixed[0]
        # m_(2) = e1^2 - 2 e2 and m_(1,1) = e2, with e_i = p_i
        terms[(1, 1)] = c2
        terms[(2,)] = c11 - c2 * 2
    return {k: v for k, v in terms.items() if not v.is_zero()}


def random_even_unit_factor(rng, xdeg, uorder):
    coeffs = {0: USeries({0: F(rng.randint(1, 5)), 1: F(rng.randint(-3, 3))}, uorder)}
    for k in range(2, xdeg, 2):
        coeffs[k] = USeries(
            {j: F(rng.randint(-6, 6), rng.randint(1, 4)) for j in range(uorder)}, uorder
        )
    return RootSeries(coeffs, xdeg, uorder)


@pytest.mark.parametrize("n", [1, 2])
def test_genus_class_against_brute_force(n):
    rng = random.Random(n)
    for _ in range(5):
        f = random_even_unit_factor(rng, 2 * n + 1, 3)
        cls = genus_class(f, n)
        expected = brute_force_genus_terms(f, n)
        assert dict(cls.items()) == expected


@pytest.mark.parametrize("n", [1, 2])
def test_genus_class_multiplicative(n):
    rng = random.Random(10 + n)
    for _ in range(5):
        f = random_even_unit_factor(rng, 2 * n + 1, 3)
        g = random_even_unit_factor(rng, 2 * n + 1, 3)
        assert genus_class(f * g, n) == genus_class(f, n) * genus_class(g, n)


# -- Chern character of the tangent bundle -----------------------------------

def test_ch_tangent_n1():
    ct = ch_tangent(1, 2, 1)
    assert ct.coeff(()) == USeries.const(4, 1)
    assert ct.coeff((1,)) == USeries.const(1, 1)
    assert ct.coeff((1, 1)) == USeries.const(F(1, 12), 1)
    assert ct.coeff((2,)) == USeries.const(F(-2, 12), 1)


def test_ch_tangent_rank_term():
    for n in (1, 2, 3):
        assert ch_tangent(n, n, 1).coeff(()) == USeries.const(4 * n, 1)


def test_ch_tangent_weight_one_is_p1():
    assert ch_tangent(2, 2, 1).coeff((1,)) == USeries.one(1)


# -- pairing -----------------------------------------------------------------

def test_pair_zero_top_part():
    c = const_poly({(): 5, (1,): 0}, 1)
    m = Manifold("m", 4, {(1,): F(7)})
    assert pair(c, m).is_zero()


def test_pair_ahat_k3():
    k3 = Manifold("K3", 4, {(1,): F(-48)})
    cls = genus_class(genus_root_series(GenusKind.AHAT, 4, 1), 1)
    assert pair(cls, k3) == USeries.const(2, 1)


def test_pair_lhat_signature():
    m = Manifold("m", 4, {(1,): F(3)})
    cls = genus_class(genus_root_series(GenusKind.LHAT, 4, 1), 1)
    assert pair(cls, m) == USeries.const(1, 1)


def test_pair_requires_enough_weight():
    m = Manifold("m", 8, {(2,): F(1)})
    with pytest.raises(DimMismatch):
        pair(const_poly({(1,): 1}, 1), m)


def test_pair_linearity():
    rng = random.Random(0)
    for n in (1, 2):
        parts = partitions_of(n)
        c1 = const_poly({p: F(rng.randint(-9, 9)) for p in parts}, n)
        c2 = const_poly({p: F(rng.randint(-9, 9)) for p in parts}, n)
        m1 = Manifold("a", 4 * n, {p: F(rng.randint(-9, 9)) for p in parts})
        m2 = Manifold("b", 4 * n, {p: F(rng.randint(-9, 9)) for p in parts})
        assert pair(c1 + c2, m1) == pair(c1, m1) + pair(c2, m1)
        assert pair(c1, disjoint_union(m1, m2)) == pair(c1, m1) + pair(c1, m2)


# -- manifolds ---------------------------------------------------------------

def test_disjoint_union_additivity():
    a = Manifold("a", 4, {(1,): F(3)})
    b = Manifold("b", 4, {(1,): F(-48)})
    assert disjoint_union(a, b).pont_number((1,)) == F(-45)


def test_disjoint_union_zero_identity():
    a = Manifold("a", 8, {(2,): F(5), (1, 1): F(-1)})
    z = Manifold("z", 8, {})
    assert disjoint_union(a, z).pont == a.pont


def test_disjoint_union_dim_mismatch():
    with pytest.raises(DimMismatch):
        disjoint_union(Manifold("a", 4, {}), Manifold("b", 8, {}))


def test_manifold_rejects_bad_dim():
    with pytest.raises(DimMismatch):
        Manifold("bad", 6, {})


def test_manifold_rejects_wrong_weight():
    with pytest.raises(ValueError):
        Manifold("bad", 4, {(2,): F(1)})


def test_manifold_json_roundtrip():
    m = Manifold("quadric", 8, {(1, 1): F(8), (2,): F(14)})
    obj = m.to_json()
    assert obj["pontryagin_numbers"] == {"[1,1]": "8", "[2]": "14"}
    assert Manifold.from_json(obj) == m


def test_missing_partitions_read_zero():
    m = Manifold("m", 8, {(2,): F(5)})
    assert m.pont_number((1, 1)) == 0
    assert dict(m.pont) == {(2,): F(5)}


# -- power-sum closed form against the log/exp reduction ---------------------

def reference_genus_class(f, n):
    """f(0)^(2n) exp(sum_k a_k s_k) with log(f/f(0)) = sum_k a_k x^(2k).

    The log/exp reduction the power-sum closed form replaced, built only from
    RootSeries and PontPoly addition and multiplication: the x-adic log series,
    Newton's recursion s_k = p_1 s_{k-1} - p_2 s_{k-2} + ... + (-1)^(k-1) k p_k
    on the generators, and the truncated exponential series.
    """
    uorder = f.uorder
    c0 = f.coeff(0)
    m = f * c0.inverse() - 1
    logf = RootSeries({}, f.xdeg, uorder)
    power = RootSeries.const(1, f.xdeg, uorder)
    for k in range(1, f.xdeg // 2 + 1):  # m has x-valuation >= 2
        power = power * m
        logf = logf + power * F((-1) ** (k + 1), k)
    p = [None] + [const_poly({(i,): 1}, n, uorder) for i in range(1, n + 1)]
    s = [None]
    for k in range(1, n + 1):
        sk = p[k] * ((-1) ** (k - 1) * k)
        for i in range(1, k):
            sk = sk + p[i] * s[k - i] * (-1) ** (i - 1)
        s.append(sk)
    exponent = PontPoly({}, n, uorder)
    for k in range(1, n + 1):
        exponent = exponent + s[k] * logf.coeff(2 * k)
    result = term = PontPoly.const(1, n, uorder)
    for k in range(1, n + 1):
        term = term * exponent * F(1, k)
        result = result + term
    return result * c0 ** (2 * n)


@pytest.mark.parametrize("uorder", [1, 12, 24])
@pytest.mark.parametrize("kind", list(GenusKind))
def test_genus_class_matches_log_exp_reference(kind, uorder):
    for n in range(1, 7):
        f = genus_root_series(kind, 2 * n + 2, uorder)
        assert genus_class(f, n) == reference_genus_class(f, n), (kind, n)


@pytest.mark.parametrize("uorder", [1, 12, 24])
def test_genus_class_matches_reference_on_random_factors(uorder):
    # f(0) = a + b u is not a scalar once uorder > 1
    rng = random.Random(uorder)
    for n in range(1, 7):
        f = random_even_unit_factor(rng, 2 * n + 1, uorder)
        assert genus_class(f, n) == reference_genus_class(f, n), n


@pytest.mark.parametrize("kind", list(GenusKind))
def test_genus_pairs_like_genus_class(kind):
    rng = random.Random(7)
    for n in range(1, 6):
        m = Manifold("r", 4 * n, {p: F(rng.randint(-50, 50), rng.randint(1, 6)) for p in partitions_of(n)})
        f = genus_root_series(kind, 2 * n + 2, 12)
        assert genus(m, kind, 12) == pair(genus_class(f, n), m), n


@pytest.mark.parametrize("kind", list(GenusKind))
def test_pont_poly_exp_matches_the_theta_route(kind):
    # prod_j f(x_j) = f(0)^(2n) exp(sum_k a_k s_k), with exp the ring's own Taylor sum
    for n in range(1, 5):
        for uorder in (1, 6):
            f = genus_root_series(kind, 2 * n + 1, uorder)
            f0, a = _log_coefficients(f, n)
            exponent = sum((a[k - 1] * newton_power_sum(k, n, uorder) for k in range(1, n + 1)), PontPoly({}, n, uorder))
            assert genus_class(f, n) == exponent.exp() * f0 ** (2 * n), (n, uorder)


def test_pont_poly_exp_requires_zero_constant_part():
    assert PontPoly({}, 2, 3).exp() == PontPoly.const(1, 2, 3)
    for constant in (PontPoly.const(1, 2, 3), const_poly({(1,): 1}, 2, 3) + USeries({2: 1}, 3)):
        with pytest.raises(BadConstantTerm):
            constant.exp()


def test_power_sum_table_numeric_check():
    # s_mu in the p_i, evaluated at random squared roots y_j, against prod_i sum_j y_j^mu_i
    rng = random.Random(3)
    for w in range(1, 7):
        ys = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(2 * w)]
        e = [F(1)]
        for y in ys:
            e = [e[0]] + [e[i] + y * e[i - 1] for i in range(1, len(e))] + [y * e[-1]]
        for mu in partitions_of(w):
            value = sum(c * sympy.prod([e[i] for i in lam]) for lam, c in _power_sum_terms(mu))
            assert value == sympy.prod([sum(y**k for y in ys) for k in mu]), mu


# -- the shared ring core against a dense reference ----------------------------

_PARTS = [p for w in range(5) for p in partitions_of(w)]
_fracs = st.fractions(min_value=-2, max_value=2, max_denominator=3)


def _grade(cls, key):
    return key if cls is RootSeries else sum(key)


def dense(x):
    """(class, largest kept grade, uorder, {key: USeries}) of a graded element."""
    top = x.xdeg - 1 if isinstance(x, RootSeries) else x.nmax
    return type(x), top, x.uorder, dict(x.items())


def lift(s, like):
    """A scalar as a dense constant shaped like `like`; a USeries keeps its own order."""
    cls, top, uorder, _ = like
    unit = 0 if cls is RootSeries else ()
    if not isinstance(s, USeries):
        s = USeries.const(s, uorder)
    return cls, top, s.order, ({unit: s} if not s.is_zero() else {})


def ref_add(a, b):
    cls, top, uorder = a[0], min(a[1], b[1]), min(a[2], b[2])
    out = {}
    for terms in (a[3], b[3]):
        for k, s in terms.items():
            if _grade(cls, k) <= top:
                out[k] = out.get(k, USeries.zero(uorder)) + s.truncate(uorder)
    return cls, top, uorder, {k: s for k, s in out.items() if not s.is_zero()}


def ref_neg(a):
    return a[0], a[1], a[2], {k: -s for k, s in a[3].items()}


def ref_mul(a, b):
    """Direct double sum; partition keys join by the union of their parts."""
    cls, top, uorder = a[0], min(a[1], b[1]), min(a[2], b[2])
    out = {}
    for k1, s1 in a[3].items():
        for k2, s2 in b[3].items():
            k = k1 + k2 if cls is RootSeries else tuple(sorted(k1 + k2, reverse=True))
            if _grade(cls, k) <= top:
                out[k] = out.get(k, USeries.zero(uorder)) + s1.truncate(uorder) * s2.truncate(uorder)
    return cls, top, uorder, {k: s for k, s in out.items() if not s.is_zero()}


def ref_pow(a, e):
    out = lift(1, a)
    for _ in range(e):
        out = ref_mul(out, a)
    return out


@st.composite
def graded(draw, cls):
    uorder = draw(st.integers(1, 4))
    if cls is RootSeries:
        bound = draw(st.integers(1, 5))
        keys = st.integers(0, bound)  # x^bound lies beyond xdeg: dropped
    else:
        bound = draw(st.integers(0, 3))
        keys = st.sampled_from([p for p in _PARTS if sum(p) <= bound + 1])
    terms = st.dictionaries(st.integers(0, uorder), _fracs, min_size=1, max_size=3)
    coeffs = draw(st.dictionaries(keys, terms, min_size=1, max_size=4))
    # coefficient orders at or above uorder: the constructor truncates them
    extra = draw(st.integers(0, 1))
    return cls({k: USeries(c, uorder + extra) for k, c in coeffs.items()}, bound, uorder)


scalars = st.one_of(
    st.integers(-2, 2),
    _fracs,
    st.builds(lambda c, order: USeries(c, order), st.dictionaries(st.integers(0, 4), _fracs, max_size=3), st.integers(1, 5)),
)


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


@pytest.mark.parametrize("cls", [RootSeries, PontPoly])
@given(data=st.data())
@settings(max_examples=120)
def test_graded_ring_ops_match_dense_reference(cls, data):
    a = data.draw(graded(cls))
    b = data.draw(st.one_of(graded(cls), scalars, st.just(-a)))  # -a: sums cancel to zero
    swap = data.draw(st.booleans()) and not isinstance(b, cls)  # scalar on the left

    def apply(op):
        return _OPS[op](b, a) if swap else _OPS[op](a, b)

    da = dense(a)
    # A USeries scalar of either order: every operator truncates to the smaller.
    db = dense(b) if isinstance(b, cls) else lift(b, da)
    if isinstance(b, cls):
        assert (a - a).is_zero() and dense(a + (-a)) == ref_add(da, ref_neg(da))
    cases = {
        "+": ref_add(da, db),
        "-": ref_add(db, ref_neg(da)) if swap else ref_add(da, ref_neg(db)),
        "*": ref_mul(db, da) if swap else ref_mul(da, db),
    }
    for op, expected in cases.items():
        got = apply(op)
        assert type(got) is cls
        assert dense(got) == expected, op
    for e in range(4):
        assert dense(a**e) == ref_pow(da, e), e


@given(graded(RootSeries), st.integers(1, 3), _fracs.filter(bool))
@settings(max_examples=60)
def test_rootseries_negative_powers_invert(a, e, c0):
    a = a + (c0 - a.coeff(0).coeff(0))  # an invertible x^0 coefficient
    inv = a ** -e
    assert dense(inv) == dense(a.inverse() ** e)
    assert dense(a**e * inv) == lift(1, dense(a))


def test_graded_constructor_contracts():
    with pytest.raises(ValueError, match="xdeg"):
        RootSeries({}, 0, 4)
    with pytest.raises(ValueError, match="negative x-exponent"):
        RootSeries({-1: USeries.one(4)}, 3, 4)
    with pytest.raises(ValueError, match="below the RootSeries order"):
        RootSeries({0: USeries.one(2)}, 3, 4)
    with pytest.raises(ValueError, match="below the PontPoly order"):
        PontPoly({(1,): USeries.one(2)}, 2, 4)
    rs, pp = RootSeries.const(1, 3, 4), PontPoly.const(1, 2, 4)
    assert (rs == pp) is False and (pp == rs) is False and rs != pp
    for op in _OPS.values():
        for x, y in ((rs, pp), (pp, rs)):
            with pytest.raises(TypeError):
                op(x, y)
    with pytest.raises(TypeError):  # PontPoly has no inverse
        pp ** -1
