import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellgen.errors import BadConstantTerm, WeightViolation, ZeroConstantTerm
from ellgen.series import USeries, as_fraction, as_ratio, linear_combination, ratio_str
from ellgen.theta import weighted_product


def u(order=8):
    return USeries({1: 1}, order)


def conv_oracle(a, b, order):
    """Direct convolution, independent of the USeries internals."""
    out = [F(0)] * order
    for k1 in range(order):
        for k2 in range(order - k1):
            out[k1 + k2] += a.coeff(k1) * b.coeff(k2) if k1 < a.order and k2 < b.order else 0
    return USeries({k: v for k, v in enumerate(out)}, order)


# -- strategies --------------------------------------------------------------

small_fracs = st.fractions(min_value=-10, max_value=10, max_denominator=12)


@st.composite
def useries(draw, min_order=2, max_order=12):
    order = draw(st.integers(min_order, max_order))
    coeffs = draw(st.dictionaries(st.integers(0, order - 1), small_fracs, max_size=6))
    return USeries(coeffs, order)


@st.composite
def invertible_useries(draw):
    s = draw(useries())
    c0 = draw(small_fracs.filter(lambda f: f != 0))
    return s + USeries.const(c0 - s.coeff(0), s.order)


# -- addition ----------------------------------------------------------------

def test_add_cancellation():
    assert (1 + u()) + (1 - u()) == USeries.const(2, 8)


def test_internal_results_equal_normalized_construction():
    a = USeries({0: F(1, 2), 1: 3, 3: F(-2, 7)}, 6)
    b = USeries({0: F(-1, 2), 1: F(1, 3), 5: 4}, 6)
    total = a + b
    assert total == USeries({1: F(10, 3), 3: F(-2, 7), 5: 4}, 6)
    assert 0 not in total.support()  # a cancelled sum leaves no stored zero
    assert (a - a).is_zero() and (a - a).support() == []
    assert -a == USeries({0: F(-1, 2), 1: -3, 3: F(2, 7)}, 6)
    assert a.truncate(2) == USeries({0: F(1, 2), 1: 3}, 2)
    assert all(type(v) is F for s in (total, -a, a.truncate(2)) for _, v in s.items())


def test_linear_combination_matches_repeated_addition():
    a = USeries({0: F(1, 2), 2: F(3, 4), 5: F(-5, 6)}, 8)
    b = USeries({1: F(2, 9), 2: F(-3, 8), 9: 1}, 10)
    terms = [(F(2, 3), a), (-3, b), (0, a), (F(-2, 3), a)]
    expected = USeries.zero(8)
    for c, s in terms:
        expected = expected + s.truncate(8) * c
    assert linear_combination(terms, 8) == expected == b.truncate(8) * -3
    assert linear_combination([], 4) == USeries.zero(4)
    assert linear_combination([(F(1, 2), a), (F(-1, 2), a)], 8).support() == []


def test_add_identity_preserves_order():
    s = USeries({0: 3, 5: F(1, 7)}, 9)
    assert s + 0 == s
    assert 0 + s == s


def test_add_truncates_to_min_order():
    a = USeries({1: 1}, 3)
    b = USeries({2: 1}, 2)
    assert a + b == USeries({1: 1}, 2)


# -- multiplication ----------------------------------------------------------

def test_mul_difference_of_squares():
    s = (1 + u()) * (1 - u())
    assert s == USeries({0: 1, 2: -1}, 8)


def test_mul_square():
    assert (1 + u()) ** 2 == USeries({0: 1, 1: 2, 2: 1}, 8)


def test_mul_geometric_telescope():
    s = USeries({k: 1 for k in range(8)}, 8)
    prod = s * (1 - u(8))
    assert prod == conv_oracle(s, 1 - u(8), 8)
    assert prod == USeries.one(8)


def test_mul_dense_and_sparse_paths_agree():
    a = USeries({k: F(k + 1, 3) for k in range(10)}, 10)  # dense
    b = USeries({k: F(2 * k - 7) for k in range(10)}, 10)  # dense
    sparse_a = USeries(dict(a.items()), 10)
    assert a * b == conv_oracle(sparse_a, b, 10)


def schoolbook(a, b):
    """Fraction-by-Fraction convolution of the stored terms, truncated at the smaller order."""
    order = min(a.order, b.order)
    out = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            if k1 + k2 < order:
                out[k1 + k2] = out.get(k1 + k2, F(0)) + v1 * v2
    return order, {k: v for k, v in out.items() if v}


# Mixed denominators: shared factors (4, 6, 12, 128), coprime ones (7, 11,
# 25, 27, 97, 101) and integers.
mixed_fracs = st.builds(
    F, st.integers(-60, 60), st.sampled_from([1, 2, 3, 4, 6, 7, 11, 12, 25, 27, 97, 101, 128])
)


@st.composite
def mul_operands(draw):
    order = draw(st.integers(0, 10))
    # keys up to order + 2, so some terms fall beyond the order and are dropped
    return USeries(draw(st.dictionaries(st.integers(0, order + 2), mixed_fracs, max_size=8)), order)


@settings(max_examples=200)
@example(USeries.zero(5), USeries({0: F(1, 3), 2: F(5, 7)}, 5))
@example(USeries({}, 0), USeries({0: 1}, 3))
@example(USeries({0: F(2, 3)}, 1), USeries({0: F(9, 4), 1: F(1, 5)}, 7))
@example(USeries({0: F(1, 97), 3: F(2, 101)}, 9), USeries({1: F(3, 128), 2: F(-5, 27)}, 6))
@given(mul_operands(), mul_operands())
def test_mul_matches_schoolbook_convolution(a, b):
    order, expected = schoolbook(a, b)
    for product in (a * b, b * a):
        assert product.order == order
        assert dict(product.items()) == expected
        assert all(type(v) is F for _, v in product.items())
    for scalar in (3, F(-2, 7)):
        assert dict((a * scalar).items()) == schoolbook(a, USeries.const(scalar, a.order))[1]


# -- inverse -----------------------------------------------------------------

def test_inverse_geometric():
    assert (1 - u()).inverse() == USeries({k: 1 for k in range(8)}, 8)


def test_inverse_constant():
    assert USeries.const(2, 6).inverse() == USeries.const(F(1, 2), 6)


def test_inverse_multiply_back():
    s = USeries({0: 1, 1: -1, 2: -1}, 12)
    assert s * s.inverse() == USeries.one(12)


def test_inverse_rejects_zero_constant():
    with pytest.raises(ZeroConstantTerm):
        u().inverse()


# -- powers ------------------------------------------------------------------

def test_pow_cube():
    assert (1 + u()) ** 3 == USeries({0: 1, 1: 3, 2: 3, 3: 1}, 8)


def test_pow_zero():
    assert u() ** 0 == USeries.one(8)


def test_pow_negative_binomial():
    expected = USeries({k: k + 1 for k in range(8)}, 8)
    assert (1 - u()) ** (-2) == expected


def test_pow_negative_rejects_zero_constant():
    with pytest.raises(ZeroConstantTerm):
        u() ** (-1)


# -- exp/log -----------------------------------------------------------------

def test_exp_zero():
    assert USeries.zero(6).exp() == USeries.one(6)


def test_exp_coefficients_are_inverse_factorials():
    e = u().exp()
    fact = 1
    for k in range(8):
        if k:
            fact *= k
        assert e.coeff(k) == F(1, fact)


def test_log_exp_roundtrip():
    assert u().exp().log() == u()


def test_exp_requires_zero_constant():
    with pytest.raises(BadConstantTerm):
        USeries.one(4).exp()


def test_log_requires_unit_constant():
    with pytest.raises(BadConstantTerm):
        USeries.const(2, 4).log()


# -- infinite products -------------------------------------------------------

def euler_factors(order, sign=-1, step=2):
    m = 1
    while True:
        yield step * m, USeries.one(order) + USeries({step * m: sign}, order)
        m += 1


def test_product_pentagonal_numbers():
    # prod (1 - q^m) = 1 - q - q^2 + q^5 + O(q^7); oracle: multiply directly
    order = 14
    direct = USeries.one(order)
    for m in range(1, order):
        direct = direct * (USeries.one(order) - USeries({2 * m: 1}, order))
    p = weighted_product(euler_factors(order), USeries.one(order), order)
    assert p == direct
    assert p == USeries({0: 1, 2: -1, 4: -1, 10: 1}, order)


def test_product_empty():
    assert weighted_product(iter(()), USeries.one(6), 6) == USeries.one(6)


def test_product_euler_identity():
    # prod (1 - q^(2m)) = prod (1 - q^m) * prod (1 + q^m)
    order = 20
    lhs = weighted_product(euler_factors(order, step=4), USeries.one(order), order)
    rhs = weighted_product(euler_factors(order, -1), USeries.one(order), order) * weighted_product(
        euler_factors(order, +1), USeries.one(order), order
    )
    assert lhs == rhs


def test_product_weight_violation():
    def bad(order):
        yield 4, USeries.one(order) + USeries({2: 1}, order)

    with pytest.raises(WeightViolation):
        weighted_product(bad(8), USeries.one(8), 8)


def test_product_weights_must_increase():
    def bad(order):
        yield 2, USeries.one(order) + USeries({2: 1}, order)
        yield 2, USeries.one(order) + USeries({2: 1}, order)

    with pytest.raises(WeightViolation):
        weighted_product(bad(8), USeries.one(8), 8)


# -- ring laws and round trips (property tests) ------------------------------

@given(useries(), useries(), useries())
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=100)
@given(invertible_useries())
def test_inverse_property(a):
    assert a * a.inverse() == USeries.one(a.order)


@given(useries())
def test_exp_log_roundtrip_property(a):
    nilpotent = a - USeries.const(a.coeff(0), a.order)
    assert nilpotent.exp().log() == nilpotent
    unit = nilpotent + 1
    assert unit.log().exp() == unit


@given(useries(), useries())
def test_exp_is_homomorphism(a, b):
    za = a - USeries.const(a.coeff(0), a.order)
    zb = b - USeries.const(b.coeff(0), b.order)
    assert (za + zb).exp() == za.exp() * zb.exp()


@given(useries(min_order=3), useries(min_order=3), st.integers(1, 3))
def test_truncation_consistency(a, b, j):
    order = min(a.order, b.order)
    j = min(j, order)
    assert (a * b).truncate(j) == a.truncate(j) * b.truncate(j)
    assert (a + b).truncate(j) == a.truncate(j) + b.truncate(j)


@given(invertible_useries(), st.integers(1, 4))
def test_truncation_consistency_inverse(a, j):
    j = min(j, a.order)
    assert a.inverse().truncate(j) == a.truncate(j).inverse()


@given(useries(), st.integers(1, 4))
def test_truncation_consistency_exp(a, j):
    j = min(j, a.order)
    z = a - USeries.const(a.coeff(0), a.order)
    assert z.exp().truncate(j) == z.truncate(j).exp()


@given(useries(), st.integers(1, 4))
def test_truncation_consistency_log(a, j):
    j = min(j, a.order)
    unit = a - USeries.const(a.coeff(0) - 1, a.order)
    assert unit.log().truncate(j) == unit.truncate(j).log()


@given(useries(), st.integers(0, 5), st.integers(1, 4))
def test_truncation_consistency_pow(a, e, j):
    j = min(j, a.order)
    assert (a**e).truncate(j) == a.truncate(j) ** e


# -- serialization -----------------------------------------------------------

def test_json_schema():
    s = USeries({0: 2, 3: F(-1, 2)}, 6)
    obj = s.to_json()
    assert obj == {
        "var": "u",
        "u_means": "q^(1/2)",
        "order": 6,
        "coeffs": [[0, "2"], [3, "-1/2"]],
    }


@given(useries())
def test_json_roundtrip(s):
    assert USeries.from_json(s.to_json()) == s


@settings(max_examples=100)
@given(useries(), useries(), invertible_useries(), small_fracs.filter(bool), st.integers(2, 5), st.integers(1, 3))
def test_equal_series_share_one_canonical_form(a, b, c, x, scale, extra):
    """Every way of building a series lands on one stored form: equal values, equal hashes."""
    order = min(a.order, b.order, c.order)
    a, b, c = a.truncate(order), b.truncate(order), c.truncate(order)
    # unreduced Fraction numerators, ints for integral values, explicit zeros
    raw = {k: 0 for k in range(order)}
    for k, v in a.items():
        raw[k] = int(v) if v.denominator == 1 else F(v.numerator * scale, v.denominator * scale)
    longer = USeries({**dict(a.items()), **{order + i: x for i in range(extra)}}, order + extra)
    for same, of in (
        (USeries(raw, order), a),
        ((a + b) - b, a),
        (a * c / c, a),
        (linear_combination([(1, a), (x, b), (-x, b), (0, c)], order), a),
        (longer.truncate(order), a),
        (c.inverse().inverse(), c),
    ):
        assert same == of and hash(same) == hash(of)
        assert all(type(v) is F and v for _, v in same.items())


@pytest.mark.parametrize("zero", [USeries({}, 0), USeries.zero(3)])
def test_zero_series_reads_zero(zero):
    assert zero.constant() == 0 and zero.valuation() is None
    assert zero.is_zero() and list(zero.items()) == []


def test_equality_requires_same_order():
    assert USeries.const(2, 4) != USeries.const(2, 5)


def test_qstring():
    s = USeries({0: 2, 1: 48, 4: F(1, 3)}, 6)
    assert s.qstring() == "2 + 48 q^(1/2) + 1/3 q^2 + O(q^3)"


# -- reading numbers: as_ratio against Fraction ----------------------------------


def read_outcome(read, value):
    """(numerator, denominator) of read(value), or the type of what it raised."""
    try:
        f = read(value)
    except (ValueError, ZeroDivisionError, OverflowError, TypeError) as exc:
        return type(exc)
    return f if isinstance(f, tuple) else (f.numerator, f.denominator)


# Up to 5 characters an exponent over the int(str) limit (4300) leaves no room for a
# mantissa, so Fraction(text) never builds a huge power here; `e` is left out of the
# longer texts for the same reason.
PARSE_TEXTS = st.one_of(
    st.text(alphabet="0123456789-+/ _.eE\t\u0663\uff13", max_size=5),
    st.text(alphabet="0123456789-+/ _.\u0663\uff13", max_size=10),
    st.text(max_size=5),
)


@settings(max_examples=1000)
@given(PARSE_TEXTS)
@example("-0")
@example("+3")
@example(" 3/4")
@example("3/-4")
@example("1/0")
@example("-0/0")
@example("1_0")
@example("\u0661\u0662/\u0663")
@example("\uff13/\uff14")
@example("-12/8")
@example("0006/0004")
@example("0/5")
@example("3/")
@example("/3")
@example("-")
@example("")
@example("1e2")
@example("-1.5E-3")
@example("nan")
@example("e9999")
def test_as_ratio_reads_a_text_as_fraction_does(text):
    assert read_outcome(lambda v: as_ratio(v, "x"), text) == read_outcome(F, text)


@pytest.mark.parametrize("value", [0, -7, 2**70, F(6, -4), F(0), 0.5, -2.75, 1e300, float("nan"), float("inf"), None])
def test_as_ratio_reads_a_number_as_fraction_does(value):
    assert read_outcome(lambda v: as_ratio(v, "x"), value) == read_outcome(F, value)


@pytest.mark.parametrize("value", [True, False])
def test_as_ratio_rejects_a_boolean(value):
    with pytest.raises(ValueError, match="must be a number"):
        as_ratio(value, "x")


def test_an_exponent_beyond_the_int_limit_is_rejected_without_building_the_power():
    # In a child with a timeout: an unbounded parse of these texts would not finish.
    code = """
import sys
from ellgen.series import USeries, as_fraction, as_ratio
limit = sys.get_int_max_str_digits()
for text in ("1e-999999999999", "1E+99999", f"2e{limit + 1}", f" -3.5e-{limit + 1} ", "1e1_000_000"):
    for read in (as_fraction, as_ratio, lambda t, w: USeries.from_json({"order": 1, "coeffs": [[0, t]]})):
        try:
            read(text, "x")
        except ValueError as exc:
            assert "exponent" in str(exc), exc
        else:
            raise AssertionError(text)
assert as_ratio(f"1e-{limit}", "x") == (1, 10**limit) and as_fraction(f"1e{limit}", "x") == 10**limit
print("ok")
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


# -- printing ----------------------------------------------------------------

@pytest.mark.parametrize("n, d", [(0, 1), (0, 7), (5, 1), (-5, 1), (1, 3), (-1, 3), (6, 4), (-6, 4), (-12, 36), (7, 7),
                                  (-3 * 10**40, 6 * 10**20)])
def test_ratio_str_prints_what_fraction_prints(n, d):
    assert ratio_str(n, d) == str(F(n, d))


@given(st.integers(), st.integers(min_value=1))
def test_ratio_str_prints_what_fraction_prints_at_random(n, d):
    assert ratio_str(n, d) == str(F(n, d))


@given(useries())
def test_printed_coefficients_are_those_of_fraction(s):
    assert s.to_json()["coeffs"] == [[k, str(v)] for k, v in s.items()]
    assert [s.coeff_str(k) for k in range(s.order)] == [str(s.coeff(k)) for k in range(s.order)]


def test_ratio_str_refuses_past_the_digit_limit_as_str_does():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the smallest limit there is
    try:
        big = 10**640  # 641 digits
        for n, d in [(big, 1), (-big, 1), (big + 1, 3), (1, 3 * big), (2 * big, 2)]:
            with pytest.raises(ValueError):
                str(F(n, d))
            with pytest.raises(ValueError):
                ratio_str(n, d)
        assert ratio_str(big // 10, 1) == str(big // 10)  # 640 digits: at the limit, not past it
    finally:
        sys.set_int_max_str_digits(limit)
