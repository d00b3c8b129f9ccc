"""The integer row kernels of the modular sweep against term-major references.

`genus`, `pair`, `expand_in_basis` and `reconstruct_ell1` run as integer row
products over one denominator.  The references below are their earlier
term-major forms, one `linear_combination` of `USeries` per step, kept here
as oracles: every output must be the same canonical series, the same
coordinates or the same error message.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction as F
from functools import lru_cache
from itertools import cycle
from math import gcd, lcm
from pathlib import Path

import pytest

from ellgen.chern import Manifold, PontPoly, ch_tangent, genus_class, pair, partitions_of
from ellgen.errors import ResidualNonzero
from ellgen.genera import ahat_class, genus, twisted_ahat_series
from ellgen.modular import (
    ModBasisDecomp, _basis, delta1, delta2, eps1, eps2, expand_in_basis, reconstruct_ell1,
)
from ellgen.pontryagin import genus_columns, partition_from_str, partition_to_str
from ellgen.series import USeries, linear_combination
from ellgen.theta import GenusKind, genus_root_series

UORDERS = (1, 2, 3, 5, 12, 24, 48)


# -- references ----------------------------------------------------------------


@lru_cache(maxsize=None)
def ref_class(kind, n, uorder):
    """The genus class from the theta product, through the log recursion: no genus column memo."""
    return genus_class(genus_root_series(kind, 2 * n + 2, uorder), n)


def ref_pair(c, m):
    cols = dict(c.items())
    return linear_combination(((num, cols[lam]) for lam, num in m.pont.items() if lam in cols), c.uorder)


def ref_basis2(n, r, uorder):
    return (delta2(uorder) * 8) ** (n - 2 * r) * eps2(uorder) ** r


def ref_basis1(n, r, uorder):
    return (delta1(uorder) * 8) ** (n - 2 * r) * eps1(uorder) ** r


def ref_expand(e2, n):
    rmax = n // 2
    if e2.order < rmax + 1:
        raise ValueError(f"series order {e2.order} too small, need >= {rmax + 1}")
    h, resid = [], e2
    for r in range(rmax + 1):
        basis = ref_basis2(n, r, e2.order)
        hr = resid.coeff(r) / basis.coeff(r)
        h.append(hr)
        resid = linear_combination(((1, resid), (-hr, basis)), e2.order)
    if not resid.is_zero():
        k = resid.valuation()
        raise ResidualNonzero(f"series is not in the modular span: residual {resid.coeff(k)} at u^{k}")
    return ModBasisDecomp(n=n, h=tuple(h))


def ref_reconstruct(d, uorder):
    n = d.n
    return linear_combination(((hr * 4**n, ref_basis1(n, r, uorder)) for r, hr in enumerate(d.h) if hr), uorder)


def outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def same_series(a, b):
    # `==` compares the canonical (numerators, denominator) pair; check it directly too.
    return a == b and a._n == b._n and a._d == b._d and a.order == b.order


# JSON texts on both sides of the int() rule (unreduced, "-0", zero over a denominator)
# and texts only Fraction reads (decimal, exponent, padded).
TEXTS = ("-12/8", "0", "7", "-0", "2.5", "1e2", "-3/9", "0/4", " 5/10", "-1.25E-1", "0006/0004")
# ints, Fractions (one unreduced on input), texts and zeros in one table
MIXED = (3, F(-5, 10), "4/6", 0, "-1.25", F(0), -8, "0/7")


def manifolds(n):
    """Missing partitions, negative numbers, large coprime denominators, an empty table, and
    numbers read from JSON texts and from mixed ints, Fractions, texts and zeros."""
    rng = random.Random(n)
    parts = partitions_of(n)
    primes = (1_000_003, 999_983, 7_919, 104_729, 2**61 - 1)
    texts = {partition_to_str(p): t for p, t in zip(parts, cycle(TEXTS[n % 3:] + TEXTS[:n % 3]))}
    return [
        Manifold("dense", 4 * n, {p: F(rng.randint(-60, 60), rng.randint(1, 6)) for p in parts}),
        Manifold("sparse", 4 * n, {p: F(rng.randint(-9, -1)) for p in parts[::2]}),
        Manifold("coprime", 4 * n, {p: F(rng.randint(-10**12, 10**12), primes[i % 5]) for i, p in enumerate(parts)}),
        Manifold("last", 4 * n, {parts[-1]: F(-7, 3)}),
        Manifold("empty", 4 * n, {}),
        Manifold.from_json({"name": "json", "dim": 4 * n, "pontryagin_numbers": texts}),
        Manifold("mixed", 4 * n, dict(zip(parts, cycle(MIXED[n % 4:] + MIXED[:n % 4])))),
    ]


# -- the grid --------------------------------------------------------------------


@pytest.mark.parametrize("kind", list(GenusKind))
@pytest.mark.parametrize("n", range(1, 9))
def test_sweep_kernels_match_term_major_references(kind, n):
    for uorder in UORDERS:
        cols = ref_class(kind, n, uorder)
        for m in manifolds(n):
            series = genus(m, kind, uorder)
            assert same_series(series, ref_pair(cols, m)), (kind, n, uorder, m.name)
            got, want = outcome(expand_in_basis, series, n), outcome(ref_expand, series, n)
            assert got == want, (kind, n, uorder, m.name)
            if isinstance(want, ModBasisDecomp):
                assert same_series(reconstruct_ell1(got, uorder), ref_reconstruct(want, uorder))
        if kind is GenusKind.ELL2 and uorder > n // 2:
            # Ell_2 always lies in the span, and its coordinates carry Ell_1.
            m = manifolds(n)[0]
            d = expand_in_basis(genus(m, kind, uorder), n)
            assert reconstruct_ell1(d, uorder) == genus(m, GenusKind.ELL1, uorder)


def test_grid_reaches_the_solve_and_both_errors():
    seen = set()
    for kind in GenusKind:
        for n in range(1, 9):
            for uorder in UORDERS:
                got = outcome(expand_in_basis, genus(manifolds(n)[0], kind, uorder), n)
                seen.add(type(got) if isinstance(got, ModBasisDecomp) else got[0])
    assert seen == {ModBasisDecomp, ResidualNonzero, ValueError}


@pytest.mark.parametrize("n", range(1, 9))
def test_residual_is_reported_at_every_coefficient_past_the_solve(n):
    uorder = 24
    m = manifolds(n)[2]
    e2 = genus(m, GenusKind.ELL2, uorder)
    for k in range(n // 2 + 1, uorder):
        bumped = e2 + USeries({k: F(-5, 7)}, uorder)
        want = outcome(ref_expand, bumped, n)
        assert want[0] is ResidualNonzero and want[1].endswith(f" at u^{k}")
        with pytest.raises(ResidualNonzero) as info:
            expand_in_basis(bumped, n)
        assert str(info.value) == want[1]


@pytest.mark.parametrize("n", [1, 2, 5])
def test_reconstruct_accepts_hand_made_coordinates(n):
    d = ModBasisDecomp(n=n, h=tuple(F(r - 1, 3 + r) for r in range(n // 2 + 1)))
    for uorder in UORDERS:
        assert same_series(reconstruct_ell1(d, uorder), ref_reconstruct(d, uorder))


def test_pair_on_a_class_above_the_manifold_weight_pairs_at_every_n():
    top = 5
    c = ahat_class(top, 12) * ch_tangent(top, top, 12)
    assert c.nmax == top
    for n in (3, 1, top, 2, 3):  # out of order, and n repeated after a pairing at another n
        for m in manifolds(n):
            assert same_series(pair(c, m), ref_pair(c, m))


def test_twisted_pairing_matches_the_reference():
    for n in range(1, 5):
        twist = ch_tangent(n, n, 8)
        for m in manifolds(n):
            assert same_series(twisted_ahat_series(m, twist), ref_pair(ahat_class(n, 8) * twist, m))


@pytest.mark.parametrize("uorder", [1, 2, 7, 12, 13, 24])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_row_views_keep_exactly_the_nonzero_rows_at_their_exponents(n, uorder):
    # Ell_1 and the images in the (delta1, eps1) _basis are series in q = u^2: only even rows survive.
    # Ell_2 is a series in u: odd rows are kept, at their own exponents.
    for kind, parity in ((GenusKind.ELL1, {0}), (GenusKind.ELL2, {0, 1})):
        rows, den = genus_columns(kind, n, uorder)
        series = [ref_class(kind, n, uorder).coeff(p) for p in partitions_of(n)]
        kept = [k for k in range(uorder) if any(s.coeff(k) for s in series)]
        assert [k for k, _ in rows] == kept and {k % 2 for k in kept} == parity & set(range(uorder))
        assert all(row == tuple(s.coeff(k) * den for s in series) for k, row in rows)
    rows, den = _basis(delta1, eps1, n, uorder)
    series = [ref_basis1(n, r, uorder) for r in range(n // 2 + 1)]
    kept = [k for k in range(uorder) if any(s.coeff(k) for s in series)]
    assert [k for k, _ in rows] == kept == list(range(0, uorder, 2))
    assert all(row == tuple(s.coeff(k) * den for s in series) for k, row in rows)


def test_manifold_vector_follows_the_partitions_and_pont_is_its_view():
    for n in range(1, 7):
        for m in manifolds(n):
            genus(m, GenusKind.AHAT, 1)
            assert m._vec == tuple(m.pont.get(p, 0) * m._den for p in partitions_of(n))
            assert m._den == lcm(*(v.denominator for v in m.pont.values()))
            assert gcd(m._den, *m._num.values()) == 1 and 0 not in m._num.values()


def test_pair_of_an_empty_class_is_zero():
    c = PontPoly({}, 3, 6)
    assert same_series(pair(c, manifolds(3)[0]), USeries.zero(6))


# -- the partition-key memo ----------------------------------------------------


def test_partition_key_memo_is_bounded_and_shared_between_manifolds():
    assert partition_from_str.cache_info().maxsize is not None
    obj = {"dim": 24, "pontryagin_numbers": {"[" + ",".join(map(str, p)) + "]": "1/3" for p in partitions_of(6)}}
    Manifold.from_json(obj)
    misses = partition_from_str.cache_info().misses
    second = Manifold.from_json({**obj, "pontryagin_numbers": {k: "-2" for k in obj["pontryagin_numbers"]}})
    assert partition_from_str.cache_info().misses == misses
    assert second.pont == {p: -2 for p in partitions_of(6)}


def test_partition_key_memo_keys_on_the_text_not_the_parts():
    # True == 1 and hash(True) == hash(1): a memo keyed on parts would accept "[true]".
    assert partition_from_str("[1]") == (1,)
    for text in ("[true]", "[1.0]", "[1.5]"):
        with pytest.raises(ValueError):
            partition_from_str(text)


# -- one validation for both constructors ----------------------------------------


@pytest.mark.parametrize(
    "dim, pont",
    [(4, {(1.5,): 3}), (8, {(2,): True}), (4, {(True,): 1}), (8.5, {}), (True, {}), (4, {(1,): False})],
    ids=["fractional-part", "boolean-number", "boolean-part", "fractional-dim", "boolean-dim", "boolean-zero"],
)
def test_manifold_constructor_rejects_what_the_json_path_rejects(dim, pont):
    with pytest.raises(ValueError):
        Manifold("x", dim, pont)


def test_manifold_constructor_reads_an_integral_float_dimension():
    m = Manifold("x", 8.0, {(2,): 1, (1.0, 1): F(1, 2)})
    assert type(m.dim) is int and m.dim == 8 and m.n == 2
    assert m.pont == {(2,): 1, (1, 1): F(1, 2)}
    assert all(type(p) is int for key in m.pont for p in key)
    assert genus(m, GenusKind.ELL2, 6) == genus(Manifold("y", 8, m.pont), GenusKind.ELL2, 6)


def test_a_manifold_of_huge_dimension_builds_without_its_partitions():
    # pairing needs partitions_of(n); construction, ==, hash and repr must not ask for it
    code = (
        "from ellgen.chern import Manifold\n"
        "m = Manifold('big', 4 * 10**6)\n"
        "j = Manifold.from_json({'name': 'big', 'dim': 4 * 10**6, 'pontryagin_numbers': {'[1000000]': '-2/4'}})\n"
        "assert m == Manifold('big', 4 * 10**6, {}) and hash(m) == hash(Manifold('big', 4 * 10**6, {}))\n"
        "assert repr(j) == \"Manifold(name='big', dim=4000000, pont={(1000000,): Fraction(-1, 2)})\"\n"
        "print(m.n, j.pont_number([10**6]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1000000", "-1/2"]


@pytest.mark.parametrize("value", [True, False])
def test_series_json_rejects_a_boolean_coefficient(value):
    with pytest.raises(ValueError, match="must be a number"):
        USeries.from_json({"order": 2, "coeffs": [[0, value]]})
