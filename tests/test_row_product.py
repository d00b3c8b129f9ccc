"""`series.row_product`, the one integer matrix-vector product, against a plain dot product.

The product packs every column of a `RowView` into one int, in fields of a
width W chosen per call from W >= bits(max |entry|) + bits(sum |vec|) + 1,
so the draws below sit on the edges of that bound: entries +-(2^a - 1),
sums of |vec| at 2^b - 1 and at exact powers of two, a + b a multiple of 64
(where rounding W up to 64 bits leaves no slack), rows whose sum reaches the
bound, the zero vector, views with no nonzero rows, and numerators near 10^300.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellgen.series import RowView, USeries, row_product, row_view


def plain_product(rows, vec, order):
    acc = [0] * order
    for k, row in rows:
        acc[k] = sum(x * y for x, y in zip(vec, row))
    return acc


@st.composite
def sized_vectors(draw, ncols, b):
    """A vector of `ncols` signed ints whose |entries| sum to a number of exactly b bits."""
    if b == 0:
        total = 0
    else:
        total = draw(st.sampled_from([(1 << b) - 1, 1 << (b - 1), None]))
        if total is None:
            total = draw(st.integers(1 << (b - 1), (1 << b) - 1))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=ncols - 1, max_size=ncols - 1)))
    parts = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, total])]
    return [p * draw(st.sampled_from([1, -1])) for p in parts]


@st.composite
def kernel_cases(draw):
    """(rows, vec, order) with every |entry| < 2^a, one of them 2^a - 1, and sum |vec| of b bits."""
    ncols = draw(st.integers(1, 5))
    a = draw(st.integers(0, 1000))
    b = draw(st.one_of(st.integers(0, 1000), st.integers(1, 33).map(lambda m: max(64 * m - a, 0))))
    vec = draw(sized_vectors(ncols, b))
    top = (1 << a) - 1
    step = draw(st.sampled_from([1, 2, 3]))
    ks = sorted(draw(st.sets(st.integers(0, 12), max_size=6)))
    entry = st.one_of(st.sampled_from([top, -top, 0, top >> 1]), st.integers(-top, top))
    rows = []
    for k in ks:
        if draw(st.booleans()):  # every entry at the top, signed as vec: the field sum reaches the bound
            row = tuple(top if v >= 0 else -top for v in vec)
        else:
            row = tuple(draw(entry) for _ in range(ncols))
        rows.append((k * step, row))
    if rows and a:
        k, row = rows[0]
        rows[0] = (k, (top, *row[1:]))  # bits(max |entry|) is exactly a
    order = (ks[-1] * step + 1 if ks else 0) + draw(st.integers(0, 3))
    return tuple(rows), vec, order


@given(kernel_cases(), st.data())
@settings(max_examples=300)
def test_packed_product_matches_a_plain_dot_product(case, data):
    rows, vec, order = case
    view = RowView(rows, 7)
    assert view == (rows, 7) and tuple(view) == (rows, 7)
    assert row_product(view, vec, order) == plain_product(rows, vec, order)
    # the same view again, at a narrower and a wider vector: the memo keeps the widest packing only
    for scale in (0, 1, data.draw(st.integers(2, 2**400))):
        other = [v * scale for v in vec]
        assert row_product(view, other, order) == plain_product(rows, other, order)
    width, _, cols = view.packed
    assert len(cols) == (len(vec) if rows else 0) and width % 64 == 0


def test_edge_views():
    for vec in ([0, 0], [3, -5]):
        assert row_product(RowView((), 1), vec, 4) == [0, 0, 0, 0]  # no rows at all
        zero_rows = ((0, (0, 0)), (2, (0, 0)))
        assert row_product(RowView(zero_rows, 1), vec, 3) == [0, 0, 0]  # rows that are all zero
        single = ((5, (2**64 - 1, -(2**63))),)
        assert row_product(RowView(single, 1), vec, 6) == plain_product(single, vec, 6)
    assert row_view([USeries.zero(5), USeries.zero(5)]) == ((), 1)


@given(st.lists(st.lists(st.integers(10**300 - 10**6, 10**300), min_size=4, max_size=4), min_size=1, max_size=3),
       st.lists(st.integers(-(10**300), 10**300), min_size=3, max_size=3), st.integers(1, 10**6))
def test_numerators_near_a_googol_cubed(cols, vec, den):
    series = [USeries({k: F(x * (-1) ** k, den + j) for k, x in enumerate(col)}, 4) for j, col in enumerate(cols)]
    view = row_view(series)
    rows, vden = view
    vec = vec[: len(cols)]
    assert row_product(view, vec, 4) == plain_product(rows, vec, 4)
    want = [sum((v * s.coeff(k) for v, s in zip(vec, series)), F(0)) for k in range(4)]
    assert [F(x, vden) for x in row_product(view, vec, 4)] == want


@pytest.mark.parametrize("bits", [40, 200], ids=["one-word", "four-words"])
def test_long_views_unpack_by_words(bits):
    # above 32 fields the packed sum is read as 64-bit words: W = 64 packs each column through struct
    rows = tuple((k, (k - 500, (-1) ** k * (2**bits - k))) for k in range(0, 2000, 2))
    vec = [2**20 - 1, -3]
    view = RowView(rows, 1)
    assert row_product(view, vec, 2001) == plain_product(rows, vec, 2001)
    assert view.packed[0] == (64 if bits == 40 else 256)
