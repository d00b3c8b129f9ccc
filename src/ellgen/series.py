"""Truncated power series in u = q^(1/2) with exact rational coefficients.

Every q-expansion in the package lives in this one ring: series with
integral q-support simply have even u-support.  A series is stored as
integer numerators, one per exponent below its truncation order, over one
positive denominator, reduced after every operation so that the pair is
canonical; there is no floating point here, and a `fractions.Fraction` is
built, and `fractions` imported, only when a coefficient is read as one:
`ratio_str` prints a coefficient from the integers.

The truncation order is an exclusive bound on the u-exponent.  Binary
operations truncate to the minimum of the two orders, and two series are
equal iff their orders and all coefficients agree.
`_RingOps` gives the ring classes of `series`, `chern` and `bundles` one `-`,
`**` and `exp`; `RowView` and `row_product` are the one integer matrix-vector
product, over Kronecker-packed columns.
"""

from __future__ import annotations

import re
import sys
from itertools import repeat
from math import gcd, lcm
from operator import add, lshift, mul
from struct import pack, unpack
from typing import Iterable, Iterator, Mapping, Tuple, Union

from .errors import BadConstantTerm, ZeroConstantTerm

Scalar = Union[int, "Fraction"]  # fractions.Fraction, imported where one is built

DEFAULT_UORDER = 24  # the default truncation order in u (q-order 12)
_EXPONENT = r"[eE]([-+]?[\d_]+)\s*\Z"  # the exponent of a Fraction text, compiled on first use


def as_int(value, what: str) -> int:
    """`value` read as an int: 8, 8.0 and "8" parse; 8.7 and the bool True are ValueErrors."""
    out = int(value)
    if isinstance(value, bool) or (not isinstance(value, str) and out != value):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return out


def as_fraction(value, what: str) -> Fraction:
    """`value` read as a Fraction: the bool True is a ValueError, not the number 1, and so is a
    text whose exponent exceeds `sys.get_int_max_str_digits()` (Fraction would build 10**e)."""
    if isinstance(value, bool):
        raise ValueError(f"{what} must be a number, got {value!r}")
    limit = sys.get_int_max_str_digits()
    if isinstance(value, str) and limit and (m := re.search(_EXPONENT, value)):
        if abs(int(m[1])) > limit:  # an exponent int() cannot read is one Fraction rejects too
            raise ValueError(f"{what} has an exponent beyond the {limit}-digit limit of int()")
    from fractions import Fraction
    return Fraction(value)


def as_ratio(value, what: str) -> tuple[int, int]:
    """`value` as a reduced (numerator, denominator > 0) pair, with the values and errors of
    `as_fraction`: an int, or an ASCII text -?[0-9]+(/[0-9]+)?, is read by int(), the rest by Fraction."""
    if type(value) is int:
        return value, 1
    if type(value) is str and value.isascii():
        num, slash, den = value.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        # a zero denominator falls through: Fraction raises its own ZeroDivisionError
        if digits.isdigit() and (den.isdigit() or not slash) and (q := int(den or 1)):
            p = int(num)
            g = gcd(p, q)
            return p // g, q // g
    f = as_fraction(value, what)
    return f.numerator, f.denominator


def ratio_str(n: int, d: int) -> str:
    """str(Fraction(n, d)) for ints n and d > 0, in integers: "p/q" in lowest terms, "p" when q = 1.
    Past `sys.get_int_max_str_digits()` digits it raises ValueError, as str() does."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _is_scalar(x) -> bool:
    """x is an int or a Fraction, told apart without importing `fractions`: no Fraction exists before it is."""
    return isinstance(x, int) or ((f := sys.modules.get("fractions")) is not None and isinstance(x, f.Fraction))


class _RingOps:
    """`-`, `**` and `exp` for a ring class, from its `_coerce`, `+`, unary `-`, `*` and `inverse`.

    `_coerce(other)` lifts a scalar into the class (None when it cannot);
    `_coerce(1)` is the unit that `**` and `exp` start from.  A negative power
    needs `inverse`; a class without one has none.  `exp` needs the hook
    `_has_constant` and terms that vanish once their power is high enough.
    """

    __slots__ = ()

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __pow__(self, e: int):
        if not isinstance(e, int) or (e < 0 and not hasattr(self, "inverse")):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        result = self._coerce(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def exp(self):
        """exp of an element with zero constant part: its Taylor sum, which ends at the first zero term."""
        if self._has_constant():
            raise BadConstantTerm("exp requires zero constant term")
        from fractions import Fraction
        result = term = self._coerce(1)
        k = 1
        while not (term := term * self * Fraction(1, k)).is_zero():
            result = result + term
            k += 1
        return result


class USeries(_RingOps):
    """Immutable truncated series sum_k (_n[k] / _d) u^k, 0 <= k < order = len(_n).

    The numerators `_n` are ints and the denominator `_d` is a positive int
    with gcd(_d, *_n) == 1, so the pair is canonical: `==` and `hash`
    compare it directly, and a Fraction is built only when a coefficient is
    read.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, coeffs: Mapping[int, Scalar] = (), order: int = DEFAULT_UORDER):
        if order < 0:
            raise ValueError("order must be nonnegative")
        c: dict[int, Scalar] = {}
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for k, v in items:
            if k < 0:
                raise ValueError(f"negative u-exponent {k}")
            if k < order:
                if type(v) is not int:  # a Fraction, or what Fraction() reads: 0.5, "1/3", True
                    from fractions import Fraction
                    v = Fraction(v)
                c[k] = v
        # Over the lcm of reduced denominators the numerators share no factor
        # with it: the denominator of largest p-power keeps p out of its term.
        d = lcm(*(v.denominator for v in c.values()))
        n = [0] * order
        for k, v in c.items():
            n[k] = v.numerator * (d // v.denominator)
        self._n = tuple(n)
        self._d = d

    @classmethod
    def _make(cls, numerators, den: int) -> "USeries":
        """The series numerators[k] / den (den > 0), reduced to the canonical pair."""
        out = cls.__new__(cls)
        out._n, out._d = reduce_ratio(numerators, den)
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value: Scalar, order: int = DEFAULT_UORDER) -> "USeries":
        return cls({0: value}, order)

    @classmethod
    def zero(cls, order: int = DEFAULT_UORDER) -> "USeries":
        return cls({}, order)

    @classmethod
    def one(cls, order: int = DEFAULT_UORDER) -> "USeries":
        return cls({0: 1}, order)

    # -- inspection --------------------------------------------------------

    @property
    def order(self) -> int:
        """Exclusive bound on the u-exponent."""
        return len(self._n)

    def coeff(self, k: int) -> Fraction:
        """Coefficient of u^k.  Asking at or beyond the order is an error."""
        if k >= self.order:
            raise ValueError(f"coefficient u^{k} beyond truncation order {self.order}")
        from fractions import Fraction
        return Fraction(self._n[k], self._d) if k >= 0 else Fraction(0)

    def items(self) -> Iterator[Tuple[int, Fraction]]:
        from fractions import Fraction
        d = self._d
        return ((k, Fraction(v, d)) for k, v in enumerate(self._n) if v)

    def coeff_str(self, k: int) -> str:
        """str(self.coeff(k)) for 0 <= k < order, printed from the integers by `ratio_str`."""
        return ratio_str(self._n[k], self._d)

    def support(self) -> list[int]:
        return [k for k, v in enumerate(self._n) if v]

    def is_zero(self) -> bool:
        return not any(self._n)

    def valuation(self) -> int | None:
        """Smallest exponent with nonzero coefficient, or None for 0."""
        return next((k for k, v in enumerate(self._n) if v), None)

    def is_even_support(self) -> bool:
        return not any(self._n[1::2])

    def constant(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self._n[0], self._d) if self._n else Fraction(0)

    def _has_constant(self) -> bool:
        return any(self._n[:1])

    # -- ring structure ----------------------------------------------------

    def truncate(self, order: int) -> "USeries":
        if order >= self.order:
            if order == self.order:
                return self
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return USeries._make(self._n[:order], self._d)

    def _coerce(self, other) -> "USeries | None":
        if isinstance(other, USeries):
            return other
        if _is_scalar(other):
            return USeries.const(other, self.order)
        return None

    def __add__(self, other) -> "USeries":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = lcm(self._d, o._d)
        sa, sb = d // self._d, d // o._d
        return USeries._make([a * sa + b * sb for a, b in zip(self._n, o._n)], d)

    __radd__ = __add__

    def __neg__(self) -> "USeries":
        return USeries._make([-v for v in self._n], self._d)

    def __mul__(self, other) -> "USeries":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        order = min(self.order, o.order)
        acc = [0] * order
        b = [(k, v) for k, v in enumerate(o._n[:order]) if v]
        for k1, v1 in enumerate(self._n[:order]):
            if v1:
                for k2, v2 in b:
                    k = k1 + k2
                    if k >= order:
                        break
                    acc[k] += v1 * v2
        return USeries._make(acc, self._d * o._d)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "USeries":
        if _is_scalar(other):
            if other == 0:
                raise ZeroDivisionError("division of series by zero scalar")
            from fractions import Fraction
            return self * (Fraction(1) / Fraction(other))
        if isinstance(other, USeries):
            return self * other.inverse()
        return NotImplemented

    def inverse(self) -> "USeries":
        """Multiplicative inverse; requires a nonzero constant term.

        With self = N / d and N = sum_j n_j u^j, 1/N = sum_k C_k u^k / n_0^(k+1)
        for C_0 = 1 and C_k = -sum_(j=1..k) n_j n_0^(j-1) C_(k-j), so the
        inverse is sum_k d C_k n_0^(order-1-k) u^k over n_0^order.
        """
        if not self._has_constant():
            raise ZeroConstantTerm("series has zero constant term")
        n, d, order = self._n, self._d, self.order
        n0 = n[0]
        if n0 < 0:  # keep the denominator n0^order positive
            n, d, n0 = [-v for v in n], -d, -n0
        p = [(j, v * n0 ** (j - 1)) for j, v in enumerate(n) if v and j]
        c = [1] * order
        for k in range(1, order):
            acc = 0
            for j, pj in p:
                if j > k:
                    break
                acc += pj * c[k - j]
            c[k] = -acc
        return USeries._make([d * ck * n0 ** (order - 1 - k) for k, ck in enumerate(c)], n0**order)

    # Bound here, not only inherited: the benchmark tracer patches only the owner's class dict.
    __pow__ = _RingOps.__pow__

    def log(self) -> "USeries":
        """log of a series with constant term 1."""
        if self._n[:1] != (self._d,):  # the canonical pair of a constant term 1
            raise BadConstantTerm("log requires constant term 1")
        from fractions import Fraction
        m, result, power, k = self - 1, USeries.zero(self.order), USeries.one(self.order), 1
        while not (power := power * m).is_zero():
            result = result + power * Fraction((-1) ** (k - 1), k)
            k += 1
        return result

    # -- equality / hashing ------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, USeries):
            return NotImplemented
        return self._d == other._d and self._n == other._n

    def __hash__(self) -> int:
        return hash((self._d, self._n))

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "var": "u",
            "u_means": "q^(1/2)",
            "order": self.order,
            "coeffs": [[k, self.coeff_str(k)] for k in self.support()],
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "USeries":
        if obj.get("var", "u") != "u":
            raise ValueError(f"unsupported series variable {obj.get('var')!r}")
        order = as_int(obj["order"], "order")
        coeffs = {as_int(k, "u-exponent"): as_fraction(v, "coefficient") for k, v in obj["coeffs"]}
        return cls(coeffs, order)

    def qstring(self) -> str:
        """Human-readable expansion in powers of q (u^2 = q)."""
        if self.is_zero():
            return "0" + _qtail(self.order)
        terms = []
        for k in self.support():
            v, mono = self.coeff_str(k), _qpower(k)
            if mono == "1":
                terms.append(v)
            elif v == "1":
                terms.append(mono)
            elif v == "-1":
                terms.append(f"-{mono}")
            else:
                terms.append(f"{v} {mono}")
        return signed_sum(terms) + _qtail(self.order)

    def __repr__(self) -> str:
        return f"USeries({dict(self.items())}, order={self.order})"


def signed_sum(terms: Iterable[str]) -> str:
    """The terms joined as "a + b - c": a term's leading "-" becomes the sign before it."""
    terms = iter(terms)
    return next(terms, "") + "".join(f" - {t[1:]}" if t[:1] == "-" else f" + {t}" for t in terms)


def _qpower(k: int) -> str:
    if k == 0:
        return "1"
    if k == 2:
        return "q"
    if k % 2 == 0:
        return f"q^{k // 2}"
    return f"q^({k}/2)"


def _qtail(order: int) -> str:
    return f" + O({_qpower(order)})" if order > 0 else " + O(1)"


def reduce_ratio(numerators, den: int) -> tuple[tuple[int, ...], int]:
    """The vector numerators / den (den > 0) as its canonical pair: gcd(den, *numerators) == 1."""
    g = gcd(den, *numerators)
    if g == 1:
        return tuple(numerators), den
    return tuple(map(g.__rfloordiv__, numerators)), den // g


def divisor_sums(uorder: int, first: int, step: int, term) -> list[int]:
    """t with t[N] = sum of term(r) over r >= 1 with N/r in {first, first + step, ...}, N < uorder:
    one sieve over r, O(uorder log uorder) additions, not a trial division per N."""
    t = [0] * uorder
    for r in range(1, (uorder - 1) // first + 1):
        v = term(r)
        for N in range(first * r, uorder, step * r):
            t[N] += v
    return t


def combine(terms, size: int) -> tuple[list[int], int]:
    """sum_i a_i v_i over one lcm denominator, not reduced, for (a_i, v_i) pairs of an int or
    Fraction a_i and a vector v_i = (numerators, den); entries past `size` are dropped."""
    rows = [(a, v) for a, v in terms if a]
    den = lcm(*(a.denominator * d for a, (_, d) in rows))
    out = [0] * size
    for a, (nums, d) in rows:
        scale = a.numerator * (den // (a.denominator * d))
        for i, x in enumerate(nums[:size]):
            if x:
                out[i] += scale * x
    return out, den


def linear_combination(terms: Iterable[Tuple[Scalar, USeries]], order: int, den: int = 1) -> USeries:
    """sum_i a_i s_i / den truncated at `order`, for scalars a_i, series s_i and an int den > 0."""
    nums, d = combine(((a, (s._n, s._d)) for a, s in terms), order)
    return USeries._make(nums, d * den)


class RowView(tuple):
    """(rows, den): integer u-rows (k, [u^k] of every column) over one den, compared and
    unpacked as that pair; `row_product` memoizes on it the columns Kronecker-packed."""

    def __new__(cls, rows, den: int):
        view = super().__new__(cls, (rows, den))
        view.top = max((abs(x) for _, row in rows for x in row), default=0).bit_length()
        view.step = gcd(*(k for k, _ in rows)) or 1  # 2 for series in q = u^2: row k is field k/step
        view.packed = (0, 0, ())  # (W, bias, columns) at the widest W yet needed
        return view


def row_view(cols: list[USeries]) -> RowView:
    """The nonzero u-rows of `cols`, each (k, integer [u^k] of every column), over one den."""
    den = lcm(*(s._d for s in cols))
    rows = zip(*([v * (den // s._d) for v in s._n] for s in cols))
    return RowView(tuple((k, row) for k, row in enumerate(rows) if any(row)), den)


def row_product(view: RowView, vec, order: int) -> list[int]:
    """[u^k] of sum_j vec[j] column_j times the view's den, k < order, from the packed columns
    C_j = sum_i (field i of column j) 2^(W i) (Kronecker; Harvey, J. Symbolic Comput. 44, 2009).

    With a = bits(max |entry|) and b = bits(sum_j |vec[j]|), a field sum s_i = sum_j vec[j] (field
    i of column j) has |s_i| <= (2^a - 1)(2^b - 1) < 2^(a+b) <= 2^(W-1) once W >= a + b + 1.  So
    with h = 2^(W-1) in every field, bias + sum_j vec[j] C_j = sum_i (s_i + h) 2^(W i) has every
    field s_i + h in [1, 2^W - 1]: none carries into the next, at any size.  W is a multiple of
    64, so an entry packs as one fixed-width `to_bytes`, or a column as one `struct.pack` at W = 64.
    """
    rows, step, acc = view[0], view.step, [0] * order
    if not rows:
        return acc
    width, bias, cols = view.packed
    size = rows[-1][0] // step + 1
    if (need := view.top + sum(map(abs, vec)).bit_length() + 1) > width:
        width = -(-need // 64) * 64
        half, w8 = 1 << (width - 1), width // 8
        bias = int.from_bytes(half.to_bytes(w8, "little") * size, "little")
        dense = [(0,) * len(rows[0][1])] * size
        for k, row in rows:
            dense[k // step] = row
        if width == 64:  # one-word fields: struct packs a column in C, as two's complements
            cols = [(int.from_bytes(pack(f"<{size}q", *col), "little") ^ bias) - bias for col in zip(*dense)]
        else:
            cols = [int.from_bytes(b"".join([(x + half).to_bytes(w8, "little") for x in col]), "little") - bias
                    for col in zip(*dense)]
        view.packed = width, bias, cols
    acc[: size * step : step] = _fields(sum(map(mul, vec, cols), bias), bias, width, size)
    return acc


def _fields(packed: int, bias: int, width: int, count: int) -> list[int]:
    """The `count` width-bit fields of `packed`, low first, each less its bias 2^(width-1), in time
    linear in the size: shifted off one by one up to 32 fields, above that read as 64-bit limbs."""
    if count <= 32:
        half, mask, out = 1 << (width - 1), (1 << width) - 1, []
        for _ in range(count):
            out.append((packed & mask) - half)
            packed >>= width
        return out
    # flipping each field's top bit turns s + 2^(width-1) into the two's complement of s
    raw, step = (packed ^ bias).to_bytes(count * width // 8, "little"), width // 64
    out, low = list(unpack(f"<{count * step}q", raw)[step - 1 :: step]), unpack(f"<{count * step}Q", raw)
    for i in range(step - 2, -1, -1):  # each field from its signed top word down
        out = list(map(add, map(lshift, out, repeat(64)), low[i::step]))
    return out
