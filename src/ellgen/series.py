"""Truncated power series in u = q^(1/2) with exact rational coefficients.

Every q-expansion in the package lives in this one ring: series with
integral q-support simply have even u-support.  Coefficients are
`fractions.Fraction` throughout; there is no floating point here.

A series carries an explicit truncation order (exclusive bound on the
u-exponent).  Binary operations truncate to the minimum of the two orders,
and two series are equal iff their orders and all coefficients agree.
`_RingOps` gives this class and the graded containers of `chern` their one
`-` and `**`; `weighted_product` is the one weight-checked infinite product.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Mapping, Tuple, Union

from .errors import BadConstantTerm, WeightViolation, ZeroConstantTerm

Scalar = Union[int, Fraction]

_ENV_ORDER = "GENUS_DEFAULT_UORDER"


def default_uorder() -> int:
    """Default truncation order in u (q-order 12), overridable via env."""
    raw = os.environ.get(_ENV_ORDER)
    if raw is None:
        return 24
    order = int(raw)
    if order < 1:
        raise ValueError(f"{_ENV_ORDER} must be >= 1, got {raw}")
    return order


class _RingOps:
    """`-` and `**` for a ring class, from its `_coerce`, `+`, unary `-`, `*` and `inverse`.

    `_coerce(other)` lifts a scalar into the class (None when it cannot);
    `_coerce(1)` is the unit that `**` starts from.  A negative power needs
    `inverse`.
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
        if not isinstance(e, int):
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


class USeries(_RingOps):
    """Immutable truncated series sum_k c_k u^k with c_k in Q, 0 <= k < order."""

    __slots__ = ("order", "_c")

    def __init__(self, coeffs: Mapping[int, Scalar] = (), order: int | None = None):
        if order is None:
            order = default_uorder()
        if order < 0:
            raise ValueError("order must be nonnegative")
        self.order = order
        c: dict[int, Fraction] = {}
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for k, v in items:
            if k < 0:
                raise ValueError(f"negative u-exponent {k}")
            if k >= order:
                continue
            v = Fraction(v)
            if v:
                c[k] = v
        self._c = c

    @classmethod
    def _raw(cls, c: dict[int, Fraction], order: int) -> "USeries":
        """Wrap coefficients that are already reduced nonzero Fractions below `order`.

        Internal results are built this way; the public constructor still
        normalizes outside input (ints, unreduced values, zeros).
        """
        out = cls.__new__(cls)
        out.order = order
        out._c = c
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value: Scalar, order: int | None = None) -> "USeries":
        return cls({0: value}, order)

    @classmethod
    def zero(cls, order: int | None = None) -> "USeries":
        return cls({}, order)

    @classmethod
    def one(cls, order: int | None = None) -> "USeries":
        return cls({0: 1}, order)

    @classmethod
    def monomial(cls, k: int, value: Scalar = 1, order: int | None = None) -> "USeries":
        return cls({k: value}, order)

    # -- inspection --------------------------------------------------------

    def coeff(self, k: int) -> Fraction:
        """Coefficient of u^k.  Asking at or beyond the order is an error."""
        if k >= self.order:
            raise ValueError(f"coefficient u^{k} beyond truncation order {self.order}")
        return self._c.get(k, Fraction(0))

    def items(self) -> Iterator[Tuple[int, Fraction]]:
        return iter(sorted(self._c.items()))

    def support(self) -> list[int]:
        return sorted(self._c)

    def is_zero(self) -> bool:
        return not self._c

    def valuation(self) -> int | None:
        """Smallest exponent with nonzero coefficient, or None for 0."""
        return min(self._c) if self._c else None

    def is_even_support(self) -> bool:
        return all(k % 2 == 0 for k in self._c)

    def constant(self) -> Fraction:
        return self._c.get(0, Fraction(0))

    # -- ring structure ----------------------------------------------------

    def truncate(self, order: int) -> "USeries":
        if order >= self.order:
            if order == self.order:
                return self
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return USeries._raw({k: v for k, v in self._c.items() if k < order}, order)

    def _coerce(self, other) -> "USeries | None":
        if isinstance(other, USeries):
            return other
        if isinstance(other, (int, Fraction)):
            return USeries.const(other, self.order)
        return None

    def __add__(self, other) -> "USeries":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        order = min(self.order, o.order)
        c = {k: v for k, v in self._c.items() if k < order}
        for k, v in o._c.items():
            if k < order:
                if k in c:
                    v += c[k]
                    if not v:
                        del c[k]
                        continue
                c[k] = v
        return USeries._raw(c, order)

    __radd__ = __add__

    def __neg__(self) -> "USeries":
        return USeries._raw({k: -v for k, v in self._c.items()}, self.order)

    def __mul__(self, other) -> "USeries":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        order = min(self.order, o.order)
        a = [(k, v) for k, v in self._c.items() if k < order]
        b = sorted((k, v) for k, v in o._c.items() if k < order)
        if not a or not b:
            return USeries.zero(order)
        # Convolve integer numerators over the common denominators da and db
        # of the two operands; one Fraction (one gcd) per output coefficient.
        da = lcm(*(v.denominator for _, v in a))
        db = lcm(*(v.denominator for _, v in b))
        bn = [(k, v.numerator * (db // v.denominator)) for k, v in b]
        acc: dict[int, int] = {}
        for k1, v1 in a:
            v1 = v1.numerator * (da // v1.denominator)
            for k2, v2 in bn:
                k = k1 + k2
                if k >= order:
                    break
                acc[k] = acc.get(k, 0) + v1 * v2
        d = da * db
        return USeries._raw({k: Fraction(v, d) for k, v in acc.items() if v}, order)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "USeries":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of series by zero scalar")
            return self * (Fraction(1) / Fraction(other))
        if isinstance(other, USeries):
            return self * other.inverse()
        return NotImplemented

    def inverse(self) -> "USeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        a0 = self.constant()
        if not a0:
            raise ZeroConstantTerm("series has zero constant term")
        order = self.order
        inv0 = Fraction(1) / a0
        out = [Fraction(0)] * max(order, 1)
        out[0] = inv0
        a = [Fraction(0)] * order
        for k, v in self._c.items():
            a[k] = v
        for n in range(1, order):
            acc = Fraction(0)
            for k in range(1, n + 1):
                if a[k]:
                    acc += a[k] * out[n - k]
            if acc:
                out[n] = -inv0 * acc
        return USeries._raw({k: v for k, v in enumerate(out) if v}, order)

    # Bound here, not only inherited: the benchmark tracer patches a method
    # only where the owner's own class dict binds it.
    __pow__ = _RingOps.__pow__

    def exp(self) -> "USeries":
        """exp of a series with zero constant term."""
        if self.constant():
            raise BadConstantTerm("exp requires zero constant term")
        order = self.order
        result = USeries.one(order)
        term = USeries.one(order)
        k = 1
        while not (term := term * self / k).is_zero():
            result = result + term
            k += 1
        return result

    def log(self) -> "USeries":
        """log of a series with constant term 1."""
        if self.constant() != 1:
            raise BadConstantTerm("log requires constant term 1")
        m = self - 1
        order = self.order
        result = USeries.zero(order)
        power = USeries.one(order)
        k = 1
        sign = 1
        while not (power := power * m).is_zero():
            result = result + power * Fraction(sign, k)
            k += 1
            sign = -sign
        return result

    # -- equality / hashing ------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, USeries):
            return NotImplemented
        return self.order == other.order and self._c == other._c

    def __hash__(self) -> int:
        return hash((self.order, frozenset(self._c.items())))

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "var": "u",
            "u_means": "q^(1/2)",
            "order": self.order,
            "coeffs": [[k, str(v)] for k, v in self.items()],
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "USeries":
        if obj.get("var", "u") != "u":
            raise ValueError(f"unsupported series variable {obj.get('var')!r}")
        order = int(obj["order"])
        coeffs = {int(k): Fraction(v) for k, v in obj["coeffs"]}
        return cls(coeffs, order)

    def qstring(self) -> str:
        """Human-readable expansion in powers of q (u^2 = q)."""
        if self.is_zero():
            return "0" + _qtail(self.order)
        parts = []
        for k, v in self.items():
            mono = _qpower(k)
            if mono == "1":
                term = str(v)
            elif v == 1:
                term = mono
            elif v == -1:
                term = f"-{mono}"
            else:
                term = f"{v} {mono}"
            if parts and not term.startswith("-"):
                parts.append(f"+ {term}")
            elif parts:
                parts.append(f"- {term[1:]}")
            else:
                parts.append(term)
        return " ".join(parts) + _qtail(self.order)

    def __repr__(self) -> str:
        return f"USeries({dict(self.items())}, order={self.order})"


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


def linear_combination(terms: Iterable[Tuple[Scalar, USeries]], order: int) -> USeries:
    """sum_i a_i s_i truncated at `order`, for scalars a_i and series s_i.

    Every product is accumulated as an integer numerator over one common
    denominator, so each output coefficient costs one Fraction (one gcd).
    """
    rows = []
    for a, s in terms:
        items = [(k, v) for k, v in s._c.items() if k < order]
        if a and items:
            d = lcm(*(v.denominator for _, v in items))
            rows.append((a.numerator, a.denominator * d, d, items))
    if not rows:
        return USeries.zero(order)
    den = lcm(*(row[1] for row in rows))
    acc: dict[int, int] = {}
    for an, ad, d, items in rows:
        scale = an * (den // ad)
        for k, v in items:
            acc[k] = acc.get(k, 0) + scale * v.numerator * (d // v.denominator)
    return USeries._raw({k: Fraction(v, den) for k, v in acc.items() if v}, order)


def weighted_product(factors: Iterable[Tuple[int, _RingOps]], one: _RingOps, order: int):
    """Product of `one` and an infinite family of factors, truncated at u-order `order`.

    `factors` yields (weight, factor) pairs with strictly increasing weights;
    each factor must equal 1 + O(u^weight).  Only factors of weight < order
    contribute, so a lazy generator terminates after finitely many terms and
    the result does not depend on the rest of the family.  The factors may be
    any ring class here with a u-`valuation` (`USeries`, `RootSeries`, ...).
    """
    result = one
    last_weight = None
    for weight, factor in factors:
        if last_weight is not None and weight <= last_weight:
            raise WeightViolation(
                f"factor weights must strictly increase ({weight} after {last_weight})"
            )
        last_weight = weight
        if weight >= order:
            break
        val = (factor - 1).valuation()
        if val is not None and val < weight:
            raise WeightViolation(
                f"factor deviates from 1 at u^{val}, below declared weight {weight}"
            )
        result = result * factor
    return result
