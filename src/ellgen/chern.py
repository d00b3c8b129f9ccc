"""Chern-root calculus: from per-root factors to Pontryagin-class polynomials.

A 4n-manifold enters as its Pontryagin numbers, indexed by partitions of n.
A multiplicative genus enters as one even power series f(x) per formal root;
with log(f/f(0)) = sum_k a_k x^(2k), prod_{j=1}^{2n} f(x_j) equals
G = f(0)^(2n) exp(sum_k a_k s_k), s_k = sum_j x_j^(2k) the power sums.  Its
weight-m part obeys Hirzebruch's recursion m G_m = sum_{k=1}^m k a_k s_k G_(m-k)
(Hirzebruch, Topological Methods, sec. 1; Macdonald, ch. I.2), run in p_1..p_n
with s_k from Newton's identities.  The a_k of an arbitrary f come from a
recursion (`_log_coefficients`), those of the genus columns in closed form
from `theta.genus_log`, with no theta product.  `genus_class` builds the class
up to weight n.  A 4n-manifold sees only its weight-n part: a genus is the
linear map M -> sum_lambda P_lambda(M) col_lambda, and `_pair_rows`, the one
pairing kernel of both genus routes, runs it as one integer matrix-vector
product on a row view of the columns.  `pair` builds that view per call.
`RootSeries` (keys: x-degrees) and `PontPoly` (keys: partitions) share one
ring core, `_Graded`: a dict key -> USeries with the arithmetic written once.
"""

from __future__ import annotations

import json
import operator
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import repeat
from math import lcm
from types import MappingProxyType
from typing import Mapping, Union

from .errors import DimMismatch, NonUnitConstant, OddTermPresent, Record
from .series import (
    Scalar, USeries, _RingOps, as_int, as_ratio, default_uorder, linear_combination, row_product, row_view,
)

Partition = tuple[int, ...]


def partition_key(parts) -> Partition:
    """Canonical partition: weakly decreasing tuple of positive integers."""
    t = tuple(sorted((as_int(p, "partition part") for p in parts), reverse=True))
    if any(p <= 0 for p in t):
        raise ValueError(f"partition parts must be positive: {parts}")
    return t


def weight(p: Partition) -> int:
    return sum(p)


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, parts weakly decreasing."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return ((),)
    out: list[Partition] = []

    def gen(rest: int, maxpart: int, prefix: tuple[int, ...]):
        if rest == 0:
            out.append(prefix)
            return
        for p in range(min(rest, maxpart), 0, -1):
            gen(rest - p, p, prefix + (p,))

    gen(n, n, ())
    return tuple(out)


def partition_to_str(p: Partition) -> str:
    return "[" + ",".join(str(i) for i in p) + "]"


@lru_cache(maxsize=1024)  # keyed on the JSON text: a tuple key would equate (True,) with (1,)
def partition_from_str(s: str) -> Partition:
    parts = json.loads(s)
    if not isinstance(parts, list) or not set(map(type, parts)) <= {int}:
        raise ValueError(f"partition key must be a JSON array of integers: {s!r}")
    return partition_key(parts)


# ---------------------------------------------------------------------------
# Manifolds
# ---------------------------------------------------------------------------


class Manifold(Record):
    """A 4n-dimensional pairing target: name, dimension, Pontryagin numbers.

    The numbers are canonical: nonzero integer numerators `_num` by partition
    of n = dim/4, over `_den`, the lcm of their reduced denominators; `==`
    and `hash` go by that form.  `pont` is a read-only partition -> Fraction
    view of it, built on first read (absent keys read as 0).
    """

    _fields = ("name", "dim", "_num", "_den")

    def __init__(self, name: str, dim: int, pont: Mapping[Partition, Fraction] | None = None):
        self._fill(name, dim, pont or {}, partition_key)

    def _fill(self, name: str, dim, pont: Mapping, read_key) -> None:
        """Check and set the fields, reading each key with `read_key` and each entry once."""
        dim = as_int(dim, "manifold dimension")
        if dim <= 0 or dim % 4:
            raise DimMismatch(f"dimension {dim} is not a positive multiple of 4")
        n = dim // 4
        ratios: dict[Partition, tuple[int, int]] = {}
        for k, v in pont.items():
            key = read_key(k)
            if sum(key) != n:
                raise ValueError(f"partition {key} has weight {sum(key)}, expected {n} for dim {dim}")
            p, q = as_ratio(v, "Pontryagin number")
            if p:
                ratios[key] = p, q
        den = lcm(*(q for _, q in ratios.values()))
        self._set(name, dim, {k: p * (den // q) for k, (p, q) in ratios.items()}, den)

    def _values(self) -> tuple:
        return self.name, self.dim, frozenset(self._num.items()), self._den

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(name={self.name!r}, dim={self.dim!r}, pont={dict(self.pont)!r})"

    @cached_property
    def pont(self) -> Mapping[Partition, Fraction]:
        return MappingProxyType({k: Fraction(v, self._den) for k, v in self._num.items()})

    @property
    def n(self) -> int:
        return self.dim // 4

    def pont_number(self, parts) -> Fraction:
        return self.pont.get(partition_key(parts), Fraction(0))

    def missing_partitions(self) -> list[Partition]:
        return [p for p in partitions_of(self.n) if p not in self._num]

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "dim": self.dim,
            "pontryagin_numbers": {
                partition_to_str(p): str(v) for p, v in sorted(self.pont.items())
            },
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "Manifold":
        if not isinstance(obj, dict) and not isinstance(obj, Mapping):  # dict first: no ABC check
            raise ValueError(f"manifold JSON must be an object, not {type(obj).__name__}")
        m = cls.__new__(cls)
        try:
            m._fill(str(obj.get("name", "")), obj["dim"], obj.get("pontryagin_numbers", {}), partition_from_str)
        except (KeyError, TypeError, AttributeError, ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"malformed manifold JSON: {type(exc).__name__}: {exc}") from exc
        return m


def disjoint_union(a: Manifold, b: Manifold) -> Manifold:
    """Pontryagin numbers add under disjoint union."""
    if a.dim != b.dim:
        raise DimMismatch(f"cannot union dim {a.dim} with dim {b.dim}")
    pont: dict[Partition, Fraction] = dict(a.pont)
    for k, v in b.pont.items():
        pont[k] = pont.get(k, Fraction(0)) + v
    return Manifold(name=f"{a.name}+{b.name}", dim=a.dim, pont=pont)


# ---------------------------------------------------------------------------
# Graded containers: one ring core under RootSeries and PontPoly
# ---------------------------------------------------------------------------


class _Graded(_RingOps):
    """Dict key -> USeries of order `uorder`, kept while the key's grade is <= `_top`.

    A subclass supplies its key rules (`_unit`, the constant term's key; `_key`,
    normalization; `_grade`; `_join`, the key of a product) and maps its own
    truncation bound (`xdeg`, `nmax`, named by `_bound_name`) to `_top`.
    """

    __slots__ = ("_top", "uorder", "_c")

    _unit: object
    _bound_name: str

    def __init__(self, coeffs: Mapping, top: int, uorder: int):
        self._top = top
        self.uorder = uorder
        c = {}
        for k, s in coeffs.items():
            k = self._key(k)
            if self._grade(k) > top:
                continue
            if s.order != uorder:
                if s.order < uorder:
                    name = type(self).__name__
                    raise ValueError(f"coefficient series has order {s.order}, below the {name} order {uorder}")
                s = s.truncate(uorder)
            if not s.is_zero():
                c[k] = s
        self._c = c

    @classmethod
    def _raw(cls, c: dict, top: int, uorder: int):
        """Wrap normalized keys and order-`uorder` series, dropping zero series."""
        out = cls.__new__(cls)
        out._top = top
        out.uorder = uorder
        out._c = {k: s for k, s in c.items() if not s.is_zero()}
        return out

    @classmethod
    def const(cls, value: Union[Scalar, USeries], bound: int, uorder: int):
        s = value if isinstance(value, USeries) else USeries.const(value, uorder)
        return cls({cls._unit: s}, bound, uorder)

    def items(self):
        return iter(sorted(self._c.items()))

    def is_zero(self) -> bool:
        return not self._c

    def valuation(self) -> int | None:
        """Smallest u-exponent with a nonzero coefficient, or None for 0."""
        vals = [v for s in self._c.values() if (v := s.valuation()) is not None]
        return min(vals) if vals else None

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._top == other._top and self.uorder == other.uorder and self._c == other._c

    def __repr__(self) -> str:
        bound = getattr(self, self._bound_name)
        return f"{type(self).__name__}({self._bound_name}={bound}, uorder={self.uorder}, terms={len(self._c)})"

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, type(self)):
            return other
        if isinstance(other, (int, Fraction)):
            return self.const(other, getattr(self, self._bound_name), self.uorder)
        if isinstance(other, USeries):  # at its own order: the result truncates to the smaller
            return self.const(other, getattr(self, self._bound_name), other.order)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        top = min(self._top, o._top)
        uorder = min(self.uorder, o.uorder)
        grade = self._grade
        c = {k: s.truncate(uorder) for k, s in self._c.items() if grade(k) <= top}
        for k, s in o._c.items():
            if grade(k) <= top:
                c[k] = c[k] + s if k in c else s.truncate(uorder)
        return self._raw(c, top, uorder)

    __radd__ = __add__

    def __neg__(self):
        return self._raw({k: -s for k, s in self._c.items()}, self._top, self.uorder)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        top = min(self._top, other._top)
        uorder = min(self.uorder, other.uorder)
        grade, join = self._grade, self._join
        right = [(k, grade(k), s) for k, s in other._c.items()]
        c: dict = {}
        for k1, s1 in self._c.items():
            g1 = grade(k1)
            for k2, g2, s2 in right:
                if g1 + g2 > top:
                    continue
                k = join(k1, k2)
                prod = s1 * s2
                c[k] = c[k] + prod if k in c else prod
        return self._raw(c, top, uorder)

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# RootSeries: truncated polynomials in one formal root variable x
# ---------------------------------------------------------------------------


class RootSeries(_Graded):
    """Polynomial in x (degree < xdeg) with USeries coefficients.

    The root variable is normalized as x = 2*pi*sqrt(-1)*z, so hyperbolic
    per-root factors have rational coefficients.  Genus factors are even
    in x; `is_even` reports that property and `rotate` maps an even series
    f(x) to f(ix) (the tan-convention twin).
    """

    __slots__ = ()

    _unit = 0
    _bound_name = "xdeg"

    def __init__(self, coeffs: Mapping[int, USeries], xdeg: int, uorder: int):
        if xdeg < 1:
            raise ValueError("xdeg must be >= 1")
        super().__init__(coeffs, xdeg - 1, uorder)

    @staticmethod
    def _key(k: int) -> int:
        if k < 0:
            raise ValueError(f"negative x-exponent {k}")
        return k

    _grade = staticmethod(operator.index)  # the x-degree itself
    _join = staticmethod(operator.add)

    # Bound here, not only inherited: the benchmark tracer patches a method
    # only where the owner's own class dict binds it.
    __mul__ = __rmul__ = _Graded.__mul__

    @property
    def xdeg(self) -> int:
        """Exclusive bound on the x-degree."""
        return self._top + 1

    @classmethod
    def from_xpoly(cls, poly: Mapping[int, Scalar], xdeg: int, uorder: int) -> "RootSeries":
        """Lift a rational polynomial in x to a u-constant RootSeries."""
        return cls({k: USeries.const(v, uorder) for k, v in poly.items() if v}, xdeg, uorder)

    def coeff(self, k: int) -> USeries:
        if k >= self.xdeg:
            raise ValueError(f"x^{k} beyond truncation degree {self.xdeg}")
        return self._c.get(k, USeries.zero(self.uorder))

    def constant_term(self) -> USeries:
        return self.coeff(0)

    @property
    def is_even(self) -> bool:
        return all(k % 2 == 0 for k in self._c)

    def inverse(self) -> "RootSeries":
        """x-adic inverse; the x^0 coefficient must be an invertible USeries."""
        c0 = self.constant_term()
        if not c0.constant():
            raise NonUnitConstant("x^0 coefficient has zero constant term")
        c0_inv = c0.inverse()
        # self = c0 (1 + M) with M of positive x-valuation: geometric series.
        m = self * c0_inv - 1
        result = self._coerce(1)
        power = result
        sign = -1
        while not (power := power * m).is_zero():
            result = result + (power if sign > 0 else -power)
            sign = -sign
        return result * c0_inv

    # -- substitutions -------------------------------------------------------

    def scale_x(self, c: Scalar) -> "RootSeries":
        """Substitute x -> c*x."""
        c = Fraction(c)
        return RootSeries(
            {k: s * c**k for k, s in self._c.items()}, self.xdeg, self.uorder
        )

    def rotate(self) -> "RootSeries":
        """Substitute x -> ix on an even series: x^(2k) coefficients gain (-1)^k."""
        if not self.is_even:
            raise OddTermPresent("rotation x -> ix needs an even series")
        return RootSeries(
            {k: (s if k % 4 == 0 else -s) for k, s in self._c.items()},
            self.xdeg,
            self.uorder,
        )

    def truncate_x(self, xdeg: int) -> "RootSeries":
        if xdeg > self.xdeg:
            raise ValueError(f"cannot extend xdeg {self.xdeg} to {xdeg}")
        return RootSeries(self._c, xdeg, self.uorder)

    def truncate_u(self, uorder: int) -> "RootSeries":
        return RootSeries(
            {k: s.truncate(uorder) for k, s in self._c.items()}, self.xdeg, uorder
        )


# ---------------------------------------------------------------------------
# PontPoly: polynomials in the Pontryagin generators
# ---------------------------------------------------------------------------


class PontPoly(_Graded):
    """Graded polynomial in p_1..p_nmax with USeries coefficients.

    Keys are partitions (p_lambda = prod p_{lambda_i}); p_i has weight i.
    Terms of weight above nmax are dropped: only weight n ever pairs with a
    4n-manifold, so nmax = n loses nothing.
    """

    __slots__ = ()

    _unit = ()
    _bound_name = "nmax"

    def __init__(self, terms: Mapping[Partition, USeries], nmax: int, uorder: int):
        super().__init__(terms, nmax, uorder)

    @staticmethod
    def _key(k) -> Partition:
        return partition_key(k) if k else ()

    _grade = staticmethod(weight)

    @staticmethod
    def _join(a: Partition, b: Partition) -> Partition:
        return tuple(sorted(a + b, reverse=True))

    # Bound here, not only inherited: the benchmark tracer patches a method
    # only where the owner's own class dict binds it.
    __mul__ = __rmul__ = _Graded.__mul__

    @property
    def nmax(self) -> int:
        """Largest weight kept."""
        return self._top

    @classmethod
    def generator(cls, i: int, nmax: int, uorder: int) -> "PontPoly":
        """The class p_i."""
        return cls({(i,): USeries.one(uorder)}, nmax, uorder)

    def coeff(self, parts) -> USeries:
        return self._c.get(self._key(parts), USeries.zero(self.uorder))

    def weight_part(self, w: int) -> "PontPoly":
        return PontPoly(
            {k: s for k, s in self._c.items() if weight(k) == w}, self.nmax, self.uorder
        )

    def exp(self) -> "PontPoly":
        """exp of a polynomial with zero weight-0 part (nilpotent, finite sum)."""
        if not self.coeff(()).is_zero():
            raise ValueError("exp requires zero constant part")
        result = term = self._coerce(1)
        for k in range(1, self.nmax + 1):
            term = term * self * Fraction(1, k)
            if term.is_zero():
                break
            result = result + term
        return result

@lru_cache(maxsize=None)
def _newton_terms(k: int) -> tuple[tuple[Partition, int], ...]:
    """Power sum s_k = sum_j (x_j^2)^k in the p_i, as integer partition terms."""
    if k < 1:
        raise ValueError("k must be >= 1")
    # s_k = p_1 s_{k-1} - p_2 s_{k-2} + ... + (-1)^{k-1} k p_k
    acc: dict[Partition, int] = {(k,): (-1) ** (k - 1) * k}
    for i in range(1, k):
        for part, coef in _newton_terms(k - i):
            key = PontPoly._join(part, (i,))
            acc[key] = acc.get(key, 0) + (-1) ** (i - 1) * coef
    return tuple(sorted((p, c) for p, c in acc.items() if c))


@lru_cache(maxsize=None)
def _power_sum_terms(mu: Partition) -> tuple[tuple[Partition, int], ...]:
    """s_mu = prod_i s_{mu_i} in the p_i, as integer partition terms of weight |mu|."""
    if not mu:
        return (((), 1),)
    acc: dict[Partition, int] = {}
    for lam, c in _power_sum_terms(mu[:-1]):
        for nu, d in _newton_terms(mu[-1]):
            key = PontPoly._join(lam, nu)
            acc[key] = acc.get(key, 0) + c * d
    return tuple(sorted((p, c) for p, c in acc.items() if c))


def newton_power_sum(k: int, nmax: int, uorder: int | None = None) -> PontPoly:
    """s_k = sum_j (x_j^2)^k expressed in the elementary symmetric p_i."""
    uorder = default_uorder(uorder)
    return PontPoly({p: USeries.const(c, uorder) for p, c in _newton_terms(k)}, nmax, uorder)


def _log_coefficients(f: RootSeries, n: int) -> tuple[USeries, list[USeries]]:
    """f(0) and [a_1..a_n], a_k = [x^(2k)] log(f/f(0)), of an arbitrary even factor f."""
    if not f.is_even:
        raise OddTermPresent("genus factor must be even in x")
    if f.xdeg < 2 * n + 1:
        raise ValueError(f"xdeg {f.xdeg} too small for n = {n} (need >= {2 * n + 1})")
    c0 = f.constant_term()
    if not c0.constant():
        raise NonUnitConstant("genus factor value at x = 0 is not invertible")
    c0_inv = c0.inverse()
    g = [None] + [f.coeff(2 * k) * c0_inv for k in range(1, n + 1)]
    # k g_k = sum_{j=1}^k j a_j g_{k-j} with g = f/f(0), g_0 = 1 (from g' = g log(g)').
    a = [None]
    for k in range(1, n + 1):
        acc = sum((a[j] * g[k - j] * j for j in range(1, k)), USeries.zero(f.uorder))
        a.append(g[k] - acc / k)
    return c0, a[1:]


def _p_class(f0: USeries, a: list[USeries], n: int) -> PontPoly:
    # Hirzebruch's recursion from G_0 = f(0)^(2n): each column of G_m is one
    # integer combination of the products (k/m) a_k G_(m-k)[lambda].
    order = f0.order
    g = [{(): f0 ** (2 * n)}]
    for m in range(1, n + 1):
        rows: dict[Partition, list[tuple[int, USeries]]] = {}
        for k in range(1, m + 1):
            ka = a[k - 1] * Fraction(k, m)
            for lam, c in g[m - k].items():
                b = ka * c
                for nu, t in _newton_terms(k):
                    rows.setdefault(PontPoly._join(lam, nu), []).append((t, b))
        g.append({lam: linear_combination(row, order) for lam, row in rows.items()})
    return PontPoly._raw({lam: c for gm in g for lam, c in gm.items()}, n, order)


def genus_class(f: RootSeries, n: int) -> PontPoly:
    """Reduce prod_{j=1}^{2n} f(x_j) to a polynomial in p_1..p_n.

    Runs Hirzebruch's recursion on f(0) and the log coefficients of f; the
    cost is independent of the number of roots.
    """
    return _p_class(*_log_coefficients(f, n), n)


def ch_tangent(n: int, nmax: int, uorder: int | None = None) -> PontPoly:
    """Chern character of the complexified tangent bundle of a 4n-manifold.

    From roots {e^{x_j}, e^{-x_j}}: ch = 4n + sum_k 2 s_k / (2k)!.
    """
    uorder = default_uorder(uorder)
    result = PontPoly.const(4 * n, nmax, uorder)
    fact = 1
    for k in range(1, nmax + 1):
        fact *= (2 * k) * (2 * k - 1)
        result = result + newton_power_sum(k, nmax, uorder) * Fraction(2, fact)
    return result


def pair(c: PontPoly, m: Manifold) -> USeries:
    """Contract the weight-n part of `c` with [M], through a row view built per call."""
    if c.nmax < m.n:
        raise DimMismatch(f"class truncated at weight {c.nmax}, manifold needs {m.n}")
    return _pair_rows(weight_view(c, m.n), m, c.uorder)


def weight_view(c: PontPoly, n: int):
    """The `row_view` of the weight-n columns of `c` over `partitions_of(n)`."""
    zero = USeries.zero(c.uorder)
    return row_view([c._c.get(lam, zero) for lam in partitions_of(n)])


def _pair_rows(view, m: Manifold, order: int) -> USeries:
    """sum_lambda P_lambda(M) col_lambda for a row view (rows, den) on `partitions_of(m.n)`: one
    integer matrix-vector product with `m`'s numerators in that order (`_vec`, kept on `m`)."""
    rows, den = view
    if (vec := m.__dict__.get("_vec")) is None:  # a plain memo: Manifold fields are frozen
        vec = m.__dict__["_vec"] = tuple(map(m._num.get, partitions_of(m.n), repeat(0)))
    return row_product(rows, vec, m._den * den, order)
