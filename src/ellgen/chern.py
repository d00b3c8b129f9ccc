"""Chern-root calculus: the ring of the cross-check routes, from per-root factors to classes.

The Pontryagin route of a genus (closed-form log coefficients, Hirzebruch's
recursion `_p_class`, the pairing kernel `_pair_rows`, `Manifold` and the
partitions) lives in `pontryagin`, which is all a cold `genus` command runs;
its names are bound here too.  This module holds what the other routes add.
A multiplicative genus enters as one even power series f(x) per formal root
(a `RootSeries`); with log(f/f(0)) = sum_k a_k x^(2k), prod_{j=1}^{2n} f(x_j)
equals G = f(0)^(2n) exp(sum_k a_k s_k), s_k = sum_j x_j^(2k) the power sums,
which `_p_class` runs in p_1..p_n (Hirzebruch, Topological Methods, sec. 1;
Macdonald, ch. I.2).  The a_k of an arbitrary f come from a recursion
(`_log_coefficients`), and `genus_class` wraps the class up to weight n in a
`PontPoly`.  `pair` contracts any class with a manifold through a row view
of its weight-n columns, built per call.  `RootSeries` (keys: x-degrees)
and `PontPoly` (keys: partitions) share one ring core, `_Graded`: a dict
key -> USeries with the arithmetic written once.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Mapping, Union

from .errors import DimMismatch, NonUnitConstant, OddTermPresent
from .pontryagin import Manifold, Partition, _join, _newton_terms, _p_class, _pair_rows, partition_key, weight_view
from .pontryagin import partitions_of  # noqa: F401  (bound here as before)
from .series import DEFAULT_UORDER, Scalar, USeries, _RingOps


def rotate_x(coeffs: Mapping) -> dict:
    """x -> ix on the coefficients {x-degree: c} of an even series: x^(2k) gains (-1)^k."""
    if any(k % 2 for k in coeffs):
        raise OddTermPresent("rotation x -> ix needs an even series")
    return {k: (v if k % 4 == 0 else -v) for k, v in coeffs.items()}


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

    def _has_constant(self) -> bool:
        return self._unit in self._c

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
    in x; `is_even` reports that property, and `rotate_x` takes the
    coefficients of an even series f(x) to those of f(ix) (the tan-convention twin).
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

    # Bound here, not only inherited: the benchmark tracer patches only the owner's class dict.
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

    @property
    def is_even(self) -> bool:
        return all(k % 2 == 0 for k in self._c)

    def inverse(self) -> "RootSeries":
        """x-adic inverse, b_0 = 1/c_0 and b_k = -b_0 sum_(j=1..k) c_j b_(k-j); c_0 must be invertible."""
        c0 = self.coeff(0)
        if not c0.constant():
            raise NonUnitConstant("x^0 coefficient has zero constant term")
        c = sorted((j, s) for j, s in self._c.items() if j)
        b = [c0.inverse()]
        for k in range(1, self.xdeg):
            b.append(-b[0] * sum((s * b[k - j] for j, s in c if j <= k), USeries.zero(self.uorder)))
        return RootSeries._raw(dict(enumerate(b)), self._top, self.uorder)

    # -- substitutions -------------------------------------------------------

    def scale_x(self, c: Scalar) -> "RootSeries":
        """Substitute x -> c*x."""
        c = Fraction(c)
        return RootSeries(
            {k: s * c**k for k, s in self._c.items()}, self.xdeg, self.uorder
        )

    def truncate_x(self, xdeg: int) -> "RootSeries":
        if xdeg > self.xdeg:
            raise ValueError(f"cannot extend xdeg {self.xdeg} to {xdeg}")
        return RootSeries(self._c, xdeg, self.uorder)


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

    @staticmethod
    def _key(k) -> Partition:
        return partition_key(k) if k else ()

    _grade = staticmethod(sum)  # a partition's weight
    _join = staticmethod(_join)

    # Bound here, not only inherited: the benchmark tracer patches only the owner's class dict.
    __mul__ = __rmul__ = _Graded.__mul__
    exp = _RingOps.exp

    @property
    def nmax(self) -> int:
        """Largest weight kept."""
        return self._top

    def coeff(self, parts) -> USeries:
        return self._c.get(self._key(parts), USeries.zero(self.uorder))

    def weight_part(self, w: int) -> "PontPoly":
        return PontPoly(
            {k: s for k, s in self._c.items() if sum(k) == w}, self.nmax, self.uorder
        )


def newton_power_sum(k: int, nmax: int, uorder: int = DEFAULT_UORDER) -> PontPoly:
    """s_k = sum_j (x_j^2)^k expressed in the elementary symmetric p_i."""
    return PontPoly({p: USeries.const(c, uorder) for p, c in _newton_terms(k)}, nmax, uorder)


def _log_coefficients(f: RootSeries, n: int) -> tuple[USeries, list[USeries]]:
    """f(0) and [a_1..a_n], a_k = [x^(2k)] log(f/f(0)), of an arbitrary even factor f."""
    if not f.is_even:
        raise OddTermPresent("genus factor must be even in x")
    if f.xdeg < 2 * n + 1:
        raise ValueError(f"xdeg {f.xdeg} too small for n = {n} (need >= {2 * n + 1})")
    c0 = f.coeff(0)
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


def genus_class(f: RootSeries, n: int) -> PontPoly:
    """Reduce prod_{j=1}^{2n} f(x_j) to a polynomial in p_1..p_n.

    Runs Hirzebruch's recursion on f(0) and the log coefficients of f; the
    cost is independent of the number of roots.
    """
    f0, a = _log_coefficients(f, n)
    return PontPoly._raw(_p_class(f0, a, n), n, f0.order)


def ch_tangent(n: int, nmax: int, uorder: int = DEFAULT_UORDER) -> PontPoly:
    """Chern character of the complexified tangent bundle of a 4n-manifold.

    From roots {e^{x_j}, e^{-x_j}}: ch = 4n + sum_k 2 s_k / (2k)!.
    """
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
    return _pair_rows(weight_view(c._c, m.n, c.uorder), m, c.uorder)
