"""The Pontryagin route of a genus: everything a cold `genus` or `hypersurface` command runs.

A 4n-manifold enters as its Pontryagin numbers, indexed by partitions of
n = dim/4.  A genus enters as the log coefficients a_k = [x^(2k)] log(f/f(0))
of its per-root factor f, in closed form (`genus_log`: Bernoulli numbers
plus `series.divisor_sums`; Hirzebruch-Berger-Jung, Manifolds and Modular
Forms, ch. 6), with no theta product.  Hirzebruch's recursion for
multiplicative sequences (Topological Methods in Algebraic Geometry, sec. 1)
turns them into the class in p_1..p_n (`_p_class`), and `_pair_rows`, the
one pairing kernel of both genus routes, multiplies the row view of its
weight-n columns by the manifold's integer numbers.  The cross-check routes
live elsewhere: the theta products in `theta`, the ring of `RootSeries` and
`PontPoly` in `chern`, the residue route and the twisted A-hat in `genera`,
the index sum over the Witten bundles in `bundle_route`.
The route runs in integers from the manifold's numbers to the printed
output: `fractions` loads only where a value is read as a `Fraction`.

No n above `MAX_N` is accepted: `_check_n` raises `DimTooLarge`, and
`partitions_of` (so every path that enumerates the partitions of n) and
`bundle_route.witten_terms` call it before any work; nor is a cost p(n)^(3/2)
uorder^2 above `MAX_COST` (`_check_cost`, first in `genus_columns` and `modular._basis`).
"""

from __future__ import annotations

import json
from enum import Enum
from functools import cached_property, lru_cache
from itertools import repeat
from math import comb, factorial, gcd, lcm, prod
from operator import add
from types import MappingProxyType
from typing import Mapping

from .errors import DimMismatch, DimNotMultipleOf4, DimTooLarge, OrderTooLarge, Record
from .series import DEFAULT_UORDER, USeries, as_int, as_ratio, divisor_sums, linear_combination, ratio_str
from .series import row_product, row_view

Partition = tuple[int, ...]

# The largest n = dim/4 accepted: p(20) = 627, and the slowest command at n = 20 takes
# seconds (README); each cost grows about fourfold per 4 more (p(24) = 1575).
MAX_N = 20
MAX_COST = 2 * 10**8  # the slowest command at this cost takes about 20 s (README, "Size caps")


def partition_key(parts) -> Partition:
    """Canonical partition: weakly decreasing tuple of positive integers."""
    t = tuple(sorted((as_int(p, "partition part") for p in parts), reverse=True))
    if any(p <= 0 for p in t):
        raise ValueError(f"partition parts must be positive: {parts}")
    return t


def _check_n(n: int) -> None:
    if n > MAX_N:
        raise DimTooLarge(f"n = {n} (dim {4 * n}) is above the largest supported n = {MAX_N}")


def _check_cost(n: int, uorder: int) -> None:
    """OrderTooLarge when p(n)^(3/2) uorder^2 is above `MAX_COST` (compared in integers, squared)."""
    if len(partitions_of(n)) ** 3 * uorder**4 > MAX_COST**2:
        raise OrderTooLarge(f"uorder {uorder} at n = {n} is above the Pontryagin-route budget "
                            f"p(n)^(3/2) uorder^2 <= pontryagin.MAX_COST = {MAX_COST}")


def _join(a: Partition, b: Partition) -> Partition:
    """The partition of the product p_a p_b of two canonical partitions."""
    return tuple(sorted(a + b, reverse=True))


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, parts weakly decreasing; n above `MAX_N` raises `DimTooLarge`."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    _check_n(n)
    # first part p descending, then the partitions of n - p whose parts are <= p, in this order
    return ((),) if n == 0 else tuple(
        (p, *rest) for p in range(n, 0, -1) for rest in partitions_of(n - p) if rest[:1] <= (p,)
    )


def partition_to_str(p: Partition) -> str:
    return "[" + ",".join(str(i) for i in p) + "]"


@lru_cache(maxsize=1024)  # keyed on the JSON text: a tuple key would equate (True,) with (1,)
def partition_from_str(s: str) -> Partition:
    parts = json.loads(s)
    if not isinstance(parts, list) or not set(map(type, parts)) <= {int}:
        raise ValueError(f"partition key must be a JSON array of integers: {s!r}")
    return partition_key(parts)


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
        from fractions import Fraction
        return MappingProxyType({k: Fraction(v, self._den) for k, v in self._num.items()})

    @property
    def _vec(self) -> tuple[int, ...]:  # a plain memo: cached_property cost a warm sweep op 2-3 us on 3.11
        """The numerators in the order of `partitions_of(n)`, absent ones 0: what `_pair_rows` multiplies."""
        if (vec := self.__dict__.get("_vec")) is None:
            vec = self.__dict__["_vec"] = tuple(map(self._num.get, partitions_of(self.n), repeat(0)))
        return vec

    @property
    def n(self) -> int:
        return self.dim // 4

    def pont_number(self, parts) -> Fraction:
        from fractions import Fraction
        return self.pont.get(partition_key(parts), Fraction(0))

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "dim": self.dim,
            "pontryagin_numbers": {
                partition_to_str(p): ratio_str(v, self._den) for p, v in sorted(self._num.items())
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


@lru_cache(maxsize=None)
def _newton_terms(k: int) -> tuple[tuple[Partition, int], ...]:
    """Power sum s_k = sum_j (x_j^2)^k in the p_i, as integer partition terms."""
    if k < 1:
        raise ValueError("k must be >= 1")
    # s_k = p_1 s_{k-1} - p_2 s_{k-2} + ... + (-1)^{k-1} k p_k
    acc: dict[Partition, int] = {(k,): (-1) ** (k - 1) * k}
    for i in range(1, k):
        for part, coef in _newton_terms(k - i):
            key = _join(part, (i,))
            acc[key] = acc.get(key, 0) + (-1) ** (i - 1) * coef
    return tuple(sorted((p, c) for p, c in acc.items() if c))


def _p_class(f0: USeries, a: list[USeries], n: int) -> dict[Partition, USeries]:
    """The columns of f(0)^(2n) exp(sum_k a_k s_k) up to weight n, by partition."""
    # Hirzebruch's recursion from G_0 = f(0)^(2n): each column of G_m is one
    # integer combination of the products k a_k G_(m-k)[lambda], over m.
    order = f0.order
    g = [{(): f0 ** (2 * n)}]
    for m in range(1, n + 1):
        rows: dict[Partition, list[tuple[int, USeries]]] = {}
        for k in range(1, m + 1):
            for lam, c in g[m - k].items():
                b = a[k - 1] * c
                for nu, t in _newton_terms(k):
                    rows.setdefault(_join(lam, nu), []).append((k * t, b))
        g.append({lam: linear_combination(row, order, m) for lam, row in rows.items()})
    return {lam: c for gm in g for lam, c in gm.items()}


def weight_view(columns: Mapping[Partition, USeries], n: int, order: int):
    """The `row_view` of the weight-n `columns` (absent ones 0) over `partitions_of(n)`."""
    zero = USeries.zero(order)
    return row_view([columns.get(lam, zero) for lam in partitions_of(n)])


def _pair_rows(view, m: Manifold, order: int) -> USeries:
    """sum_lambda P_lambda(M) col_lambda for a row view (rows, den) on `partitions_of(m.n)`: one
    integer matrix-vector product with `m`'s numerators in that order (`Manifold._vec`)."""
    return USeries._make(row_product(view, m._vec, order), m._den * view[1])


def _bernoulli(n: int) -> list[tuple[int, int]]:
    """B_0, B_2, ..., B_2n as reduced (p, q > 0) pairs: B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) from
    the tangent numbers T_k, built in place by one integer recurrence (Brent-Harvey, arXiv:1108.0286)."""
    t = [0, 1] + [0] * (n - 1)  # t[k] ends as T_k, from (k-1)!
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    b = [(1, 1)]
    for k in range(1, n + 1):
        p, q = (-1) ** (k - 1) * 2 * k * t[k], 4**k * (4**k - 1)
        g = gcd(p, q)
        b.append((p // g, q // g))
    return b


def _even_poly(xdeg: int, coeff) -> dict[int, Fraction]:
    """sum_{2k < xdeg} coeff(k, B_2k) x^(2k) / (2k)! with the Bernoulli numbers B_2k as Fractions."""
    from fractions import Fraction
    b = _bernoulli((xdeg - 1) // 2)
    return {2 * k: coeff(k, Fraction(*b[k])) / factorial(2 * k) for k in range((xdeg + 1) // 2)}


def cosh_half_poly(xdeg: int) -> dict[int, Fraction]:
    """cosh(x/2): coefficients 1/4^k."""
    from fractions import Fraction
    return _even_poly(xdeg, lambda k, b: Fraction(1, 4**k))


def half_x_over_sinh_half_poly(xdeg: int) -> dict[int, Fraction]:
    """(x/2) / sinh(x/2), coefficients (2/4^k - 1) B_2k: the u^0 slice of the theta factor (A-hat factor)."""
    return _even_poly(xdeg, lambda k, b: 2 * b / 4**k - b)


# kind -> (weight w of the m = 1 factor, stepping by 2; sign c of the pair
# (1 + c u^w y)(1 + c u^w/y) over the squared scalar (1 + c u^w)^2; whether that
# ratio divides rather than multiplies; the u-constant prefactor in x of xdeg).
_FAMILIES = {
    "theta": (2, -1, True, half_x_over_sinh_half_poly),
    "theta1": (2, 1, False, cosh_half_poly),
    "theta2": (1, -1, False, lambda xdeg: {0: 1}),
}


class GenusKind(str, Enum):
    AHAT = "ahat"
    LHAT = "lhat"
    ELL1 = "ell1"
    ELL2 = "ell2"
    WITTEN = "witten"


# kind -> (prefactor x/tanh(x/2), so f(0) = 2, rather than (x/2)/sinh(x/2); theta families)
_LOGS = {"ahat": (False, ()), "lhat": (True, ()), "witten": (False, ("theta",)),
         "ell1": (True, ("theta", "theta1")), "ell2": (False, ("theta", "theta2"))}


def genus_log(kind: GenusKind, n: int, uorder: int) -> tuple[USeries, list[USeries]]:
    """f(0) and [a_1..a_n], a_k = [x^(2k)] log(f/f(0)), f = `theta.genus_root_series(kind)`, in closed form.

    a_k = beta_k B_2k / (2k (2k)!) + 2/(2k)! sum_N t_N u^N: beta_k = -1 for (x/2)/sinh(x/2),
    4^k - 2 for x/tanh(x/2).  For a family of `_FAMILIES`, log(1 + c z) = -sum_r (-c)^r z^r / r
    and y^r + 1/y^r - 2 = 2 sum_k (r x)^(2k) / (2k)! turn the pair over the squared scalar
    at z = u^w into -(-c)^r r^(2k-1) at N = w r, negated when the pair divides: t is the
    `divisor_sums` over N/r = w (Zagier, LNM 1326; Hirzebruch-Berger-Jung, ch. 6).
    """
    if uorder < 1:
        raise ValueError("uorder must be >= 1")
    tanh, families = _LOGS[GenusKind(kind).value]
    b = _bernoulli(n)
    a = []
    for k in range(1, n + 1):
        t = [0] * uorder
        for first, c, divides, _ in map(_FAMILIES.get, families):
            sign = 1 if divides else -1
            t = list(map(add, t, divisor_sums(uorder, first, 2, lambda r: sign * (-c) ** r * r ** (2 * k - 1))))
        # over the denominator 2k (2k)! q, B_2k = p/q: the theta term's 2/(2k)! is 4kq
        p, q = b[k]
        nums = [((4**k - 2) if tanh else -1) * p] + [4 * k * q * v for v in t[1:]]
        a.append(USeries._make(nums, 2 * k * factorial(2 * k) * q))
    return USeries.const(2 if tanh else 1, uorder), a


def genus(m: Manifold, kind: GenusKind | str, uorder: int = DEFAULT_UORDER) -> USeries:
    """Exact q-expansion of a genus of `m` (constant series for ahat/lhat)."""
    kind = kind if isinstance(kind, GenusKind) else GenusKind(kind)  # no Enum lookup for a member
    return _pair_rows(genus_columns(kind, m.n, uorder), m, uorder)


@lru_cache(maxsize=128)
def genus_columns(kind: GenusKind, n: int, uorder: int):
    """The weight-n columns of a genus class, one u-column per partition of n, as a row view.

    A genus of a 4n-manifold is linear in its Pontryagin numbers, with
    coefficients (f(0)^(2n) folded in) that depend on (kind, n, uorder)
    only; `genus` multiplies this one view by every manifold's numbers.
    """
    _check_cost(n, uorder)
    return weight_view(_p_class(*genus_log(kind, n, uorder), n), n, uorder)


class Hypersurface(Record):
    """Smooth degree-d hypersurface in CP^N; real dimension 2(N-1)."""

    _fields = ("ambient", "degree")

    def __init__(self, ambient: int, degree: int):
        if ambient < 2:
            raise ValueError(f"ambient dimension must be >= 2, got {ambient}")
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        self._set(ambient, degree)

    @property
    def real_dim(self) -> int:
        return 2 * (self.ambient - 1)

    def to_json(self) -> dict:
        return {"ambient": self.ambient, "degree": self.degree}

    @classmethod
    def from_json(cls, obj) -> "Hypersurface":
        return cls(ambient=as_int(obj["ambient"], "ambient"), degree=as_int(obj["degree"], "degree"))


def hypersurface_pont(h: Hypersurface) -> Manifold:
    """Pontryagin numbers of X(N; d) from p(X) = (1+x^2)^(N+1)/(1+d^2 x^2).

    p_i is the x^(2i) coefficient of that series; a monomial p_lambda of
    weight n sits in degree x^(N-1), and pairing against [X] multiplies by
    the degree d (the fundamental class of X is Poincare dual to d*x).
    """
    N, d = h.ambient, h.degree
    if h.real_dim % 4:
        raise DimNotMultipleOf4(
            f"X({N};{d}) has real dimension {h.real_dim}, not a multiple of 4"
        )
    n = h.real_dim // 4
    parts = partitions_of(n)  # first: it refuses an n above MAX_N before any work
    # c[i] = [x^(2i)] (1+x^2)^(N+1) * sum_k (-d^2)^k x^(2k)
    c = [sum(comb(N + 1, j) * (-d * d) ** (i - j) for j in range(i + 1)) for i in range(n + 1)]
    return Manifold(f"X({N};{d})", h.real_dim, {part: d * prod(c[i] for i in part) for part in parts})
