"""Lambda-ring expansion of the Witten bundles into coefficient bundles.

The twisted tensor products Theta x Theta_1 and Theta x Theta_2 of the
reduced tangent bundle expand as q-series whose coefficients A_k, B_k are
integer combinations of monomials S^a1(T)...Lambda^b1(T)... of total tensor
power at most k.  Reduction by the trivial bundle only contributes scalar
factors (1 -+ t)^(+-4n), so the monomials stay honest S/Lambda powers of T.

The coefficient bundles feed an index-route computation of Ell_2 through
the Chern character, entirely independent of the theta-product route.
Chern characters live in the power-sum basis s_mu = prod_i s_(mu_i),
s_k = sum_j x_j^(2k), with rational coefficients: the k-scaled tangent
character is linear in the s_k, ch(S^a T) and ch(Lambda^b T) follow from a
t-adic exp, and each monomial's character is memoized on (monomial, n,
nmax).  The index ind(D x B_k) pairs the weight-n s-vector of
A-hat(T) ch(B_k) with the numbers <s_mu, [M]>; the public `ch_*` functions
convert to the p-basis once, on return.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Mapping

from .chern import (
    Manifold,
    Partition,
    PontPoly,
    _class_coefficients,
    _power_sum_terms,
    pair,  # noqa: F401  (kept as a module binding: the benchmark tracer patches bundles.pair)
    partitions_of,
    power_sum_number,
)
from .errors import DimMismatch
from .series import USeries, default_uorder
from .theta import GenusKind, genus_root_series


@dataclass(frozen=True)
class BundleMonomial:
    """S^a1(T) x ... x Lambda^b1(T) x ...; powers stored as sorted tuples."""

    sym: tuple[int, ...] = ()
    ext: tuple[int, ...] = ()

    @staticmethod
    def make(sym=(), ext=()) -> "BundleMonomial":
        sym = tuple(sorted(int(a) for a in sym))
        ext = tuple(sorted(int(b) for b in ext))
        if any(a < 1 for a in sym) or any(b < 1 for b in ext):
            raise ValueError("tensor powers must be >= 1")
        return BundleMonomial(sym, ext)

    @property
    def total_power(self) -> int:
        return sum(self.sym) + sum(self.ext)

    def rank(self, n: int) -> int:
        """Rank over a rank-4n bundle; 0 when some exterior power exceeds 4n."""
        r = 4 * n
        out = 1
        for a in self.sym:
            out *= comb(r + a - 1, a)
        for b in self.ext:
            out *= comb(r, b)
        return out

    def pretty(self) -> str:
        if not self.sym and not self.ext:
            return "1"
        parts = [f"S^{a}(T)" for a in self.sym] + [f"Λ^{b}(T)" for b in self.ext]
        return "⊗".join(parts)


_ONE = BundleMonomial()


class VirtualBundlePoly:
    """Integer combination of bundle monomials, for a fixed rank parameter n."""

    __slots__ = ("n", "_t")

    def __init__(self, terms: Mapping[BundleMonomial, int], n: int):
        self.n = n
        t: dict[BundleMonomial, int] = {}
        for mono, coef in terms.items():
            coef = int(coef)
            # Exterior powers above the rank are the zero bundle.
            if coef and all(b <= 4 * n for b in mono.ext):
                t[mono] = coef
        self._t = t

    @classmethod
    def const(cls, value: int, n: int) -> "VirtualBundlePoly":
        return cls({_ONE: value}, n)

    def coeff(self, mono: BundleMonomial) -> int:
        return self._t.get(mono, 0)

    def items(self):
        return iter(sorted(self._t.items(), key=lambda kv: (kv[0].total_power, kv[0].sym, kv[0].ext)))

    def is_zero(self) -> bool:
        return not self._t

    def max_power(self) -> int:
        return max((m.total_power for m in self._t), default=0)

    def virtual_rank(self) -> int:
        return sum(c * m.rank(self.n) for m, c in self._t.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, VirtualBundlePoly):
            return NotImplemented
        return self.n == other.n and self._t == other._t

    def __add__(self, other) -> "VirtualBundlePoly":
        if isinstance(other, int):
            other = VirtualBundlePoly.const(other, self.n)
        if not isinstance(other, VirtualBundlePoly):
            return NotImplemented
        t = dict(self._t)
        for m, c in other._t.items():
            t[m] = t.get(m, 0) + c
        return VirtualBundlePoly(t, self.n)

    __radd__ = __add__

    def __neg__(self) -> "VirtualBundlePoly":
        return VirtualBundlePoly({m: -c for m, c in self._t.items()}, self.n)

    def __sub__(self, other) -> "VirtualBundlePoly":
        if isinstance(other, int):
            other = VirtualBundlePoly.const(other, self.n)
        if not isinstance(other, VirtualBundlePoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "VirtualBundlePoly":
        if isinstance(other, int):
            return VirtualBundlePoly({m: c * other for m, c in self._t.items()}, self.n)
        if not isinstance(other, VirtualBundlePoly):
            return NotImplemented
        t: dict[BundleMonomial, int] = {}
        for m1, c1 in self._t.items():
            for m2, c2 in other._t.items():
                # Both factors are valid monomials: merge their sorted powers.
                m = BundleMonomial(tuple(sorted(m1.sym + m2.sym)), tuple(sorted(m1.ext + m2.ext)))
                t[m] = t.get(m, 0) + c1 * c2
        return VirtualBundlePoly(t, self.n)

    __rmul__ = __mul__

    def pretty(self) -> str:
        if not self._t:
            return "0"
        ordered = sorted(
            self._t.items(), key=lambda kv: (-kv[0].total_power, kv[0].sym, kv[0].ext)
        )
        parts = []
        for mono, coef in ordered:
            name = mono.pretty()
            if name == "1":
                term = f"{coef}·1"
            elif coef == 1:
                term = name
            elif coef == -1:
                term = f"-{name}"
            else:
                term = f"{coef}·{name}"
            if parts and not term.startswith("-"):
                parts.append(f"+ {term}")
            elif parts:
                parts.append(f"- {term[1:]}")
            else:
                parts.append(term)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"VirtualBundlePoly({self.pretty()!r}, n={self.n})"


@dataclass(frozen=True)
class BundleQSeries:
    """q-expansion (in u = q^(1/2)) with VirtualBundlePoly coefficients."""

    n: int
    order: int
    coeffs: Mapping[int, VirtualBundlePoly] = field(default_factory=dict)

    def coeff(self, k: int) -> VirtualBundlePoly:
        if k >= self.order:
            raise ValueError(f"coefficient u^{k} beyond truncation order {self.order}")
        return self.coeffs.get(k, VirtualBundlePoly({}, self.n))


def _bqs_mul(a: BundleQSeries, b: BundleQSeries) -> BundleQSeries:
    order = min(a.order, b.order)
    out: dict[int, VirtualBundlePoly] = {}
    for k1, v1 in a.coeffs.items():
        if k1 >= order:
            continue
        for k2, v2 in b.coeffs.items():
            k = k1 + k2
            if k >= order:
                continue
            prod = v1 * v2
            out[k] = out[k] + prod if k in out else prod
    return BundleQSeries(a.n, order, {k: v for k, v in out.items() if not v.is_zero()})


def _bqs_scale(a: BundleQSeries, s: USeries) -> BundleQSeries:
    """Multiply every coefficient of `a` by the integer u-series `s`."""
    if any(v.denominator != 1 for _, v in s.items()):
        raise ValueError("bundle scalar series must have integer coefficients")
    order = min(a.order, s.order)
    terms: dict[int, dict[BundleMonomial, int]] = {}
    for i, c in s.items():
        for j, v in a.coeffs.items():
            if i + j < order:
                acc = terms.setdefault(i + j, {})
                for mono, coef in v._t.items():
                    acc[mono] = acc.get(mono, 0) + c.numerator * coef
    out = {k: VirtualBundlePoly(t, a.n) for k, t in terms.items()}
    return BundleQSeries(a.n, order, {k: v for k, v in out.items() if not v.is_zero()})


@lru_cache(maxsize=128)
def expand_witten(which: str, n: int, uorder: int) -> BundleQSeries:
    """Expand Theta x Theta_1 ("theta1") or Theta x Theta_2 ("theta2").

    Uses S_t(E - C^r) = S_t(E)(1-t)^r and Lambda_t(E - C^r) = Lambda_t(E)
    (1+t)^(-r): the u^k coefficient is the bundle A_k resp. B_k.  The scalar
    factors are integer u-series that commute with the bundle factors, so
    they are collected into one series and applied once at the end.
    """
    if which not in ("theta1", "theta2"):
        raise ValueError(f"which must be 'theta1' or 'theta2', got {which!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if uorder < 1:
        raise ValueError("uorder must be >= 1")
    rank = 4 * n
    result = BundleQSeries(n, uorder, {0: VirtualBundlePoly.const(1, n)})
    scalar = USeries.one(uorder)
    m = 1
    while True:
        w_sym = 2 * m
        w_twist = 2 * m if which == "theta1" else 2 * m - 1
        if min(w_sym, w_twist) >= uorder:
            break
        if w_sym < uorder:
            sym_terms = {0: VirtualBundlePoly.const(1, n)}
            a = 1
            while w_sym * a < uorder:
                sym_terms[w_sym * a] = VirtualBundlePoly({BundleMonomial.make(sym=(a,)): 1}, n)
                a += 1
            result = _bqs_mul(result, BundleQSeries(n, uorder, sym_terms))
            scalar = scalar * (USeries.one(uorder) - USeries.monomial(w_sym, 1, uorder)) ** rank
        if w_twist < uorder:
            sign = 1 if which == "theta1" else -1
            ext_terms = {0: VirtualBundlePoly.const(1, n)}
            b = 1
            while w_twist * b < uorder:
                ext_terms[w_twist * b] = VirtualBundlePoly(
                    {BundleMonomial.make(ext=(b,)): sign**b}, n
                )
                b += 1
            result = _bqs_mul(result, BundleQSeries(n, uorder, ext_terms))
            tsigned = USeries.monomial(w_twist, sign, uorder)
            scalar = scalar * (USeries.one(uorder) + tsigned) ** (-rank)
        m += 1
    return _bqs_scale(result, scalar)


# ---------------------------------------------------------------------------
# Chern characters of the monomials, in the power-sum basis
# ---------------------------------------------------------------------------

# A class as rational coefficients on s_mu = prod_i s_(mu_i), s_k = sum_j x_j^(2k),
# of weight |mu| <= nmax.  Memoized classes are tuples of (mu, coefficient)
# items, so no caller can mutate a cached value.
SClass = tuple[tuple[Partition, Fraction], ...]

_ONE_S: SClass = (((), Fraction(1)),)


def _s_mul(a: SClass, b: SClass, nmax: int) -> SClass:
    """Product truncated at weight nmax; s_mu s_nu is s of the union of mu and nu."""
    acc: dict[Partition, Fraction] = {}
    for mu, c in a:
        w = sum(mu)
        for nu, d in b:
            if w + sum(nu) <= nmax:
                key = tuple(sorted(mu + nu, reverse=True))
                acc[key] = acc.get(key, 0) + c * d
    return tuple((mu, c) for mu, c in acc.items() if c)


def _s_combine(terms) -> SClass:
    """sum_i f_i c_i over (f_i, c_i) pairs of a scalar and a class."""
    acc: dict[Partition, Fraction] = {}
    for f, c in terms:
        for mu, d in c:
            acc[mu] = acc.get(mu, 0) + f * d
    return tuple((mu, c) for mu, c in acc.items() if c)


@lru_cache(maxsize=None)
def _scaled_tangent_ch(k: int, n: int, nmax: int) -> SClass:
    """sum_j (e^{k x_j} + e^{-k x_j}) = 4n + sum_r 2 k^(2r) s_r / (2r)!."""
    terms = [((), Fraction(4 * n))]
    fact = 1
    for r in range(1, nmax + 1):
        fact *= (2 * r) * (2 * r - 1)
        terms.append(((r,), Fraction(2 * k ** (2 * r), fact)))
    return tuple(terms)


@lru_cache(maxsize=None)
def _power_ch(a: int, n: int, nmax: int, sign: int) -> SClass:
    """ch(S^a T_C) for sign = 1, ch(Lambda^a T_C) for sign = -1.

    [t^a] of the t-adic exp of sum_k sign^(k-1) t^k/k psi_k, psi_k the
    k-scaled tangent character; differentiating in t gives the recursion
    a ch_a = sum_{j=1}^a sign^(j-1) psi_j ch_(a-j).
    """
    if a == 0:
        return _ONE_S
    return _s_combine(
        (
            Fraction(sign ** (j - 1), a),
            _s_mul(_scaled_tangent_ch(j, n, nmax), _power_ch(a - j, n, nmax, sign), nmax),
        )
        for j in range(1, a + 1)
    )


@lru_cache(maxsize=None)
def _ch_monomial_s(mono: BundleMonomial, n: int, nmax: int) -> SClass:
    """ch of a bundle monomial (ch is multiplicative)."""
    result = _ONE_S
    for a in mono.sym:
        result = _s_mul(result, _power_ch(a, n, nmax, 1), nmax)
    for b in mono.ext:
        result = _s_mul(result, _power_ch(b, n, nmax, -1), nmax)
    return result


def _ch_virtual_s(v: VirtualBundlePoly, nmax: int) -> SClass:
    return _s_combine((coef, _ch_monomial_s(mono, v.n, nmax)) for mono, coef in v.items())


def _to_pont(c: SClass, nmax: int, uorder: int | None) -> PontPoly:
    """Rewrite an s-basis class in p_1..p_nmax with constant u-series coefficients."""
    if uorder is None:
        uorder = default_uorder()
    terms: dict[Partition, Fraction] = {}
    for mu, coef in c:
        for lam, t in _power_sum_terms(mu):
            terms[lam] = terms.get(lam, 0) + coef * t
    return PontPoly({lam: USeries.const(v, uorder) for lam, v in terms.items()}, nmax, uorder)


def ch_sym_power(a: int, n: int, nmax: int, uorder: int) -> PontPoly:
    """ch(S^a T_C) via [t^a] exp(sum_k t^k/k * sum_j (e^{kx_j}+e^{-kx_j}))."""
    return _to_pont(_power_ch(a, n, nmax, 1), nmax, uorder)


def ch_ext_power(b: int, n: int, nmax: int, uorder: int) -> PontPoly:
    """ch(Lambda^b T_C) via [t^b] exp(sum_k (-1)^(k-1) t^k/k * (...))."""
    return _to_pont(_power_ch(b, n, nmax, -1), nmax, uorder)


def ch_monomial(mono: BundleMonomial, n: int, nmax: int, uorder: int | None = None) -> PontPoly:
    """Chern character of a bundle monomial (ch is multiplicative)."""
    return _to_pont(_ch_monomial_s(mono, n, nmax), nmax, uorder)


def ch_virtual(v: VirtualBundlePoly, nmax: int, uorder: int | None = None) -> PontPoly:
    return _to_pont(_ch_virtual_s(v, nmax), nmax, uorder)


# ---------------------------------------------------------------------------
# The bundle route to Ell_2
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _ahat_s(n: int) -> SClass:
    """A-hat(T) of a 4n-manifold in the s-basis, up to weight n."""
    scale, coeffs = _class_coefficients(genus_root_series(GenusKind.AHAT, 2 * n + 2, 1), n)
    return tuple((mu, scale.coeff(0) * c.coeff(0)) for mu, c in coeffs.items() if c.coeff(0))


def _index_vector(v: VirtualBundlePoly) -> SClass:
    """Weight-n part of A-hat(T) ch(v); its pairing with [M] is ind(D x v)."""
    n = v.n
    return tuple((mu, c) for mu, c in _s_mul(_ahat_s(n), _ch_virtual_s(v, n), n) if sum(mu) == n)


def index_bundle(m: Manifold, v: VirtualBundlePoly) -> Fraction:
    """<A-hat(TM) ch(v), [M]>: the index of the v-twisted Dirac operator."""
    if v.n != m.n:
        raise DimMismatch(f"bundle built for n = {v.n}, manifold has n = {m.n}")
    return sum((c * power_sum_number(mu, m) for mu, c in _index_vector(v)), Fraction(0))


@lru_cache(maxsize=None)
def _index_class(n: int, uorder: int, k: int) -> SClass:
    return _index_vector(expand_witten("theta2", n, uorder).coeff(k))


def ell2_via_bundles(m: Manifold, uorder: int | None = None) -> USeries:
    """Ell_2 as sum_k ind(D x B_k) u^k: the bundle route."""
    if uorder is None:
        uorder = default_uorder()
    numbers = {mu: power_sum_number(mu, m) for mu in partitions_of(m.n)}
    coeffs = {}
    for k in range(uorder):
        value = sum((c * numbers[mu] for mu, c in _index_class(m.n, uorder, k)), Fraction(0))
        if value:
            coeffs[k] = value
    return USeries(coeffs, uorder)
