"""Lambda-ring expansion of the Witten bundles into coefficient bundles.

The twisted tensor products Theta x Theta_1 and Theta x Theta_2 of the
reduced tangent bundle expand as q-series whose coefficients A_k, B_k are
integer combinations of monomials S^a1(T)...Lambda^b1(T)... of total tensor
power at most k.  Reduction by the trivial bundle only contributes scalar
factors (1 -+ t)^(+-4n), so the monomials stay honest S/Lambda powers of T.

The coefficient bundles feed an index-route computation of Ell_2 through
the Chern character, entirely independent of the theta-product route.
Chern characters live in the power-sum basis s_mu = prod_i s_(mu_i),
s_k = sum_j x_j^(2k): a class is one vector of integer numerators, one per
partition of weight <= nmax, over one reduced denominator, and a product is
one integer convolution through a per-nmax table of partition unions.  The
k-scaled tangent character is linear in the s_k, ch(S^a T) and
ch(Lambda^b T) follow from a t-adic exp, and a monomial's character is that
of the monomial without its last factor times that of the last factor,
memoized on (monomial, n, nmax).  The index is linear in the bundle, so the
index vector of a virtual bundle v, the weight-n part of A-hat(T) ch(v), is
one product per bundle, rewritten once in p_1..p_n (`_power_sum_terms`).
Ell_2 is the row view of those rows for B_0, B_1, ..., memoized per
(n, uorder), and `pontryagin._pair_rows`, the pairing kernel of the
Pontryagin route too, multiplies it by the Pontryagin numbers of M.  Only
the public `ch_*` functions load `chern`, for the `PontPoly` they return.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .errors import DimMismatch
from .pontryagin import GenusKind, Manifold, Partition, _check_n, _join, _newton_terms, _pair_rows, genus_log, partitions_of
from .series import USeries, as_int, combine, default_uorder, reduce_ratio


def __getattr__(name: str):
    # `bundles.pair` is `chern.pair`, looked up on use so that the route never loads `chern`.
    # Only the benchmark's tracer test reads it here, a pin that ROADMAP item 1 releases.
    if name == "pair":
        from .chern import pair

        return pair
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class BundleMonomial(NamedTuple):
    """S^a1(T) x ... x Lambda^b1(T) x ...; powers stored as sorted tuples."""

    sym: tuple[int, ...] = ()
    ext: tuple[int, ...] = ()

    @staticmethod
    def make(sym=(), ext=()) -> "BundleMonomial":
        sym = tuple(sorted(as_int(a, "tensor power") for a in sym))
        ext = tuple(sorted(as_int(b, "tensor power") for b in ext))
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
            coef = as_int(coef, "bundle coefficient")
            # Exterior powers above the rank are the zero bundle.
            if coef and all(b <= 4 * n for b in mono.ext):
                t[mono] = coef
        self._t = t

    @classmethod
    def _make(cls, t: dict[BundleMonomial, int], n: int) -> "VirtualBundlePoly":
        """Wrap nonzero int coefficients of monomials already valid for rank 4n."""
        out = cls.__new__(cls)
        out.n = n
        out._t = t
        return out

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


class BundleQSeries(NamedTuple):
    """q-expansion (in u = q^(1/2)) with VirtualBundlePoly coefficients."""

    n: int
    order: int
    coeffs: Mapping[int, VirtualBundlePoly] = MappingProxyType({})

    def coeff(self, k: int) -> VirtualBundlePoly:
        if k >= self.order:
            raise ValueError(f"coefficient u^{k} beyond truncation order {self.order}")
        return self.coeffs.get(k, VirtualBundlePoly({}, self.n))


def _mul_powers(terms: list[dict], w: int, slot: int, sign: int, top: int) -> None:
    """Multiply by 1 + sum_(1 <= a <= top) sign^a X^a u^(w a) in place.

    terms[k] maps (sym, ext) pairs of sorted power tuples to the integer
    coefficient of u^k; X^a is S^a (slot 0) or Lambda^a (slot 1).  Walking k
    downwards reads each old coefficient before any product lands on it.
    """
    order = len(terms)
    for k in range(order - 1 - w, -1, -1):
        src = terms[k]
        for a in range(1, min(top, (order - 1 - k) // w) + 1):
            dst = terms[k + w * a]
            f = sign**a
            for key, c in src.items():
                merged = tuple(sorted(key[slot] + (a,)))
                out = (merged, key[1]) if slot == 0 else (key[0], merged)
                dst[out] = dst.get(out, 0) + f * c


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
    _check_n(n)  # its coefficients grow like n^(uorder/2)
    if uorder < 1:
        raise ValueError("uorder must be >= 1")
    rank = 4 * n
    sign = 1 if which == "theta1" else -1
    terms: list[dict] = [{} for _ in range(uorder)]
    terms[0][((), ())] = 1
    scalar = USeries.one(uorder)
    m = 1
    while True:
        w_sym = 2 * m
        w_twist = 2 * m if which == "theta1" else 2 * m - 1
        if min(w_sym, w_twist) >= uorder:
            break
        if w_sym < uorder:
            _mul_powers(terms, w_sym, 0, 1, uorder)
            scalar = scalar * (USeries.one(uorder) - USeries.monomial(w_sym, 1, uorder)) ** rank
        if w_twist < uorder:
            # Lambda^b of the rank-4n bundle is zero for b > 4n.
            _mul_powers(terms, w_twist, 1, sign, rank)
            tsigned = USeries.monomial(w_twist, sign, uorder)
            scalar = scalar * (USeries.one(uorder) + tsigned) ** (-rank)
        m += 1
    scaled: list[dict] = [{} for _ in range(uorder)]
    for i, s in scalar.items():
        s = as_int(s, "bundle scalar coefficient")
        for k in range(uorder - i):
            dst = scaled[i + k]
            for key, c in terms[k].items():
                dst[key] = dst.get(key, 0) + s * c
    coeffs = {}
    for k, acc in enumerate(scaled):
        t = {BundleMonomial(*key): c for key, c in acc.items() if c}
        if t:
            coeffs[k] = VirtualBundlePoly._make(t, n)
    # One memoized series goes to every caller, so its mapping is read-only.
    return BundleQSeries(n, uorder, MappingProxyType(coeffs))


# ---------------------------------------------------------------------------
# Chern characters of the monomials, in the power-sum basis
# ---------------------------------------------------------------------------

# A class is (numerators, den): the coefficients on s_mu = prod_i s_(mu_i),
# s_k = sum_j x_j^(2k), as integer numerators in the partition order of
# _s_basis over one positive denominator, with gcd(den, *numerators) == 1.
# Index vectors use the same form on the partitions of n alone.  Both parts
# are immutable, so no caller can mutate a cached class.
SClass = tuple[tuple[int, ...], int]


@lru_cache(maxsize=None)
def _s_basis(nmax: int):
    """(parts, table): the partitions of weight 0..nmax, by weight, and the product table.

    table[i] lists the (j, k) with s_(parts[i]) s_(parts[j]) = s_(parts[k])
    of weight <= nmax.
    """
    parts = tuple(mu for w in range(nmax + 1) for mu in partitions_of(w))
    index = {mu: i for i, mu in enumerate(parts)}
    table = tuple(
        tuple(
            (j, index[tuple(sorted(mu + nu, reverse=True))])
            for j, nu in enumerate(parts)
            if sum(mu) + sum(nu) <= nmax
        )
        for mu in parts
    )
    return parts, table


def _s_class(coeffs: Mapping[Partition, Fraction], nmax: int) -> SClass:
    """The class sum_mu c_mu s_mu of rational coefficients, weight <= nmax."""
    den = lcm(*(c.denominator for c in coeffs.values()))
    return reduce_ratio([int(coeffs.get(mu, 0) * den) for mu in _s_basis(nmax)[0]], den)


def _s_mul(a: SClass, b: SClass, nmax: int) -> SClass:
    """Product truncated at weight nmax; s_mu s_nu is s of the union of mu and nu."""
    parts, table = _s_basis(nmax)
    (an, ad), (bn, bd) = a, b
    out = [0] * len(parts)
    for x, row in zip(an, table):
        if x:
            for j, k in row:
                y = bn[j]
                if y:
                    out[k] += x * y
    return reduce_ratio(out, ad * bd)


@lru_cache(maxsize=None)
def _scaled_tangent_ch(k: int, n: int, nmax: int) -> SClass:
    """sum_j (e^{k x_j} + e^{-k x_j}) = 4n + sum_r 2 k^(2r) s_r / (2r)!."""
    coeffs = {(): Fraction(4 * n)}
    for r in range(1, nmax + 1):
        coeffs[(r,)] = Fraction(2 * k ** (2 * r), factorial(2 * r))
    return _s_class(coeffs, nmax)


@lru_cache(maxsize=None)
def _power_ch(a: int, n: int, nmax: int, sign: int) -> SClass:
    """ch(S^a T_C) for sign = 1, ch(Lambda^a T_C) for sign = -1.

    [t^a] of the t-adic exp of sum_k sign^(k-1) t^k/k psi_k, psi_k the
    k-scaled tangent character; differentiating in t gives the recursion
    a ch_a = sum_{j=1}^a sign^(j-1) psi_j ch_(a-j).
    """
    size = len(_s_basis(nmax)[0])
    if a == 0:
        return (1,) + (0,) * (size - 1), 1
    nums, den = combine(
        (
            (sign ** (j - 1), _s_mul(_scaled_tangent_ch(j, n, nmax), _power_ch(a - j, n, nmax, sign), nmax))
            for j in range(1, a + 1)
        ),
        size,
    )
    return reduce_ratio(nums, den * a)


@lru_cache(maxsize=None)
def _ch_monomial_s(mono: BundleMonomial, n: int, nmax: int) -> SClass:
    """ch of a bundle monomial: ch of the monomial without its last factor, times ch of that factor."""
    sym, ext = mono
    if ext:
        rest, last = (sym, ext[:-1]), _power_ch(ext[-1], n, nmax, -1)
    elif sym:
        rest, last = (sym[:-1], ()), _power_ch(sym[-1], n, nmax, 1)
    else:
        return _power_ch(0, n, nmax, 1)
    return _s_mul(_ch_monomial_s(rest, n, nmax), last, nmax)


def _ch_virtual_s(v: VirtualBundlePoly, nmax: int) -> SClass:
    return reduce_ratio(*combine(
        ((coef, _ch_monomial_s(mono, v.n, nmax)) for mono, coef in v._t.items()),
        len(_s_basis(nmax)[0]),
    ))


@lru_cache(maxsize=None)
def _power_sum_terms(mu: Partition) -> tuple[tuple[Partition, int], ...]:
    """s_mu = prod_i s_{mu_i} in the p_i, as integer partition terms of weight |mu|."""
    if not mu:
        return (((), 1),)
    acc: dict[Partition, int] = {}
    for lam, c in _power_sum_terms(mu[:-1]):
        for nu, d in _newton_terms(mu[-1]):
            key = _join(lam, nu)
            acc[key] = acc.get(key, 0) + c * d
    return tuple(sorted((p, c) for p, c in acc.items() if c))


def _s_to_p(nums, parts) -> dict[Partition, int]:
    """The numerators of sum_mu nums[mu] s_mu over `parts` rewritten in the p_lambda."""
    terms: dict[Partition, int] = {}
    for mu, x in zip(parts, nums):
        if x:
            for lam, t in _power_sum_terms(mu):
                terms[lam] = terms.get(lam, 0) + x * t
    return terms


def _to_pont(c: SClass, nmax: int, uorder: int | None):
    """Rewrite an s-basis class as a `chern.PontPoly` in p_1..p_nmax with constant u-series coefficients."""
    from .chern import PontPoly

    uorder = default_uorder(uorder)
    nums, den = c
    terms = _s_to_p(nums, _s_basis(nmax)[0])
    return PontPoly(
        {lam: USeries.const(Fraction(v, den), uorder) for lam, v in terms.items()}, nmax, uorder
    )


def ch_monomial(mono: BundleMonomial, n: int, nmax: int, uorder: int | None = None):
    """Chern character of a bundle monomial as a `chern.PontPoly` (ch is multiplicative)."""
    return _to_pont(_ch_monomial_s(mono, n, nmax), nmax, uorder)


def ch_virtual(v: VirtualBundlePoly, nmax: int, uorder: int | None = None):
    """Chern character of a virtual bundle as a `chern.PontPoly`."""
    return _to_pont(_ch_virtual_s(v, nmax), nmax, uorder)


# ---------------------------------------------------------------------------
# The bundle route to Ell_2
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _ahat_s(n: int) -> SClass:
    """A-hat(T) of a 4n-manifold in the s-basis, up to weight n.

    c_mu = f(0)^(2n) prod_k a_k^(m_k) / m_k!, m_k the multiplicity of k in mu (Macdonald, ch. I.2).
    """
    f0, a = genus_log(GenusKind.AHAT, n, 1)
    coeffs = {(): f0.constant() ** (2 * n)}
    for mu in (mu for w in range(1, n + 1) for mu in partitions_of(w)):
        k = mu[-1]  # c_mu from mu less one smallest part
        coeffs[mu] = coeffs[mu[:-1]] * a[k - 1].constant() / mu.count(k)
    return _s_class(coeffs, n)


def _index_row(v: VirtualBundlePoly) -> SClass:
    """Weight-n part of A-hat(T) ch(v), rewritten from the s_mu to the p_lambda, lambda |- n."""
    parts = partitions_of(v.n)
    nums, den = _s_mul(_ahat_s(v.n), _ch_virtual_s(v, v.n), v.n)
    # The partitions of n come last in the weight order.
    terms = _s_to_p(nums[-len(parts):], parts)
    return reduce_ratio([terms.get(lam, 0) for lam in parts], den)


def index_bundle(m: Manifold, v: VirtualBundlePoly) -> Fraction:
    """<A-hat(TM) ch(v), [M]>: the index of the v-twisted Dirac operator."""
    if v.n != m.n:
        raise DimMismatch(f"bundle built for n = {v.n}, manifold has n = {m.n}")
    nums, den = _index_row(v)
    return _pair_rows((((0, nums),), den), m, 1).coeff(0)


@lru_cache(maxsize=128)
def _index_class(n: int, uorder: int):
    """Ell_2 of the bundle route on p_1..p_n as a row view: row k is the index row of B_k."""
    b = expand_witten("theta2", n, uorder)
    rows = [_index_row(b.coeff(k)) for k in range(uorder)]
    den = lcm(*(d for _, d in rows))
    scaled = ((k, tuple(x * (den // d) for x in nums)) for k, (nums, d) in enumerate(rows))
    return tuple((k, row) for k, row in scaled if any(row)), den


def ell2_via_bundles(m: Manifold, uorder: int | None = None) -> USeries:
    """Ell_2 as sum_k ind(D x B_k) u^k: the bundle route."""
    uorder = default_uorder(uorder)
    return _pair_rows(_index_class(m.n, uorder), m, uorder)
