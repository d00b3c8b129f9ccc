"""Lambda-ring expansion of the Witten bundles into coefficient bundles.

The twisted tensor products Theta x Theta_1 and Theta x Theta_2 of the
reduced tangent bundle expand as q-series whose coefficients A_k, B_k are
integer combinations of monomials S^a1(T)...Lambda^b1(T)... of total tensor
power at most k.  Reduction by the trivial bundle only contributes scalar
factors (1 -+ t)^(+-4n), so the monomials stay honest S/Lambda powers of T;
the scalars make one integer u-series, built by one in-place pass per factor
and one 4n-th power.

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
Pontryagin route too, multiplies it by the Pontryagin numbers of M.  The
route runs in integers: only the public `ch_*` functions load `chern` and
`fractions`, for the `PontPoly` they return, and `index_bundle` reads its
index as a `Fraction`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, repeat
from math import comb, factorial, gcd, lcm
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .errors import DimMismatch, OrderTooLarge
from .pontryagin import GenusKind, Manifold, Partition, _check_n, _join, _newton_terms, _pair_rows, genus_log, partitions_of
from .series import DEFAULT_UORDER, RowView, USeries, _RingOps, as_int, combine, reduce_ratio, signed_sum

MAX_UORDER = 24  # the largest uorder of the bundle route, DEFAULT_UORDER (README, "Size caps")


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


class VirtualBundlePoly(_RingOps):
    """Integer combination of bundle monomials, for a fixed rank parameter n; an int is a multiple of 1."""

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

    def _coerce(self, other) -> "VirtualBundlePoly | None":
        if isinstance(other, VirtualBundlePoly):
            if other.n != self.n:  # a monomial valid at one rank may be the zero bundle at the other
                raise DimMismatch(f"bundles built for n = {self.n} and n = {other.n} do not combine")
            return other
        if isinstance(other, int):
            return VirtualBundlePoly.const(other, self.n)
        return None

    def __add__(self, other) -> "VirtualBundlePoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        t = dict(self._t)
        for m, c in o._t.items():
            t[m] = t.get(m, 0) + c
        return VirtualBundlePoly(t, self.n)

    __radd__ = __add__

    def __neg__(self) -> "VirtualBundlePoly":
        return VirtualBundlePoly({m: -c for m, c in self._t.items()}, self.n)

    def __mul__(self, other) -> "VirtualBundlePoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        t: dict[BundleMonomial, int] = {}
        for m1, c1 in self._t.items():
            for m2, c2 in o._t.items():
                # Both factors are valid monomials: merge their sorted powers.
                m = BundleMonomial(tuple(sorted(m1.sym + m2.sym)), tuple(sorted(m1.ext + m2.ext)))
                t[m] = t.get(m, 0) + c1 * c2
        return VirtualBundlePoly(t, self.n)

    __rmul__ = __mul__

    def exp(self):
        """Not defined: a bundle monomial is not nilpotent, so the Taylor sum would never end."""
        raise TypeError("exp of a VirtualBundlePoly does not terminate")

    def pretty(self) -> str:
        if not self._t:
            return "0"
        terms = []
        for mono, coef in sorted(self._t.items(), key=lambda kv: (-kv[0].total_power, kv[0].sym, kv[0].ext)):
            name = mono.pretty()
            if name == "1":
                terms.append(f"{coef}·1")
            elif coef == 1:
                terms.append(name)
            elif coef == -1:
                terms.append(f"-{name}")
            else:
                terms.append(f"{coef}·{name}")
        return signed_sum(terms)

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


def _scalar(which: str, n: int, uorder: int) -> list[int]:
    """[u^k], k < uorder, of prod_(w even) (1 - u^w)^(4n) prod_w (1 + s u^w)^(-4n), the scalar of `expand_witten`.

    The base b = prod (1 - u^w) / prod (1 + s u^w) takes one in-place pass
    per factor, and its power g = b^(4n) one pass of J. C. P. Miller's
    recurrence k g_k = sum_j ((4n + 1) j - k) b_j g_(k-j), b_0 = 1 (Knuth,
    TAOCP vol. 2, sec. 4.7): all in integers, the division by k exact.
    """
    sign = 1 if which == "theta1" else -1
    base = [1] + [0] * (uorder - 1)
    for w in range(2, uorder, 2):
        for k in range(uorder - 1, w - 1, -1):  # times 1 - u^w: downwards, base[k - w] is still old
            base[k] -= base[k - w]
    for w in range(2 if which == "theta1" else 1, uorder, 2):
        for k in range(w, uorder):  # over 1 + s u^w: upwards, base[k - w] is already new
            base[k] -= sign * base[k - w]
    e1, g = 4 * n + 1, [1] + [0] * (uorder - 1)
    for k in range(1, uorder):
        g[k] = sum((e1 * j - k) * base[j] * g[k - j] for j in range(1, k + 1)) // k
    return g


@lru_cache(maxsize=128)
def expand_witten(which: str, n: int, uorder: int) -> BundleQSeries:
    """Expand Theta x Theta_1 ("theta1") or Theta x Theta_2 ("theta2").

    Uses S_t(E - C^r) = S_t(E)(1-t)^r and Lambda_t(E - C^r) = Lambda_t(E)
    (1+t)^(-r): the u^k coefficient is the bundle A_k resp. B_k.  The scalar
    factors commute with the bundle factors, so they are collected into one
    integer series, built by in-place passes and one power (`_scalar`), and
    applied once at the end.
    """
    if which not in ("theta1", "theta2"):
        raise ValueError(f"which must be 'theta1' or 'theta2', got {which!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_n(n)  # its coefficients grow like n^(uorder/2)
    if uorder < 1:
        raise ValueError("uorder must be >= 1")
    if uorder > MAX_UORDER:  # the bundles, so the per-monomial memos too, grow with uorder
        raise OrderTooLarge(f"uorder {uorder} is above the largest bundle-route uorder {MAX_UORDER}")
    rank = 4 * n
    sign = 1 if which == "theta1" else -1
    terms: list[dict] = [{} for _ in range(uorder)]
    terms[0][((), ())] = 1
    # The in-place passes commute: one family of factors after the other.
    for w in range(2, uorder, 2):
        _mul_powers(terms, w, 0, 1, uorder)
    for w in range(2 if which == "theta1" else 1, uorder, 2):
        _mul_powers(terms, w, 1, sign, rank)  # Lambda^b of the rank-4n bundle is zero for b > 4n
    scaled: list[dict] = [{} for _ in range(uorder)]
    for i, s in enumerate(_scalar(which, n, uorder)):
        if s:
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
    ends = tuple(accumulate(len(partitions_of(w)) for w in range(nmax + 1)))  # ends[w]: the parts of weight <= w
    table = tuple(
        tuple((j, index[_join(mu, nu)]) for j, nu in enumerate(parts[: ends[nmax - sum(mu)]])) for mu in parts
    )
    return parts, table


def _s_class(coeffs: Mapping[Partition, tuple[int, int]], nmax: int) -> SClass:
    """The class sum_mu (p_mu / q_mu) s_mu of (p, q > 0) integer pairs, weight <= nmax."""
    den = lcm(*(q for _, q in coeffs.values()))
    return reduce_ratio([p * (den // q) for p, q in map(coeffs.get, _s_basis(nmax)[0], repeat((0, 1)))], den)


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
    coeffs = {(): (4 * n, 1)}
    for r in range(1, nmax + 1):
        coeffs[(r,)] = 2 * k ** (2 * r), factorial(2 * r)
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


def _to_pont(c: SClass, nmax: int, uorder: int):
    """Rewrite an s-basis class as a `chern.PontPoly` in p_1..p_nmax with constant u-series coefficients."""
    from fractions import Fraction

    from .chern import PontPoly

    nums, den = c
    terms = _s_to_p(nums, _s_basis(nmax)[0])
    return PontPoly(
        {lam: USeries.const(Fraction(v, den), uorder) for lam, v in terms.items()}, nmax, uorder
    )


def ch_monomial(mono: BundleMonomial, n: int, nmax: int, uorder: int = DEFAULT_UORDER):
    """Chern character of a bundle monomial as a `chern.PontPoly` (ch is multiplicative)."""
    return _to_pont(_ch_monomial_s(mono, n, nmax), nmax, uorder)


def ch_virtual(v: VirtualBundlePoly, nmax: int, uorder: int = DEFAULT_UORDER):
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
    f0, a = genus_log(GenusKind.AHAT, n, 1)  # constant series: each is (_n[0], _d)
    coeffs = {(): (f0._n[0] ** (2 * n), f0._d ** (2 * n))}
    for mu in (mu for w in range(1, n + 1) for mu in partitions_of(w)):
        k = mu[-1]  # c_mu from mu less one smallest part
        p, q = coeffs[mu[:-1]]
        p, q = p * a[k - 1]._n[0], q * a[k - 1]._d * mu.count(k)
        g = gcd(p, q)
        coeffs[mu] = p // g, q // g
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
    return _pair_rows(RowView(((0, nums),), den), m, 1).coeff(0)


@lru_cache(maxsize=128)
def _index_class(n: int, uorder: int):
    """Ell_2 of the bundle route on p_1..p_n as a row view: row k is the index row of B_k."""
    b = expand_witten("theta2", n, uorder)
    rows = [_index_row(b.coeff(k)) for k in range(uorder)]
    den = lcm(*(d for _, d in rows))
    scaled = ((k, tuple(x * (den // d) for x in nums)) for k, (nums, d) in enumerate(rows))
    return RowView(tuple((k, row) for k, row in scaled if any(row)), den)


def ell2_via_bundles(m: Manifold, uorder: int = DEFAULT_UORDER) -> USeries:
    """Ell_2 as sum_k ind(D x B_k) u^k: the bundle route."""
    return _pair_rows(_index_class(m.n, uorder), m, uorder)
