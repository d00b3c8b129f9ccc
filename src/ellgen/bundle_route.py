"""The bundle route to Ell_2, in integers: the Witten expansion, the s-basis characters, the index class.

The twisted tensor products Theta x Theta_1 and Theta x Theta_2 of the
reduced tangent bundle expand as q-series whose coefficients A_k, B_k are
integer combinations of monomials S^a1(T)...Lambda^b1(T)... of total tensor
power at most k.  Reduction by the trivial bundle only contributes scalar
factors (1 -+ t)^(+-4n), so the monomials stay honest S/Lambda powers of T;
the scalars make one integer u-series, built by one in-place pass per factor
and one 4n-th power.  A monomial is the plain pair (sym, ext) of sorted
power tuples, and `witten_terms` gives each u^k as ((sym, ext), coef) pairs:
`bundles` wraps them in its public bundle objects, and the route reads them
as they are.

Ell_2 of the route is the sum of the indices of B_0, B_1, ..., through the
Chern character, entirely independent of the theta-product route.  Chern
characters live in the power-sum basis s_mu = prod_i s_(mu_i),
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
Pontryagin route too, multiplies it by the Pontryagin numbers of M.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, repeat
from math import factorial, gcd, lcm
from typing import Iterable, Mapping

from .errors import OrderTooLarge
from .pontryagin import GenusKind, Manifold, Partition, _check_n, _join, _newton_terms, _pair_rows, genus_log, partitions_of
from .series import DEFAULT_UORDER, RowView, USeries, combine, reduce_ratio

MAX_UORDER = 24  # the largest uorder of the bundle route, DEFAULT_UORDER (README, "Size caps")

# A bundle monomial S^a1(T) x ... x Lambda^b1(T) x ... as (sym, ext), each a
# sorted tuple of tensor powers, and a virtual bundle as its (monomial, coef) pairs.
Monomial = tuple[tuple[int, ...], tuple[int, ...]]
Terms = Iterable[tuple[Monomial, int]]


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
    """[u^k], k < uorder, of prod_(w even) (1 - u^w)^(4n) prod_w (1 + s u^w)^(-4n), the scalar of `witten_terms`.

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
def witten_terms(which: str, n: int, uorder: int) -> tuple[tuple[tuple[Monomial, int], ...], ...]:
    """The u^k coefficients, k < uorder, of Theta x Theta_1 ("theta1") or Theta x Theta_2 ("theta2").

    Uses S_t(E - C^r) = S_t(E)(1-t)^r and Lambda_t(E - C^r) = Lambda_t(E)
    (1+t)^(-r): the u^k coefficient is the bundle A_k resp. B_k, as its
    nonzero ((sym, ext), coef) pairs.  The scalar factors commute with the
    bundle factors, so they are collected into one integer series, built by
    in-place passes and one power (`_scalar`), and applied once at the end.
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
    # One memoized expansion goes to every caller, so it is all tuples.
    return tuple(tuple((key, c) for key, c in acc.items() if c) for acc in scaled)


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
def _ch_monomial_s(mono: Monomial, n: int, nmax: int) -> SClass:
    """ch of a bundle monomial: ch of the monomial without its last factor, times ch of that factor."""
    sym, ext = mono
    if ext:
        rest, last = (sym, ext[:-1]), _power_ch(ext[-1], n, nmax, -1)
    elif sym:
        rest, last = (sym[:-1], ()), _power_ch(sym[-1], n, nmax, 1)
    else:
        return _power_ch(0, n, nmax, 1)
    return _s_mul(_ch_monomial_s(rest, n, nmax), last, nmax)


def _ch_virtual_s(terms: Terms, n: int, nmax: int) -> SClass:
    """ch of the virtual bundle sum coef mono over a rank-4n bundle."""
    return reduce_ratio(*combine(
        ((coef, _ch_monomial_s(mono, n, nmax)) for mono, coef in terms),
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


def _index_row(terms: Terms, n: int) -> SClass:
    """Weight-n part of A-hat(T) ch(v), v = `terms` over a rank-4n bundle, in the p_lambda, lambda |- n."""
    parts = partitions_of(n)
    nums, den = _s_mul(_ahat_s(n), _ch_virtual_s(terms, n, n), n)
    # The partitions of n come last in the weight order.
    in_p = _s_to_p(nums[-len(parts):], parts)
    return reduce_ratio([in_p.get(lam, 0) for lam in parts], den)


@lru_cache(maxsize=128)
def _index_class(n: int, uorder: int):
    """Ell_2 of the bundle route on p_1..p_n as a row view: row k is the index row of B_k."""
    rows = [_index_row(terms, n) for terms in witten_terms("theta2", n, uorder)]
    den = lcm(*(d for _, d in rows))
    scaled = ((k, tuple(x * (den // d) for x in nums)) for k, (nums, d) in enumerate(rows))
    return RowView(tuple((k, row) for k, row in scaled if any(row)), den)


def ell2_via_bundles(m: Manifold, uorder: int = DEFAULT_UORDER) -> USeries:
    """Ell_2 as sum_k ind(D x B_k) u^k: the bundle route."""
    return _pair_rows(_index_class(m.n, uorder), m, uorder)
