"""The Witten bundles as objects: monomials, virtual bundles, q-series, their characters and indices.

`expand_witten` gives Theta x Theta_1 and Theta x Theta_2 of the reduced
tangent bundle as q-series whose coefficients A_k, B_k are integer
combinations of monomials S^a1(T)...Lambda^b1(T)... of total tensor power at
most k: `BundleMonomial`s with integer coefficients in a `VirtualBundlePoly`,
which adds and multiplies.  The integer kernel (the expansion, the s-basis
Chern characters and the index class of the bundle route to Ell_2) lives in
`bundle_route`; this module wraps its integers in these objects and keeps
the public converters.  `ell2_via_bundles` is the route's own, bound here
too.  Only the `ch_*` functions load `chern` and `fractions`, for the
`PontPoly` they return, and `index_bundle` reads its index as a `Fraction`.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .bundle_route import SClass, _ch_monomial_s, _ch_virtual_s, _index_row, _s_basis, _s_to_p, witten_terms
from .bundle_route import ell2_via_bundles  # noqa: the public name, bound where `ellgen` and the tracer read it
from .errors import DimMismatch
from .pontryagin import Manifold, _pair_rows
from .series import DEFAULT_UORDER, RowView, USeries, _RingOps, as_int, signed_sum


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


@lru_cache(maxsize=128)
def expand_witten(which: str, n: int, uorder: int) -> BundleQSeries:
    """Expand Theta x Theta_1 ("theta1") or Theta x Theta_2 ("theta2"): the u^k coefficient is A_k resp. B_k.

    The bundles of `bundle_route.witten_terms`, which checks the arguments,
    as `VirtualBundlePoly`s of `BundleMonomial`s.
    """
    coeffs = {
        k: VirtualBundlePoly._make({BundleMonomial(*key): c for key, c in terms}, n)
        for k, terms in enumerate(witten_terms(which, n, uorder))
        if terms
    }
    # One memoized series goes to every caller, so its mapping is read-only.
    return BundleQSeries(n, uorder, MappingProxyType(coeffs))


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
    return _to_pont(_ch_virtual_s(v._t.items(), v.n, nmax), nmax, uorder)


def index_bundle(m: Manifold, v: VirtualBundlePoly) -> Fraction:
    """<A-hat(TM) ch(v), [M]>: the index of the v-twisted Dirac operator."""
    if v.n != m.n:
        raise DimMismatch(f"bundle built for n = {v.n}, manifold has n = {m.n}")
    nums, den = _index_row(v._t.items(), v.n)
    return _pair_rows(RowView(((0, nums),), den), m, 1).coeff(0)
