"""Genus pipeline: manifolds in, exact q-expansions out.

Two independent routes to the same numbers coexist here:

* the Pontryagin route (`genus`): per-root factor -> its log coefficients
  -> the power-sum closed form rewritten as the weight-n class in p_1..p_n,
  memoized per (kind, n, uorder) (`genus_columns`) and paired with the
  Pontryagin numbers of M (`pair`), in the hyperbolic normalization
  x = 2*pi*sqrt(-1)*z;
* the residue route (`hypersurface_genus`) for hypersurfaces X(N; d) in
  CP^N, which extracts one coefficient of f(x)^(N+1) (d x)/f(d x).

The residue route accepts either normalization of a factor.  The rotated
(tan) convention, the one used for classical residue formulas, agrees with
the genus for N = 1 mod 4 (the substitution x -> ix scales the extracted
coefficient by i^(N-1)); the hyperbolic (tanh) convention agrees for every
admissible N and is the default.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .chern import (
    Manifold,
    PontPoly,
    RootSeries,
    ch_tangent,
    genus_class,
    pair,
    partitions_of,
    weight_class,
)
from .errors import DimNotMultipleOf4, NonUnitConstant, Record
from .series import USeries, as_int, default_uorder
from .theta import (
    GenusKind,
    genus_root_series,
    half_x_over_sinh_half_poly,
    rotate_poly,
    x_over_tanh_poly,
)


def genus(m: Manifold, kind: GenusKind | str, uorder: int | None = None) -> USeries:
    """Exact q-expansion of a genus of `m` (constant series for ahat/lhat)."""
    if uorder is None:
        uorder = default_uorder()
    return pair(genus_columns(GenusKind(kind), m.n, uorder), m)


@lru_cache(maxsize=128)
def genus_columns(kind: GenusKind, n: int, uorder: int) -> PontPoly:
    """The weight-n class of a genus: one u-column per partition of n.

    A genus of a 4n-manifold is linear in its Pontryagin numbers, with
    coefficients (f(0)^(2n) folded in) that depend on (kind, n, uorder)
    only; `genus` pairs this one class with every manifold.
    """
    return weight_class(genus_root_series(kind, 2 * n + 2, uorder), n)


@lru_cache(maxsize=128)
def ahat_class(n: int, uorder: int) -> PontPoly:
    return genus_class(genus_root_series(GenusKind.AHAT, 2 * n + 2, uorder), n)


def twisted_ahat_series(m: Manifold, c: PontPoly) -> USeries:
    """<A-hat(TM) c, [M]> as a u-series (the q-graded twisted index)."""
    return pair(ahat_class(m.n, c.uorder) * c, m)


def twisted_ahat(m: Manifold, c: PontPoly) -> Fraction:
    """u^0 part of the twisted A-hat pairing (the index when c is a bundle)."""
    return twisted_ahat_series(m, c).coeff(0)


# ---------------------------------------------------------------------------
# The dimension-8 cancellation identity
# ---------------------------------------------------------------------------


def cancellation_class() -> PontPoly:
    """Weight-2 part of L-hat - (24 A-hat - A-hat ch(T_C)); identically zero."""
    uorder = 1
    lhat = genus_class(genus_root_series(GenusKind.LHAT, 6, uorder), 2)
    ahat = genus_class(genus_root_series(GenusKind.AHAT, 6, uorder), 2)
    twisted = ahat * ch_tangent(2, 2, uorder)
    return (lhat - (ahat * 24 - twisted)).weight_part(2)


def cancellation_residual(p11, p2) -> Fraction:
    """sigma - (24 A-hat - <A-hat ch(T_C)>) on a dim-8 manifold; always 0."""
    m = Manifold("dim8", 8, {(1, 1): Fraction(p11), (2,): Fraction(p2)})
    sigma = genus(m, GenusKind.LHAT, 1).coeff(0)
    ahat = genus(m, GenusKind.AHAT, 1).coeff(0)
    twisted = twisted_ahat(m, ch_tangent(2, 2, 1))
    return sigma - (24 * ahat - twisted)


# ---------------------------------------------------------------------------
# Hypersurfaces X(N; d) in CP^N
# ---------------------------------------------------------------------------


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
    # c[i] = [x^(2i)] (1+x^2)^(N+1) * sum_k (-d^2)^k x^(2k)
    c = [
        sum(comb(N + 1, j) * Fraction(-d * d) ** (i - j) for j in range(i + 1))
        for i in range(n + 1)
    ]
    pont = {}
    for part in partitions_of(n):
        value = Fraction(d)
        for i in part:
            value *= c[i]
        pont[part] = value
    return Manifold(name=f"X({N};{d})", dim=h.real_dim, pont=pont)


def hypersurface_genus(h: Hypersurface, f: RootSeries) -> USeries:
    """[x^N] of f(x)^(N+1) (d x) / f(d x): the residue-style genus of X(N; d).

    `f` may be a plain characteristic factor (signature, A-hat) or a full
    q-dependent per-root series; it must satisfy f(0) = 1 for the result to
    be the genus itself.
    """
    N, d = h.ambient, h.degree
    if f.xdeg < N + 1:
        raise ValueError(f"factor needs xdeg >= {N + 1}, got {f.xdeg}")
    if not f.constant_term().constant():
        raise NonUnitConstant("hypersurface factor value at x = 0 is not invertible")
    f = f.truncate_x(N + 1)
    dx = RootSeries({1: USeries.const(d, f.uorder)}, N + 1, f.uorder)
    integrand = f ** (N + 1) * f.scale_x(d).inverse() * dx
    return integrand.coeff(N)


def signature_factor(xdeg: int, uorder: int = 1, convention: str = "tanh") -> RootSeries:
    """x/tanh(x) (or its rotation x/tan(x)) for the residue route."""
    poly = x_over_tanh_poly(xdeg)
    if convention == "tan":
        poly = rotate_poly(poly)
    elif convention != "tanh":
        raise ValueError(f"unknown convention {convention!r}")
    return RootSeries.from_xpoly(poly, xdeg, uorder)


def ahat_factor(xdeg: int, uorder: int = 1, convention: str = "tanh") -> RootSeries:
    """(x/2)/sinh(x/2) (or (x/2)/sin(x/2)) for the residue route."""
    poly = half_x_over_sinh_half_poly(xdeg)
    if convention == "tan":
        poly = rotate_poly(poly)
    elif convention != "tanh":
        raise ValueError(f"unknown convention {convention!r}")
    return RootSeries.from_xpoly(poly, xdeg, uorder)
