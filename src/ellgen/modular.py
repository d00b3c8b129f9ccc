"""The delta/epsilon modular forms and the basis decomposition of Ell_2.

delta_1, eps_1 (weight 2 and 4 over Gamma_0(2)) and delta_2, eps_2 (the
same weights over Gamma^0(2)) are generated from their divisor-sum
q-expansions.  Ell_2 of a 4n-manifold lies in the span of
(8 delta_2)^(n-2r) eps_2^r, and the coordinates h_r transport it to Ell_1
through the tau -> -1/tau transformation laws, which are also checkable
numerically at chosen points of the upper half-plane.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache

from .errors import FloatRangeExceeded, NotInUpperHalfPlane, Record, ResidualNonzero
from .series import USeries, default_uorder, linear_combination


def _odd_divisor_sum(k: int) -> int:
    return sum(d for d in range(1, k + 1) if k % d == 0 and d % 2 == 1)


def _signed_cube_sum(k: int) -> int:
    return sum((-1) ** d * d**3 for d in range(1, k + 1) if k % d == 0)


def _odd_cofactor_cube_sum(k: int) -> int:
    return sum(d**3 for d in range(1, k + 1) if k % d == 0 and (k // d) % 2 == 1)


def delta1(uorder: int | None = None) -> USeries:
    """1/4 + 6 sum_n (sum_{d|n, d odd} d) q^n."""
    uorder = default_uorder(uorder)
    c = {0: Fraction(1, 4)}
    for n in range(1, (uorder - 1) // 2 + 1):
        c[2 * n] = Fraction(6 * _odd_divisor_sum(n))
    return USeries(c, uorder)


def eps1(uorder: int | None = None) -> USeries:
    """1/16 + sum_n (sum_{d|n} (-1)^d d^3) q^n."""
    uorder = default_uorder(uorder)
    c = {0: Fraction(1, 16)}
    for n in range(1, (uorder - 1) // 2 + 1):
        c[2 * n] = Fraction(_signed_cube_sum(n))
    return USeries(c, uorder)


def delta2(uorder: int | None = None) -> USeries:
    """-1/8 - 3 sum_n (sum_{d|n, d odd} d) q^(n/2)."""
    uorder = default_uorder(uorder)
    c = {0: Fraction(-1, 8)}
    for n in range(1, uorder):
        c[n] = Fraction(-3 * _odd_divisor_sum(n))
    return USeries(c, uorder)


def eps2(uorder: int | None = None) -> USeries:
    """sum_n (sum_{d|n, n/d odd} d^3) q^(n/2)."""
    uorder = default_uorder(uorder)
    c = {}
    for n in range(1, uorder):
        c[n] = Fraction(_odd_cofactor_cube_sum(n))
    return USeries(c, uorder)


class ModBasisDecomp(Record):
    """Coordinates of Ell_2 in the basis (8 delta_2)^(n-2r) eps_2^r."""

    _fields = ("n", "h")

    def __init__(self, n: int, h: tuple[Fraction, ...]):
        self._set(n, h)

    @property
    def all_integer(self) -> bool:
        return all(x.denominator == 1 for x in self.h)


@lru_cache(maxsize=128)
def _basis2(n: int, r: int, uorder: int) -> USeries:
    """(8 delta_2)^(n-2r) eps_2^r, the r-th element of the Ell_2 basis."""
    return (delta2(uorder) * 8) ** (n - 2 * r) * eps2(uorder) ** r


@lru_cache(maxsize=128)
def _basis1(n: int, r: int, uorder: int) -> USeries:
    """(8 delta_1)^(n-2r) eps_1^r, the image of `_basis2(n, r, uorder)` in Ell_1."""
    return (delta1(uorder) * 8) ** (n - 2 * r) * eps1(uorder) ** r


def expand_in_basis(e2: USeries, n: int) -> ModBasisDecomp:
    """Solve e2 = sum_r h_r (8 delta_2)^(n-2r) eps_2^r for the h_r.

    The basis element indexed r starts at u^r with leading coefficient
    (-1)^n, so matching u^0..u^(floor(n/2)) is triangular; the remaining
    coefficients of e2 are then forced, and any mismatch raises
    ResidualNonzero.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rmax = n // 2
    if e2.order < rmax + 1:
        raise ValueError(f"series order {e2.order} too small, need >= {rmax + 1}")
    uorder = e2.order
    h = []
    resid = e2
    for r in range(rmax + 1):
        basis = _basis2(n, r, uorder)
        lead = basis.coeff(r)
        hr = resid.coeff(r) / lead
        h.append(hr)
        resid = linear_combination(((1, resid), (-hr, basis)), uorder)
    if not resid.is_zero():
        k = resid.valuation()
        raise ResidualNonzero(
            f"series is not in the modular span: residual {resid.coeff(k)} at u^{k}"
        )
    return ModBasisDecomp(n=n, h=tuple(h))


def reconstruct_ell1(d: ModBasisDecomp, uorder: int | None = None) -> USeries:
    """Ell_1 = 2^(2n) sum_r h_r (8 delta_1)^(n-2r) eps_1^r.

    This is the coefficient-level content of Ell_1(-1/tau) =
    (2 tau)^(2n) Ell_2(tau) together with delta_2(-1/tau) = tau^2 delta_1
    and eps_2(-1/tau) = tau^4 eps_1.
    """
    uorder = default_uorder(uorder)
    n = d.n
    return linear_combination(
        ((hr * 4**n, _basis1(n, r, uorder)) for r, hr in enumerate(d.h) if hr), uorder
    )


def numeric_eval(s: USeries, tau: complex) -> tuple[complex, float]:
    """Evaluate at q = e^(2 pi i tau), i.e. u = e^(pi i tau).

    Returns (value, tail_bound); the bound is the crude geometric estimate
    |c_last| |u|^order / (1 - |u|) from the last retained coefficient.
    Raises FloatRangeExceeded when |u| rounds to 1 (Im tau below ~1e-16).
    """
    tau = complex(tau)
    if tau.imag <= 0:
        raise NotInUpperHalfPlane(f"tau = {tau} has nonpositive imaginary part")
    w = cmath.exp(1j * cmath.pi * tau)
    r = abs(w)
    if r >= 1.0:
        raise FloatRangeExceeded(f"|e^(pi i tau)| rounds to 1 at the evaluation point tau = {tau}")
    value = 0j
    for k, v in s.items():
        value += float(v) * w**k
    support = s.support()
    if not support:
        return value, 0.0
    c_last = abs(float(s.coeff(support[-1])))
    tail = c_last * r**s.order / (1.0 - r)
    return value, tail
