"""The delta/epsilon modular forms and the basis decomposition of Ell_2.

delta_1, eps_1 (weight 2 and 4 over Gamma_0(2)) and delta_2, eps_2 (the
same weights over Gamma^0(2)) are generated from their divisor-sum
q-expansions.  Ell_2 of a 4n-manifold lies in the span of
(8 delta_2)^(n-2r) eps_2^r, and the coordinates h_r transport it to Ell_1
through the tau -> -1/tau transformation laws, which are also checkable
numerically at chosen points of the upper half-plane.  Both bases are
memoized in row form (per u-power, integer numerators over one denominator;
the Ell_2 basis is integral and unitriangular up to the sign (-1)^n), so the
solve is integer forward substitution and the transport one row product.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul

from .errors import FloatRangeExceeded, NotInUpperHalfPlane, Record, ResidualNonzero
from .series import USeries, default_uorder, row_product, row_view


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
        if n < 1 or len(h) != n // 2 + 1:
            raise ValueError(f"n = {n} needs n >= 1 and {n // 2 + 1} coordinates, got {len(h)}")
        self._set(n, h)

    @property
    def all_integer(self) -> bool:
        return all(x.denominator == 1 for x in self.h)


@lru_cache(maxsize=128)
def _basis2(n: int, uorder: int) -> tuple[tuple[int, ...], ...]:
    """The Ell_2 basis (8 delta_2)^(n-2r) eps_2^r, r = 0..n//2, in row form.

    Row k holds [u^k] of every element.  8 delta_2 and eps_2 have integer
    coefficients, so the rows are integers; element r starts at u^r with
    leading coefficient (-1)^n.
    """
    d, e = delta2(uorder) * 8, eps2(uorder)
    return tuple(zip(*((d ** (n - 2 * r) * e**r)._n for r in range(n // 2 + 1))))


@lru_cache(maxsize=128)
def _basis1(n: int, uorder: int) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], int]:
    """(rows, den): the images (8 delta_1)^(n-2r) eps_1^r of the `_basis2` elements
    as a `row_view`; they are series in q = u^2, so only even rows are kept."""
    d, e = delta1(uorder) * 8, eps1(uorder)
    return row_view([d ** (n - 2 * r) * e**r for r in range(n // 2 + 1)])


def expand_in_basis(e2: USeries, n: int) -> ModBasisDecomp:
    """Solve e2 = sum_r h_r (8 delta_2)^(n-2r) eps_2^r for the h_r.

    The basis element indexed r starts at u^r with leading coefficient
    (-1)^n, so matching u^0..u^(floor(n/2)) is triangular: the h_r times
    e2's denominator come out as integers by forward substitution on e2's
    numerators.  The remaining coefficients of e2 are then forced, and the
    first mismatch raises ResidualNonzero.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rmax = n // 2
    if e2.order < rmax + 1:
        raise ValueError(f"series order {e2.order} too small, need >= {rmax + 1}")
    rows = _basis2(n, e2.order)
    nums, den = e2._n, e2._d
    sign = -1 if n % 2 else 1
    h: list[int] = []
    for k in range(rmax + 1):
        h.append(sign * (nums[k] - sum(map(mul, h, rows[k]))))
    for k in range(rmax + 1, e2.order):
        if resid := nums[k] - sum(map(mul, h, rows[k])):
            raise ResidualNonzero(
                f"series is not in the modular span: residual {Fraction(resid, den)} at u^{k}"
            )
    return ModBasisDecomp(n=n, h=tuple(Fraction(v, den) for v in h))


def reconstruct_ell1(d: ModBasisDecomp, uorder: int | None = None) -> USeries:
    """Ell_1 = 2^(2n) sum_r h_r (8 delta_1)^(n-2r) eps_1^r.

    This is the coefficient-level content of Ell_1(-1/tau) =
    (2 tau)^(2n) Ell_2(tau) together with delta_2(-1/tau) = tau^2 delta_1
    and eps_2(-1/tau) = tau^4 eps_1.  It is one integer row product on
    `_basis1`, with the h_r over their lcm.
    """
    uorder = default_uorder(uorder)
    n = d.n
    rows, den = _basis1(n, uorder)
    big = lcm(*(hr.denominator for hr in d.h))
    scales = [hr.numerator * (big // hr.denominator) * 4**n for hr in d.h]
    return row_product(rows, scales, big * den, uorder)


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
