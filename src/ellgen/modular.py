"""The delta/epsilon modular forms and the basis decomposition of Ell_2.

delta_1, eps_1 (weight 2 and 4 over Gamma_0(2)) and delta_2, eps_2 (the
same weights over Gamma^0(2)) are generated from their divisor-sum
q-expansions.  Ell_2 of a 4n-manifold lies in the span of
(8 delta_2)^(n-2r) eps_2^r, and the coordinates h_r transport it to Ell_1
through the tau -> -1/tau transformation laws, which are also checkable
numerically at chosen points of the upper half-plane, under the proven
tolerance of `law_tolerance`.  The four forms are `series.divisor_sums`
sieves, not trial divisions per coefficient.  Both bases are
memoized in row form (per u-power, integer numerators over one denominator;
the Ell_2 basis is integral and unitriangular up to the sign (-1)^n), so the
solve is integer forward substitution, and the residual check and the
transport are each one packed `series.row_product`.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, expm1, lcm, log, ulp
from operator import mul

from .errors import FloatRangeExceeded, NotInUpperHalfPlane, OrderTooLarge, Record, ResidualNonzero, ToleranceNotReached
from .series import DEFAULT_UORDER, RowView, USeries, divisor_sums, reduce_ratio, row_product, row_view


def _divisor_form(uorder: int, const: Fraction, scale: int, first: int, step: int, term) -> USeries:
    """const + scale sum_N t_N u^N, t = `divisor_sums(uorder, first, step, term)`."""
    t = divisor_sums(uorder, first, step, term)
    return USeries({**{N: scale * v for N, v in enumerate(t)}, 0: const}, uorder)


def delta1(uorder: int = DEFAULT_UORDER) -> USeries:
    """1/4 + 6 sum_n (sum_{d|n, d odd} d) q^n."""
    return _divisor_form(uorder, Fraction(1, 4), 6, 2, 2, lambda d: d % 2 * d)


def eps1(uorder: int = DEFAULT_UORDER) -> USeries:
    """1/16 + sum_n (sum_{d|n} (-1)^d d^3) q^n."""
    return _divisor_form(uorder, Fraction(1, 16), 1, 2, 2, lambda d: (-1) ** d * d**3)


def delta2(uorder: int = DEFAULT_UORDER) -> USeries:
    """-1/8 - 3 sum_n (sum_{d|n, d odd} d) q^(n/2)."""
    return _divisor_form(uorder, Fraction(-1, 8), -3, 1, 1, lambda d: d % 2 * d)


def eps2(uorder: int = DEFAULT_UORDER) -> USeries:
    """sum_n (sum_{d|n, n/d odd} d^3) q^(n/2)."""
    return _divisor_form(uorder, Fraction(0), 1, 1, 2, lambda d: d**3)


class ModBasisDecomp(Record):
    """Coordinates of Ell_2 in the basis (8 delta_2)^(n-2r) eps_2^r.

    They are kept canonical, as integer numerators `_h` over one `_den` (`reduce_ratio`);
    `==` and `hash` go by that pair, and `h` is its Fraction view, built on first read.
    """

    _fields = ("n", "_h", "_den")

    def __init__(self, n: int, h: tuple[Fraction, ...]):
        if n < 1 or len(h) != n // 2 + 1:
            raise ValueError(f"n = {n} needs n >= 1 and {n // 2 + 1} coordinates, got {len(h)}")
        h = [Fraction(x) for x in h]
        den = lcm(*(x.denominator for x in h))
        self._set(n, *reduce_ratio([x.numerator * (den // x.denominator) for x in h], den))

    @classmethod
    def _make(cls, n: int, nums: list[int], den: int) -> "ModBasisDecomp":
        """The coordinates nums[r] / den (den > 0), reduced to the canonical pair."""
        out = cls.__new__(cls)
        out._set(n, *reduce_ratio(nums, den))
        return out

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(n={self.n!r}, h={self.h!r})"

    @cached_property
    def h(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self._den) for v in self._h)

    @property
    def all_integer(self) -> bool:
        return self._den == 1


@lru_cache(maxsize=128)
def _basis(delta, eps, n: int, uorder: int) -> RowView:
    """The basis (8 delta)^(n-2r) eps^r, r = 0..n//2, of the forms `delta`, `eps` as a `row_view`.

    For (delta2, eps2) it is the Ell_2 basis: both forms have integer coefficients,
    so its den is 1, and element r starts at u^r with leading coefficient (-1)^n.
    For (delta1, eps1) it is the images of those elements under tau -> -1/tau;
    they are series in q = u^2, so only even rows are kept.
    """
    from .pontryagin import _check_cost  # imported here: transformation-laws builds no basis, nor loads pontryagin

    _check_cost(n, uorder)
    d, e = delta(uorder) * 8, eps(uorder)
    # d^(n mod 2) (d^2)^i and e^i for i = 0..n//2 as running products, one product per power
    lead, tail = [d ** (n % 2)], [e**0]
    d2 = d * d if n > 1 else None
    for _ in range(n // 2):
        lead.append(lead[-1] * d2)
        tail.append(tail[-1] * e)
    return row_view([a * b for a, b in zip(reversed(lead), tail)])


def expand_in_basis(e2: USeries, n: int) -> ModBasisDecomp:
    """Solve e2 = sum_r h_r (8 delta_2)^(n-2r) eps_2^r for the h_r.

    The basis element indexed r starts at u^r with leading coefficient
    (-1)^n, so matching u^0..u^(floor(n/2)) is triangular: the h_r times
    e2's denominator come out as integers by forward substitution on e2's
    numerators.  The remaining coefficients of e2 are then forced: one
    `row_product` gives them all, and the first mismatch raises ResidualNonzero.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rmax = n // 2
    if e2.order < rmax + 1:
        raise ValueError(f"series order {e2.order} too small, need >= {rmax + 1}")
    view = _basis(delta2, eps2, n, e2.order)
    nums, den = e2._n, e2._d
    sign = -1 if n % 2 else 1
    h: list[int] = []
    for k, row in view[0][: rmax + 1]:
        h.append(sign * (nums[k] - sum(map(mul, h, row))))
    if (fit := row_product(view, h, e2.order)) != list(nums):
        k, resid = next((k, v - f) for k, (v, f) in enumerate(zip(nums, fit)) if v != f)
        raise ResidualNonzero(f"series is not in the modular span: residual {Fraction(resid, den)} at u^{k}")
    return ModBasisDecomp._make(n, h, den)


def reconstruct_ell1(d: ModBasisDecomp, uorder: int = DEFAULT_UORDER) -> USeries:
    """Ell_1 = 2^(2n) sum_r h_r (8 delta_1)^(n-2r) eps_1^r.

    This is the coefficient-level content of Ell_1(-1/tau) =
    (2 tau)^(2n) Ell_2(tau) together with delta_2(-1/tau) = tau^2 delta_1
    and eps_2(-1/tau) = tau^4 eps_1.  It is one `row_product` on the `_basis`
    of (delta1, eps1) by the integer coordinates, over their one denominator.
    """
    view = _basis(delta1, eps1, d.n, uorder)
    return USeries._make(row_product(view, [v << 2 * d.n for v in d._h], uorder), d._den * view[1])


def _u_point(tau: complex) -> complex:
    """u = e^(pi i tau); NotInUpperHalfPlane for Im tau <= 0, FloatRangeExceeded when |u| rounds to 1."""
    if tau.imag <= 0:
        raise NotInUpperHalfPlane(f"tau = {tau} has nonpositive imaginary part")
    w = cmath.exp(1j * cmath.pi * tau)
    if abs(w) >= 1.0:
        raise FloatRangeExceeded(f"|e^(pi i tau)| rounds to 1 at the evaluation point tau = {tau}")
    return w


def numeric_eval(s: USeries, tau: complex) -> tuple[complex, float]:
    """Evaluate at q = e^(2 pi i tau), i.e. u = e^(pi i tau).

    Returns (value, tail_bound); the bound is the crude geometric estimate
    |c_last| |u|^order / (1 - |u|) from the last retained coefficient, not a
    proven one (`law_tolerance` gives that for the four forms).
    Raises FloatRangeExceeded when |u| rounds to 1 (Im tau below ~1e-16).
    """
    w = _u_point(complex(tau))
    r = abs(w)
    value = 0j
    for k, v in s.items():
        value += float(v) * w**k
    support = s.support()
    if not support:
        return value, 0.0
    c_last = abs(float(s.coeff(support[-1])))
    tail = c_last * r**s.order / (1.0 - r)
    return value, tail


LAW_TARGET = 1e-9  # the proven tolerance both laws must reach, or the check is inconclusive
LAW_CAP = 4096  # the largest order at which the laws are evaluated or bounded


def _check_law_order(uorder: int) -> None:
    if uorder > LAW_CAP:  # refused before any form is built at that order
        raise OrderTooLarge(f"uorder {uorder} is above modular.LAW_CAP = {LAW_CAP}, the largest order of the laws")


def law_residuals(tau: complex, uorder: int) -> tuple[float, float]:
    """|delta2(-1/tau) - tau^2 delta1(tau)| and |eps2(-1/tau) - tau^4 eps1(tau)| through `numeric_eval`
    of the order-`uorder` expansions: the float computation whose error `law_tolerance` bounds.
    A uorder above `LAW_CAP` raises OrderTooLarge."""
    _check_law_order(uorder)
    d2v, _ = numeric_eval(delta2(uorder), -1 / tau)
    d1v, _ = numeric_eval(delta1(uorder), tau)
    e2v, _ = numeric_eval(eps2(uorder), -1 / tau)
    e1v, _ = numeric_eval(eps1(uorder), tau)
    return abs(d2v - tau**2 * d1v), abs(e2v - tau**4 * e1v)


_EPS = 2.0**-53  # the unit roundoff of a double
_ZETA3 = 1.2020569031595945  # zeta(3), rounded up to a double


def _power_tail(j: int, n: int, y: float) -> float:
    """sum_{m >= n} m^j y^m (j <= 3, 0 <= y < 1) = y^n sum_i C(j, i) n^(j-i) A_i(y) / (1-y)^(i+1),
    with the Eulerian polynomials A_0 = 1, A_1 = y, A_2 = y(1+y), A_3 = y(1+4y+y^2)."""
    eulerian = (1.0, y, y * (1 + y), y * (1 + 4 * y + y * y))
    return y**n * sum(comb(j, i) * n ** (j - i) * eulerian[i] / (1 - y) ** (i + 1) for i in range(j + 1))


def _sigma1_tail(n: int, y: float) -> float:
    """An upper bound on sum_{m >= n} m (1 + ln m) y^m: 1 + ln m <= ln n + m/n for m >= n >= 1."""
    return log(n) * _power_tail(1, n, y) + _power_tail(2, n, y) / n


# form -> (u-exponents per step of n, |constant term|, b(n) >= |[q^n] form| for n >= 1 (in
# q = u^2 for delta1, eps1; in u for delta2, eps2), t(n0, y) >= sum_{n >= n0} b(n) y^n), from
# sigma1(n) <= n (1 + ln n) and sigma3(n) <= zeta(3) n^3 (Hardy-Wright, ch. 18).
_FORM_BOUNDS = {
    "delta1": (2, 1 / 4, lambda n: 6 * n * (1 + log(n)), lambda n, y: 6 * _sigma1_tail(n, y)),
    "eps1": (2, 1 / 16, lambda n: _ZETA3 * n**3, lambda n, y: _ZETA3 * _power_tail(3, n, y)),
    "delta2": (1, 1 / 8, lambda n: 3 * n * (1 + log(n)), lambda n, y: 3 * _sigma1_tail(n, y)),
    "eps2": (1, 0.0, lambda n: _ZETA3 * n**3, lambda n, y: _ZETA3 * _power_tail(3, n, y)),
}


def law_tolerance(tau: complex, uorder: int, target: float = LAW_TARGET) -> tuple[int, float, float]:
    """(order, delta_tol, eps_tol): the smallest order in [uorder, LAW_CAP] at which the
    proven bounds on |delta2_N(-1/tau) - tau^2 delta1_N(tau)| and |eps2_N(-1/tau) - tau^4 eps1_N(tau)|,
    as `numeric_eval` computes them at truncation order N, are both <= target (an infinite
    target gives the bounds at uorder itself).

    The laws hold exactly for the infinite series, so each computed residual is at most
    sum over the two forms s (scale 1 at -1/tau, |tau|^2 or |tau|^4 at tau) of scale times

    * the truncation tail sum_{k >= N} |c_k| rhat^k, rhat = |e^(pi i t)| at the exact point t,
      with |c_k| <= b(n) and the tail in closed form (`_FORM_BOUNDS`);
    * the rounding of `numeric_eval`, sum_{k < N} |c_k| rhat^k (e_k + (1.5 N + 12) eps (1 + e_k)).

    Rounding, in units of eps = 2^-53: t = -1/tau is off by <= 5 eps relative, pi by 1.1 eps
    and the product pi t by 1 eps, so z = pi i t is off by <= 7.1 pi |t| eps; exp, cos and sin
    of z and the product are within 5 eps.  So u = e^z is off by eta <= expm1((23 |t| + 6) eps),
    and rhat <= |u| (1 + 2 eta + 2 eps) =: x while eta <= 1/2.  u**k is binary powering for
    k <= 100 and polar (hypot, pow, atan2, cos, sin) above, off by <= (12 k + 32) eps beyond
    (1 + eta)^k; float(c_k) and the product add 2 eps, so the term is off by
    e_k = expm1(k (eta + 12 eps) + 36 eps).  Recursive summation of <= N complex terms adds
    1.01 sqrt(2) N eps <= 1.5 N eps of their absolute sum; tau**2 or tau**4 (<= 7 eps), its
    product (2.3 eps), the subtraction (1.5 eps) and abs add at most 12 eps of it.  These
    steps hold while N eps <= 0.01.  The bound is itself a sum of positive floats, each within
    64 eps, so it is widened by 1e-3 for its own rounding and the second-order terms.

    ToleranceNotReached when no order up to LAW_CAP reaches the target: the check is then
    inconclusive, never passed.  OrderTooLarge for a uorder above LAW_CAP, before any work.
    """
    _check_law_order(uorder)
    tau = complex(tau)
    near = abs(_u_point(tau))  # |u| at tau, checked first: -1/tau needs tau != 0
    far = abs(_u_point(-1 / tau))
    parts = []  # per form: (law, scale, step, c0, b, tail, x, per-k exponent of e_k)
    for form, t, r, scale in (("delta2", -1 / tau, far, 1.0), ("delta1", tau, near, abs(tau) ** 2),
                              ("eps2", -1 / tau, far, 1.0), ("eps1", tau, near, abs(tau) ** 4)):
        # |u| = 0 means rhat < 2^-1074: every computed term past u^0 is 0, off by all of itself
        eta = expm1((23 * abs(t) + 6) * _EPS) if r else 1.0
        x = r * (1 + 2 * eta + 2 * _EPS) if r else ulp(0.0)
        if (r and eta > 0.5) or x >= 1.0:
            raise ToleranceNotReached(
                f"e^(pi i t) at t = {t} is too near |u| = 1, or too inexact, to bound: inconclusive"
            )
        parts.append((form[0] == "e", scale, *_FORM_BOUNDS[form], x, eta + 12 * _EPS))
    sums = [[0.0, 0.0] for _ in parts]  # per form: sum_{k < N} c_k x^k e_k, and with 1 + e_k
    for N in range(LAW_CAP + 1):
        if N >= uorder:
            tol = [0.0, 0.0]
            for (law, scale, step, _, _, tail, x, _), (err, size) in zip(parts, sums):
                tol[law] += scale * (err + (1.5 * N + 12) * _EPS * size + tail(-(-N // step), x**step))
            tol = [1.001 * v for v in tol]
            if max(tol) <= target:
                return N, tol[0], tol[1]
        for (_, _, step, c0, b, _, x, a), acc in zip(parts, sums):
            if N % step == 0:
                term = (b(N // step) if N else c0) * x**N
                e = expm1(min(N * a + 36 * _EPS, 700.0))
                acc[0] += term * e
                acc[1] += term * (1 + e)
    raise ToleranceNotReached(
        f"no order up to u^{LAW_CAP} brings the proven tolerance at tau = {tau} under {target} "
        f"(delta {tol[0]:.3g}, eps {tol[1]:.3g}): the check is inconclusive"
    )
