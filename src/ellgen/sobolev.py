"""Explicit analytic constants: Sobolev radius root and Moser exponents.

This is the one floating-point corner of the package.  C(b) is the unique
positive root of g(x) = x F(x) = W, with F(x) = int_0^b (cosh t + x sinh
t)^(m-1) dt and W = int_0^pi sin^(m-1) t dt.  g'' = 2 F' + x F'' >= 0
because F' and F'' integrate nonnegative terms, so g is increasing and
convex on x >= 0: the root is unique, and a bracket [lo, hi] with
g(lo) < W <= g(hi) keeps it.  The solver brackets with the closed form
g(1) = (e^((m-1) b) - 1)/(m-1), narrows [0, 1] to [0, W/F(0)] when the
root lies below 1 (g(x) >= x F(0)), and then runs Illinois regula falsi:
false position whose retained endpoint value is halved when the same end
moves twice running, with the midpoint taken whenever the secant point is
not strictly inside the bracket.  The iteration constant of the mean value
inequality is assembled from closed forms of the geometric sums K_1, K_2.

The sphere Sobolev constant Sigma(m, l1, l2) and the Moser constant C(m, p)
have no closed form here and stay caller-supplied parameters.
"""

from __future__ import annotations

import math

from .errors import ExponentRangeViolation, FloatRangeExceeded, Record, ToleranceNotReached

_MAX_STEPS = 400


def wallis(m: int) -> float:
    """int_0^pi sin^(m-1) t dt by the exact recurrence I_k = (k-1)/k I_(k-2)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    k = m - 1
    value = math.pi if k % 2 == 0 else 2.0
    j = 2 if k % 2 == 0 else 3
    while j <= k:
        value *= (j - 1) / j
        j += 2
    return value


def _simpson(f, a: float, b: float) -> float:
    return (b - a) / 6.0 * (f(a) + 4.0 * f(0.5 * (a + b)) + f(b))


def _adaptive_simpson(f, a: float, b: float, tol: float, depth: int = 40) -> float:
    whole = _simpson(f, a, b)
    if not math.isfinite(whole):
        # inf - inf in the error estimate would recurse to full depth
        raise OverflowError("quadrature sum overflows")
    return _adaptive_step(f, a, b, tol, whole, depth)


def _adaptive_step(f, a: float, b: float, tol: float, whole: float, depth: int) -> float:
    mid = 0.5 * (a + b)
    left = _simpson(f, a, mid)
    right = _simpson(f, mid, b)
    # The relative floor keeps the recursion from chasing tolerances below
    # rounding noise when the local integral is large.
    floor = max(tol, 1e-15 * (abs(left) + abs(right)))
    if depth <= 0 or abs(left + right - whole) <= 15.0 * floor:
        return left + right + (left + right - whole) / 15.0
    return _adaptive_step(f, a, mid, tol / 2.0, left, depth - 1) + _adaptive_step(
        f, mid, b, tol / 2.0, right, depth - 1
    )


def _closed_form_F(m: int, b: float, x: float) -> float:
    # cosh t + x sinh t = A e^t + B e^-t with A = (1+x)/2, B = (1-x)/2, so
    # the integrand expands binomially into exponentials and integrates
    # exactly.  For x <= 1 every term is nonnegative: no cancellation.
    A = 0.5 * (1.0 + x)
    B = 0.5 * (1.0 - x)
    total = 0.0
    for k in range(m):
        j = 2 * k - (m - 1)
        piece = b if j == 0 else math.expm1(j * b) / j
        total += math.comb(m - 1, k) * A**k * B ** (m - 1 - k) * piece
    return total


def _xF(m: int, b: float, x: float, tol: float) -> float:
    # x F(x) with the x scaling inside, so absolute tolerances stay
    # meaningful across the huge dynamic range of x.  Above x = 1 the
    # closed form cancels catastrophically, but there the root equation
    # forces (m-1) b to be small and quadrature is cheap.
    if x <= 1.0:
        return x * _closed_form_F(m, b, x)
    return _adaptive_simpson(
        lambda t: x * (math.cosh(t) + x * math.sinh(t)) ** (m - 1), 0.0, b, tol
    )


def _require_positive_finite(name: str, value: float) -> None:
    # NaN fails every comparison, so `value <= 0` alone would let it through.
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def sobolev_c(m: int, b: float, tol: float = 1e-11) -> float:
    """The unique positive root C(b) of x F(x) = wallis(m).

    F(x) = int_0^b (cosh t + x sinh t)^(m-1) dt; the returned x satisfies
    |x F(x) - wallis(m)| < tol.

    As b -> 0, b C(b) = (m W + 1)^(1/m) - 1 + O(b^2) with W = wallis(m):
    with s = x b and t = b tau the integrand is 1 + s tau + O(b^2), so the
    equation becomes ((1+s)^m - 1)/m = W + O(b^2).

    Raises FloatRangeExceeded when F overflows a double on the way, as it
    does for m = 2000, b = 1 and for b = 1e300 (e^((m-1) b)), or when the
    root itself does (b = 5e-324); ToleranceNotReached when tol is below
    what the rounding of x F(x) allows within the iteration cap.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    _require_positive_finite("b", b)
    _require_positive_finite("tol", tol)
    try:
        return _solve_root(m, b, tol)
    except OverflowError as exc:
        raise FloatRangeExceeded(
            f"C(b) at m = {m}, b = {b} overflows double precision ({exc})"
        ) from exc


def _solve_root(m: int, b: float, tol: float) -> float:
    target = wallis(m)
    qtol = tol / 10.0
    # Bracket with the exact g(1) (cosh t + sinh t = e^t), so a root below
    # 1 never pays a quadrature.  Above 1, cosh t >= 1 and sinh t >= t give
    # g(x) >= ((1 + x b)^m - 1)/m, so the root lies below the small-b limit
    # ((m W + 1)^(1/m) - 1)/b; doubling only guards against quadrature
    # rounding there.  g_lo < 0 <= g_hi hold g - W at lo and hi.
    g_one = math.expm1((m - 1) * b) / (m - 1) - target
    if g_one >= 0.0:
        lo, g_lo, hi, g_hi = 0.0, -target, 1.0, g_one
        # g(x) >= x F(0) puts the root below W/F(0).  Far below 1 the root
        # sits in the near-linear part of g, where this bound all but hits
        # it; false position from [0, 1] would instead creep up from 0 by
        # about one doubling per step.
        cap = target / _closed_form_F(m, b, 0.0)
        if cap < 1.0:
            g_cap = _xF(m, b, cap, qtol) - target
            if abs(g_cap) < tol:
                return cap
            if g_cap > 0.0:
                hi, g_hi = cap, g_cap
            else:  # rounding put g(cap) a hair below W
                lo, g_lo = cap, g_cap
    else:
        lo, g_lo, hi = 1.0, g_one, ((m * target + 1.0) ** (1.0 / m) - 1.0) / b
        while math.isfinite(hi) and (g_hi := _xF(m, b, hi, qtol) - target) < 0.0:
            lo, g_lo, hi = hi, g_hi, 2.0 * hi
        if not math.isfinite(hi):
            raise OverflowError("the root exceeds the largest double")
    moved = 0  # -1 or 1: the end the previous step replaced
    steps = 0
    while steps < _MAX_STEPS:
        denom = g_hi - g_lo
        x = (lo * g_hi - hi * g_lo) / denom if denom else lo  # lo: bisect
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                break  # lo and hi are adjacent doubles
        steps += 1
        value = _xF(m, b, x, qtol) - target
        if abs(value) < tol:
            return x
        if value < 0.0:
            lo, g_lo = x, value
            if moved < 0:
                g_hi *= 0.5
            moved = -1
        else:
            hi, g_hi = x, value
            if moved > 0:
                g_lo *= 0.5
            moved = 1
    raise ToleranceNotReached(
        f"residual tolerance {tol} not reached after {steps} iterations"
    )


def radius_r(diam: float, b: float, m: int, tol: float = 1e-11) -> float:
    """R = diam / (b C(b)).  Raises FloatRangeExceeded when R overflows."""
    return _radius(diam, b, sobolev_c(m, b, tol))


def _radius(diam: float, b: float, c: float) -> float:
    # R from an already solved root c = C(b)
    _require_positive_finite("diam", diam)
    r = diam / (b * c)
    if not math.isfinite(r):
        raise FloatRangeExceeded(f"R = diam / (b C(b)) = {diam} / {b * c} overflows double precision")
    return r


def sphere_volume(m: int) -> float:
    """Volume of the unit m-sphere: 2 pi^((m+1)/2) / Gamma((m+1)/2)."""
    return 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)


def poincare_s(l1: float, l2: float, V: float, R: float, m: int, Sigma: float) -> float:
    """S_{l1,l2} = (V / vol(S^m))^(1/l1 - 1/l2) R Sigma(m, l1, l2)."""
    if not (1 <= l1 and math.isfinite(l1)):
        raise ExponentRangeViolation(f"need 1 <= l1 < inf, got {l1}")
    if not (1 <= l2 < m):
        raise ExponentRangeViolation(f"need 1 <= l2 < m = {m}, got {l2}")
    if l1 > m * l2 / (m - l2):
        raise ExponentRangeViolation(
            f"l1 = {l1} above the Sobolev exponent {m * l2 / (m - l2)}"
        )
    if V <= 0 or R <= 0 or Sigma <= 0:
        raise ValueError("V, R and Sigma must be positive")
    return (V / sphere_volume(m)) ** (1.0 / l1 - 1.0 / l2) * R * Sigma


class MoserExponents(Record):
    """mu = m/(m-2), eps = (mu(p-1)-p)/(p(mu-1)), and the iteration sums
    K1 = sum_i i mu^-i, K2 = sum_i mu^-i in closed form."""

    _fields = ("m", "p", "mu", "eps", "K1", "K2")

    def __init__(self, m: int, p: float, mu: float, eps: float, K1: float, K2: float):
        self._set(m, p, mu, eps, K1, K2)


def moser_exponents(m: int, p: float) -> MoserExponents:
    if m < 3:
        raise ExponentRangeViolation(f"need m >= 3, got {m}")
    if p <= m / 2:
        raise ExponentRangeViolation(f"need p > m/2 = {m / 2}, got {p}")
    mu = m / (m - 2.0)
    eps = (mu * (p - 1.0) - p) / (p * (mu - 1.0))
    r = 1.0 / mu
    k1 = r / (1.0 - r) ** 2
    k2 = 1.0 / (1.0 - r)
    return MoserExponents(m=m, p=p, mu=mu, eps=eps, K1=k1, K2=k2)


def moser_constant(m: int, p: float, R: float, Lambda: float, Cmp: float) -> float:
    """C(m, p, R, Lambda) = mu^(2 K1 p(mu-1)/(mu(p-1)-p)) B^(2 K2) with
    B = Cmp Lambda^((mu-1)/(2(mu(p-1)-p))) R^(p(mu-1)/(mu(p-1)-p)) + 2."""
    if R <= 0:
        raise ValueError("R must be positive")
    if Lambda < 0:
        raise ValueError("Lambda must be nonnegative")
    if Cmp <= 0:
        raise ValueError("Cmp must be positive")
    e = moser_exponents(m, p)
    denom = e.mu * (p - 1.0) - p
    main_exp = p * (e.mu - 1.0) / denom
    B = Cmp * Lambda ** (0.5 * (e.mu - 1.0) / denom) * R**main_exp + 2.0
    return e.mu ** (2.0 * e.K1 * main_exp) * B ** (2.0 * e.K2)
