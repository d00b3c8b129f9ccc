"""Output checks, run outside the timed region.

Each `check_*` function parses one op's output, raises `CheckFailed` when
the output is wrong, and returns the exact values it parsed.  `digest`
hashes those values (not the JSON text), so a change of number formatting
does not trip it but a change of any rational does.

The checks use routes independent of the one that produced the output
where the package has one: the residue route for hypersurfaces, the
modular-form span for Ell_1 and Ell_2, a twisted A-hat for the Witten
genus, and scipy quadrature for Sobolev roots.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from fractions import Fraction

from ellgen.chern import Manifold, ch_tangent
from ellgen.errors import ResidualNonzero
from ellgen.genera import (
    Hypersurface,
    ahat_factor,
    genus,
    hypersurface_genus,
    hypersurface_pont,
    signature_factor,
    twisted_ahat,
)
from ellgen.modular import delta1, eps1, expand_in_basis
from ellgen.series import USeries
from ellgen.theta import GenusKind


class CheckFailed(Exception):
    """An op's output is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def series_values(s: USeries) -> list[str]:
    return [f"order={s.order}"] + [f"{k}:{fraction_str(v)}" for k, v in s.items()]


def digest(values: list[str]) -> str:
    return hashlib.sha256("\n".join(values).encode()).hexdigest()


def _parse(stdout: str):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from exc


def _in_span(target: USeries, basis: list[USeries]) -> bool:
    """Whether target is a rational combination of basis, coefficient by coefficient.

    Gaussian elimination on the augmented system, one row per u-exponent;
    the system is consistent exactly when no row reduces to 0 = nonzero.
    """
    rows = [[b.coeff(k) for b in basis] + [target.coeff(k)] for k in range(target.order)]
    ncols = len(basis)
    pivot_row = 0
    for col in range(ncols):
        pivot = next((r for r in range(pivot_row, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        head = rows[pivot_row]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col]:
                factor = rows[r][col] / head[col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], head)]
        pivot_row += 1
    return all(row[-1] == 0 for row in rows[pivot_row:])


def check_ell2_u0(e2: USeries, m: Manifold) -> None:
    """u^0 of Ell_2 is A-hat."""
    ahat = genus(m, GenusKind.AHAT, 1).coeff(0)
    _require(e2.coeff(0) == ahat, f"Ell2 u^0 = {e2.coeff(0)}, A-hat = {ahat}")


def check_ell2(e2: USeries, m: Manifold) -> None:
    """u^0 of Ell_2 is A-hat, and expand_in_basis accepts the series."""
    check_ell2_u0(e2, m)
    try:
        expand_in_basis(e2, m.n)
    except ResidualNonzero as exc:
        raise CheckFailed(f"Ell2 not in the modular span: {exc}") from exc


def _check_ell1(e1: USeries, m: Manifold) -> None:
    sigma = genus(m, GenusKind.LHAT, 1).coeff(0)
    _require(e1.coeff(0) == sigma, f"Ell1 u^0 = {e1.coeff(0)}, signature = {sigma}")
    n, order = m.n, e1.order
    basis = [(delta1(order) * 8) ** (n - 2 * r) * eps1(order) ** r for r in range(n // 2 + 1)]
    _require(_in_span(e1, basis), "Ell1 not in the span of (8 delta_1)^(n-2r) eps_1^r")


def _check_witten(w: USeries, m: Manifold) -> None:
    # Per root the theta factor is A-hat * (1 + q (e^x + e^-x - 2) + O(q^2)),
    # so the q coefficient is <A-hat (ch(T_C) - 4n), [M]>.
    ahat = genus(m, GenusKind.AHAT, 1).coeff(0)
    _require(w.coeff(0) == ahat, f"Witten u^0 = {w.coeff(0)}, A-hat = {ahat}")
    q1 = twisted_ahat(m, ch_tangent(m.n, m.n, 1)) - 4 * m.n * ahat
    _require(w.coeff(2) == q1, f"Witten q^1 = {w.coeff(2)}, twisted A-hat gives {q1}")
    _require(w.is_even_support(), "Witten genus has a half-integral q power")


def check_genus(params: dict, manifold: dict, stdout: str) -> list[str]:
    s = USeries.from_json(_parse(stdout))
    _require(s.order == params["uorder"], f"order {s.order}, asked {params['uorder']}")
    m = Manifold.from_json(manifold)
    {"ell1": _check_ell1, "ell2": check_ell2, "witten": _check_witten}[params["genus"]](s, m)
    return [params["genus"]] + series_values(s)


def check_hypersurface(params: dict, stdout: str) -> list[str]:
    out = _parse(stdout)
    h = Hypersurface(params["ambient"], params["degree"])
    m = Manifold.from_json(out["manifold"])
    _require(m.pont == hypersurface_pont(h).pont, "Pontryagin numbers differ from hypersurface_pont")
    sigma, ahat = Fraction(out["signature"]), Fraction(out["ahat"])
    xdeg = h.ambient + 1
    residue_sigma = hypersurface_genus(h, signature_factor(xdeg)).coeff(0)
    residue_ahat = hypersurface_genus(h, ahat_factor(xdeg)).coeff(0)
    _require(sigma == residue_sigma, f"signature {sigma}, residue route {residue_sigma}")
    _require(ahat == residue_ahat, f"A-hat {ahat}, residue route {residue_ahat}")
    e2 = USeries.from_json(out["ell2"])
    _require(e2.order == params["uorder"], f"order {e2.order}, asked {params['uorder']}")
    check_ell2(e2, m)
    pont = [f"{k}:{fraction_str(v)}" for k, v in sorted(m.pont.items())]
    return pont + [fraction_str(sigma), fraction_str(ahat)] + series_values(e2)


def sobolev_residual(m: int, b: float, x: float) -> tuple[float, float]:
    """x int_0^b (cosh t + x sinh t)^(m-1) dt - int_0^pi sin^(m-1), and its error bound."""
    from scipy.integrate import quad
    from scipy.special import beta

    integral, err = quad(
        lambda t: (math.cosh(t) + x * math.sinh(t)) ** (m - 1), 0.0, b, epsabs=0.0, epsrel=1e-13, limit=200
    )
    wallis = beta(0.5, m / 2)  # int_0^pi sin^(m-1) t dt
    return x * integral - wallis, x * err + 16 * sys.float_info.epsilon * wallis


def check_sobolev(params: dict, stdout: str) -> list[str]:
    out = _parse(stdout)
    m, b, tol = params["m"], params["b"], params["tol"]
    _require(out["m"] == m and out["b"] == b, "echoed (m, b) differ from the input")
    x = out["C_b"]
    _require(isinstance(x, float) and x > 0, f"C_b = {x!r} is not a positive float")
    residual, slack = sobolev_residual(m, b, x)
    _require(abs(residual) <= tol + slack, f"residual {residual:.3e} above tol {tol:.1e} (+{slack:.1e})")
    _require(math.isclose(out["R"], 1.0 / (b * x), rel_tol=1e-12), f"R = {out['R']}, 1/(b C) = {1.0 / (b * x)}")
    # Floats are left out of the digest: the exact-output rule covers rationals.
    return []


def check_route(params: dict, stdout: str) -> list[str]:
    out = _parse(stdout)
    _require(out.get("pass") is True, f"verify report does not pass: {out}")
    _require(out.get("check") == "route-equivalence", f"wrong check {out.get('check')!r}")
    _require((out.get("n"), out.get("uorder")) == (params["n"], params["uorder"]), "report names other sizes")
    _require(out.get("residual") == "0", f"residual {out.get('residual')!r}")
    return [str(params["n"]), str(params["uorder"]), out["residual"]]


def check_cold(op, stdout: str) -> list[str]:
    """Check a cold op's standard output; return the exact values for the digest."""
    try:
        if op.kind == "hypersurface":
            return check_hypersurface(op.params, stdout)
        if op.kind == "genus":
            return check_genus(op.params, op.manifold, stdout)
        if op.kind == "sobolev":
            return check_sobolev(op.params, stdout)
        return check_route(op.params, stdout)
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise CheckFailed(f"malformed output: {exc!r}") from exc
