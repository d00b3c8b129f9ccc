"""`ellgen verify`: the identity suites, compiled only when that command runs.

Each check builds its inputs, runs one identity, and prints one JSON report
that says what was checked, at which order, on which seeded draw, and
against what tolerance.
"""

from __future__ import annotations

import json
import math
import random

from . import bundle_route, genera, modular, pontryagin
from .errors import ResidualNonzero


def _random_manifold(n: int, rng) -> pontryagin.Manifold:
    # "p/q" texts, which `Manifold` reads in integers: the numbers of Fraction(p, q) from the same draws
    pont = {p: f"{rng.randint(-60, 60)}/{rng.randint(1, 6)}" for p in pontryagin.partitions_of(n)}
    return pontryagin.Manifold(name=f"random-n{n}", dim=4 * n, pont=pont)


def _parse_tau(text: str) -> complex:
    text = text.strip().replace(" ", "")
    if text == "i":
        return 1j
    if text.startswith("i/"):
        denominator = float(text[2:])
        if not denominator:
            raise ValueError(f"tau {text!r} divides by zero")
        # i/inf would read as 0j and i/nan as nan: reject the divisor as well as the quotient
        tau = 1j / denominator if math.isfinite(denominator) else complex(math.nan)
    else:
        # complex() reads a+bi, a+i, -i and bi once i is spelled j.
        tau = complex(text.replace("i", "j"))
    if not (math.isfinite(tau.real) and math.isfinite(tau.imag)):
        raise ValueError(f"tau {text!r} is not finite")
    return tau


def cmd_verify(args) -> bool:
    """Run the check `args.check`, print its JSON report, and return whether it passed."""
    rng = random.Random(args.seed)
    report: dict = {"check": args.check}
    failures: list[str] = []

    if args.check == "cancellation":
        from fractions import Fraction

        if not genera.cancellation_class().is_zero():
            failures.append("symbolic weight-2 residual is nonzero")
        residuals = []
        for _ in range(args.samples):
            p11 = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 999))
            p2 = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 999))
            r = genera.cancellation_residual(p11, p2)
            residuals.append(str(r))
            if r:
                failures.append(f"residual {r} at (p1^2, p2) = ({p11}, {p2})")
        report["samples"] = args.samples
        report["seed"] = args.seed
        report["residuals"] = residuals
        report["residual"] = "0" if not failures else "nonzero"

    elif args.check == "modular-relation":
        n = args.n
        uorder = args.uorder
        report["n"] = n
        report["uorder"] = uorder
        report["samples"] = args.samples
        report["seed"] = args.seed
        resid = "0"
        for _ in range(args.samples):
            m = _random_manifold(n, rng)
            e2 = pontryagin.genus(m, pontryagin.GenusKind.ELL2, uorder)
            try:
                dec = modular.expand_in_basis(e2, n)
            except ResidualNonzero as exc:
                failures.append(f"{m.name}: {exc}")
                resid = "nonzero"
                continue
            if modular.reconstruct_ell1(dec, uorder) != pontryagin.genus(m, pontryagin.GenusKind.ELL1, uorder):
                failures.append(f"{m.name}: reconstructed Ell1 mismatch")
                resid = "nonzero"
        report["residual"] = resid

    elif args.check == "route-equivalence":
        n = args.n
        uorder = args.uorder
        report["n"] = n
        report["uorder"] = uorder
        report["samples"] = args.samples
        report["seed"] = args.seed
        for _ in range(args.samples):
            m = _random_manifold(n, rng)
            if bundle_route.ell2_via_bundles(m, uorder) != pontryagin.genus(m, pontryagin.GenusKind.ELL2, uorder):
                failures.append(f"{m.name}: bundle route disagrees with Pontryagin route")
        report["residual"] = "0" if not failures else "nonzero"

    elif args.check == "transformation-laws":
        tau = _parse_tau(args.tau)
        start = max(args.uorder, 40)
        uorder, dtol, etol = modular.law_tolerance(tau, start)
        rd, re = modular.law_residuals(tau, uorder)
        report["tau"] = str(tau)
        report["uorder"] = uorder
        report["delta_residual"] = rd
        report["eps_residual"] = re
        report["delta_tolerance"] = dtol
        report["eps_tolerance"] = etol
        report["tolerance_source"] = (
            "proven (modular.law_tolerance): divisor-sum coefficient tails in closed form plus "
            f"float rounding, at the smallest uorder >= {start} where both are <= {modular.LAW_TARGET}"
        )
        if not rd <= dtol:  # a NaN residual fails too
            failures.append(f"delta law residual {rd} above {dtol}")
        if not re <= etol:
            failures.append(f"eps law residual {re} above {etol}")

    else:
        raise ValueError(f"unknown check {args.check!r}")

    report["pass"] = not failures
    if failures:
        report["failures"] = failures
    print(json.dumps(report, default=str))
    return not failures
