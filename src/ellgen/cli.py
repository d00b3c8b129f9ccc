"""Command-line front end.

Exit codes: 0 success, 1 verification check failed, 2 malformed input
(also used by argparse for usage errors), 3 dimension/domain errors,
including an n = dim/4 above `pontryagin.MAX_N` (a manifold's `dim`, a
hypersurface's `--ambient`, `verify --n`), refused before any partition of
n is enumerated, a Sobolev root whose residual tolerance cannot be reached or
whose evaluation overflows double precision, an inconclusive
transformation-laws check, whose proven tolerance no order up to
`modular.LAW_CAP` brings under `modular.LAW_TARGET`, and an exact result with
an integer longer than `sys.get_int_max_str_digits()` digits, which is not
printed; 4 an internal error (a bug), with its traceback on stderr.
All series output is exact rational except the `sobolev` command.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__, bundles, genera, modular, pontryagin, sobolev
from .errors import (
    DimMismatch,
    FloatRangeExceeded,
    NotInUpperHalfPlane,
    ResidualNonzero,
    ToleranceNotReached,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_DOMAIN = 3
EXIT_INTERNAL = 4


def _load_manifold(path: str) -> pontryagin.Manifold:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    m = pontryagin.Manifold.from_json(obj)
    missing = m.missing_partitions()
    if missing:
        names = ", ".join("p" + "p".join(map(str, p)) for p in missing)
        print(
            f"warning: {path}: Pontryagin numbers {names} missing, assuming 0",
            file=sys.stderr,
        )
    return m


def _print(build) -> int:
    """Print the text `build()` makes.  An int longer than `sys.get_int_max_str_digits()` digits,
    which str() refuses (the limit stays: past it printing is quadratic), is a domain error: exit 3."""
    try:
        text = build()
    except ValueError:
        limit = sys.get_int_max_str_digits()
        print(f"error: the result holds an integer longer than the {limit}-digit limit of str()", file=sys.stderr)
        return EXIT_DOMAIN
    print(text)
    return EXIT_OK


def cmd_genus(args) -> int:
    m = _load_manifold(args.manifold)
    result = pontryagin.genus(m, pontryagin.GenusKind(args.genus), args.uorder)
    return _print(lambda: json.dumps(result.to_json()) if args.format == "json" else result.qstring())


def cmd_hypersurface(args) -> int:
    h = pontryagin.Hypersurface(ambient=args.ambient, degree=args.degree)
    m = pontryagin.hypersurface_pont(h)
    sigma = pontryagin.genus(m, pontryagin.GenusKind.LHAT, 1).coeff(0)
    ahat = pontryagin.genus(m, pontryagin.GenusKind.AHAT, 1).coeff(0)
    ell2 = pontryagin.genus(m, pontryagin.GenusKind.ELL2, args.uorder)
    if args.format == "json":
        return _print(lambda: json.dumps(
            {"manifold": m.to_json(), "signature": str(sigma), "ahat": str(ahat), "ell2": ell2.to_json()}
        ))
    return _print(lambda: "\n".join([
        json.dumps(m.to_json()),
        f"signature = {sigma}",
        f"ahat      = {ahat}",
        f"ell2      = {ell2.qstring()}",
    ]))


def cmd_bundles(args) -> int:
    which = "theta1" if args.which == "theta1" else "theta2"
    label = "A" if which == "theta1" else "B"
    bqs = bundles.expand_witten(which, args.n, args.uorder)
    if args.format == "json":
        return _print(lambda: json.dumps({f"{label}{k}": bqs.coeff(k).pretty() for k in range(args.uorder)}))
    return _print(lambda: "\n".join(f"{label}{k} = {bqs.coeff(k).pretty()}" for k in range(args.uorder)))


def _random_manifold(n: int, rng) -> pontryagin.Manifold:
    from fractions import Fraction

    pont = {
        p: Fraction(rng.randint(-60, 60), rng.randint(1, 6)) for p in pontryagin.partitions_of(n)
    }
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


def cmd_verify(args) -> int:
    import random
    from fractions import Fraction

    rng = random.Random(args.seed)
    report: dict = {"check": args.check}
    failures: list[str] = []

    if args.check == "cancellation":
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
        report["residuals"] = residuals
        report["residual"] = "0" if not failures else "nonzero"

    elif args.check == "modular-relation":
        n = args.n
        uorder = args.uorder
        report["n"] = n
        report["uorder"] = uorder
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
        for _ in range(args.samples):
            m = _random_manifold(n, rng)
            if bundles.ell2_via_bundles(m, uorder) != pontryagin.genus(m, pontryagin.GenusKind.ELL2, uorder):
                failures.append(f"{m.name}: bundle route disagrees with theta route")
        report["residual"] = "0" if not failures else "nonzero"

    elif args.check == "transformation-laws":
        tau = _parse_tau(args.tau)
        start = max(args.uorder, 40)
        uorder, dtol, etol = modular.law_tolerance(tau, start)
        d2v, _ = modular.numeric_eval(modular.delta2(uorder), -1 / tau)
        d1v, _ = modular.numeric_eval(modular.delta1(uorder), tau)
        e2v, _ = modular.numeric_eval(modular.eps2(uorder), -1 / tau)
        e1v, _ = modular.numeric_eval(modular.eps1(uorder), tau)
        rd = abs(d2v - tau**2 * d1v)
        re = abs(e2v - tau**4 * e1v)
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
    return EXIT_OK if not failures else EXIT_CHECK_FAILED


def cmd_sobolev(args) -> int:
    c = sobolev.sobolev_c(args.m, args.b, args.tol)
    out = {
        "m": args.m,
        "b": args.b,
        "C_b": c,
        "R": sobolev._radius(args.diam, args.b, c),
        "residual": abs(_residual(args.m, args.b, c)),
        "wallis": sobolev.wallis(args.m),
    }
    print(json.dumps(out))
    return EXIT_OK


def _residual(m: int, b: float, x: float) -> float:
    return sobolev._xF(m, b, x, 1e-13) - sobolev.wallis(m)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellgen",
        description="Exact elliptic genera, Witten genus and characteristic numbers.",
    )
    parser.add_argument("--version", action="version", version=f"ellgen {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("genus", help="q-expansion of a genus from a manifold file")
    p.add_argument("--manifold", required=True, help="path to a Manifold JSON file")
    p.add_argument(
        "--genus",
        required=True,
        choices=("ahat", "lhat", "ell1", "ell2", "witten"),  # pontryagin.GenusKind values, not loaded here
        help="which genus to compute",
    )
    p.add_argument("--uorder", type=_positive_int, default=None, help="truncation order in u = q^(1/2)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_genus)

    p = sub.add_parser("hypersurface", help="Pontryagin numbers and genera of X(N; d)")
    p.add_argument("--ambient", type=int, required=True, help="N of the ambient CP^N")
    p.add_argument("--degree", type=int, required=True, help="degree d of the hypersurface")
    p.add_argument("--uorder", type=_positive_int, default=8)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_hypersurface)

    p = sub.add_parser("bundles", help="expand the Witten bundles into A_k / B_k")
    p.add_argument("--n", type=_positive_int, required=True, help="manifold parameter (dim = 4n)")
    p.add_argument("--uorder", type=_positive_int, default=5)
    p.add_argument("--which", choices=["theta1", "theta2"], default="theta2")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_bundles)

    p = sub.add_parser("verify", help="run one of the identity suites")
    p.add_argument(
        "--check",
        required=True,
        choices=["cancellation", "modular-relation", "route-equivalence", "transformation-laws"],
    )
    p.add_argument("--n", type=_positive_int, default=2)
    p.add_argument("--uorder", type=_positive_int, default=12)
    p.add_argument("--samples", type=_positive_int, default=20)
    p.add_argument("--seed", type=int, default=0, help="RNG seed for reproducible runs")
    p.add_argument("--tau", default="i", help="evaluation point for transformation-laws")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sobolev", help="Poincare-Sobolev radius constant C(b) and R")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-11)
    p.add_argument("--diam", type=float, default=1.0)
    p.set_defaults(func=cmd_sobolev)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, value in vars(args).items():  # argparse reads --opt=-- as [], unconverted
        if isinstance(value, list):
            parser.error(f"argument --{name}: expected one argument")
    try:
        return args.func(args)
    except (DimMismatch, FloatRangeExceeded, NotInUpperHalfPlane, ToleranceNotReached) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception:  # a bug, not an input: never the exit code of a failed check
        import traceback

        traceback.print_exc()
        return EXIT_INTERNAL


def __getattr__(name: str):
    """Old `ellgen.cli.<name>` lookups of the package's public names."""
    return sys.modules[__package__].__getattr__(name)


if __name__ == "__main__":
    sys.exit(main())
