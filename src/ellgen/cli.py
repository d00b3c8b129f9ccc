"""Command-line front end.

Exit codes: 0 success, 1 verification check failed, 2 malformed input
(also used by argparse for usage errors), 3 dimension/domain errors, 4 an
internal error (a bug), with its traceback on stderr.  Exit 3 covers a size
above its cap, refused before any work: an n = dim/4 above `pontryagin.MAX_N`
(a manifold's `dim`, a hypersurface's `--ambient`, `verify --n`), a `--uorder`
above `bundles.MAX_UORDER` (`bundles`, `verify --check route-equivalence`) or
`modular.LAW_CAP` (`transformation-laws`), or whose cost p(n)^(3/2) uorder^2 is
above `pontryagin.MAX_COST` (`genus`, `hypersurface`, `modular-relation`), a
`sobolev --m` above `sobolev.MAX_M` and a `--tol` below the rounding of x F(x).
It also covers a Sobolev root not reached or overflowing double precision, an
inconclusive transformation-laws check (no order up to `modular.LAW_CAP` brings
its proven tolerance under `modular.LAW_TARGET`), and an exact result with an
integer longer than `sys.get_int_max_str_digits()` digits, which is not printed.
All series output is exact rational except the `sobolev` command.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, bundles, pontryagin, sobolev
from .errors import DimMismatch, FloatRangeExceeded, NotInUpperHalfPlane, ToleranceNotReached

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_DOMAIN = 3
EXIT_INTERNAL = 4


def _load_manifold(path: str) -> pontryagin.Manifold:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    m = pontryagin.Manifold.from_json(obj)
    # an explicit 0 is given, not missing: `m` keeps only the nonzero numbers, so read the keys
    given = set(map(pontryagin.partition_from_str, obj.get("pontryagin_numbers", {})))
    missing = [p for p in pontryagin.partitions_of(m.n) if p not in given]
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


def cmd_verify(args) -> int:
    from .verify import cmd_verify  # the identity suites compile only for this command

    return EXIT_OK if cmd_verify(args) else EXIT_CHECK_FAILED


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
    # series.DEFAULT_UORDER, not loaded here
    p.add_argument("--uorder", type=_positive_int, default=24, help="truncation order in u = q^(1/2)")
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
