"""Command-line front end.

Exit codes: 0 success, 1 verification check failed, 2 malformed input
(also a usage error of the command line, see `_parse`), 3 dimension/domain
errors, 4 an internal error (a bug), with its traceback on stderr.  Exit 3 covers a size
above its cap, refused before any work: an n = dim/4 above `pontryagin.MAX_N`
(a manifold's `dim`, a hypersurface's `--ambient`, `verify --n`), a `--uorder`
above `bundle_route.MAX_UORDER` (`bundles`, `verify --check route-equivalence`) or
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

import json
import sys
from types import SimpleNamespace

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
        print(f"warning: {path}: Pontryagin numbers {names} missing, assuming 0", file=sys.stderr)
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
    m = pontryagin.hypersurface_pont(pontryagin.Hypersurface(ambient=args.ambient, degree=args.degree))
    sigma = pontryagin.genus(m, pontryagin.GenusKind.LHAT, 1)
    ahat = pontryagin.genus(m, pontryagin.GenusKind.AHAT, 1)
    ell2 = pontryagin.genus(m, pontryagin.GenusKind.ELL2, args.uorder)
    if args.format == "json":
        return _print(lambda: json.dumps({"manifold": m.to_json(), "signature": sigma.coeff_str(0),
                                          "ahat": ahat.coeff_str(0), "ell2": ell2.to_json()}))
    return _print(lambda: "\n".join([json.dumps(m.to_json()), f"signature = {sigma.coeff_str(0)}",
                                     f"ahat      = {ahat.coeff_str(0)}", f"ell2      = {ell2.qstring()}"]))


def cmd_bundles(args) -> int:
    label = "A" if args.which == "theta1" else "B"
    bqs = bundles.expand_witten(args.which, args.n, args.uorder)
    if args.format == "json":
        return _print(lambda: json.dumps({f"{label}{k}": bqs.coeff(k).pretty() for k in range(args.uorder)}))
    return _print(lambda: "\n".join(f"{label}{k} = {bqs.coeff(k).pretty()}" for k in range(args.uorder)))


def cmd_verify(args) -> int:
    from .verify import cmd_verify  # the identity suites compile only for this command

    return EXIT_OK if cmd_verify(args) else EXIT_CHECK_FAILED


def cmd_sobolev(args) -> int:
    c = sobolev.sobolev_c(args.m, args.b, args.tol)
    residual = abs(sobolev._xF(args.m, args.b, c, 1e-13) - sobolev.wallis(args.m))
    print(json.dumps({"m": args.m, "b": args.b, "C_b": c, "R": sobolev._radius(args.diam, args.b, c),
                      "residual": residual, "wallis": sobolev.wallis(args.m)}))
    return EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return value


def _opt(help: str, convert=str, default=None, choices=None) -> SimpleNamespace:
    return SimpleNamespace(help=help, convert=convert, default=default, choices=choices)


_FORMAT = _opt("output format", default="text", choices=("text", "json"))
# The command line: each command's handler, help line and options (required where there is no default).
COMMANDS = {
    "genus": (cmd_genus, "q-expansion of a genus from a manifold file", dict(
        manifold=_opt("path to a Manifold JSON file"),
        # pontryagin.GenusKind values and series.DEFAULT_UORDER, neither module loaded here
        genus=_opt("which genus to compute", choices=("ahat", "lhat", "ell1", "ell2", "witten")),
        uorder=_opt("truncation order in u = q^(1/2)", _positive_int, 24),
        format=_FORMAT)),
    "hypersurface": (cmd_hypersurface, "Pontryagin numbers and genera of X(N; d)", dict(
        ambient=_opt("N of the ambient CP^N", int),
        degree=_opt("degree d of the hypersurface", int),
        uorder=_opt("truncation order of Ell_2 in u", _positive_int, 8),
        format=_FORMAT)),
    "bundles": (cmd_bundles, "expand the Witten bundles into A_k / B_k", dict(
        n=_opt("manifold parameter (dim = 4n)", _positive_int),
        uorder=_opt("number of bundles A_k / B_k", _positive_int, 5),
        which=_opt("theta1 (A_k) or theta2 (B_k)", default="theta2", choices=("theta1", "theta2")),
        format=_FORMAT)),
    "verify": (cmd_verify, "run one of the identity suites", dict(
        check=_opt("the suite", choices=("cancellation", "modular-relation", "route-equivalence", "transformation-laws")),
        n=_opt("manifold parameter (dim = 4n)", _positive_int, 2),
        uorder=_opt("truncation order in u", _positive_int, 12),
        samples=_opt("number of random manifolds", _positive_int, 20),
        seed=_opt("RNG seed for reproducible runs", int, 0),
        tau=_opt("evaluation point for transformation-laws", default="i"))),
    "sobolev": (cmd_sobolev, "Poincare-Sobolev radius constant C(b) and R", dict(
        m=_opt("dimension m of the sphere", int),
        b=_opt("upper limit b of the integral F", float),
        tol=_opt("residual tolerance of the root", float, 1e-11),
        diam=_opt("diameter in R = diam / (b C(b))", float, 1.0))),
}


def _help(name) -> list[str]:
    """The help lines of command `name` (None: of `ellgen` itself), from `COMMANDS`; the first is the usage."""
    if name is None:
        usage = "ellgen [-h] [--version] {" + ",".join(COMMANDS) + "} ..."
        about = "Exact elliptic genera, Witten genus and characteristic numbers."
        rows = [("--version", "show the version and exit"), *((k, line) for k, (_, line, _) in COMMANDS.items())]
    else:
        _, about, options = COMMANDS[name]
        rows = [(f"--{k} " + ("{" + ",".join(o.choices) + "}" if o.choices else k.upper()),
                 o.help + (" (required)" if o.default is None else f" (default: {o.default})")) for k, o in options.items()]
        words = (w if o.default is None else f"[{w}]" for (w, _), o in zip(rows, options.values()))
        usage = " ".join([f"ellgen {name} [-h]", *words])
    rows.insert(0, ("-h, --help", "show this help and exit"))
    return [f"usage: {usage}", "", about, "", *(f"  {left}\n        {right}" for left, right in rows)]


def _fail(name, what: str):
    print(_help(name)[0], f"ellgen{'' if name is None else ' ' + name}: error: {what}", sep="\n", file=sys.stderr)
    raise SystemExit(EXIT_BAD_INPUT)


def _parse(argv: list):
    """(handler, namespace) for `argv`, read against `COMMANDS`.  An option is named in full or by a
    unique prefix.  Its value is the text after `=`, or else the next token verbatim; a repeated
    option keeps its last value.  --help and --version exit 0, a usage error exits 2."""
    name = argv[0] if argv and not argv[0].startswith("-") else None
    if name is not None and name not in COMMANDS:
        _fail(None, f"argument command: invalid choice: {name!r}")
    run, _, options = COMMANDS[name] if name else (None, None, {"version": None})  # ellgen [--version]: no spec is read
    values, tokens = {}, iter(argv[name is not None:])
    for token in tokens:
        key, eq, text = token[2:].partition("=") if token.startswith("--") else ("help" if token == "-h" else "", "", "")
        keys = (*options, "help")
        hits = [k for k in keys if k == key] or [k for k in keys if key and k.startswith(key)]
        if len(hits) != 1:
            _fail(name, f"ambiguous option --{key}: --{', --'.join(hits)}" if hits else f"unrecognized argument {token!r}")
        if (key := hits[0]) in ("help", "version"):
            print("\n".join(_help(name)) if key == "help" else f"ellgen {__version__}")
            raise SystemExit(EXIT_OK)
        if not eq and (text := next(tokens, None)) is None:
            _fail(name, f"argument --{key}: expected one argument")
        try:
            values[key] = options[key].convert(text)
        except ValueError as exc:
            _fail(name, f"argument --{key}: {exc}")
        if options[key].choices and values[key] not in options[key].choices:
            _fail(name, f"argument --{key}: invalid choice: {text!r}")  # the usage line lists them
    if name is None:
        _fail(None, "the following arguments are required: command")
    if missing := [f"--{k}" for k, o in options.items() if o.default is None and k not in values]:
        _fail(name, "the following arguments are required: " + ", ".join(missing))
    return run, SimpleNamespace(**{k: values.get(k, o.default) for k, o in options.items()})


def main(argv=None) -> int:
    run, args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return globals()[run.__name__](args)  # by name, so that a handler replaced on this module runs
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
