"""Contract fuzz of the command line, in process: every run of `main(argv)` returns an exit
code in {0, 1, 2, 3} (argparse's own exits included), no exception escapes, and exit 1,
"a verification check failed", comes only from `verify`.  Sizes stay small (n <= 4,
uorder <= 12, samples <= 2, m <= 64) so that the whole fuzz costs a few seconds, or
go above `MAX_N` (a manifold `dim`, `hypersurface --ambient`, `bundles --n`, `verify --n`),
where the command must refuse at once."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from ellgen.cli import main
from ellgen.pontryagin import MAX_N

BAD_NUMBERS = ["0", "-1", "-0", "nan", "inf", "-inf", "1e3", "1.5", "abc", "", "0x10", "--"]


def numbers(lo, hi):
    """Mostly in-range integers, so that most runs get past the parser."""
    good = st.integers(max(lo, 1), hi).map(str)
    return st.one_of(good, good, good, st.integers(lo, hi).map(str), st.sampled_from(BAD_NUMBERS))


# n above the cap, up to 10^300: every command that takes n must refuse it at once
huge_ns = st.integers(MAX_N + 1, 10**300)


floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(1e-3, 10).map(repr),
    st.sampled_from(["5e-324", "1e308", "-0.0", "x", ""]),
)
taus = st.one_of(
    st.sampled_from([
        "i", "+i", "1+i", "-1+i", "0.5+2i", "2i", "i/2", "0.1i", "0", "-i", "1", "1-i", "i/0", "i/-2",
        "nani", "1e400i", "i/nan", "i/inf", "1e-17i", "1e-300i", "1e-9+1e-9i", "1e6+i", "abc", "", "1+", "ii",
    ]),
    st.builds("{}+{}i".format, st.floats(-3, 3), st.floats(0.05, 5)),
)
parts = st.one_of(
    st.sampled_from(["[1]", "[2]", "[1,1]", "[3]", "[2,1]", "[1,1,1]", "[4]", "[2,2]", "[3,1]"]),
    st.sampled_from(["[0]", "[-1]", "[1.5]", "[]", "x", "[true]", "[5]"]),
)
values = st.one_of(
    st.integers(-100, 100),
    st.integers(-100, 100),
    st.fractions(-50, 50, max_denominator=9).map(str),
    st.sampled_from(["3/4", "-7", "1/0", "x", "1e-999999999999", "nan", "inf", True, None, 1.5, [1], {}]),
)
manifolds = st.one_of(
    st.fixed_dictionaries({
        "name": st.text(max_size=4),
        "dim": st.one_of(st.sampled_from([4, 8, 12, 16]), st.sampled_from([0, -4, 3, 6, "8", 8.0, 8.5, True, None, "x", [8]]),
                         huge_ns.map(lambda n: 4 * n), st.sampled_from([4e300, 1e308, 4.0 * 10**20])),
        "pontryagin_numbers": st.one_of(st.dictionaries(parts, values, max_size=4), st.sampled_from([[], "x", None])),
    }),
    st.sampled_from([[], 3, "x", None, {}, {"dim": 4}]),
).map(json.dumps)
manifold_texts = st.one_of(manifolds, st.sampled_from(["", "{", "[1, 2", "\ud800"]))
genera = st.sampled_from(["ahat", "lhat", "ell1", "ell2", "witten", "bogus"])


def command(head, required, optional):
    """argv = head, then every required flag and some optional ones, as --name=value in a drawn order."""
    flags = [values.map(lambda v, name=name: [f"--{name}={v}"]) for name, values in required.items()]
    flags += [st.one_of(st.just([]), values.map(lambda v, name=name: [f"--{name}={v}"])) for name, values in optional.items()]
    return st.tuples(*flags).flatmap(st.permutations).map(lambda fs: [head, *(a for f in fs for a in f)])


uorders = numbers(-1, 12)
commands = st.one_of(
    st.tuples(manifold_texts, command("genus", {"genus": genera},
                                      {"uorder": uorders, "format": st.sampled_from(["text", "json", "xml"])})),
    st.tuples(st.none(), command("hypersurface", {"ambient": st.one_of(numbers(-1, 9), huge_ns.map(lambda n: str(2 * n + 1))),
                                                  "degree": numbers(-1, 5)},
                                 {"uorder": uorders, "format": st.sampled_from(["text", "json"])})),
    st.tuples(st.none(), command("bundles", {"n": st.one_of(numbers(-1, 4), huge_ns.map(str))},
                                 {"uorder": uorders, "which": st.sampled_from(["theta1", "theta2", "theta3"])})),
    st.tuples(st.none(), command(
        "verify",
        {"check": st.sampled_from(["cancellation", "modular-relation", "route-equivalence", "transformation-laws", "other"])},
        {"n": st.one_of(numbers(-1, 4), huge_ns.map(str)), "uorder": uorders, "samples": numbers(-1, 2),
         "seed": numbers(-5, 5), "tau": taus},
    )),
    st.tuples(st.none(), command("sobolev", {"m": numbers(-2, 64), "b": floats}, {"tol": floats, "diam": floats})),
    st.tuples(st.none(), st.sampled_from([[], ["--version"], ["nope"], ["genus"], ["verify", "--check"]])),
)


@settings(max_examples=300)
@given(commands)
def test_every_cli_run_exits_with_a_documented_code(tmp_path_factory, drawn):
    text, argv = drawn
    if text is not None:
        path = tmp_path_factory.mktemp("fuzz") / "m.json"
        path.write_text(text, encoding="utf-8", errors="surrogatepass")
        argv = [*argv, f"--manifold={path}"]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse: 2 for a usage error, 0 for --version
        code = exc.code
    assert code in (0, 1, 2, 3), argv
    assert code != 1 or argv[0] == "verify", argv
