"""Contract fuzz of the command line, in process: every run of `main(argv)` returns an exit
code in {0, 1, 2, 3} (the parser's own exits included), no exception escapes, and exit 1,
"a verification check failed", comes only from `verify`.  Sizes stay small (n <= 4,
uorder <= 12, samples <= 2, m <= 64) so that the whole fuzz costs a few seconds, or
go above a cap, where the command must refuse at once: n above `MAX_N` (a manifold `dim`,
`hypersurface --ambient`, `bundles --n`, `verify --n`), uorder above `bundle_route.MAX_UORDER`,
`modular.LAW_CAP` and the budget `pontryagin.MAX_COST` (up to 10^6), `sobolev --m` above
`MAX_M`, and a `sobolev --tol` below the rounding of x F(x).  Each example runs under a
wall-clock limit, so that a hang fails the test instead of stalling it."""

import json
import signal

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellgen.bundle_route import MAX_UORDER
from ellgen.cli import main
from ellgen.modular import LAW_CAP
from ellgen.pontryagin import MAX_COST, MAX_N
from ellgen.sobolev import MAX_M

LIMIT_S = 10  # per example; every in-range example takes well under a second


class Hang(BaseException):
    """Raised by the per-example alarm: a BaseException, which `main` does not catch."""


def _alarm(signum, frame):
    raise Hang(f"the example ran past {LIMIT_S} s")

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
# around and below the rounding W m 2^-53 of x F(x), about 1e-16..1e-14 for m <= 64
tiny_tols = st.one_of(st.sampled_from(["1e-15", "1e-14", "1e-300", "5e-324"]), st.floats(1e-300, 1e-12).map(repr))
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


# above every uorder cap at every n: p(n) >= 1 puts uorder^2 > MAX_COST above the budget
huge_uorders = st.integers(max(MAX_UORDER, LAW_CAP, int(MAX_COST**0.5)) + 1, 10**6).map(str)
uorders = st.one_of(numbers(-1, 12), huge_uorders)
commands = st.one_of(
    st.tuples(manifold_texts, command("genus", {"genus": genera},
                                      {"uorder": uorders, "format": st.sampled_from(["text", "json", "xml"])})),
    st.tuples(st.none(), command("hypersurface", {"ambient": st.one_of(numbers(-1, 9), huge_ns.map(lambda n: str(2 * n + 1))),
                                                  "degree": numbers(-1, 5)},
                                 {"uorder": uorders, "format": st.sampled_from(["text", "json"])})),
    st.tuples(st.none(), command("bundles", {"n": st.one_of(numbers(-1, 4), huge_ns.map(str))},
                                 {"uorder": st.one_of(uorders, st.integers(MAX_UORDER + 1, 10**6).map(str)), "which": st.sampled_from(["theta1", "theta2", "theta3"])})),
    st.tuples(st.none(), command(
        "verify",
        {"check": st.sampled_from(["cancellation", "modular-relation", "route-equivalence", "transformation-laws", "other"])},
        {"n": st.one_of(numbers(-1, 4), huge_ns.map(str)), "uorder": uorders, "samples": numbers(-1, 2),
         "seed": numbers(-5, 5), "tau": taus},
    )),
    st.tuples(st.none(), command(
        "sobolev",
        {"m": st.one_of(numbers(-2, 64), st.integers(MAX_M + 1, 10**9).map(str)), "b": floats},
        {"tol": st.one_of(floats, tiny_tols), "diam": floats},
    )),
    st.tuples(st.none(), st.sampled_from([[], ["--version"], ["nope"], ["genus"], ["verify", "--check"]])),
)


N2 = json.dumps({"name": "m", "dim": 8, "pontryagin_numbers": {"[2]": 1}})


@settings(max_examples=300)
@given(commands)
# each of these ran for a minute or more before its cap (ROADMAP item 2)
@example((N2, ["genus", "--genus=ell2", "--uorder=1000000"]))
@example((None, ["hypersurface", "--ambient=5", "--degree=2", "--uorder=1000000"]))
@example((None, ["verify", "--check=modular-relation", "--n=2", "--uorder=1000000", "--samples=1"]))
@example((None, ["sobolev", "--m=2000", "--b=1e-9", "--tol=1e-15"]))
def test_every_cli_run_exits_with_a_documented_code(tmp_path_factory, drawn):
    text, argv = drawn
    if text is not None:
        path = tmp_path_factory.mktemp("fuzz") / "m.json"
        path.write_text(text, encoding="utf-8", errors="surrogatepass")
        argv = [*argv, f"--manifold={path}"]
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    try:
        code = main(argv)
    except SystemExit as exc:  # the parser: 2 for a usage error, 0 for --version
        code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2, 3), argv
    assert code != 1 or argv[0] == "verify", argv
