import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from scipy.integrate import quad
from scipy.special import beta

from ellgen.chern import Manifold
from ellgen.cli import build_parser, main
from ellgen.genera import Hypersurface
from ellgen.pontryagin import MAX_N
from ellgen.series import USeries
from ellgen.theta import GenusKind

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.json"
    path.write_text(
        json.dumps({"name": "K3", "dim": 4, "pontryagin_numbers": {"[1]": "-48"}})
    )
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_genus_text_output(capsys, k3_file):
    code, out, _ = run(capsys, "genus", "--manifold", k3_file, "--genus", "ell2", "--uorder", "4")
    assert code == 0
    assert out.startswith("2 + 48 q^(1/2)")


def test_genus_json_roundtrip(capsys, k3_file):
    code, out, _ = run(
        capsys, "genus", "--manifold", k3_file, "--genus", "ell1", "--uorder", "6",
        "--format", "json",
    )
    assert code == 0
    series = USeries.from_json(json.loads(out))
    assert series == USeries({0: -16, 2: -384, 4: -384}, 6)


def test_genus_zero_manifold(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"name": "z", "dim": 8, "pontryagin_numbers": {}}))
    code, out, err = run(capsys, "genus", "--manifold", str(path), "--genus", "ell1", "--uorder", "4")
    assert code == 0
    assert out.startswith("0")
    assert "assuming 0" in err  # missing-number warning


def test_genus_quadric_ahat_zero(capsys, tmp_path):
    path = tmp_path / "quadric.json"
    path.write_text(
        json.dumps({"name": "q", "dim": 8, "pontryagin_numbers": {"[1,1]": "8", "[2]": "14"}})
    )
    code, out, _ = run(capsys, "genus", "--manifold", str(path), "--genus", "ahat")
    assert code == 0
    assert out.startswith("0")


def test_genus_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "genus", "--manifold", str(path), "--genus", "ahat")
    assert code == 2
    assert "error" in err


def test_genus_wrong_weight_partition(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "b", "dim": 4, "pontryagin_numbers": {"[2]": "1"}}))
    code, _, err = run(capsys, "genus", "--manifold", str(path), "--genus", "ahat")
    assert code == 2


def test_genus_dimension_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "b", "dim": 6, "pontryagin_numbers": {}}))
    code, _, err = run(capsys, "genus", "--manifold", str(path), "--genus", "ahat")
    assert code == 3


def test_hypersurface_quadric(capsys):
    code, out, _ = run(capsys, "hypersurface", "--ambient", "5", "--degree", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["manifold"]["pontryagin_numbers"] == {"[1,1]": "8", "[2]": "14"}
    assert obj["signature"] == "2"
    assert obj["ahat"] == "0"
    ell2 = USeries.from_json(obj["ell2"])
    assert ell2.coeff(1) == 2


def test_hypersurface_cp2(capsys):
    code, out, _ = run(capsys, "hypersurface", "--ambient", "3", "--degree", "1")
    assert code == 0
    assert "signature = 1" in out


def test_hypersurface_bad_dimension(capsys):
    code, _, err = run(capsys, "hypersurface", "--ambient", "4", "--degree", "2")
    assert code == 3
    assert "not a multiple of 4" in err


def test_hypersurface_bad_degree(capsys):
    code, _, _ = run(capsys, "hypersurface", "--ambient", "5", "--degree", "0")
    assert code == 2


def test_bundles_pretty(capsys):
    code, out, _ = run(capsys, "bundles", "--n", "2", "--uorder", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "B0 = 1·1"
    assert lines[1] == "B1 = -Λ^1(T) + 8·1"


def test_verify_cancellation(capsys):
    code, out, _ = run(capsys, "verify", "--check", "cancellation", "--samples", "10")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["residual"] == "0"


def test_verify_modular_relation(capsys):
    code, out, _ = run(
        capsys, "verify", "--check", "modular-relation", "--n", "2", "--uorder", "12",
        "--samples", "3",
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_route_equivalence(capsys):
    code, out, _ = run(
        capsys, "verify", "--check", "route-equivalence", "--n", "1", "--uorder", "5",
        "--samples", "3",
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_transformation_laws(capsys):
    code, out, _ = run(capsys, "verify", "--check", "transformation-laws", "--tau", "i")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["delta_residual"] < 1e-9


def test_verify_seed_reproducible(capsys):
    _, out1, _ = run(capsys, "verify", "--check", "modular-relation", "--n", "1",
                     "--uorder", "8", "--samples", "2", "--seed", "5")
    _, out2, _ = run(capsys, "verify", "--check", "modular-relation", "--n", "1",
                     "--uorder", "8", "--samples", "2", "--seed", "5")
    assert out1 == out2


def test_sobolev_command(capsys):
    code, out, _ = run(capsys, "sobolev", "--m", "16", "--b", "1.0")
    assert code == 0
    report = json.loads(out)
    assert report["residual"] < 1e-10
    assert report["C_b"] > 0
    assert report["R"] > 0


def test_uorder_env_override(capsys, k3_file, monkeypatch):
    monkeypatch.setenv("GENUS_DEFAULT_UORDER", "6")
    code, out, _ = run(capsys, "genus", "--manifold", k3_file, "--genus", "ell2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["order"] == 6


def test_manifold_json_roundtrip_via_cli_schema():
    m = Manifold("q", 8, {(1, 1): 8, (2,): 14})
    assert Manifold.from_json(json.loads(json.dumps(m.to_json()))) == m


@pytest.mark.parametrize(
    "text",
    [
        "[1, 2]",  # top level is not an object
        json.dumps({"name": "z", "dim": 4, "pontryagin_numbers": {"[1]": "1/0"}}),
        json.dumps({"name": "z", "dim": 8.7, "pontryagin_numbers": {"[2]": "1"}}),
        json.dumps({"name": "z", "dim": 4, "pontryagin_numbers": {"[1]": True}}),
        json.dumps({"name": "z", "dim": True, "pontryagin_numbers": {}}),
        json.dumps({"name": "z", "dim": 4, "pontryagin_numbers": {"[true]": "-48"}}),
        json.dumps({"name": "z", "dim": 4, "pontryagin_numbers": {"[1.5]": "-48"}}),
    ],
    ids=["array-top-level", "zero-denominator", "fractional-dim", "boolean-number", "boolean-dim",
         "boolean-part", "fractional-part"],
)
def test_genus_malformed_manifold_is_bad_input(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, "genus", "--manifold", str(path), "--genus", "ahat")
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("dim", [8, 8.0, "8"])
def test_integral_manifold_dim_still_parses(dim):
    m = Manifold.from_json({"dim": dim, "pontryagin_numbers": {"[2]": "1"}})
    assert m.dim == 8 and m.pont == {(2,): 1}


@pytest.mark.parametrize(
    "value, ok", [(8, True), (8.0, True), ("8", True), (8.7, False), (Fraction(17, 2), False), (True, False)]
)
def test_json_integer_fields_reject_fractional_values(value, ok):
    parses = [
        (lambda: USeries.from_json({"order": value, "coeffs": [[0, "1"]]}), USeries.one(8)),
        (lambda: USeries.from_json({"order": 9, "coeffs": [[value, "1/2"]]}), USeries.monomial(8, Fraction(1, 2), 9)),
        (lambda: Hypersurface.from_json({"ambient": value, "degree": 2}), Hypersurface(8, 2)),
        (lambda: Hypersurface.from_json({"ambient": 5, "degree": value}), Hypersurface(5, 8)),
        (lambda: Manifold.from_json({"dim": value}), Manifold("", 8)),
    ]
    for parse, expected in parses:
        if ok:
            assert parse() == expected
        else:
            with pytest.raises(ValueError, match="must be an integer"):
                parse()


@pytest.mark.parametrize(
    "argv",
    [
        ["bundles", "--n", "0"],
        ["bundles", "--n", "-1"],
        ["verify", "--check", "route-equivalence", "--samples", "0"],
        ["verify", "--check", "route-equivalence", "--samples", "-3"],
        ["verify", "--check", "modular-relation", "--n", "0"],
        ["verify", "--check", "route-equivalence", "--n", "-1"],
    ],
    ids=["bundles-n0", "bundles-n-1", "samples0", "samples-3", "verify-n0", "verify-n-1"],
)
def test_nonpositive_count_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ") and "error: " in captured.err


@pytest.mark.parametrize("tau", ["0", "-2i", "1"])
def test_transformation_laws_tau_outside_upper_half_plane(capsys, tau):
    code, out, err = run(capsys, "verify", "--check", "transformation-laws", f"--tau={tau}")
    assert code == 3
    assert out == ""
    assert err.strip().splitlines() == [err.strip()] and err.startswith("error: ")
    assert "imaginary part" in err


@pytest.mark.parametrize(
    "argv, used", [([], 40), (["--uorder", "12"], 40), (["--uorder", "64"], 64)], ids=["default", "u12", "u64"]
)
def test_transformation_laws_reports_the_uorder_it_used(capsys, argv, used):
    code, out, _ = run(capsys, "verify", "--check", "transformation-laws", *argv)
    assert code == 0
    assert json.loads(out)["uorder"] == used


def test_transformation_laws_tau_zero_divisor_is_bad_input(capsys):
    code, out, err = run(capsys, "verify", "--check", "transformation-laws", "--tau", "i/0")
    assert code == 2
    assert out == "" and err.startswith("error: ")


def run_subprocess(*argv):
    """The CLI in a child process with a timeout, so that a hang fails the test."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, "-m", "ellgen.cli", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["--b", "nan"],
        ["--b", "inf"],
        ["--b=-inf"],
        ["--b", "1", "--diam", "nan"],
        ["--b", "1", "--diam", "inf"],
        ["--b", "1", "--tol", "nan"],
        ["--b", "1", "--tol", "inf"],
    ],
    ids=["b-nan", "b-inf", "b-minus-inf", "diam-nan", "diam-inf", "tol-nan", "tol-inf"],
)
def test_sobolev_non_finite_input_is_bad_input(argv):
    proc = run_subprocess("sobolev", "--m", "8", *argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and len(proc.stderr.strip().splitlines()) == 1
    assert "finite" in proc.stderr


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_result_past_the_str_digit_limit_is_a_domain_error(capsys, fmt):
    # well-formed input whose exact output holds an integer that str() refuses to write
    degree = "1" + "0" * 1000
    code, out, err = run(capsys, "hypersurface", "--ambient", "5", "--degree", degree, "--format", fmt)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert f"{sys.get_int_max_str_digits()}-digit limit" in err


def test_manifold_with_an_integer_past_the_str_digit_limit_is_bad_input(capsys, tmp_path):
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"name": "z", "dim": 4, "pontryagin_numbers": {"[1]": "1" + "0" * 5000}}))
    code, out, err = run(capsys, "genus", "--manifold", str(path), "--genus", "ahat")
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_an_uncaught_exception_exits_internal_with_its_traceback(capsys, monkeypatch):
    import ellgen.cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(ellgen.cli, "cmd_sobolev", broken)
    code, out, err = run(capsys, "sobolev", "--m", "8", "--b", "1")
    assert code == ellgen.cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err.startswith("Traceback") and err.strip().endswith("RuntimeError: boom")


def test_genus_manifold_with_a_huge_exponent_is_bad_input(tmp_path):
    # Fraction("1e-999999999999") would build 10**999999999999: the parse must refuse it first
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"name": "z", "dim": 4, "pontryagin_numbers": {"[1]": "1e-999999999999"}}))
    proc = run_subprocess("genus", "--manifold", str(path), "--genus", "ahat")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "exponent" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["hypersurface", "--ambient", "401", "--degree", "2", "--uorder", "1"],
        ["hypersurface", "--ambient", str(2 * MAX_N + 3), "--degree", "2", "--uorder", "1"],
        ["hypersurface", "--ambient", str(10**18 + 1), "--degree", "3"],
        ["verify", "--check", "modular-relation", "--n", "200", "--uorder", "1", "--samples", "1"],
        ["verify", "--check", "route-equivalence", "--n", "30", "--uorder", "1", "--samples", "1"],
        ["verify", "--check", "route-equivalence", "--n", str(MAX_N + 1), "--uorder", "1", "--samples", "1"],
        ["bundles", "--n", str(MAX_N + 1)],
        ["bundles", "--n", str(10**300), "--uorder", "40"],
    ],
    ids=["hypersurface-401", "hypersurface-cap", "hypersurface-huge", "modular-relation-200",
         "route-equivalence-30", "route-equivalence-cap", "bundles-cap", "bundles-huge"],
)
def test_an_n_above_the_cap_is_a_domain_error_at_once(argv):
    # each of these once enumerated the partitions of n and ran past any timeout, or (bundles)
    # built integers too long to print and exited 2 after some 40 s
    proc = run_subprocess(*argv)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and f"n = {MAX_N}" in proc.stderr


@pytest.mark.parametrize("dim", ["4e300", str(4 * 10**300), str(4 * (MAX_N + 1))], ids=["float", "integer", "cap"])
def test_genus_manifold_of_a_dimension_above_the_cap_is_a_domain_error_at_once(tmp_path, dim):
    path = tmp_path / "big.json"
    path.write_text('{"name": "x", "dim": %s, "pontryagin_numbers": {}}' % dim)
    proc = run_subprocess("genus", "--manifold", str(path), "--genus", "ell2")
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == "" and proc.stderr.startswith("error: ") and "n = " in proc.stderr


def test_sobolev_unreachable_tolerance_is_domain_error(capsys):
    # a residual of 1e-300 is below the rounding of x F(x) near W = 1
    code, out, err = run(capsys, "sobolev", "--m", "12", "--b", "1", "--tol", "1e-300")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "not reached" in err


def test_sobolev_root_far_below_one(capsys):
    # (m - 1) b = 315: the root is about 3e-117; halving [0, 1] down to it
    # and then to the residual tolerance takes more than 400 steps
    code, out, _ = run(capsys, "sobolev", "--m", "64", "--b", "5")
    assert code == 0
    x = json.loads(out)["C_b"]
    assert 0 < x < 1e-100
    integral, _ = quad(lambda t: (math.cosh(t) + x * math.sinh(t)) ** 63, 0.0, 5.0, epsabs=0.0, epsrel=1e-13, limit=200)
    assert abs(x * integral - beta(0.5, 32.0)) < 1e-10  # beta(1/2, m/2) = int_0^pi sin^(m-1)


def test_sobolev_solves_once_and_reuses_the_root(capsys, monkeypatch):
    import ellgen.cli
    import ellgen.sobolev

    calls = []
    solve = ellgen.sobolev.sobolev_c

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(ellgen.sobolev, "sobolev_c", counted)
    monkeypatch.setattr(ellgen.cli, "sobolev_c", counted)
    code, out, _ = run(capsys, "sobolev", "--m", "16", "--b", "0.3", "--diam", "2.5")
    assert code == 0
    assert len(calls) == 1
    report = json.loads(out)
    assert report["R"] == 2.5 / (0.3 * report["C_b"])
    assert report["R"] == ellgen.sobolev.radius_r(2.5, 0.3, 16)


@pytest.mark.parametrize(
    "argv",
    [
        ["--m", "2000", "--b", "1"],
        ["--m", "3", "--b", "1e300"],
        ["--m", "3", "--b", "5e-324"],
        ["--m", "3", "--b", "1e-308"],
        ["--m", "40", "--b", "4", "--diam", "1e308"],
    ],
    ids=["binomial-overflow", "exponential-overflow", "root-overflow", "quadrature-overflow", "radius-overflow"],
)
def test_sobolev_double_overflow_is_domain_error(argv):
    proc = run_subprocess("sobolev", *argv)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and len(proc.stderr.strip().splitlines()) == 1
    assert "overflows double precision" in proc.stderr


@pytest.mark.parametrize("tau, value", [("1+i", 1 + 1j), ("-1+i", -1 + 1j), ("0.5+2i", 0.5 + 2j), ("+i", 1j)])
def test_transformation_laws_tau_with_real_part(capsys, tau, value):
    code, out, _ = run(capsys, "verify", "--check", "transformation-laws", f"--tau={tau}")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert complex(report["tau"]) == value


@pytest.mark.parametrize("tau", ["-i", "1-i"])
def test_transformation_laws_tau_lower_half_plane_is_domain_error(capsys, tau):
    code, out, err = run(capsys, "verify", "--check", "transformation-laws", f"--tau={tau}")
    assert code == 3
    assert out == "" and err.startswith("error: ")
    assert "imaginary part" in err


@pytest.mark.parametrize("tau", ["nani", "1e400i", "i/nan", "i/inf", "i/-inf", "i/1e-320"])
def test_transformation_laws_non_finite_tau_is_bad_input(capsys, tau):
    # i/nan once passed with NaN residuals, i/inf read as 0j, i/1e-320 as inf*i
    code, out, err = run(capsys, "verify", "--check", "transformation-laws", f"--tau={tau}")
    assert code == 2
    assert out == "" and err.startswith("error: ") and "not finite" in err


def test_transformation_laws_nan_residual_fails_the_check(capsys, monkeypatch):
    from ellgen import modular

    monkeypatch.setattr(modular, "numeric_eval", lambda s, tau: (complex(math.nan, 0), 0.0))
    code, out, _ = run(capsys, "verify", "--check", "transformation-laws")
    report = json.loads(out)
    assert code == 1 and report["pass"] is False and len(report["failures"]) == 2


@pytest.mark.parametrize("tau", ["1e-17i", "1e-300i", "0.5+1e-300i"])
def test_transformation_laws_tau_with_unit_modulus_u_is_domain_error(capsys, tau):
    # |e^(pi i tau)| (or at -1/tau) rounds to 1, so no tail bound is finite
    code, out, err = run(capsys, "verify", "--check", "transformation-laws", f"--tau={tau}")
    assert code == 3
    assert out == "" and err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "rounds to 1" in err


@pytest.mark.parametrize("tau, longer", [("0.01i", True), ("0.1i", True), ("i", False), ("1+i", False)])
def test_transformation_laws_pass_only_under_a_proven_tolerance(capsys, tau, longer):
    # at u^40, 0.01i and 0.1i once passed under heuristic tolerances of 6.4e5 and 0.90
    code, out, _ = run(capsys, "verify", "--check", "transformation-laws", f"--tau={tau}")
    report = json.loads(out)
    assert code == 0 and report["pass"] is True
    assert (report["uorder"] > 40) is longer
    for law in ("delta", "eps"):
        assert report[f"{law}_residual"] <= report[f"{law}_tolerance"] <= 1e-9
    assert report["tolerance_source"].startswith("proven")


def test_transformation_laws_with_an_unreachable_tolerance_are_inconclusive(capsys):
    # a tolerance of 2.2e13 against a delta residual of 0.125 once passed here
    code, out, err = run(capsys, "verify", "--check", "transformation-laws", "--tau=1e-9+1e-9i")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "inconclusive" in err and len(err.strip().splitlines()) == 1


def test_cli_import_path_skips_dataclasses_and_loads_every_module():
    # -S keeps a site .pth from preloading modules
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import ellgen.cli; "
        "print(' '.join(sorted(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert not loaded & {"dataclasses", "inspect", "ast"}
    # registered in sys.modules by `import ellgen`, executed on first use (see below)
    for name in ("series", "pontryagin", "chern", "theta", "genera", "bundles", "modular", "sobolev"):
        assert f"ellgen.{name}" in loaded


def executed_modules(*argv):
    """Run `main(argv)` in a fresh `python -S` child; the module names it executed.

    A lazily registered submodule that was never touched is in `sys.modules`
    but is not yet a plain `types.ModuleType`, and `type()` does not load it.
    """
    code = (
        f"import sys, types; sys.path.insert(0, {str(ROOT / 'src')!r}); import ellgen.cli; "
        f"rc = ellgen.cli.main({list(argv)!r}); "
        "print(); print(rc, *sorted(n for n, m in sys.modules.items() if type(m) is types.ModuleType))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rc, *names = proc.stdout.splitlines()[-1].split()
    assert rc == "0", proc.stdout
    return set(names)


FRONT_END = {"ellgen", "ellgen.cli", "ellgen.errors"}
# exactly what a cold genus or hypersurface command executes of the package
GENUS_ROUTE = FRONT_END | {"ellgen.series", "ellgen.pontryagin"}
# the cross-check routes (theta products, the RootSeries/PontPoly ring, residues) and the rest
NOT_FOR_GENERA = {"ellgen.chern", "ellgen.theta", "ellgen.genera", "ellgen.bundles", "ellgen.modular", "ellgen.sobolev"}


def package_modules(executed):
    return {name for name in executed if name == "ellgen" or name.startswith("ellgen.")}


def test_cli_import_executes_only_the_front_end():
    code = (
        f"import sys, types; sys.path.insert(0, {str(ROOT / 'src')!r}); import ellgen.cli; "
        "print(*sorted(n for n, m in sys.modules.items() if n.startswith('ellgen') and type(m) is types.ModuleType))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ellgen", "ellgen.cli", "ellgen.errors"]


def test_sobolev_command_executes_only_sobolev():
    executed = executed_modules("sobolev", "--m", "8", "--b", "1")
    assert package_modules(executed) == FRONT_END | {"ellgen.sobolev"}
    assert not executed & {"fractions", "random"}


def test_genus_command_skips_bundles_modular_sobolev(k3_file):
    executed = executed_modules("genus", "--manifold", k3_file, "--genus", "ell2", "--uorder", "4")
    assert package_modules(executed) == GENUS_ROUTE
    assert not executed & NOT_FOR_GENERA


def test_hypersurface_command_skips_bundles_modular_sobolev():
    executed = executed_modules("hypersurface", "--ambient", "5", "--degree", "2", "--uorder", "4")
    assert package_modules(executed) == GENUS_ROUTE
    assert not executed & NOT_FOR_GENERA


def test_cancellation_check_executes_the_genus_route_and_the_class_ring():
    # the benchmark's warm-up child: the PontPoly ring, the residue factors' theta module and genera
    executed = executed_modules("verify", "--check", "cancellation", "--samples", "1")
    assert package_modules(executed) == GENUS_ROUTE | {"ellgen.chern", "ellgen.theta", "ellgen.genera"}


def test_package_names_of_the_pontryagin_route_execute_neither_chern_nor_theta():
    code = (
        f"import sys, types; sys.path.insert(0, {str(ROOT / 'src')!r}); import ellgen; "
        "ellgen.Manifold, ellgen.GenusKind, ellgen.genus; "
        "print(*sorted(n for n, m in sys.modules.items() if n.startswith('ellgen') and type(m) is types.ModuleType))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ellgen", "ellgen.errors", "ellgen.pontryagin", "ellgen.series"]


def theta_products_built(*argv):
    """Run `main(argv)` in a fresh `python -S` child; (theta_factor entries, genus_root_series misses)."""
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import ellgen.cli; "
        f"rc = ellgen.cli.main({list(argv)!r}); from ellgen import theta; print(); "
        "print(rc, theta.theta_factor.cache_info().currsize, theta.genus_root_series.cache_info().misses)"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rc, entries, misses = proc.stdout.splitlines()[-1].split()
    assert rc == "0", proc.stdout
    return int(entries), int(misses)


def test_genus_command_builds_no_theta_product(k3_file):
    assert theta_products_built("genus", "--manifold", k3_file, "--genus", "ell2", "--uorder", "48") == (0, 0)


def test_hypersurface_command_builds_no_theta_product():
    assert theta_products_built("hypersurface", "--ambient", "5", "--degree", "2", "--uorder", "24") == (0, 0)


# the bundle route: the index sum runs in the s-basis of `bundles`, with no PontPoly ring
BUNDLE_ROUTE = GENUS_ROUTE | {"ellgen.bundles"}


def test_route_equivalence_skips_modular_sobolev():
    executed = executed_modules("verify", "--check", "route-equivalence", "--samples", "1", "--uorder", "4")
    assert package_modules(executed) == BUNDLE_ROUTE
    assert not executed & {"ellgen.chern", "ellgen.modular", "ellgen.sobolev"}


def test_bundles_command_executes_the_bundle_route_alone():
    executed = executed_modules("bundles", "--n", "2", "--uorder", "4")
    assert package_modules(executed) == BUNDLE_ROUTE
    assert "ellgen.chern" not in executed


def test_modular_relation_executes_the_genus_route_and_modular():
    executed = executed_modules("verify", "--check", "modular-relation", "--samples", "1", "--uorder", "4")
    assert package_modules(executed) == GENUS_ROUTE | {"ellgen.modular"}


def test_transformation_laws_executes_series_and_modular():
    executed = executed_modules("verify", "--check", "transformation-laws")
    assert package_modules(executed) == FRONT_END | {"ellgen.series", "ellgen.modular"}


def test_genus_choices_follow_genus_kind():
    parser = build_parser()
    genus_parser = next(a for a in parser._actions if a.dest == "command").choices["genus"]
    choices = next(a for a in genus_parser._actions if a.dest == "genus").choices
    assert list(choices) == [k.value for k in GenusKind]
