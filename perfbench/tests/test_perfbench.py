"""Tests of the benchmark itself: smoke runs and checker negatives.

    python3 -m pytest perfbench/tests -q

The negative cases prove that a wrong output cannot pass vacuously: a
series with one coefficient changed, a child that exits nonzero, and a
Sobolev root off by 1e-6 must all be flagged.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ellgen.chern import Manifold  # noqa: E402
from ellgen.genera import genus  # noqa: E402
from ellgen.series import USeries  # noqa: E402
from ellgen.sobolev import radius_r, sobolev_c, wallis  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, trace: int, seed: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run(workload):
    result = bench(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_sweep():
    result = bench("sweep-warm", trace=1)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert metrics["theta.cache.hit_ratio"]["value"] == 1.0
    assert metrics["chern.genus_class.calls"]["value"] == 2.0
    assert metrics["theta.theta_factor.calls"]["value"] == 0.0


def _random_manifold(n: int, seed: int) -> dict:
    return inputs.random_manifold("t", n, random.Random(seed))


def _change_one(series_json: dict, k: int) -> dict:
    changed = dict(series_json)
    changed["coeffs"] = [[j, str(USeries.from_json(series_json).coeff(j) + (1 if j == k else 0))] for j in range(series_json["order"])]
    return changed


@pytest.mark.parametrize("kind", ["ell1", "ell2"])
@pytest.mark.parametrize("k", [0, 1, 6, 10])
def test_checker_flags_one_changed_coefficient(kind, k):
    table = _random_manifold(2, seed=k)
    params = {"genus": kind, "n": 2, "uorder": 12}
    good = genus(Manifold.from_json(table), kind, 12).to_json()
    checks.check_genus(params, table, json.dumps(good))
    with pytest.raises(checks.CheckFailed):
        checks.check_genus(params, table, json.dumps(_change_one(good, k)))


def test_checker_flags_changed_witten_q_coefficient():
    table = _random_manifold(3, seed=7)
    params = {"genus": "witten", "n": 3, "uorder": 8}
    good = genus(Manifold.from_json(table), "witten", 8).to_json()
    checks.check_genus(params, table, json.dumps(good))
    for k in (0, 1, 2):
        with pytest.raises(checks.CheckFailed):
            checks.check_genus(params, table, json.dumps(_change_one(good, k)))


def test_checker_flags_changed_hypersurface_ell2(capsys):
    from ellgen.cli import main

    assert main(["hypersurface", "--ambient", "5", "--degree", "3", "--uorder", "10", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    params = {"ambient": 5, "degree": 3, "n": 2, "uorder": 10}
    checks.check_hypersurface(params, json.dumps(out))
    out["ell2"] = _change_one(out["ell2"], 7)
    with pytest.raises(checks.CheckFailed):
        checks.check_hypersurface(params, json.dumps(out))


def test_digest_changes_with_one_coefficient():
    s = USeries({0: 2, 1: 48, 2: 48}, 4)
    t = USeries({0: 2, 1: 48, 2: 49}, 4)
    assert checks.digest(checks.series_values(s)) != checks.digest(checks.series_values(t))


def test_nonzero_exit_is_a_failed_op():
    cold = workloads.ColdWorkload("cli-cold", ROOT, 0)
    op = inputs.Op(0, "genus", argv=["genus", "--manifold", str(HERE / "no-such-file.json"), "--genus", "ell2"],
                   params={"genus": "ell2", "n": 2, "uorder": 24}, manifold=_random_manifold(2, 0))
    result = cold.run(op)
    assert result.error is not None and result.error.startswith("exit 2")
    assert result.latency_s is None


@pytest.mark.parametrize("m,b", [(3, 0.05), (17, 1.0), (40, 0.3), (64, 4.0)])
def test_checker_flags_sobolev_root_off_by_1e6(m, b):
    tol = inputs.SOBOLEV_TOL
    c = sobolev_c(m, b, tol)
    out = {"m": m, "b": b, "C_b": c, "R": radius_r(1.0, b, m, tol), "residual": 0.0, "wallis": wallis(m)}
    params = {"m": m, "b": b, "tol": tol}
    checks.check_sobolev(params, json.dumps(out))
    off = dict(out, C_b=c + 1e-6, R=1.0 / (b * (c + 1e-6)))
    with pytest.raises(checks.CheckFailed):
        checks.check_sobolev(params, json.dumps(off))


def test_tail_percentile_leaves_ten_samples_beyond():
    values = [float(v) for v in range(30)]
    pct, value = run.tail_percentile(values)
    assert value == 19.0 and sum(v > value for v in values) == 10
    assert pct == pytest.approx(100 * 20 / 30)


def test_inputs_depend_only_on_seed():
    def first(seed):
        block = next(inputs.blocks("cli-cold", seed))
        return [(op.kind, op.params, op.manifold) for op in block]

    assert first(4) == first(4)
    assert first(4) != first(5)


def test_tracer_patches_every_binding_and_restores():
    import ellgen
    import ellgen.cli
    from ellgen import bundles, chern, genera

    original_pair, original_mul = chern.pair, USeries.__mul__
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert chern.pair is not original_pair
        assert genera.pair is chern.pair and bundles.pair is chern.pair and ellgen.pair is chern.pair
        assert USeries.__rmul__ is USeries.__mul__ is not original_mul
        assert ellgen.cli.genus is genera.genus
        USeries.one(3) * 2
        2 * USeries.one(3)
        assert tracing.layer_totals(tracer.spans)["series.USeries.mul"][0] == 2
    finally:
        tracer.uninstall()
    assert chern.pair is original_pair and USeries.__mul__ is original_mul
    assert USeries.__rmul__ is original_mul
