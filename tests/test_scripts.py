"""Smoke tests for the walkthrough scripts: they run and print their headline lines."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_quadric_example():
    lines = run_script("quadric_example.py")
    assert "signature  = 2" in lines
    assert "A-hat      = 0" in lines
    assert any(line.startswith("Ell_1(X) = 2 - 32 q + 224 q^2 - 896 q^3 ") for line in lines)
    agrees = [line for line in lines if "agrees:" in line]
    assert len(agrees) == 2
    assert all(line.endswith("agrees: True") for line in agrees)


def test_transformation_laws():
    lines = run_script("transformation_laws.py")
    assert lines[0] == "truncation order u^60"
    rows = lines[2:]
    assert len(rows) == 5
    for row in rows:
        _tau, delta_residual, eps_residual, _tail = row.split()
        assert float(delta_residual) < 1e-12 and float(eps_residual) < 1e-12, row
