"""The benchmark workloads: cold CLI children and the warm in-process sweep.

Both kinds share one interface:

* `setup()` generates the first input blocks, writes their files and runs
  the warm-up; `run.py` times it.
* `next_block()` returns the next block of ops (inputs for later blocks
  are written on demand, outside any timed region).
* `run(op, traced)` runs one op and returns an `OpResult`: the op's
  latency, the exact values its check parsed (for the digest) or the
  reason it failed, and, when traced, its layer totals.
"""

from __future__ import annotations

import itertools
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
import tracing
from calibration import reference_pair

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
CHILD_TIMEOUT_S = 60.0
PREPARED_BLOCKS = 16
WARMUP_ARGV = ["verify", "--check", "cancellation", "--samples", "1"]


@dataclass
class OpResult:
    latency_s: float | None = None
    values: list[str] | None = None
    error: str | None = None
    layers: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    cache: dict | None = None
    times: dict = field(default_factory=dict)
    refs: tuple[float, ...] = ()  # reference-loop times measured next to the op (calibration.py)


@dataclass
class ChildRun:
    returncode: int | None
    stdout: str
    stderr: str
    times: dict | None


def run_child(root: Path, argv: list[str], spans_path: Path | None = None) -> ChildRun:
    """Run one `child.py` process with the checkout's src on PYTHONPATH."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, str(CHILD)]
    if spans_path is not None:
        cmd += ["--trace", str(spans_path)]
    cmd += ["--", *argv]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return ChildRun(None, "", f"timed out after {CHILD_TIMEOUT_S} s", None)
    times = None
    lines = proc.stderr.splitlines()
    if lines and lines[-1].startswith("perfbench-timing "):
        times = json.loads(lines[-1].split(" ", 1)[1])
    return ChildRun(proc.returncode, proc.stdout, proc.stderr, times)


class _Workload:
    def __init__(self, name: str, root: Path, seed: int):
        self.name = name
        self.root = root
        self.seed = seed
        self.workdir = root / ".perfbench" / name
        self._stream = None
        self._prepared: list = []

    def _generate(self) -> None:
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        self._stream = inputs.blocks(self.name, self.seed)
        self._prepared = list(itertools.islice(self._stream, PREPARED_BLOCKS))
        for block in self._prepared:
            inputs.write_inputs(block, self.workdir)

    def write_trace(self, path: Path) -> None:
        """Cold children write their own spans, one file per traced op."""

    def next_block(self) -> list:
        if self._prepared:
            return self._prepared.pop(0)
        block = next(self._stream)
        inputs.write_inputs(block, self.workdir)
        return block


class ColdWorkload(_Workload):
    """Each op is a fresh `python3 child.py` process running one CLI command."""

    def setup(self) -> None:
        self._generate()
        warm = run_child(self.root, WARMUP_ARGV)
        if warm.returncode != 0 or warm.times is None:
            raise RuntimeError(f"warm-up child failed (exit {warm.returncode}): {warm.stderr.strip()[-2000:]}")

    def run(self, op, traced: bool = False) -> OpResult:
        spans_path = self.workdir / f"spans-{op.index}.json" if traced else None
        child = run_child(self.root, op.argv, spans_path)
        if child.returncode != 0 or child.times is None:
            tail = child.stderr.strip().splitlines()[-1:] or [""]
            return OpResult(error=f"exit {child.returncode}: {tail[0]}")
        result = OpResult(latency_s=child.times["op_s"], times=child.times, refs=tuple(child.times["refs"]))
        try:
            result.values = checks.check_cold(op, child.stdout)
        except checks.CheckFailed as exc:
            result.error = str(exc)
            return result
        if traced:
            doc = json.loads(spans_path.read_text(encoding="utf-8"))
            result.layers = tracing.layer_totals(doc["spans"])
            result.counts = doc["counts"]
            result.cache = doc["cache"]
        return result

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class SweepWorkload(_Workload):
    """The `verify --check modular-relation` pipeline, in this process, on warm caches."""

    def __init__(self, name: str, root: Path, seed: int):
        super().__init__(name, root, seed)
        import ellgen.cli  # noqa: F401  (loads every ellgen module)
        from ellgen import chern, genera, modular
        from ellgen.theta import GenusKind

        self._chern, self._genera, self._modular, self._kinds = chern, genera, modular, GenusKind
        self.caches = tracing.find_caches()
        self.tracer = tracing.Tracer()

    def setup(self) -> None:
        for cache in self.caches.values():
            cache.cache_clear()
        self._generate()
        warm = {}
        for block in self._prepared:
            for op in block:
                warm.setdefault(op.params["n"], op)
        for n in sorted(warm):
            result = self.run(warm[n])
            if result.error:
                raise RuntimeError(f"warm-up op at n = {n} failed: {result.error}")

    def _pipeline(self, op):
        # Module attributes are looked up at call time so that the tracer's
        # wrappers, when installed, see every call.
        g, mod, kinds = self._genera, self._modular, self._kinds
        n, uorder = op.params["n"], op.params["uorder"]
        m = self._chern.Manifold.from_json(op.manifold)
        e2 = g.genus(m, kinds.ELL2, uorder)
        dec = mod.expand_in_basis(e2, n)
        e1_rebuilt = mod.reconstruct_ell1(dec, uorder)
        e1 = g.genus(m, kinds.ELL1, uorder)
        return m, e2, dec, e1_rebuilt, e1

    def run(self, op, traced: bool = False) -> OpResult:
        tracer = self.tracer
        refs = reference_pair()
        if traced:
            tracer.op = op.index
            first_span = len(tracer.spans)
            tracer.counts = {}
            before = tracing.cache_snapshot(self.caches)
            tracer.install()
        t0 = time.perf_counter()
        try:
            m, e2, dec, e1_rebuilt, e1 = self._pipeline(op)
        except Exception as exc:  # any exception is a failed op, reported by run.py
            return OpResult(error=f"{type(exc).__name__}: {exc}")
        finally:
            latency = time.perf_counter() - t0
            tracer.uninstall()
        result = OpResult(latency_s=latency, refs=refs + reference_pair())
        if traced:
            after = tracing.cache_snapshot(self.caches)
            result.layers = tracing.layer_totals(tracer.spans[first_span:])
            result.counts = dict(tracer.counts)
            result.cache = {
                group: {"hits": after[group]["hits"] - before[group]["hits"],
                        "misses": after[group]["misses"] - before[group]["misses"],
                        "entries": after[group]["entries"]}
                for group in after
            }
        try:
            checks.check_ell2_u0(e2, m)
            if e1_rebuilt != e1:
                raise checks.CheckFailed("Ell1 rebuilt from the Ell2 coordinates differs from genus ELL1")
        except checks.CheckFailed as exc:
            result.error = str(exc)
            return result
        result.values = checks.series_values(e2) + [checks.fraction_str(x) for x in dec.h] + checks.series_values(e1)
        return result

    def write_trace(self, path: Path) -> None:
        self.tracer.write(path)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make(name: str, root: Path, seed: int) -> _Workload:
    cls = SweepWorkload if name == "sweep-warm" else ColdWorkload
    return cls(name, root, seed)
