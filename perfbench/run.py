"""ellgen benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload {cli-cold,sweep-warm,bundle-route}
                             --seed N --seconds S --trace {0,1}

Run it from anywhere; it works on the checkout that holds this file and
needs that checkout's `src/ellgen`.  All three workloads are single-client
closed loops: the next op starts when the previous one has finished and
been checked.  See BENCHMARK.json for why each workload exists.

A run sets up several times and reports the median set-up time, then runs
whole blocks of ops (see inputs.py) until `--seconds` have passed.  Every
op's output is checked outside its timed region; with the default seed the
exact values of each output must also match perfbench/digests.json.

End-to-end times are calibrated to a fixed host speed (calibration.py);
the uncalibrated values are printed too.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs every op
twice, untraced and then traced, and prints the per-layer metrics: time
and counts per traced op, cache totals, and the untraced/traced throughput
ratio (from calibrated times; the layer times themselves are not
calibrated).  The last line of output is always one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from calibration import REF_MS, calibrate, reference_pair
from inputs import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
SETUP_REPEATS = 5
DIGESTS = HERE / "digests.json"

# Per-layer metrics: (name, unit, source).  Sources: ("calls" | "self" |
# "incl", span name), ("count", counter), ("times", child timing key), or a
# derived ratio handled in layer_metrics.
LAYER_METRICS = [
    ("series.USeries.mul.calls", "count", ("calls", "series.USeries.mul")),
    ("series.USeries.mul.self_s", "s", ("self", "series.USeries.mul")),
    ("series.USeries.inverse.calls", "count", ("calls", "series.USeries.inverse")),
    ("series.USeries.inverse.self_s", "s", ("self", "series.USeries.inverse")),
    ("series.USeries.pow.self_s", "s", ("self", "series.USeries.pow")),
    ("theta.theta_factor.calls", "count", ("calls", "theta.theta_factor")),
    ("theta.theta_factor.self_s", "s", ("self", "theta.theta_factor")),
    ("theta.genus_root_series.self_s", "s", ("self", "theta.genus_root_series")),
    ("theta.cache.hit_ratio", "ratio", ("hit_ratio", "theta")),
    ("chern.genus_class.calls", "count", ("calls", "chern.genus_class")),
    ("chern.genus_class.self_s", "s", ("self", "chern.genus_class")),
    ("chern.pair.self_s", "s", ("self", "chern.pair")),
    ("chern.class_terms", "count", ("count", "chern.class_terms")),
    ("chern.RootSeries.mul.calls", "count", ("calls", "chern.RootSeries.mul")),
    ("chern.RootSeries.mul.self_s", "s", ("self", "chern.RootSeries.mul")),
    ("chern.RootSeries.inverse.self_s", "s", ("self", "chern.RootSeries.inverse")),
    ("chern.PontPoly.mul.calls", "count", ("calls", "chern.PontPoly.mul")),
    ("chern.PontPoly.mul.self_s", "s", ("self", "chern.PontPoly.mul")),
    ("chern.PontPoly.exp.self_s", "s", ("self", "chern.PontPoly.exp")),
    ("genera.genus.calls", "count", ("calls", "genera.genus")),
    ("genera.genus.s", "s", ("incl", "genera.genus")),
    ("genera.hypersurface_pont.s", "s", ("incl", "genera.hypersurface_pont")),
    ("bundles.expand_witten.self_s", "s", ("self", "bundles.expand_witten")),
    ("bundles.ch_virtual.calls", "count", ("calls", "bundles.ch_virtual")),
    ("bundles.ch_virtual.self_s", "s", ("self", "bundles.ch_virtual")),
    ("bundles.ell2_via_bundles.s", "s", ("incl", "bundles.ell2_via_bundles")),
    ("modular.expand_in_basis.self_s", "s", ("self", "modular.expand_in_basis")),
    ("modular.reconstruct_ell1.self_s", "s", ("self", "modular.reconstruct_ell1")),
    ("sobolev.sobolev_c.s", "s", ("incl", "sobolev.sobolev_c")),
    ("sobolev.xF.calls", "count", ("calls", "sobolev.xF")),
    ("cli.import_s", "s", ("times", "import_s")),
    ("cli.main.s", "s", ("times", "main_s")),
    ("cache.entries", "count", ("entries", "all")),
    ("cache.hit_ratio", "ratio", ("hit_ratio", "all")),
    ("trace.overhead_ratio", "ratio", ("overhead", None)),
]
_ROW = {"calls": 0, "incl": 1, "self": 2}


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and its value.

    With ten or fewer samples no percentile qualifies and the maximum
    (p100) is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    i = n - 11 if n > 10 else n - 1
    return 100.0 * (i + 1) / n, ordered[i]


def end_to_end_metrics(latencies, setup_times, peak_rss_mb):
    pct, tail = tail_percentile(latencies)
    return {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1000.0 * tail, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }, pct


def layer_metrics(traced, untraced_latencies, traced_latencies):
    """Per-op averages over the traced ops, plus the tracing overhead ratio."""
    k = len(traced)
    totals: dict[str, list] = {}
    counts: dict[str, int] = {}
    times: dict[str, float] = {}
    cache = {g: {"hits": 0, "misses": 0, "entries": 0} for g in ("all", "theta")}
    for r in traced:
        for name, row in r.layers.items():
            acc = totals.setdefault(name, [0, 0, 0])
            for j in range(3):
                acc[j] += row[j]
        for name, value in r.counts.items():
            counts[name] = counts.get(name, 0) + value
        for name in ("import_s", "main_s"):
            times[name] = times.get(name, 0.0) + r.times.get(name, 0.0)
        for group, stats in r.cache.items():
            for key in stats:
                cache[group][key] += stats[key]
    traced_rate = k / sum(traced_latencies)
    untraced_rate = len(untraced_latencies) / sum(untraced_latencies)
    metrics = {}
    for name, unit, (source, key) in LAYER_METRICS:
        if source in _ROW:
            raw = totals.get(key, [0, 0, 0])[_ROW[source]]
            value = raw / k if source == "calls" else raw / k / 1e9
        elif source == "count":
            value = counts.get(key, 0) / k
        elif source == "times":
            value = times.get(key, 0.0) / k
        elif source == "entries":
            value = cache[key]["entries"] / k
        elif source == "hit_ratio":
            lookups = cache[key]["hits"] + cache[key]["misses"]
            value = cache[key]["hits"] / lookups if lookups else 0.0
        else:
            value = untraced_rate / traced_rate
        metrics[name] = (value, unit)
    return metrics


def load_digests(workload: str, seed: int) -> list[str]:
    if seed != DEFAULT_SEED or not DIGESTS.is_file():
        return []
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, [])


def run_workload(bench, seconds: float, trace: bool, digests: list[str]):
    """Run whole blocks until `seconds` have passed; return (results, failures, attempted)."""
    import checks

    results = {"untraced": [], "traced": []}
    failures = []
    attempted = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for op in bench.next_block():
            for traced in ((False, True) if trace else (False,)):
                attempted += 1
                r = bench.run(op, traced)
                if r.error is None and op.index < len(digests) and digests[op.index] is not None:
                    if checks.digest(r.values) != digests[op.index]:
                        r.error = "exact output differs from the committed digest"
                if r.error is not None:
                    failures.append(f"op {op.index} ({op.kind}{' traced' if traced else ''}): {r.error}")
                    print(f"FAIL {failures[-1]}")
                    continue
                results["traced" if traced else "untraced"].append(r)
    if trace:
        bench.write_trace(bench.workdir / "spans.json")
    return results, failures, attempted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ellgen benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ellgen" / "__init__.py").is_file():
        print(f"error: no ellgen sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    bench = workloads.make(args.workload, ROOT, args.seed)
    setup_times, setup_refs = [], []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        before = reference_pair()
        t0 = time.perf_counter()
        bench.setup()
        setup_times.append(time.perf_counter() - t0)
        setup_refs.append(before + reference_pair())

    results, failures, attempted = run_workload(
        bench, args.seconds, bool(args.trace), load_digests(args.workload, args.seed)
    )
    untraced = [r.latency_s for r in results["untraced"]]
    if not untraced or (args.trace and not results["traced"]):
        print("error: no op completed", file=sys.stderr)
        return 1
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    if args.trace:
        cal = {key: calibrate([r.latency_s for r in rs], [r.refs for r in rs]) for key, rs in results.items()}
        metrics = layer_metrics(results["traced"], cal["untraced"], cal["traced"])
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit}")
    else:
        rss = bench.peak_rss_mb()
        refs = [r.refs for r in results["untraced"]]
        metrics, pct = end_to_end_metrics(calibrate(untraced, refs), calibrate(setup_times, setup_refs), rss)
        raw, _ = end_to_end_metrics(untraced, setup_times, rss)
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit}  (uncalibrated {raw[name][0]:.6g})")
        print(f"  (latency_tail_ms is p{pct:.1f} of {len(untraced)} ops; setup_s is the median of {len(setup_times)} set-ups)")
        ref_ms = 1000 * statistics.median(x for pair in refs for x in pair)
        print(f"  (reference loop: median {ref_ms:.3f} ms, scaled to {REF_MS} ms)")
    print(f"  error_rate = {len(failures) / attempted:.6g} ({len(failures)} of {attempted} ops failed)")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
