"""Record the exact-output digests of the default seed.

    python3 perfbench/record_digests.py

Runs the first ops of every workload with the default seed, checks each
one as a benchmark run does, and writes perfbench/digests.json: one
SHA-256 per op index, or null for ops whose output is floating point.
Nothing is written if any op fails.  Re-record only when a change is
meant to alter exact outputs; otherwise a mismatch is a regression.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# About twice the ops a default-length run reaches, traced or not.
RECORDED_OPS = {"cli-cold": 144, "sweep-warm": 120, "bundle-route": 60}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import run
    import workloads

    recorded = {}
    for name, count in RECORDED_OPS.items():
        bench = workloads.make(name, ROOT, run.DEFAULT_SEED)
        bench.setup()
        digests: list[str | None] = []
        while len(digests) < count:
            for op in bench.next_block():
                result = bench.run(op)
                if result.error is not None:
                    print(f"{name} op {op.index} failed: {result.error}", file=sys.stderr)
                    return 1
                digests.append(checks.digest(result.values) if result.values else None)
        recorded[name] = digests[:count]
        print(f"{name}: {count} ops recorded")
    run.DIGESTS.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
