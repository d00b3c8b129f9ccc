"""Seeded input generator for the benchmark workloads.

The same (workload, seed) always yields the same infinite stream of blocks.
A block is a small, fixed composition of op shapes in seeded order; only
the values inside a shape (Pontryagin numbers, the Sobolev m and b within
their bins, CLI verify seeds) are drawn from the seed.  Fixing the composition keeps
the median and the tail percentile of a run inside the same size class
from seed to seed, so two runs compare like with like.

Run it directly to see or write the ops of a seed:

    python3 perfbench/inputs.py --workload cli-cold --seed 3 --blocks 2 [--out DIR]
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("cli-cold", "sweep-warm", "bundle-route")

GENUS_KINDS = ("ell1", "ell2", "witten")
SOBOLEV_TOL = 1e-11
# Above (m - 1) b of about 300 the root falls below 1e-110 and sobolev_c
# raises ToleranceNotReached (its bisection from [0, ~1] is capped at 400
# halvings).  b stays at or below 4 so that (m - 1) b <= 252.
SOBOLEV_B_RANGE = (0.05, 4.0)
SOBOLEV_M_BINS = ((3, 17), (18, 33), (34, 48), (49, 64))
SOBOLEV_B_BINS = 8  # equal slices of log b
SWEEP_UORDER = 24


@dataclass
class Op:
    """One benchmark operation.

    `argv` is the ellgen CLI argument list for cold ops and empty for
    in-process ops.  `params` holds what the checker needs to know about
    the input; `manifold` is the Pontryagin table of ops that take one.
    """

    index: int
    kind: str
    argv: list[str] = field(default_factory=list)
    params: dict = field(default_factory=dict)
    manifold: dict | None = None


def partitions(n: int) -> list[tuple[int, ...]]:
    """Partitions of n with weakly decreasing parts (kept apart from ellgen: inputs must not depend on the code under test)."""
    if n == 0:
        return [()]
    out = []
    for first in range(n, 0, -1):
        for rest in partitions(n - first):
            if not rest or rest[0] <= first:
                out.append((first,) + rest)
    return out


def random_manifold(name: str, n: int, rng: random.Random) -> dict:
    """Manifold JSON with every Pontryagin number a random small rational."""
    pont = {}
    for p in partitions(n):
        value = Fraction(rng.randint(-60, 60), rng.randint(1, 6))
        pont["[" + ",".join(map(str, p)) + "]"] = str(value)
    return {"name": name, "dim": 4 * n, "pontryagin_numbers": pont}


def _cli_cold_block(b: int, rng: random.Random) -> list[Op]:
    # Four hypersurfaces over (n, uorder), four genus files over (n, uorder),
    # four Sobolev roots with one m per quarter of [3, 64].  The degree, the
    # genus kind and the log-b slice rotate with the block index, so that
    # every 4, 3 and 8 blocks cover each combination once whatever the seed:
    # Sobolev costs vary tenfold with (m, b), and an unstratified draw moves
    # the median of a run from seed to seed.
    ops = []
    for cell, (n, uorder) in enumerate(itertools.product((2, 3), (24, 48))):
        degree = 2 + (b + cell) % 4
        ops.append(Op(0, "hypersurface", params={"ambient": 2 * n + 1, "degree": degree, "n": n, "uorder": uorder}))
    for cell, (n, uorder) in enumerate(itertools.product((2, 3), (48, 64))):
        kind = GENUS_KINDS[(b + cell) % len(GENUS_KINDS)]
        ops.append(
            Op(0, "genus", params={"genus": kind, "n": n, "uorder": uorder}, manifold=random_manifold(f"random-n{n}", n, rng))
        )
    lo, hi = (math.log(x) for x in SOBOLEV_B_RANGE)
    width = (hi - lo) / SOBOLEV_B_BINS
    for cell, (m_lo, m_hi) in enumerate(SOBOLEV_M_BINS):
        m = rng.randint(m_lo, m_hi)
        b_bin = (b + 2 * cell) % SOBOLEV_B_BINS
        b_value = math.exp(lo + width * (b_bin + rng.random()))
        ops.append(Op(0, "sobolev", params={"m": m, "b": b_value, "tol": SOBOLEV_TOL}))
    rng.shuffle(ops)
    return ops


def _sweep_warm_block(b: int, rng: random.Random) -> list[Op]:
    # One n = 5 op for two n = 6 ops: the median and the tail then both sit
    # inside the n = 6 class instead of on the boundary between the classes.
    ops = [
        Op(0, "sweep", params={"n": n, "uorder": SWEEP_UORDER}, manifold=random_manifold(f"random-n{n}", n, rng))
        for n in (5, 6, 6)
    ]
    rng.shuffle(ops)
    return ops


def _bundle_route_block(b: int, rng: random.Random) -> list[Op]:
    # Two (2, 16) ops for one (3, 12) op, for the same reason as above.
    ops = [
        Op(0, "route", params={"n": n, "uorder": uorder, "seed": rng.randrange(2**31)})
        for n, uorder in ((2, 16), (2, 16), (3, 12))
    ]
    rng.shuffle(ops)
    return ops


_BLOCKS = {
    "cli-cold": _cli_cold_block,
    "sweep-warm": _sweep_warm_block,
    "bundle-route": _bundle_route_block,
}


def cold_argv(op: Op, manifold_path: str | None = None) -> list[str]:
    """ellgen CLI arguments of a cold op."""
    p = op.params
    if op.kind == "hypersurface":
        return [
            "hypersurface", "--ambient", str(p["ambient"]), "--degree", str(p["degree"]),
            "--uorder", str(p["uorder"]), "--format", "json",
        ]
    if op.kind == "genus":
        return [
            "genus", "--manifold", manifold_path, "--genus", p["genus"],
            "--uorder", str(p["uorder"]), "--format", "json",
        ]
    if op.kind == "sobolev":
        return ["sobolev", "--m", str(p["m"]), "--b", repr(p["b"]), "--tol", repr(p["tol"])]
    if op.kind == "route":
        return [
            "verify", "--check", "route-equivalence", "--samples", "1", "--seed", str(p["seed"]),
            "--n", str(p["n"]), "--uorder", str(p["uorder"]),
        ]
    raise ValueError(f"op kind {op.kind!r} has no CLI form")


def blocks(workload: str, seed: int):
    """Endless stream of op blocks for a workload; ops are numbered from 0."""
    make = _BLOCKS[workload]
    rng = random.Random(f"{workload}/{seed}")
    index = 0
    for b in itertools.count():
        block = make(b, rng)
        for op in block:
            op.index = index
            index += 1
        yield block


def write_inputs(block: list[Op], workdir: Path) -> None:
    """Write the manifold files of cold ops and fill in their argv."""
    for op in block:
        if op.kind == "sweep":
            continue
        path = None
        if op.manifold is not None:
            path = workdir / f"manifold-{op.index}.json"
            path.write_text(json.dumps(op.manifold), encoding="utf-8")
            path = str(path)
        op.argv = cold_argv(op, path)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--blocks", type=int, default=1)
    parser.add_argument("--out", type=Path, help="directory for manifold files")
    args = parser.parse_args()
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
    for block in itertools.islice(blocks(args.workload, args.seed), args.blocks):
        if args.out:
            write_inputs(block, args.out)
        for op in block:
            print(json.dumps({"index": op.index, "kind": op.kind, "argv": op.argv, "params": op.params, "manifold": op.manifold}))


if __name__ == "__main__":
    main()
