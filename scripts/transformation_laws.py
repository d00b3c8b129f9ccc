#!/usr/bin/env python3
"""Numeric check of the tau -> -1/tau laws for delta/eps at sample points.

delta_2(-1/tau) = tau^2 delta_1(tau) and eps_2(-1/tau) = tau^4 eps_1(tau),
evaluated at q = e^(2 pi i tau) from the truncated exact expansions, with
the proven tolerance of `ellgen.modular.law_tolerance` at that order (the
larger of the two laws') printed alongside the residuals.

    python scripts/transformation_laws.py [--uorder N]
"""

import argparse
import math

from ellgen.modular import law_residuals, law_tolerance


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--uorder", type=int, default=60)
    args = parser.parse_args()

    order = args.uorder
    print(f"truncation order u^{order}")
    print(f"{'tau':>8} {'|d2(-1/t) - t^2 d1(t)|':>24} {'|e2(-1/t) - t^4 e1(t)|':>24} {'tolerance':>10}")
    for tau in (1j, 2j, 0.5j, 3j, 0.25 + 1j):
        _, dtol, etol = law_tolerance(tau, order, target=math.inf)
        rd, re = law_residuals(tau, order)
        print(f"{str(tau):>8} {rd:>24.3e} {re:>24.3e} {max(dtol, etol):>10.1e}")


if __name__ == "__main__":
    main()
