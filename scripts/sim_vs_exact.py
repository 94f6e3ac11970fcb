"""Total variation and chi-square of the simulator against the exact law.

Usage: python scripts/sim_vs_exact.py [--reps 1000000] [--seed 20250811]
"""
from __future__ import annotations

import argparse
import time

from spacings.exact import chi_square_gof, pmf_split, total_variation_empirical
from spacings.model import ProcessParams
from spacings.simulate import SimConfig, state_counters


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--reps", type=int, default=1_000_000)
    ap.add_argument("--seed", type=int, default=20250811)
    args = ap.parse_args()
    try:
        SimConfig(ProcessParams(8, 2), args.reps, args.seed)  # checks both before any output
    except ValueError as e:
        ap.error(str(e))

    cases = [ProcessParams(n, k) for k in (2, 3, 4) for n in (8, 10, 12)]
    t0 = time.perf_counter()
    counters = state_counters([(params, args.reps, args.seed) for params in cases])
    dt = time.perf_counter() - t0
    print(f"{'n':>4} {'k':>3} {'states':>7} {'tv':>10} {'chi2':>10} {'dof':>4} {'p':>8}")
    for params, counter in zip(cases, counters):
        pmf = pmf_split(params)
        tv = total_variation_empirical(pmf, counter)
        stat, dof, p = chi_square_gof(pmf, counter)
        print(
            f"{params.n:>4} {params.k:>3} {len(pmf.probs):>7} {tv:>10.2e} {stat:>10.3f} "
            f"{dof:>4} {p:>8.4f}"
        )
    print(f"sampled {len(cases)} cases in {dt:.2f} s")


if __name__ == "__main__":
    main()
