"""Watch the standardized moments of the projected counts approach normality.

Two independent columns per moment: the deterministic recursion, on a grid
up to n = 20000, and a Monte Carlo batch at n = 800.  Odd moments head to 0,
even ones to the normal values (2m)! sigma^(2m) / (2^m m!).

Usage: python scripts/clt_moments.py [--k 2] [--projection 1,...] [--reps 400000]
"""
from __future__ import annotations

import argparse
import math

from spacings.cli import _parse_projection
from spacings.model import ProcessParams
from spacings.moments import cross_moment_recursion, projected_moment_recursion
from spacings.simulate import SimConfig, simulate_batch


def normal_moment(m: int, sigma2: float) -> float:
    if m % 2:
        return 0.0
    half = m // 2
    return sigma2**half * math.factorial(m) / (2**half * math.factorial(half))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--projection", default=None, help="comma separated, length k-1")
    ap.add_argument("--reps", type=int, default=400_000)
    ap.add_argument("--seed", type=int, default=20250811)
    args = ap.parse_args()

    k = args.k
    grid = [50, 100, 200, 400, 800, 5000, 20000]
    sim_n = 800  # the simulation column stays here, so the run time does not grow with the grid
    try:
        c = _parse_projection(args.projection) or (1.0,) * (k - 1)
        table = projected_moment_recursion(list(c), k, grid[-1], order=8)
        config = SimConfig(ProcessParams(sim_n, k), args.reps, args.seed, projection=c)
    except ValueError as e:
        ap.error(str(e))
    import numpy as np

    cvec = np.asarray(c)
    sigma2 = float(cvec @ cross_moment_recursion(k, sim_n).cov[sim_n] @ cvec / sim_n)
    print(f"k={k}  c={c}  reference variance at n={sim_n}: {sigma2:.6f}\n")

    header = f"{'n':>6}" + "".join(f"  {'m=' + str(m):>12}" for m in range(3, 9))
    print(header)
    for n in grid:
        row = f"{n:>6}"
        for m in range(3, 9):
            v = table.standardized[n, m]
            want = normal_moment(m, table.standardized[n, 2])
            row += f"  {v - want:>12.5f}"
        print(row + "   (recursion, deviation from normal)")

    stats = simulate_batch(config)
    row = f"{sim_n:>6}"
    for m in range(3, 9):
        v = stats.std_moments[m]
        want = normal_moment(m, stats.std_moments[2])
        row += f"  {v - want:>12.5f}"
    print(row + f"   (simulation, {args.reps:,} replications)")


if __name__ == "__main__":
    main()
