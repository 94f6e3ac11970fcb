"""Convergence study of the averaging recursion behind the moment limits.

a_n = alpha + 2/(n-k+1) * sum_{j<=n-k} (j/n)^beta a_j heads to
alpha (beta+1)/(beta-1); this script measures how fast.  The fitted model
gap ~ c log(N)/N explains why the gap at N=1e5 (alpha=1, beta=2, k=2)
still sits a factor ~1.35 above 1e-3: the budget of verification check 07.

Usage: python scripts/averaging_gap.py [--alpha 1] [--beta 2] [--k 2]
"""
from __future__ import annotations

import argparse
import math

from spacings.moments import averaging_recursion_limit


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", type=float, default=1.0)
    ap.add_argument("--beta", type=float, default=2.0)
    ap.add_argument("--k", type=int, default=2)
    args = ap.parse_args()

    try:
        results = {
            N: averaging_recursion_limit(args.alpha, args.beta, args.k, N)
            for N in (10**3, 10**4, 10**5, 10**6)
        }
    except ValueError as e:
        ap.error(str(e))
    print(f"alpha={args.alpha} beta={args.beta} k={args.k} "
          f"limit={results[10**3].predicted_limit}\n")
    print(f"{'N':>9} {'gap':>12} {'gap*N/log(N)':>14}")
    for N, res in results.items():
        print(f"{N:>9} {res.gap:>12.4e} {res.gap * N / math.log(N):>14.3f}")


if __name__ == "__main__":
    main()
