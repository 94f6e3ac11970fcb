"""Finite-n moment recursions for the terminal spacing counts.

Everything here flows from one structural fact: the first block lands
uniformly among the n-k+1 feasible starts and splits the row into two
independent shorter rows.  Averaging over the split point turns each moment
of the terminal counts into an average of products of lower-n moments,
which we evaluate exactly, either in float64 or in rational arithmetic.

Expected counts and covariances grow linearly, with a finite-n correction
that dies off faster than any geometric rate.  So the covariance table stops
at the fixed row 17k-1, past that correction, and the limiting constants
("extrapolation") are the rates at that row: within 7.8e-15, in units of
sqrt(|Sigma_ii Sigma_jj|), of a 30-digit decimal twin at every k = 2..64.

The same holds for every cumulant of a projection c . X_n: the projected
recursion, centred on the asymptote of its mean, builds its later raw and
central rows straight from cumulant rates once they hold (see
:func:`projected_moment_recursion`).

Every table here is a function of its own arguments: a function that
needs the mean table builds it from (k, n_max) and takes none from the
caller.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import MutableSequence, Sequence

import numpy as np

__all__ = [
    "MeanTable",
    "CrossMomentTable",
    "ProjectedMomentTable",
    "AveragingLimitResult",
    "DriftBoundResult",
    "mean_recursion",
    "mean_recursion_exact",
    "cross_moment_recursion",
    "cross_moment_recursion_exact",
    "projected_moment_recursion",
    "projected_moment_recursion_exact",
    "averaging_recursion_limit",
    "mean_drift_bound",
    "STABILIZATION_LOOKBACK",
    "CONTINUATION_TOL",
    "MAX_K",
    "MAX_N_MAX",
    "MAX_ORDER",
]

STABILIZATION_LOOKBACK = 10
# largest gap, in units of the standardized law, between a table's rows and
# its rates continued, at which the rates take over
CONTINUATION_TOL = 1e-12
# Largest arguments the recursions and quadratures accept, checked before
# anything is allocated; README "Numerical notes" gives the run times and
# memory at them.
MAX_K = 64
MAX_N_MAX = 50_000
MAX_ORDER = 1029  # C(1030, 515) lies beyond the double range


def _check_k(k: int) -> None:
    if not 2 <= k <= MAX_K:
        raise ValueError(f"k must lie in 2..{MAX_K}, got {k}")


def _check_kn(k: int, n_max: int) -> None:
    _check_k(k)
    if not 0 <= n_max <= MAX_N_MAX:
        raise ValueError(f"n_max must lie in 0..{MAX_N_MAX}, got {n_max}")


def _check_order(order: int) -> None:
    if not 2 <= order <= MAX_ORDER:
        raise ValueError(f"order must lie in 2..{MAX_ORDER}, got {order}")


@dataclass
class MeanTable:
    """Expected spacing counts; ``values[n, j-1] = E(count of length-j runs)``."""

    k: int
    values: np.ndarray

    def rate(self, n: int) -> np.ndarray:
        """Expected counts per (n+k) hooks; converges to the limiting rates."""
        return self.values[n] / (n + self.k)


@dataclass
class CrossMomentTable:
    """Covariances of the count vector, per row length: second moment minus mean outer mean."""

    k: int
    cov: np.ndarray  # (n_max+1, k-1, k-1)
    continued_from: int | None  # rows past it are cov_rate(continued_from) * (n+k)

    def cov_rate(self, n: int) -> np.ndarray:
        return self.cov[n] / (n + self.k)


@dataclass
class ProjectedMomentTable:
    """Raw and standardized moments of one linear read-out of the counts.

    ``raw[n, m]`` is the m-th raw moment of c . X_n.  ``standardized[n, m]``
    is the m-th moment of the centered sum scaled by n**(-1/2), the scaling
    under which the fluctuations stabilize.  ``shift_rate`` is the r of the
    centring Z_n = c . X_n - r (n+k) the recursion ran on.  Rows past
    ``continued_from`` (None: no row) follow from the cumulant rates
    ``cumulant_rates[m]`` = kappa_m(n)/(n+k), m = 1..order (entry 0 is 0).
    """

    k: int
    projection: tuple[float, ...]
    raw: np.ndarray
    standardized: np.ndarray
    continued_from: int | None
    shift_rate: float
    cumulant_rates: np.ndarray | None


@dataclass(frozen=True)
class AveragingLimitResult:
    """Terminal value of the weighted-averaging recursion vs its predicted limit."""

    a_final: float
    predicted_limit: float
    gap: float


@dataclass(frozen=True)
class DriftBoundResult:
    """Empirical bound on the centering drift of the split identity."""

    k: int
    sup: float
    per_n: np.ndarray  # per_n[n] = max_j || mean[j] + mean[n-k-j] - mean[n] ||_2


def _mean_column(c: Sequence[float], n_max: int, rows: MutableSequence[float]) -> MutableSequence[float]:
    """Append rows 0..n_max of E(c . X_n) to the empty ``rows``, which it returns.

    Rows n < k hold c_n (a single run of length n), rows 0 and k hold 0;
    the recursion of :func:`mean_recursion` is linear, so later rows are
    E(c . X_n).  Row n reads row n-k as ``rows[-k]``: a list keeps every
    row, a ``deque(maxlen=k)`` the last k.  Python floats take the same
    IEEE operations in the same order as a numpy step per row, so the same
    bits, without numpy's per-call cost.
    """
    k = len(c) + 1
    rows.extend([0.0, *c, 0.0][: n_max + 1])
    prev, back = rows[-1], -k
    for L in range(2, n_max - k + 2):  # row n = L + k - 1
        prev = ((L - 1) * prev + 2.0 * rows[back]) / L
        rows.append(prev)
    return rows


def mean_recursion(k: int, n_max: int) -> MeanTable:
    """Expected counts via the one-step recursion.

    (n-k+1) * mean[n] = (n-k) * mean[n-1] + 2 * mean[n-k]   for n > k,
    with deterministic rows below k and a zero row at n = k.  Column j-1
    is ``_mean_column`` of e_j, in a C-contiguous table: the order in which
    the products of ``_settled_rows`` sum, so their bits, follow the layout.
    """
    _check_kn(k, n_max)
    g = np.empty((n_max + 1, k - 1))
    for col, unit in enumerate(np.eye(k - 1).tolist()):
        g[:, col] = _mean_column(unit, n_max, [])
    return MeanTable(k, g)


def mean_recursion_exact(k: int, n_max: int) -> list[list[Fraction]]:
    """Rational-arithmetic twin of :func:`mean_recursion` for small n."""
    _check_kn(k, n_max)
    g = [[Fraction(0)] * (k - 1) for _ in range(n_max + 1)]
    for n in range(1, min(k, n_max + 1)):  # a single run of length n
        g[n][n - 1] = 1
    for n in range(k + 1, n_max + 1):
        L = n - k + 1
        g[n] = [
            (Fraction(L - 1) * a + 2 * b) / L for a, b in zip(g[n - 1], g[n - k])
        ]
    return g


def _pair_columns(d: int) -> np.ndarray:
    """pair[i, j]: the column of entry (i, j) in a row packed as its entries i <= j (triu order)."""
    i_idx, j_idx = np.triu_indices(d)
    pair = np.zeros((d, d), dtype=int)
    pair[i_idx, j_idx] = pair[j_idx, i_idx] = np.arange(len(i_idx))
    return pair


def _settled_rows(k: int, cap: int) -> tuple[np.ndarray, np.ndarray, int | None]:
    """(mean rows, packed cross rows, t): rows 0..min(cap, 17k-1), t = 17k-1 or None.

    The loop of :func:`cross_moment_recursion`, on the entries i <= j of the
    symmetric table (``_pair_columns``).  Rows n..n+k-1 read only rows <= n-1
    (the first block leaves at most n-k hooks on either side), so each step
    fills k rows from a running sum of second moments and the mean term of
    just those rows.  It runs 16 full steps, to the row t = 17k - 1 where
    the rates cov[t]/(t+k) are read, or to a cap below t, and t is None.
    """
    _check_kn(k, cap)
    # the rates at row 17k-1 are within 7.8e-15 sqrt|Sigma_ii Sigma_jj| of a
    # 30-digit decimal twin (tests/oracles.py) at every k = 2..64; at row
    # 16k-1 they are within only 3.5e-14
    t = 17 * k - 1
    size = min(cap, t)
    i_idx, j_idx = np.triu_indices(k - 1)
    diag = np.flatnonzero(i_idx == j_idx)  # the packed column of each entry (i, i)
    g = mean_recursion(k, size).values
    packed = np.zeros((size + 1, len(i_idx)))
    for n in range(1, min(k, size + 1)):
        packed[n, diag[n - 1]] = 1.0
    steps = size - k + 1  # rows k..size, one per split length L = 1..steps
    # prefix sums of a block as one product with a lower-triangular matrix
    # of ones (np.cumsum along the rows is slower here)
    prefix = np.tril(np.ones((k, k)))
    total = np.zeros(len(i_idx))
    for n in range(k, size + 1, k):
        lo, hi = n - k, min(n, steps)
        # the mean term of row m + k: sum_h outer(mean[h], mean[m-h]) + transpose
        split = [2.0 * (g[: m + 1].T @ g[m::-1])[i_idx, j_idx] for m in range(lo, hi)]
        run = total + prefix[: hi - lo, : hi - lo] @ packed[lo:hi]
        packed[n : n + k] = (2.0 * run + split) / np.arange(lo + 1.0, hi + 1.0)[:, None]
        total = run[-1]
    return g, packed, t if cap >= t else None


def cross_moment_recursion(k: int, n_max: int) -> CrossMomentTable:
    """Covariances of the count vector by split averaging of its raw second moments.

    second[n] = 2/(n-k+1) * sum_h second[h]
              + 1/(n-k+1) * sum_h (outer(mean[h], mean[n-k-h]) + transpose),

    and cov[n] = second[n] - outer(mean[n], mean[n]).  Each covariance is
    Sigma (n+k) plus a remainder that dies faster than geometrically, so the
    loop (``_settled_rows``) stops at the row t = 17k - 1, past that
    remainder, and reads the rates Sigma = cov[t]/(t+k) there.  second and
    mean exist only for the loop's rows.  If t <= n_max, ``continued_from``
    is t and later rows are cov[s] = Sigma (s+k); else the loop runs to
    n_max and it is None.
    """
    g, packed, t = _settled_rows(k, n_max)
    pair, done = _pair_columns(k - 1), len(packed)
    cov = np.empty((n_max + 1, k - 1, k - 1))
    # mode "clip" (every index is in range) writes straight into out; "raise" buffers it
    np.take(packed, pair, axis=1, mode="clip", out=cov[:done])
    for i in range(k - 1):  # a column at a time: no (done, k-1, k-1) temporary
        cov[:done, i] -= g[:, i, None] * g
    if t is not None:
        s_k = np.arange(t + 1.0 + k, n_max + 1.0 + k)[:, None, None]
        np.multiply(s_k, cov[t] / (t + k), out=cov[done:])
    return CrossMomentTable(k, cov, t)


def cross_moment_recursion_exact(k: int, n_max: int) -> list[list[list[Fraction]]]:
    """Rational twin of :func:`cross_moment_recursion` (raw second moments)."""
    _check_kn(k, n_max)
    means = mean_recursion_exact(k, n_max)
    d = k - 1
    second = [[[Fraction(0)] * d for _ in range(d)] for _ in range(n_max + 1)]
    for n in range(1, min(k, n_max + 1)):
        second[n][n - 1][n - 1] = Fraction(1)
    for n in range(k, n_max + 1):
        L = n - k + 1
        out = [[Fraction(0)] * d for _ in range(d)]
        for h in range(L):
            gh, go = means[h], means[n - k - h]
            sh = second[h]
            for i in range(d):
                for j in range(d):
                    out[i][j] += 2 * sh[i][j] + gh[i] * go[j] + gh[j] * go[i]
        second[n] = [[v / L for v in row] for row in out]
    return second


def _binomial_rows(order: int) -> np.ndarray:
    """Rows 0..order of Pascal's triangle, zero-padded to order+1, as floats.

    Built by Pascal's rule in Python ints, each row rounded once into the
    table, so each entry is the double nearest its binomial.
    """
    table = np.zeros((order + 1, order + 1))
    row = [1]
    for m in range(order + 1):
        table[m, : m + 1] = row
        row = [1, *map(operator.add, row[:-1], row[1:]), 1]
    return table


def _recenter(mom: np.ndarray, binom: np.ndarray) -> np.ndarray:
    """Central moments from moments about any point, row by row.

    ``mom[:, p]`` is the p-th moment about some point: column 0 is the
    mass (1 for a law) and column 1 the mean's offset from that point.
    ``binom`` holds Pascal's rows 0..mom.shape[1]-1 (``_binomial_rows``).
    """
    powers = (-mom[:, 1:2]) ** np.arange(mom.shape[1])
    central = np.empty_like(mom)
    for m in range(mom.shape[1]):
        central[:, m] = (mom[:, : m + 1] * powers[:, m::-1]) @ binom[m, : m + 1]
    return central


def _moments_from_cumulants(kap: np.ndarray, binom: np.ndarray) -> np.ndarray:
    """Moments from cumulants, row by row: mom_p = sum_j C(p-1, j-1) kap_j mom_{p-j}.

    ``kap[:, 0]`` is ignored; column 1 of the result is ``kap[:, 1]``, so a
    zero first cumulant gives central moments.
    """
    mom = np.empty_like(kap)
    mom[:, 0] = 1.0
    for p in range(1, kap.shape[1]):
        mom[:, p] = (kap[:, 1 : p + 1] * mom[:, p - 1 :: -1]) @ binom[p - 1, :p]
    return mom


def _continued_rates(window: np.ndarray, tk: int, binom: np.ndarray) -> np.ndarray | None:
    """Rates kappa_m(t)/(t+k) of the moment row ``window[0]``, if they hold.

    ``window`` holds rows t, t+1, ... of one table and tk = t + k.  The
    rates times s+k give the later rows s by
    :func:`_moments_from_cumulants`, and a trial fails (None) when any order
    misses the table by ``CONTINUATION_TOL`` in units of the standardized law,
    (kappa_2(t) (s+k)/tk)**(m/2).
    """
    W = window.shape[1]
    mom, rows = window[0], window[1:]
    S = tk + np.arange(1.0, len(window))[:, None]
    unit = CONTINUATION_TOL * (S * (mom[2] - mom[1] ** 2) / tk) ** (np.arange(W) / 2)
    rates = np.zeros(W)
    for p in range(1, W):
        # kappa_p = mom_p - sum_{j<p} C(p-1, j-1) kappa_j mom_{p-j}
        rates[p] = mom[p] / tk - (rates[1:p] * mom[p - 1 : 0 : -1]) @ binom[p - 1, : p - 1]
    cont = _moments_from_cumulants(S * rates, binom)
    return rates if (np.abs(cont - rows) < unit)[:, 1:].all() else None


def projected_moment_recursion(
    projection: Sequence[float], k: int, n_max: int, order: int = 8
) -> ProjectedMomentTable:
    """Moments of c . X_n up to ``order`` by binomial split averaging.

    For any constant r, Z_n = c . X_n - r (n+k) splits as c . X_n does,
    c . X_n = c . X_j + c . X'_{n-k-j}, because (j+k) + (n-k-j+k) = n+k.
    So the moments of c . X_n (r = 0) and those of Z_n both obey

        T[n, m] = 1/(n-k+1) * sum_j sum_i C(m, i) T[j, i] T[n-k-j, m-i]

    from their deterministic rows n <= k, and one loop runs both.  r is
    the projected mean rate at n_max, E(c . X_{n_max})/(n_max+k) from the
    single column ``_mean_column`` seeded with c, of which only the last k
    rows are kept, so Z_n is centred up to rounding.
    ``standardized`` takes the central moments, scaled by n**(-m/2), from
    Z without cancellation; ``raw`` holds the moments of c . X_n.

    Each cumulant of c . X_n is kappa_m (n+k) plus a remainder that dies
    faster than geometrically.  So every ``STABILIZATION_LOOKBACK`` rows
    the cumulants of Z at row t = n - ``STABILIZATION_LOOKBACK`` are
    continued in proportion to s+k over rows s = t+1..n, and the moments
    they give are compared with the recursion's, moment m in units of
    (kappa_2(t) (s+k)/(t+k))**(m/2), the scale of the standardized law.
    At the first n where all agree within ``CONTINUATION_TOL`` the loop
    stops: ``continued_from`` is n and ``cumulant_rates`` holds the rates
    kappa_m(t)/(t+k) of c . X_n.  Rows s = n+1..n_max come straight from
    the cumulants kappa_m (s+k): the raw moments with the first rate as it
    is, the central moments with a first cumulant of 0.  When no n <= n_max
    qualifies, the recursion runs to n_max and both are None.

    Split points j and L-1-j pair the same two rows, so each step sums each
    pair once: half = T[:h].T @ reversed(T[L-h:L]) with h = ceil(L/2),
    one GEMM over both tables side by side, in which the centre row of an
    odd L enters at weight 1/2.  The binomially weighted anti-diagonal sums
    of half, divided by L/2, give T[n].  Only the anti-diagonal entries
    (i, m-i), m <= order, are read.  Entries beyond them may overflow; even
    a zero weight on one (0 * inf = nan) would trip the guard.
    """
    _check_kn(k, n_max)
    _check_order(order)
    c = tuple(float(v) for v in projection)
    if len(c) != k - 1:
        raise ValueError(f"projection must have length {k - 1}")
    r = _mean_column(c, n_max, deque(maxlen=k))[-1] / (n_max + k)
    binom = _binomial_rows(order)
    table, n0, rates = _split_tables(c, k, n_max, order, r, binom)
    W, done = order + 1, len(table)
    raw = np.empty((n_max + 1, W))
    raw[:done] = table[:, :W]
    if n0 is not None:
        with np.errstate(over="ignore", invalid="ignore"):  # overflow raises below
            kap = rates * (np.arange(n0 + 1, n_max + 1, dtype=float)[:, None] + k)
            raw[done:] = _moments_from_cumulants(kap, binom)
    if not np.isfinite(raw).all():
        raise OverflowError(
            "projected moment recursion left double range; "
            "lower the order, n_max or the projection's scale"
        )
    central = np.zeros((n_max + 1, W))
    central[1:done] = _recenter(table[1:, W:], binom)
    if n0 is not None:
        kap[:, 1] = 0.0  # a first cumulant of 0 gives central moments
        central[done:] = _moments_from_cumulants(kap, binom)
    std = np.zeros_like(raw)
    std[:, 0] = 1.0
    scale = np.arange(1, n_max + 1, dtype=float) ** -0.5
    for m in range(1, order + 1):
        std[1:, m] = central[1:, m] * scale**m
    return ProjectedMomentTable(k, c, raw, std, n0, r, rates)


def _split_tables(
    c: tuple[float, ...], k: int, n_max: int, M: int, r: float, binom: np.ndarray
) -> tuple[np.ndarray, int | None, np.ndarray | None]:
    """Moments of c . X_n and of Z_n = c . X_n - r (n+k), side by side.

    Returns (table, n0, rates).  ``table[:, :M+1]`` holds the moments of
    c . X_n and ``table[:, M+1:]`` those of Z_n, for the rows the
    recursion computed: rows 0..n0 when the cumulant rates of c . X_n,
    ``rates``, held within ``CONTINUATION_TOL`` at n0, and else rows
    0..n_max with n0 and rates None.
    """
    W = M + 1
    table = np.zeros((n_max + 1, 2 * W))
    rows = np.arange(min(k, n_max) + 1)
    value = np.zeros(len(rows))  # c . X_n on the seed rows: 0 at n = 0 and n = k
    value[1:k] = c[: len(rows) - 1]
    with np.errstate(over="ignore"):
        table[: k + 1, :W] = value[:, None] ** np.arange(W)
        table[: k + 1, W:] = (value - r * (rows + k))[:, None] ** np.arange(W)
    if n_max <= k:
        return table, None, None
    # rev[n_max - n] = table[n], so rows n-k, ..., 0 are contiguous in rev[n_max-n+k:].
    # Copying each step's partner rows out of table instead keeps the bits but
    # is slower: (2, 3000) took 364 -> 416 ms at order 16, 733 -> 908 ms at 33.
    rev = table[::-1].copy()
    # one GEMM pairs the rows of both tables; only its two diagonal blocks are read
    i_idx, l_idx = np.nonzero(np.add.outer(np.arange(W), np.arange(W)) <= M)
    flat = np.concatenate([i_idx * 2 * W + l_idx, (i_idx + W) * 2 * W + l_idx + W])
    m_idx = np.concatenate([i_idx + l_idx, i_idx + l_idx + W])
    weight = np.tile(binom[i_idx + l_idx, i_idx], 2)
    lookback = STABILIZATION_LOOKBACK
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for n in range(k + 1, n_max + 1):
            L = n - k + 1
            h = (L + 1) // 2
            start = n_max + 1 - L
            centre = start + h - 1  # rev[centre] = table[L - h], table[h - 1] when L is odd
            if L % 2:
                rev[centre] = 0.5 * table[h - 1]
            half = table[:h].T @ rev[start : start + h]
            if L % 2:
                rev[centre] = table[h - 1]
            table[n] = np.bincount(m_idx, half.ravel()[flat] * weight) / (0.5 * L)
            rev[n_max - n] = table[n]
            if not math.isfinite(table[n, M]):
                break  # the top raw moment left double range; the caller raises
            if n % lookback or n - lookback <= k:
                continue  # rows up to k are deterministic: no rates to read
            window = table[n - lookback : n + 1, W:]
            rates = _continued_rates(window, n - lookback + k, binom)
            if rates is not None:
                rates[1] += r  # c . X_n = Z_n + r (n+k)
                return table[: n + 1].copy(), n, rates
    return table, None, None


def projected_moment_recursion_exact(
    projection: Sequence[Fraction | int], k: int, n_max: int, order: int = 6
) -> list[list[Fraction]]:
    """Rational twin of the projected raw-moment recursion (no standardization)."""
    _check_kn(k, n_max)
    _check_order(order)
    c = tuple(Fraction(v) for v in projection)
    if len(c) != k - 1:
        raise ValueError(f"projection must have length {k - 1}")
    M = order
    comb = math.comb
    raw = [[Fraction(0)] * (M + 1) for _ in range(n_max + 1)]
    raw[0][0] = Fraction(1)
    for n in range(1, min(k, n_max + 1)):
        raw[n] = [c[n - 1] ** m for m in range(M + 1)]
    if n_max >= k:
        raw[k][0] = Fraction(1)
    for n in range(k + 1, n_max + 1):
        L = n - k + 1
        for m in range(M + 1):
            acc = Fraction(0)
            for j in range(L):
                left, right = raw[j], raw[n - k - j]
                acc += sum(comb(m, i) * left[i] * right[m - i] for i in range(m + 1))
            raw[n][m] = acc / L
    return raw


def averaging_recursion_limit(
    alpha: float, beta: float, k: int, n_max: int
) -> AveragingLimitResult:
    """Drive a_n = alpha + 2/(n-k+1) * sum_{j<=n-k} (j/n)**beta * a_j to large n.

    For beta > 1 the sequence converges to alpha*(beta+1)/(beta-1); the
    result reports the terminal value, the predicted limit, and their gap.
    Runs in O(n_max) time and O(k) memory by carrying sum j**beta * a_j.
    """
    if beta <= 1:
        raise ValueError(f"beta must exceed 1, got beta={beta}")
    _check_k(k)
    if n_max <= k:
        raise ValueError("n_max must exceed k")
    a = [0.0] * k  # a[n-k] sits in slot n % k until a[n] takes it; rows 0..k are 0
    weighted_sum = 0.0
    for n in range(k + 1, n_max + 1):
        t = n - k
        weighted_sum += t**beta * a[n % k]
        a[n % k] = alpha + 2.0 * weighted_sum / ((n - k + 1) * n**beta)
    predicted = alpha * (beta + 1.0) / (beta - 1.0)
    return AveragingLimitResult(a[n_max % k], predicted, abs(a[n_max % k] - predicted))


def mean_drift_bound(k: int, n_max: int) -> DriftBoundResult:
    """Empirical supremum of the centering drift in the split identity.

    For each n the drift at split point j is mean[j] + mean[n-k-j] - mean[n];
    linear growth cancels exactly, so the norm stays bounded and its per-n
    maximum settles to a constant once the mean rates have converged.

    Split points j and L-j (L = n-k) give the same sum, so only j <= L/2
    are formed: one pass per j covers every row n >= k + 2j at once and
    keeps the running max of the squared norms per n.  Each norm is summed
    over one contiguous row of k-1 entries, as a per-n loop sums it, and
    sqrt, being monotone, is taken once after the max: the loop's bits.
    """
    _check_kn(k, n_max)
    g = mean_recursion(k, n_max).values
    squared, last = np.zeros(n_max + 1), n_max - k
    for j in range(last // 2 + 1):
        drift = g[j] + g[j : last - j + 1]  # g[j] + g[L-j] for L = 2j..last
        drift -= g[k + 2 * j :]
        drift *= drift
        np.maximum(squared[k + 2 * j :], drift.sum(axis=-1), out=squared[k + 2 * j :])
    per_n = np.sqrt(squared)
    return DriftBoundResult(k, float(per_n.max()), per_n)
