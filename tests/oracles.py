"""Brute-force reference law used to freeze expected values in the tests.

Everything here works on explicit occupancy tuples with Fraction arithmetic
and shares no code with the library: terminal states are found by recursing
over every feasible placement, not by any splitting shortcut.  Slow on
purpose; keep n at or below about 14.  The helpers after ``mean_vacancy``
are independent float, decimal and bookkeeping cross-checks of library
code paths.
"""
from __future__ import annotations

import math
import operator
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from spacings.moments import mean_recursion, mean_recursion_exact

StateKey = tuple[tuple[int, ...], int]


def feasible_starts(occ: tuple[int, ...], k: int) -> list[int]:
    """Indices where a block of k adjacent vacant hooks could be placed."""
    return [s for s in range(len(occ) - k + 1) if not any(occ[s : s + k])]


def vacant_runs(occ: tuple[int, ...]) -> list[int]:
    runs: list[int] = []
    run = 0
    for cell in occ:
        if cell:
            if run:
                runs.append(run)
            run = 0
        else:
            run += 1
    if run:
        runs.append(run)
    return runs


def state_key(occ: tuple[int, ...], k: int) -> StateKey:
    """(spacing counts by length 1..k-1, number of blocks) for a terminal row."""
    counts = [0] * (k - 1)
    for r in vacant_runs(occ):
        counts[r - 1] += 1  # terminal runs are shorter than k
    filled = sum(occ)
    assert filled % k == 0
    return tuple(counts), filled // k


@lru_cache(maxsize=None)
def _terminal_law(occ: tuple[int, ...], k: int) -> tuple[tuple[StateKey, Fraction], ...]:
    starts = feasible_starts(occ, k)
    if not starts:
        return ((state_key(occ, k), Fraction(1)),)
    share = Fraction(1, len(starts))
    acc: dict[StateKey, Fraction] = {}
    for s in starts:
        nxt = occ[:s] + (1,) * k + occ[s + k :]
        for key, p in _terminal_law(nxt, k):
            acc[key] = acc.get(key, Fraction(0)) + share * p
    return tuple(sorted(acc.items()))


def law(n: int, k: int) -> dict[StateKey, Fraction]:
    """Exact terminal distribution over (spacing counts, block count)."""
    return dict(_terminal_law((0,) * n, k))


def mean_counts(n: int, k: int) -> list[Fraction]:
    """E of the count vector, one entry per spacing length 1..k-1."""
    out = [Fraction(0)] * (k - 1)
    for (counts, _), p in law(n, k).items():
        for i, c in enumerate(counts):
            out[i] += p * c
    return out


def second_moments(n: int, k: int) -> list[list[Fraction]]:
    """E X_i X_j matrix over spacing lengths, exact."""
    out = [[Fraction(0)] * (k - 1) for _ in range(k - 1)]
    for (counts, _), p in law(n, k).items():
        for i in range(k - 1):
            for j in range(k - 1):
                out[i][j] += p * counts[i] * counts[j]
    return out


def projected_moment(n: int, k: int, c: tuple[int, ...], m: int) -> Fraction:
    """E (c . X)^m with integer projection c, exact."""
    out = Fraction(0)
    for (counts, _), p in law(n, k).items():
        dot = sum(ci * xi for ci, xi in zip(c, counts))
        out += p * Fraction(dot) ** m
    return out


def mean_vacancy(n: int, k: int) -> Fraction:
    """E of the number of hooks left vacant at termination."""
    out = Fraction(0)
    for (counts, _), p in law(n, k).items():
        out += p * sum((i + 1) * c for i, c in enumerate(counts))
    return out


def series_constants(k: int, digits: int = 40) -> tuple[list[Decimal], Decimal]:
    """Limiting rates and vacancy of k from the power series of the weight, in ``decimal``.

    exp(2 * (y + y^2/2 + ... + y^(k-1)/(k-1))) = sum_n a_n y^n with a_0 = 1
    and (n+1) a_(n+1) = 2 * (a_n + ... + a_(n+2-k)), so each integral on
    [0, 1] becomes a sum over n: rate_j = 2 sum_n a_n/((n+j+1)(n+j+2)) / sum_n a_n
    and vacancy = 1 - k sum_n a_n/(n+1) / sum_n a_n.  Once n + 1 >= 4(k-1),
    the largest of the last k-1 coefficients at least halves every k-1
    steps, so all later terms sum to less than 2(k-1) times the last k-1;
    the sums stop once those hold less than 10**-digits of the total.
    """
    with localcontext() as ctx:
        ctx.prec = digits + 10
        a = [Decimal(1)]
        window = total = a[0]  # the last k-1 coefficients' sum, and all of them
        while len(a) < 4 * k or window >= Decimal(10) ** -digits * total:
            a.append(2 * window / len(a))
            total += a[-1]
            window = sum(a[1 - k :])
        rates = [
            2 * sum(an / ((n + j + 1) * (n + j + 2)) for n, an in enumerate(a)) / total
            for j in range(1, k)
        ]
        vacancy = 1 - k * sum(an / (n + 1) for n, an in enumerate(a)) / total
    return rates, vacancy


def cov_rate_twin(k: int, i: int, j: int, digits: int = 30) -> tuple[Decimal, Decimal]:
    """Covariance rate of the length-i and length-j counts, by the cross recursion in ``decimal``.

    Returns (rate at row N, |its move over rows N-k..N|) for N = 22k + 80.
    Mean columns i and j come from the one-step mean recursion; the raw
    second moments from
        second[n] = (2 sum_{h<L} second[h] + 2 sum_{h<=n-k} g_i[h] g_j[n-k-h]) / L,
    L = n-k+1 (the split sum of g_i[h] g_j[n-k-h] + g_j[h] g_i[n-k-h] is
    twice either half); the rate is (second[N] - g_i[N] g_j[N]) / (N+k).
    It shares no code with the float loop, its row choice or its layout.
    """
    n_max = 22 * k + 80
    with localcontext() as ctx:
        ctx.prec = digits

        def column(length: int) -> list[Decimal]:
            rows = [Decimal(int(n == length)) for n in range(k)] + [Decimal(0)]
            for n in range(k + 1, n_max + 1):
                L = n - k + 1
                rows.append(((L - 1) * rows[-1] + 2 * rows[n - k]) / L)
            return rows

        gi, gj = column(i), column(j)
        gj_rev = gj[::-1]  # gj_rev[n_max - x] = gj[x]
        second = [Decimal(int(n == i == j)) for n in range(k)]
        total = Decimal(0)  # second[0] + ... + second[L-1]
        for n in range(k, n_max + 1):
            L, m = n - k + 1, n - k
            total += second[m]
            conv = sum(map(operator.mul, gi[: m + 1], gj_rev[n_max - m :]), Decimal(0))
            second.append(2 * (total + conv) / L)

        def rate(n: int) -> Decimal:
            return (second[n] - gi[n] * gj[n]) / (n + k)

        return rate(n_max), abs(rate(n_max) - rate(n_max - k))


def mean_recursion_numpy_step(k: int, n_max: int) -> np.ndarray:
    """Expected counts via the one-step mean recursion, one numpy step per row.

    (n-k+1) mean[n] = (n-k) mean[n-1] + 2 mean[n-k]; the same IEEE
    operations in the same order as the library's per-column float loop.
    """
    g = np.zeros((n_max + 1, k - 1))
    for n in range(1, min(k, n_max + 1)):
        g[n][n - 1] = 1
    for n in range(k + 1, n_max + 1):
        L = n - k + 1
        g[n] = ((L - 1) * g[n - 1] + 2.0 * g[n - k]) / L
    return g


def mean_recursion_cumulative(k: int, n_max: int) -> np.ndarray:
    """Expected counts via the averaged form of the mean recursion.

    mean[n] = 2/(n-k+1) * sum_{j<=n-k} mean[j], rows n < k deterministic.
    The running sum is compensated so it agrees with the one-step form to
    ~1e-12 relative even at n ~ 1e4.
    """
    g = np.zeros((n_max + 1, k - 1))
    for n in range(1, min(k, n_max + 1)):
        g[n][n - 1] = 1
    total = np.zeros(k - 1)
    comp = np.zeros(k - 1)
    for n in range(k, n_max + 1):
        # Kahan update with row n-k entering the window
        y = g[n - k] - comp
        t = total + y
        comp = (t - total) - y
        total = t
        g[n] = 2.0 * total / (n - k + 1)
    return g


def drift_per_n(k: int, n_max: int) -> np.ndarray:
    """max_j || mean[j] + mean[n-k-j] - mean[n] ||_2 for each n, one numpy step per n.

    Every split point j = 0..n-k is formed, and the root taken of every
    squared norm before the max.
    """
    g = mean_recursion(k, n_max).values
    per_n = np.zeros(n_max + 1)
    for n in range(k, n_max + 1):
        L = n - k
        block = g[: L + 1] + g[L::-1] - g[n]
        per_n[n] = float(np.sqrt((block * block).sum(axis=1)).max())
    return per_n


def averaging_recursion_final(alpha: float, beta: float, k: int, n_max: int) -> float:
    """a[n_max] of a_n = alpha + 2/(n-k+1) * sum_{j<=n-k} (j/n)**beta * a_j, every row held."""
    a = [0.0] * (n_max + 1)
    weighted_sum = 0.0
    for n in range(k + 1, n_max + 1):
        t = n - k
        weighted_sum += t**beta * a[t]
        a[n] = alpha + 2.0 * weighted_sum / ((n - k + 1) * n**beta)
    return a[n_max]


def recompute_weight(pool) -> int:
    """Feasible-block count of a pool of open runs, summed from scratch."""
    return sum(max(g - pool.k + 1, 0) for g in pool.gaps)


def cov_kernel_at(y: float, i: int, j: int, k: int, rates, nodes: int) -> float:
    """Covariance kernel at one y and one (i, j), term by term in floats.

    The mean generating functions come from an n-node Gauss-Legendre rule
    on [0, y]; the pieces are those of ``asymptotics.cov_kernel``.
    """
    x, wx = np.polynomial.legendre.leggauss(nodes)
    t, wt = y * (x + 1.0) / 2.0, y * wx / 2.0

    def weight(s):
        return np.exp(2.0 * sum(s**m / m for m in range(1, k)))

    def gf(length: int) -> float:
        integral = float(wt @ (t**length * (1.0 - t) * weight(t)))
        return 2.0 * integral / ((1.0 - y) ** 2 * weight(y))

    w = 1.0 - y
    diag = w * y**i if i == j else 0.0
    bi = y**i + y ** (k - 1) * gf(i)
    bj = y**j + y ** (k - 1) * gf(j)
    lead = 3.0 + (4 * k - 5) * w + 2.0 * (k - 1) ** 2 * w * w - 2.0 * k * k * w**4
    trail = 2.0 + (4 * k - 3) * w + (2 * k - 1) ** 2 * w * w - 4.0 * k * k * w**3
    corr = rates[i - 1] * rates[j - 1] * (lead - trail * y**k) / (w * w)
    return diag + w * w * bi * bj - corr


def lemire_offsets(bounds: list[int], bits) -> list[int]:
    """Uniform offsets on [0, s) for each bound s, in Python-int arithmetic.

    Each bound takes the top 32 bits x of one raw word of ``bits``; the word
    is rejected when x*s mod 2**32 < 2**32 mod s, and the rejected entries
    take fresh words, in index order, pass after pass, until none is left.
    The arrays hold Python ints (dtype object), so no product wraps.
    """
    s = np.array(bounds, dtype=object)
    out = np.zeros(len(bounds), dtype=object)
    pending = np.arange(len(bounds))
    while pending.size:
        product = (bits.random_raw(pending.size).astype(object) >> 32) * s[pending]
        rejected = (product % 2**32 < 2**32 % s[pending]).astype(bool)
        out[pending[~rejected]] = product[~rejected] >> 32
        pending = pending[rejected]
    return out.tolist()


def simulate_chunk_per_round(n: int, k: int, m: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Split-tree run of m replications with the tallies updated every round.

    The engine's raw words in the engine's order, decoded by
    ``lemire_offsets``, each round adding its closed spacings and opened
    rows into full (m, k-1) and (m,) tallies through boolean masks; the
    engine records rounds and tallies them in batches.
    """
    counts = np.zeros(m * (k - 1), dtype=np.int64)
    hats = np.zeros(m, dtype=np.int64)
    row = np.arange(m)
    run = np.full(m, n, dtype=np.int64)
    while True:
        short = (run >= 1) & (run < k)
        counts += np.bincount(row[short] * (k - 1) + run[short] - 1, minlength=counts.size)
        open_ = run >= k
        row, run = row[open_], run[open_]
        if row.size == 0:
            break
        hats += np.bincount(row, minlength=m)
        offset = np.array(lemire_offsets((run - k + 1).tolist(), rng.bit_generator), dtype=np.int64)
        row = np.concatenate([row, row])
        run = np.concatenate([offset, run - k - offset])
    return counts.reshape(m, k - 1), hats


@np.errstate(over="ignore", invalid="ignore")
def batch_stats_per_chunk_comb(config, chunks) -> dict[str, np.ndarray | float]:
    """Batch statistics reduced as the simulator once reduced them.

    ``chunks`` are the counts arrays of the batch in chunk order.  The
    shift is round(E(c . X_n)) taken from the rational mean
    ``mean_recursion_exact``, not from the float column the simulator
    uses.  Each chunk becomes a record of its row count, int64 count sums and Gram
    matrix, and power sums of the projected counts about a shift; records
    merge by ``np.sum`` and one ``math.fsum`` per order, and the power
    means are re-centered with one ``math.comb`` per binomial coefficient.
    Besides the ``SampleStats`` fields, ``terms[p]`` is the sum of the
    magnitudes of the terms that make central moment p, the scale of the
    rounding error in it.
    """
    n = config.params.n
    c = config.projection_vector()
    order = config.moment_order
    exact_mean = mean_recursion_exact(config.params.k, n)[n]
    shift = float(round(sum(Fraction(cj) * e for cj, e in zip(c.tolist(), exact_mean))))
    parts = []
    for counts in chunks:
        y = counts @ c - shift
        pows = y[:, None] ** np.arange(2 * order + 1)
        parts.append(
            SimpleNamespace(
                m=counts.shape[0],
                sum_counts=counts.sum(axis=0),
                sum_outer=counts.T @ counts,
                pow_sums=pows.sum(axis=0),
            )
        )
    m = sum(p.m for p in parts)
    sum_counts = np.sum([p.sum_counts for p in parts], axis=0)
    sum_outer = np.sum([p.sum_outer for p in parts], axis=0)
    pow_sums = np.array(
        [math.fsum(float(p.pow_sums[q]) for p in parts) for q in range(2 * order + 1)]
    )
    mean = sum_counts / m
    cov = sum_outer / m - np.outer(mean, mean)
    mean_se = np.sqrt(np.maximum(np.diag(cov), 0.0) / m)
    t = pow_sums / m
    delta = t[1]
    central = np.zeros(2 * order + 1)
    terms = np.zeros(2 * order + 1)
    for p in range(2 * order + 1):
        i = np.arange(p + 1)
        comb = np.array([math.comb(p, int(q)) for q in i])
        central[p] = comb @ (t[: p + 1] * (-delta) ** (p - i))
        terms[p] = comb @ (np.abs(t[: p + 1]) * abs(delta) ** (p - i))
    scale = float(n) ** -0.5 if n >= 1 else 0.0
    std = np.array([central[p] * scale**p for p in range(order + 1)])
    var_p = np.maximum(central[2 * np.arange(order + 1)] - central[: order + 1] ** 2, 0.0)
    std_se = np.sqrt(var_p / m) * scale ** np.arange(order + 1)
    return {
        "replications": m,
        "mean": mean,
        "mean_se": mean_se,
        "cov": cov,
        "std_moments": std,
        "std_moment_se": std_se,
        "shift": shift,
        "terms": terms,
    }


def validate_counts_rules(n: int, k: int, counts: tuple[int, ...], hats: int) -> bool:
    """The five terminal-state rules, spelled out one at a time.

    Shape, non-negativity, hook conservation, a block whenever n >= k, and
    for n < k the single spacing of length n (none for n = 0) with no block.
    """
    if len(counts) != k - 1:
        return False
    if hats < 0 or any(c < 0 for c in counts):
        return False
    if k * hats + sum(j * c for j, c in enumerate(counts, start=1)) != n:
        return False
    if n >= k and hats < 1:
        return False
    if n < k:
        forced = [0] * (k - 1)
        if n >= 1:
            forced[n - 1] = 1
        if list(counts) != forced or hats != 0:
            return False
    return True
