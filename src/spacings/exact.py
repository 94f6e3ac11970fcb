"""Exact terminal-state distributions, computed two independent ways.

Route one (``pmf_split``) exploits the fact that the first block lands
uniformly among the ``n-k+1`` starts of a fresh row and splits it into two
independent shorter rows; the law of the terminal counts is therefore a
uniform mixture of convolutions of lower-n laws.  Row m scaled by
s_m = (m-k+1)! has integer weights w_j = (m-k)!/(s_j s_{m-k-j}), as a!b! divides
(a+b)! and the arguments sum to at most m-k; ``Fraction``s are formed last.

Route two (``pmf_direct``) never uses that shortcut: it walks the process
state space directly.  A state is the multiset of currently open runs of
length >= k; every feasible block (gap, offset) is taken with probability
1/W where W is the total number of feasible blocks.  Agreement of the two
routes on their common range is a strong end-to-end check.

All probabilities are exact rationals.  The goodness-of-fit p-value is a
float: the chi-square upper tail summed from its finite series
(``_chi2_sf``).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .model import GapCounts, ProcessParams, single_spacing_state, validate_counts

__all__ = [
    "CapExceededError",
    "Pmf",
    "ExactMoments",
    "pmf_split",
    "pmf_direct",
    "moments_from_pmf",
    "total_variation_empirical",
    "chi_square_gof",
    "DEFAULT_SPLIT_CAP",
    "DEFAULT_DIRECT_CAP",
]

DEFAULT_SPLIT_CAP = 40
DEFAULT_DIRECT_CAP = 20
# the usual rule of thumb for the chi-square approximation to hold per cell
_MIN_EXPECTED = 5.0


class CapExceededError(Exception):
    """Raised when a requested exact computation exceeds its size cap."""


@dataclass
class Pmf:
    """Exact probability mass function over terminal states."""

    params: ProcessParams
    probs: dict[GapCounts, Fraction] = field(repr=False)

    def total(self) -> Fraction:
        return sum(self.probs.values(), Fraction(0))

    def prob(self, g: GapCounts) -> Fraction:
        return self.probs.get(g, Fraction(0))

    def validate(self) -> bool:
        """All support points structurally valid and mass sums to one."""
        return self.total() == 1 and all(
            validate_counts(self.params, g) for g in self.probs
        )

    def total_variation(self, other: "Pmf") -> Fraction:
        keys = set(self.probs) | set(other.probs)
        return sum((abs(self.prob(g) - other.prob(g)) for g in keys), Fraction(0)) / 2

    def to_rows(self) -> list[dict]:
        """Serialization-ready rows, canonically ordered."""
        return [
            {
                "counts": list(g.counts),
                "hats": g.hats,
                "prob_num": p.numerator,
                "prob_den": p.denominator,
                "prob": float(p),
            }
            for g, p in sorted(self.probs.items())
        ]


def pmf_split(params: ProcessParams, cap: int = DEFAULT_SPLIT_CAP) -> Pmf:
    """Exact law of the terminal state via the split-and-convolve recursion.

    Rows shorter than k are deterministic.  For m >= k the first block start
    is uniform on {0..m-k}, so P_m = 1/(m-k+1) * sum_j P_j (*) P_{m-k-j}.
    Row m is held as integers Q_m = s_m * P_m, s_m = (m-k+1)! (1 for m < k):
    Q_m = sum_{j <= (m-k)/2} w_j * (Q_j (*) Q_{m-k-j}), w_j = (m-k)!/(s_j s_{m-k-j})
    doubled when j != m-k-j, an integer as the factorial arguments sum to at
    most m-3k+2 <= m-k.  Keys are the counts alone (they fix the block count)
    packed as base-(n+1) digits; no count exceeds n, so adding keys adds count
    vectors.  Probabilities become ``Fraction(q, s_n)`` only at the end.
    """
    n, k = params.n, params.k
    if n > cap:
        raise CapExceededError(f"pmf_split asked for n={n} above cap={cap}")
    base = n + 1
    scale = [1] * (n + 1)
    # rows m < k: the empty row, then one spacing of length m
    tables: list[dict[int, int]] = [{base ** (m - 1) if m else 0: 1} for m in range(min(k, base))]
    for m in range(k, n + 1):
        t = m - k
        scale[m] = scale[m - 1] * (t + 1)  # scale[m - 1] == t!
        acc: dict[int, int] = {}
        for j in range(t // 2 + 1):
            w = scale[m - 1] // (scale[j] * scale[t - j]) * (1 if 2 * j == t else 2)
            for c1, q1 in tables[j].items():
                wq1 = w * q1
                for c2, q2 in tables[t - j].items():
                    acc[c1 + c2] = acc.get(c1 + c2, 0) + wq1 * q2
        tables.append(acc)
    probs = {}
    for key, q in tables[n].items():
        counts = tuple(key // base**i % base for i in range(k - 1))
        hats = (n - sum(j * c for j, c in enumerate(counts, start=1))) // k
        probs[GapCounts(counts, hats)] = Fraction(q, scale[n])
    return Pmf(params, probs)


def pmf_direct(params: ProcessParams, cap: int = DEFAULT_DIRECT_CAP) -> Pmf:
    """Exact law by direct recursion over the multiset of open runs.

    From a state with feasible-block count W, each (run, offset) pair is
    taken with probability 1/W; children shorter than k become terminal
    spacings on the spot.  Memoized on the sorted multiset of open runs.
    """
    n, k = params.n, params.k
    if n > cap:
        raise CapExceededError(f"pmf_direct asked for n={n} above cap={cap}")
    if n < k:
        return Pmf(params, {single_spacing_state(n, k): Fraction(1)})

    zero = GapCounts((0,) * (k - 1), 0)
    memo: dict[tuple[int, ...], dict[GapCounts, Fraction]] = {}

    def law(gaps: tuple[int, ...]) -> dict[GapCounts, Fraction]:
        if not gaps:
            return {zero: Fraction(1)}
        hit = memo.get(gaps)
        if hit is not None:
            return hit
        W = sum(g - k + 1 for g in gaps)
        out: dict[GapCounts, Fraction] = {}
        for g, mult in Counter(gaps).items():
            rest = list(gaps)
            rest.remove(g)
            for off in range(g - k + 1):
                extra = [0] * (k - 1)
                nxt = list(rest)
                for child in (off, g - k - off):
                    if child >= k:
                        nxt.append(child)
                    elif child >= 1:
                        extra[child - 1] += 1
                weight = Fraction(mult, W)
                for s, p in law(tuple(sorted(nxt))).items():
                    key = GapCounts(
                        tuple(c + e for c, e in zip(s.counts, extra)), s.hats + 1
                    )
                    out[key] = out.get(key, Fraction(0)) + weight * p
        memo[gaps] = out
        return out

    return Pmf(params, dict(law((n,))))


@dataclass(frozen=True)
class ExactMoments:
    """Exact rational moments of the terminal spacing-count vector."""

    mean: tuple[Fraction, ...]
    second_raw: tuple[tuple[Fraction, ...], ...]
    projection: tuple[Fraction, ...]
    projected_raw: tuple[Fraction, ...]

    def covariance(self) -> tuple[tuple[Fraction, ...], ...]:
        d = len(self.mean)
        return tuple(
            tuple(self.second_raw[i][j] - self.mean[i] * self.mean[j] for j in range(d))
            for i in range(d)
        )


def moments_from_pmf(
    pmf: Pmf,
    order: int = 2,
    projection: Sequence[Fraction | int] | None = None,
) -> ExactMoments:
    """Mean vector, raw second moments, and raw projected moments up to ``order``."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    k = pmf.params.k
    if projection is None:
        proj = tuple(Fraction(1) for _ in range(k - 1))
    else:
        proj = tuple(Fraction(c) for c in projection)
    if len(proj) != k - 1:
        raise ValueError(f"projection must have length {k - 1}")
    mean = [Fraction(0)] * (k - 1)
    second = [[Fraction(0)] * (k - 1) for _ in range(k - 1)]
    raw = [Fraction(0)] * (order + 1)
    for g, p in pmf.probs.items():
        for i, ci in enumerate(g.counts):
            if ci:
                mean[i] += p * ci
                for j, cj in enumerate(g.counts):
                    second[i][j] += p * ci * cj
        y = sum((c * w for c, w in zip(g.counts, proj)), Fraction(0))
        acc = Fraction(1)
        for m in range(order + 1):
            raw[m] += p * acc
            acc *= y
    return ExactMoments(
        mean=tuple(mean),
        second_raw=tuple(tuple(row) for row in second),
        projection=proj,
        projected_raw=tuple(raw),
    )


def total_variation_empirical(pmf: Pmf, counter: Mapping[GapCounts, int]) -> float:
    """TV distance between an empirical state counter and the exact law."""
    m = sum(counter.values())
    if m == 0:
        raise ValueError("empty sample")
    keys = set(pmf.probs) | set(counter)
    return 0.5 * sum(abs(counter.get(g, 0) / m - float(pmf.prob(g))) for g in keys)


def chi_square_gof(pmf: Pmf, counter: Mapping[GapCounts, int]) -> tuple[float, int, float]:
    """Chi-square goodness of fit of a sample against the exact law.

    Support cells whose expected count falls below ``_MIN_EXPECTED`` (5)
    are pooled into one remainder cell.  Returns (statistic, dof, p-value).
    Observations outside the exact support are rejected outright.
    """
    m = sum(counter.values())
    if m == 0:
        raise ValueError("empty sample")
    stray = set(counter) - set(pmf.probs)
    if stray:
        raise ValueError(f"observed states outside exact support: {sorted(stray)[:3]}")
    cells: list[tuple[float, int]] = []
    pooled_exp, pooled_obs = 0.0, 0
    for g, p in pmf.probs.items():
        expected = float(p) * m
        observed = counter.get(g, 0)
        if expected < _MIN_EXPECTED:
            pooled_exp += expected
            pooled_obs += observed
        else:
            cells.append((expected, observed))
    if pooled_exp > 0:
        cells.append((pooled_exp, pooled_obs))
    if len(cells) < 2:
        # distribution effectively degenerate at this sample size
        return 0.0, 0, 1.0
    stat = sum((obs - exp) ** 2 / exp for exp, obs in cells)
    dof = len(cells) - 1
    return stat, dof, _chi2_sf(stat, dof)


def _chi2_sf(x: float, dof: int) -> float:
    """Upper tail P(X > x) of the chi-square law with integer ``dof`` >= 1.

    This is Q(dof/2, y), y = x/2, from its finite series: for even dof
    e^-y * sum_{i < dof/2} y^i / i!, for odd dof
    erfc(sqrt(y)) + sum_{i < (dof-1)/2} e^-y * y^(i+1/2) / Gamma(i+3/2).
    Each term is formed in log space, so e^-y cannot underflow before it
    meets a large power of y, and the positive terms are summed with
    ``math.fsum``; rounding can carry that sum an ulp past 1, which is
    clipped.  The exponent of a term is off by a few y*eps, so the relative
    error grows like y*eps: against scipy's ``chdtrc`` it stays within
    2e-13 for dof <= 200 and x <= 800, and within 2e-11 for dof <= 5000
    and x <= 2e4.
    """
    if dof < 1:
        raise ValueError(f"chi-square dof must be >= 1, got {dof}")
    y = x / 2
    if y <= 0:  # x <= 0, or so small that x/2 rounds to 0
        return 1.0
    log_y = math.log(y)
    half = dof % 2 / 2  # exponents are i for even dof, i + 1/2 for odd
    terms = [
        math.exp((i + half) * log_y - y - math.lgamma(i + half + 1)) for i in range(dof // 2)
    ]
    if half:
        terms.append(math.erfc(math.sqrt(y)))
    return min(1.0, math.fsum(terms))


def _dense_ranks(values: np.ndarray) -> tuple[np.ndarray, int]:
    """(rank of each entry among the distinct values, number of distinct values)."""
    distinct, ranks = np.unique(values, return_inverse=True)
    return ranks, distinct.size


def empirical_counter(
    counts: np.ndarray, hats: np.ndarray
) -> dict[GapCounts, int]:
    """Collapse simulation output arrays into a state counter.

    Each row becomes one int64 key: hats, then counts[k-2], ..., counts[0],
    each less its column minimum, as digits of a mixed radix, which orders
    the keys as ``np.lexsort`` orders the rows.  A column whose span exceeds
    the row count is first replaced by its dense ranks, and so is the key
    before a digit would take its radix to 2**62; ranks keep the order, and
    both spans are then at most the row count, so the key stays injective
    (for fewer than 2**31 rows).
    Keys are counted by ``np.bincount``, after their own dense ranks where
    the radix exceeds the row count, and each key's slot keeps a row it
    came from, whence one row of each state.  The states come in key order.
    """
    m = hats.shape[0]
    if m == 0:
        return {}
    key = np.zeros(m, dtype=np.int64)
    radix = 1
    for column in (hats, *counts.T[::-1]):
        low = int(column.min())
        span = int(column.max()) - low + 1
        if span > m:
            column, span = _dense_ranks(column)
        else:
            column = column - low
        if radix * span >= 1 << 62:
            key, radix = _dense_ranks(key)
        key = key * span + column
        radix *= span
    if radix > m:
        key, radix = _dense_ranks(key)
    freq = np.bincount(key, minlength=radix)
    row = np.empty(radix, dtype=np.intp)
    row[key] = np.arange(m)
    present = np.flatnonzero(freq)
    row = row[present]
    return {
        GapCounts(tuple(c), h): f
        for c, h, f in zip(counts[row].tolist(), hats[row].tolist(), freq[present].tolist())
    }
