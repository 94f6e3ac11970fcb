"""Domain types for sequential random placement of fixed-length blocks.

A row of ``n`` hooks is filled with blocks ("hats") covering ``k`` adjacent
hooks until every maximal run of free hooks is shorter than ``k``.  The
terminal configuration is summarized by how many free runs ("spacings") of
each length 1..k-1 remain and by the number of blocks placed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "ProcessParams",
    "GapCounts",
    "single_spacing_state",
    "validate_counts",
    "validate_counts_batch",
    "vacancy",
]


@dataclass(frozen=True)
class ProcessParams:
    """Row length ``n`` (hooks) and block length ``k`` (hooks per block)."""

    n: int
    k: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or not isinstance(self.k, int):
            raise TypeError("n and k must be integers")
        if self.k < 2:
            raise ValueError(f"block length k must be >= 2, got {self.k}")
        if self.n < 0:
            raise ValueError(f"row length n must be >= 0, got {self.n}")


class GapCounts(NamedTuple):
    """Terminal configuration of one run of the process.

    ``counts[j-1]`` is the number of maximal free runs of exactly ``j``
    hooks, j = 1..k-1.  ``hats`` is the number of blocks placed.  Hooks are
    conserved: ``k*hats + sum(j * counts[j-1]) == n``.  States are
    immutable, hashable and ordered by (counts, hats).
    """

    counts: tuple[int, ...]
    hats: int


def single_spacing_state(n: int, k: int) -> GapCounts:
    """Terminal state of a row too short to accept any block (n < k)."""
    if not 0 <= n < k:
        raise ValueError(f"need 0 <= n < k, got n={n}, k={k}")
    counts = [0] * (k - 1)
    if n >= 1:
        counts[n - 1] = 1
    return GapCounts(tuple(counts), 0)


def vacancy(g: GapCounts) -> int:
    """Number of hooks left free, ``sum(j * counts[j-1])``."""
    return sum(j * c for j, c in enumerate(g.counts, start=1))


def validate_counts(params: ProcessParams, g: GapCounts) -> bool:
    """True iff ``g`` is a structurally valid terminal state for ``params``.

    Checks shape, non-negativity, hook conservation, that at least one block
    was placed whenever the row could take one, and the forced single-run
    shape for rows shorter than ``k``.
    """
    n, k = params.n, params.k
    if len(g.counts) != k - 1 or g.hats < 0 or min(g.counts) < 0:
        return False
    if k * g.hats + vacancy(g) != n:
        return False
    if n >= k:
        return g.hats >= 1
    return g == single_spacing_state(n, k)


def validate_counts_batch(
    params: ProcessParams, counts: np.ndarray, hats: np.ndarray
) -> np.ndarray:
    """Vectorized form of :func:`validate_counts` for simulation output.

    ``counts`` has shape (m, k-1) and ``hats`` shape (m,).  Returns a boolean
    mask of rows that pass.  Rows produced for n >= k must contain a block;
    rows for n < k are compared against the forced single-run state.
    """
    n, k = params.n, params.k
    counts = np.asarray(counts)
    hats = np.asarray(hats)
    if counts.ndim != 2 or counts.shape[1] != k - 1 or hats.shape != counts.shape[:1]:
        raise ValueError("counts must be (m, k-1) and hats (m,)")
    lengths = np.arange(1, k, dtype=counts.dtype)
    ok = hats >= 0
    # the row-wise test is most of the call's cost, and a row can fail it
    # only if some entry is negative
    if (counts < 0).any():
        ok &= (counts >= 0).all(axis=1)
    ok &= k * hats + counts @ lengths == n
    if n >= k:
        ok &= hats >= 1
    else:
        base = single_spacing_state(n, k)
        ok &= (counts == np.asarray(base.counts, dtype=counts.dtype)).all(axis=1)
        ok &= hats == base.hats
    return ok

