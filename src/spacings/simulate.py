"""Monte Carlo engine for the block-placement process.

The vector engine rests on the splitting property: a fresh row's first
block is uniform over its n-k+1 starts, and the two sub-rows it leaves
evolve as independent fresh rows, so all open runs of a chunk are split at
once, breadth first.  The block-uniform decode belongs to the scalar
reference (``simulate_once``), which never takes that shortcut: choosing an
open run with probability proportional to its feasible-start count
(g - k + 1) and then a uniform offset gives every feasible block probability
((g-k+1)/W) * (1/(g-k+1)) = 1/W, and one uniform integer in [0, W) decoded
as (run, offset) realizes both choices at once.

Reproducibility contract: replications are processed in fixed-size chunks;
chunk c draws from PCG64 seeded with SeedSequence(entropy=seed,
spawn_key=(c,)).  The chunk size is a deterministic function of (n, k), so
a given (params, replications, seed) triple yields bit-identical output on
a given numpy version, independent of the worker count; partial results merge
by summation in chunk order.  Because a chunk is sampled from its own stream
wherever it runs, ``map_chunks`` may hand chunks to forked worker
processes without changing a single draw.  Those workers are forked once,
on the process's first map of more than one chunk, and serve its later
maps; they see the modules as they were at the fork, and each reducer
reaches them by name.  The vector engine decodes its
offsets from the stream's raw 64-bit words (``_offsets``), so a run's start
count n-k+1 must lie below 2**32.
"""

from __future__ import annotations

import atexit
import functools
import math
import os
import sys
import threading
from collections import Counter, deque
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .exact import empirical_counter
from .model import GapCounts, ProcessParams, validate_counts_batch
from .moments import MAX_ORDER, _binomial_rows, _mean_column, _recenter

__all__ = [
    "SimConfig",
    "SampleStats",
    "GapPool",
    "sample_gap",
    "simulate_once",
    "simulate_batch",
    "state_counters",
    "map_chunks",
    "chunk_size",
]

_CHUNK_ELEMENT_BUDGET = 1 << 22
# round records (int64 entries) held before a chunk's tallies are brought up to date
_TALLY_BATCH = 1 << 18
# rows whose moment powers are held at once: 4096 * (2*order+1) floats
_POWER_ROWS = 4096
_LOW_BITS = 0xFFFFFFFF


def chunk_size(n: int, k: int) -> int:
    """Replications per chunk; fixed by (n, k) so stream layout never varies."""
    blocks = max(1, n // k)  # bounds the runs one split round holds per replication
    return max(1, min(1 << 16, _CHUNK_ELEMENT_BUDGET // blocks))


def _check_request(params: ProcessParams, replications: int, seed: int) -> None:
    """Reject a sampling request before any work is done for it."""
    if replications < 1:
        raise ValueError("replications must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if params.n - params.k + 1 >= 1 << 32:
        raise ValueError(
            f"the sampler needs n - k + 1 < 2**32 starts, got n={params.n}, k={params.k}"
        )


@dataclass(frozen=True)
class SimConfig:
    """One batch request: process, replication count, seed, read-out options."""

    params: ProcessParams
    replications: int
    seed: int
    projection: tuple[float, ...] | None = None
    moment_order: int = 8

    def __post_init__(self) -> None:
        _check_request(self.params, self.replications, self.seed)
        # the power sums run to twice the order, within MAX_ORDER's binomial rows
        if not 2 <= self.moment_order <= MAX_ORDER // 2:
            raise ValueError(
                f"moment_order must lie in 2..{MAX_ORDER // 2}, got {self.moment_order}"
            )
        if self.projection is not None and len(self.projection) != self.params.k - 1:
            raise ValueError(f"projection must have length {self.params.k - 1}")

    def projection_vector(self) -> np.ndarray:
        if self.projection is None:
            return np.ones(self.params.k - 1)
        return np.asarray(self.projection, dtype=float)


@dataclass
class GapPool:
    """Open runs of a single replication plus the feasible-block count W."""

    k: int
    gaps: list[int]
    weight: int

    @classmethod
    def from_row(cls, params: ProcessParams) -> "GapPool":
        gaps = [params.n] if params.n >= 1 else []
        return cls(params.k, gaps, max(params.n - params.k + 1, 0))


def sample_gap(pool: GapPool, rng: np.random.Generator) -> tuple[int, int]:
    """Place one block uniformly among the pool's feasible blocks.

    Returns (gap, offset); the pool is updated in place, with the chosen run
    replaced by its children of lengths offset and gap-k-offset (zero-length
    children dropped).  Raises if no block fits anywhere.
    """
    if pool.weight <= 0:
        raise ValueError("sample_gap called on a pool with no feasible block")
    k = pool.k
    u = int(rng.integers(pool.weight))
    for idx, g in enumerate(pool.gaps):
        wg = g - k + 1
        if wg <= 0:
            continue
        if u < wg:
            offset = u
            pool.gaps.pop(idx)
            pool.weight -= wg
            for child in (offset, g - k - offset):
                if child >= 1:
                    pool.gaps.append(child)
                    pool.weight += max(child - k + 1, 0)
            return g, offset
        u -= wg
    raise AssertionError("weight bookkeeping out of sync with pool contents")


def simulate_once(
    params: ProcessParams, rng: np.random.Generator | None = None
) -> GapCounts:
    """Run one replication to termination via the reference scalar path."""
    rng = rng if rng is not None else np.random.default_rng()
    pool = GapPool.from_row(params)
    hats = 0
    while pool.weight > 0:
        sample_gap(pool, rng)
        hats += 1
    counts = [0] * (params.k - 1)
    for g in pool.gaps:
        counts[g - 1] += 1
    return GapCounts(tuple(counts), hats)


def _chunk_sizes(params: ProcessParams, replications: int, seed: int) -> Iterator[int]:
    """The stream layout: chunk c has this many rows and draws from ``_chunk_rng(seed, c)``.

    Every sampler goes through here, so the request is checked here, before
    the first chunk is sampled.
    """
    _check_request(params, replications, seed)
    size = chunk_size(params.n, params.k)
    for start in range(0, replications, size):
        yield min(size, replications - start)


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    return np.random.Generator(np.random.PCG64(ss))


def _offsets(bits: np.random.BitGenerator, starts: np.ndarray) -> np.ndarray:
    """One uniform offset on [0, s) for each entry s of ``starts`` (unsigned, 1 <= s < 2**32).

    Lemire's multiply-shift (D. Lemire, "Fast Random Integer Generation in
    an Interval", ACM TOMACS 2019): the top 32 bits x of one raw word give
    (x * s) >> 32, which is exact once the words whose low product bits
    x * s mod 2**32 fall below 2**32 mod s, taken as (2**32 - s) % s, are
    rejected.  Rejected entries are redrawn, in index order, from the same
    stream until none is left.  Only low bits below s can fall below that
    threshold, so it is computed for those entries alone, in uint64: 2**32
    does not fit uint32, and numpy takes uint64 times int64 to float64.
    """
    product = (bits.random_raw(starts.size) >> 32) * starts
    redo = np.flatnonzero((product & _LOW_BITS) < starts)
    while True:
        s = starts.take(redo)
        redo = redo[(product.take(redo) & _LOW_BITS) < (np.uint64(2**32) - s) % s]
        if redo.size == 0:
            return product >> 32
        product[redo] = (bits.random_raw(redo.size) >> 32) * starts.take(redo)


def _simulate_chunk(
    params: ProcessParams, m: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Split-tree run of m replications; returns (counts, hats).

    Each round draws the first block of every open run at once, one raw
    word per run decoded by ``_offsets`` (plus its redraws).  A round
    only records what it saw: the flat cells row*(k-1) + length - 1 of the
    runs it closed as spacings, and the rows of the runs it opened.  The
    records are tallied by one ``bincount`` each once they reach the size
    of the tally or ``_TALLY_BATCH`` entries, whichever is larger, and at
    the end of the chunk.  At small n that is once or twice per chunk
    instead of a chunk-sized tally every round; at large n it bounds the
    memory the records hold.  Runs are selected by index (``take``), which
    costs less than boolean masks on these arrays.  The row, run and offset
    lanes are int32 below n = 2**31, the records and tallies int64.
    """
    n, k = params.n, params.k
    lane, unsigned = (np.int32, np.uint32) if n < 2**31 else (np.int64, np.uint64)
    counts = np.zeros(m * (k - 1), dtype=np.int64)
    hats = np.zeros(m, dtype=np.int64)
    flush_at = max(counts.size, _TALLY_BATCH)
    cells: list[np.ndarray] = []
    opened: list[np.ndarray] = []
    pending = 0
    row = np.arange(m, dtype=lane)
    run = np.full(m, n, dtype=lane)
    while True:
        short = np.flatnonzero((run >= 1) & (run < k))
        cells.append(np.multiply(row.take(short), k - 1, dtype=np.int64) + run.take(short) - 1)
        keep = np.flatnonzero(run >= k)
        row, run = row.take(keep), run.take(keep)
        opened.append(row)
        pending += short.size + keep.size
        if pending >= flush_at or row.size == 0:
            counts += np.bincount(np.concatenate(cells), minlength=counts.size)
            hats += np.bincount(np.concatenate(opened, dtype=np.int64), minlength=m)
            cells, opened, pending = [], [], 0
        if row.size == 0:
            break
        offset = _offsets(rng.bit_generator, (run - (k - 1)).view(unsigned)).astype(lane)
        row = np.concatenate([row, row])
        run = np.concatenate([offset, run - k - offset])

    counts = counts.reshape(m, k - 1)
    if not validate_counts_batch(params, counts, hats).all():
        raise AssertionError("engine produced a non-conserving terminal state")
    return counts, hats


def _cpu_count() -> int:
    """CPUs this process may run on (its affinity set, where the platform has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_chunk(job: tuple) -> Any:
    """Sample one chunk from its own stream and reduce it: ``fn(counts, hats)``."""
    fn, params, m, seed, index = job
    return fn(*_simulate_chunk(params, m, _chunk_rng(seed, index)))


# The forked worker pool this process keeps for its maps:
# (executor, workers, CPU count, owner pid), or None before the first one.
_pool: tuple[Any, int, int, int] | None = None


def _shut_down_pool() -> None:
    """Drop the pool; if this process owns it, first stop its workers and join its threads.

    Run at interpreter exit too, while the modules the executor's own
    clean-up needs are still loaded.
    """
    global _pool
    if _pool is not None and _pool[3] == os.getpid():
        _pool[0].shutdown()
    _pool = None


atexit.register(_shut_down_pool)


def _worker_pool(jobs: int) -> Any:
    """The executor to run ``jobs`` chunks on, or None to run them in this process.

    The pool is forked on the first map with more than one CPU and chunk,
    on a platform that can fork and with no other thread running, with
    ``min(CPUs, chunks)`` workers.  Later maps reuse it, other threads or
    not, since no fork happens.  It is shut down and forked anew only when
    a map needs more workers than it has or the CPU count has changed, and
    then only once no other thread runs; until then the maps run here.  A
    process forked from the owner, a worker included, runs its maps here
    and leaves its copy of the pool alone: that copy's locks may have been
    held at the fork.
    """
    global _pool
    cpus = _cpu_count()
    workers = min(cpus, jobs)
    if workers <= 1 or not hasattr(os, "fork"):
        return None
    if _pool is not None:
        executor, size, pool_cpus, owner = _pool
        if owner != os.getpid():
            return None
        if size >= workers and pool_cpus == cpus:
            return executor
        _shut_down_pool()
    if threading.active_count() > 1:
        return None
    # imported here, so that importing the package leaves multiprocessing out
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    executor = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    _pool = (executor, workers, cpus, os.getpid())
    return executor


def map_chunks(
    fn: Callable[[np.ndarray, np.ndarray], Any],
    requests: Sequence[tuple[ProcessParams, int, int]],
) -> list[list[Any]]:
    """``fn(counts, hats)`` over every chunk of each (params, replications, seed) request.

    Returns each request's results in chunk order.  A chunk is sampled
    where it is reduced, from ``_chunk_rng(seed, index)``, so nothing but
    the results crosses between processes and no result depends on where
    it ran.  With more than one CPU and chunk and a platform that can fork,
    the chunks run on the process's pool of forked workers (``_worker_pool``
    says when it is forked and when the chunks run here instead, one after
    another).  The pool lasts for the process: its first multi-chunk map
    pays the fork, later maps do not.  ``fn`` then travels by name, so it
    must be a module-level function, or a ``functools.partial`` of one,
    whose result pickles; the workers look it up in the modules as they
    were at the fork, so a function patched after the fork runs unpatched
    there.  A pool that breaks, a worker killed for instance, is dropped:
    that map raises ``BrokenProcessPool`` and the next one forks afresh.
    While the module of ``fn`` is still being imported, a worker would block
    for good on its import lock, so the chunks run here.
    """
    jobs, owners = [], []
    for owner, (params, replications, seed) in enumerate(requests):
        for index, m in enumerate(_chunk_sizes(params, replications, seed)):
            jobs.append((fn, params, m, seed, index))
            owners.append(owner)
    module = sys.modules.get(getattr(fn, "func", fn).__module__)
    importing = getattr(getattr(module, "__spec__", None), "_initializing", False)
    pool = None if importing else _worker_pool(len(jobs))
    if pool is None:
        done = [_run_chunk(job) for job in jobs]
    else:
        from concurrent.futures.process import BrokenProcessPool

        try:
            done = list(pool.map(_run_chunk, jobs))
        except BrokenProcessPool:
            _shut_down_pool()
            raise
    results: list[list[Any]] = [[] for _ in requests]
    for owner, result in zip(owners, done):
        results[owner].append(result)
    return results


def state_counters(
    requests: Sequence[tuple[ProcessParams, int, int]],
) -> list[dict[GapCounts, int]]:
    """Each (params, replications, seed) request's ``empirical_counter``, all chunks in one map."""
    per_request = map_chunks(empirical_counter, requests)
    merged = []
    for parts in per_request:
        acc: Counter[GapCounts] = Counter()
        for part in parts:
            acc.update(part)
        merged.append(dict(acc))
    return merged


@np.errstate(over="ignore", invalid="ignore")  # simulate_batch checks the sums
def _chunk_sums(
    c: np.ndarray, shift: float, order: int, counts: np.ndarray, hats: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One chunk's order-independent partial sums.

    The counts' column sums and Gram matrix, exact in int64, and the sums
    of (y - shift)**p for p = 0..2*order, y the projected counts.  The
    powers are raised ``_POWER_ROWS`` rows at a time.  An axis-0 sum adds
    rows one after another, so adding the running total into a block's
    first row before its sum gives the bits of one sum over all rows.
    """
    y = counts @ c - shift
    p = np.arange(2 * order + 1)
    for start in range(0, y.size, _POWER_ROWS):
        pows = y[start : start + _POWER_ROWS, None] ** p
        if start:
            pows[0] += total
        total = pows.sum(axis=0)
    return counts.sum(axis=0), counts.T @ counts, total


@dataclass(frozen=True)
class SampleStats:
    """Merged batch statistics.

    ``std_moments[p]`` estimates the p-th moment of the centered projected
    count scaled by n**(-1/2); standard errors are the usual sqrt(var/m)
    plug-ins (for moments, ignoring the centering noise).  ``shift``, the
    point the power sums were taken about, is round(E(c . X_n)): a function
    of (params, projection) alone.
    """

    config: SimConfig
    replications: int
    mean: np.ndarray
    mean_se: np.ndarray
    cov: np.ndarray
    std_moments: np.ndarray
    std_moment_se: np.ndarray
    shift: float
    rng_id: str

    def to_obj(self) -> dict:
        p = self.config.params
        return {
            "n": p.n,
            "k": p.k,
            "replications": self.replications,
            "seed": self.config.seed,
            "projection": self.config.projection_vector().tolist(),
            "moment_order": self.config.moment_order,
            "mean": self.mean,
            "mean_se": self.mean_se,
            "cov": self.cov,
            "std_moments": self.std_moments,
            "std_moment_se": self.std_moment_se,
            "shift": self.shift,
            "rng": self.rng_id,
        }


@np.errstate(over="ignore", invalid="ignore")  # non-finite moments raise below
def simulate_batch(config: SimConfig) -> SampleStats:
    """Run the full batch and reduce to :class:`SampleStats`.

    The chunks go through ``map_chunks``, each reduced by ``_chunk_sums``
    against one shift, which keeps the high powers well-conditioned: the
    rounded expected projected count round(E(c . X_n)), from the last k
    rows of ``moments._mean_column`` seeded with c, so a function of (params,
    projection) alone.  The int64 sums merge exactly and the power sums by
    one ``math.fsum`` per power, in chunk order, so neither depends on the
    worker count.  The power means, moments about the shift, go through
    ``moments._recenter`` once, and moment p is then scaled by n**(-p/2).
    Raises OverflowError when the power sums or standardized moments leave
    double range.
    """
    params = config.params
    n, k = params.n, params.k
    c = config.projection_vector()
    order = config.moment_order
    shift = float(np.round(_mean_column(c.tolist(), n, deque(maxlen=k))[-1]))
    (parts,) = map_chunks(
        functools.partial(_chunk_sums, c, shift, order),
        [(params, config.replications, config.seed)],
    )

    m = config.replications
    counts_parts, outer_parts, pow_parts = zip(*parts)
    mean = np.sum(counts_parts, axis=0) / m
    cov = np.sum(outer_parts, axis=0) / m - np.outer(mean, mean)
    mean_se = np.sqrt(np.maximum(np.diag(cov), 0.0) / m)

    pow_sums = np.array([math.fsum(q) for q in zip(*pow_parts)])
    central = _recenter((pow_sums / m)[None, :], _binomial_rows(2 * order))[0]
    scale = float(n) ** -0.5 if n >= 1 else 0.0
    std = np.array([central[p] * scale**p for p in range(order + 1)])
    var_p = np.maximum(central[2 * np.arange(order + 1)] - central[: order + 1] ** 2, 0.0)
    std_se = np.sqrt(var_p / m) * scale ** np.arange(order + 1)
    if not all(np.isfinite(a).all() for a in (pow_sums, std, std_se)):
        raise OverflowError(
            f"moments to order {2 * order} left double range; "
            "lower the order or the projection's scale"
        )

    rng_id = (
        f"numpy {np.__version__} PCG64/SeedSequence(entropy=seed, spawn_key=(chunk,)), "
        "split-tree rounds, offsets by 32-bit Lemire multiply-shift of raw words, "
        f"chunk_size={chunk_size(n, k)}"
    )
    return SampleStats(
        config=config,
        replications=m,
        mean=mean,
        mean_se=mean_se,
        cov=cov,
        std_moments=std,
        std_moment_se=std_se,
        shift=shift,
        rng_id=rng_id,
    )
