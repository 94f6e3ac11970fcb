"""Monte Carlo engine: decode exactness, determinism, agreement with the law."""
from __future__ import annotations

import concurrent.futures
import functools
import json
import os
import re
import select
import signal
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import spacings
from spacings import simulate
from spacings.exact import chi_square_gof, pmf_split, total_variation_empirical
from spacings.model import GapCounts, ProcessParams, validate_counts
from spacings.moments import (
    MAX_K,
    MAX_N_MAX,
    MAX_ORDER,
    _mean_column,
    cross_moment_recursion,
    mean_recursion,
    mean_recursion_exact,
)
from spacings.simulate import (
    _CHUNK_ELEMENT_BUDGET,
    _POWER_ROWS,
    GapPool,
    SimConfig,
    _chunk_rng,
    _chunk_sizes,
    _chunk_sums,
    _offsets,
    _simulate_chunk,
    chunk_size,
    map_chunks,
    sample_gap,
    simulate_batch,
    simulate_once,
    state_counters,
)


def _states(counts, hats):
    """A reducer that keeps its chunk's terminal states."""
    return counts, hats


def _chunks_one_by_one(params, replications, seed):
    """A request's (counts, hats) chunks, sampled here in chunk order from their own streams."""
    return [_simulate_chunk(params, m, _chunk_rng(seed, index))
            for index, m in enumerate(_chunk_sizes(params, replications, seed))]


class ScriptedRNG:
    """Stands in for a Generator; returns preset draws."""

    def __init__(self, values):
        self.values = list(values)

    def integers(self, high):
        assert self.values, "script exhausted"
        v = self.values.pop(0)
        assert 0 <= v < high
        return v


def test_chunk_size_bounds_and_determinism():
    assert chunk_size(10, 2) == chunk_size(10, 2)
    # cache-sized at small n; layouts with n // k > 256 are those of 2**16-row chunks
    assert chunk_size(10, 2) == chunk_size(12, 4) == 1 << 14
    assert chunk_size(2000, 5) == 10_485 and chunk_size(60_000, 2) == 139
    # one chunk's split rounds stay within the element budget up to n//k = budget
    for blocks in (16384, 16385, 10**6 // 2, _CHUNK_ELEMENT_BUDGET):
        assert 1 <= chunk_size(2 * blocks, 2) <= 1 << 16
        assert chunk_size(2 * blocks, 2) * blocks <= _CHUNK_ELEMENT_BUDGET
    # more blocks per replication means smaller chunks
    assert chunk_size(10**6, 2) <= chunk_size(100, 2)


@pytest.mark.parametrize("k", [300, 1000, 5000])
@pytest.mark.parametrize("n", [1, 10, 600])
def test_chunk_size_budgets_the_tally_columns_at_large_k(n, k):
    # a chunk's tally holds k - 1 counts per row, more than its n // k runs here
    assert chunk_size(n, k) * max(n // k, k - 1) <= _CHUNK_ELEMENT_BUDGET


def test_pool_from_row():
    pool = GapPool.from_row(ProcessParams(6, 2))
    assert pool.gaps == [6] and pool.weight == 5
    assert GapPool.from_row(ProcessParams(0, 3)).gaps == []
    assert GapPool.from_row(ProcessParams(2, 3)).weight == 0


def test_sample_gap_decode_is_block_uniform():
    # pool {4, 3} at k=2 has 3 + 2 feasible blocks; each raw draw u must map
    # to a distinct (gap, offset) pair
    seen = []
    for u in range(5):
        pool = GapPool(2, [4, 3], 5)
        seen.append(sample_gap(pool, ScriptedRNG([u])))
        assert pool.weight == oracles.recompute_weight(pool)
    assert seen == [(4, 0), (4, 1), (4, 2), (3, 0), (3, 1)]


def test_sample_gap_splits_the_chosen_run():
    pool = GapPool(2, [6], 5)
    g, off = sample_gap(pool, ScriptedRNG([3]))
    assert (g, off) == (6, 3)
    # children: left 3, right 6-2-3 = 1
    assert sorted(pool.gaps) == [1, 3]
    assert pool.weight == oracles.recompute_weight(pool) == 2


def test_sample_gap_rejects_exhausted_pool():
    pool = GapPool(2, [1, 1], 0)
    with pytest.raises(ValueError):
        sample_gap(pool, ScriptedRNG([0]))


@settings(max_examples=60)
@given(
    n=st.integers(min_value=0, max_value=40),
    k=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_simulate_once_always_terminates_valid(n, k, seed):
    params = ProcessParams(n, k)
    state = simulate_once(params, np.random.default_rng(seed))
    assert validate_counts(params, state)


def test_scalar_engine_matches_exact_law():
    params = ProcessParams(6, 2)
    pmf = pmf_split(params)
    rng = np.random.default_rng(20250811)
    counter: dict[GapCounts, int] = {}
    for _ in range(20_000):
        s = simulate_once(params, rng)
        counter[s] = counter.get(s, 0) + 1
    assert total_variation_empirical(pmf, counter) < 0.02
    _, _, p = chi_square_gof(pmf, counter)
    assert p > 1e-6


@pytest.mark.parametrize("n,k", [(8, 2), (11, 3), (13, 5), (2, 3)])
def test_vector_engine_matches_exact_law(n, k):
    params = ProcessParams(n, k)
    pmf = pmf_split(params)
    counter = state_counters([(params, 200_000, 7)])[0]
    assert sum(counter.values()) == 200_000
    assert total_variation_empirical(pmf, counter) < 0.005
    _, _, p = chi_square_gof(pmf, counter)
    assert p > 1e-4


@pytest.mark.parametrize(
    "n, k",
    [(0, 2), (1, 3), (2, 3), (10, 2), (10, 3), (12, 4), (33, 5), (400, 2), (64, 64)],
)
def test_chunk_tallies_equal_per_round_tallies(n, k):
    # (10, 2), (10, 3), (33, 5) and (400, 2) pass the tally batch part-way
    # through the chunk, (12, 4) and (64, 64) tally once at its end
    m = min(chunk_size(n, k), 8192) if n >= 100 else chunk_size(n, k)
    for index in (0, 7):
        got = _simulate_chunk(ProcessParams(n, k), m, _chunk_rng(3, index))
        want = oracles.simulate_chunk_per_round(n, k, m, _chunk_rng(3, index))
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [2**31 - 1, 2**31 + 5])
def test_chunk_lanes_either_side_of_the_int32_boundary(n):
    # run lengths up to 2**31 - 1 ride int32 lanes, longer ones int64
    params = ProcessParams(n, 2**20)
    got = _simulate_chunk(params, 2, _chunk_rng(3, 0))
    want = oracles.simulate_chunk_per_round(n, 2**20, 2, _chunk_rng(3, 0))
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b)


class ScriptedBits:
    """Stands in for a bit generator; hands out preset raw words and logs each request."""

    def __init__(self, words):
        self.words = list(words)
        self.requests = []

    def random_raw(self, size):
        assert len(self.words) >= size, "script exhausted"
        self.requests.append(size)
        out, self.words = self.words[:size], self.words[size:]
        return np.array(out, dtype=np.uint64)


def _residue_p_value(y: np.ndarray, modulus: int) -> float:
    from scipy.stats import chisquare

    return float(chisquare(np.bincount(y % modulus, minlength=modulus)).pvalue)


@pytest.mark.parametrize("s, modulus", [(7 << 29, 7), (3 << 30, 3)])
def test_offsets_are_uniform_over_residues_at_large_bounds(s, modulus):
    """At these bounds (x * s) >> 32 alone hits residue 0 of y mod ``modulus`` twice as often."""
    draws = 120_000
    starts = np.full(draws, s, dtype=np.uint64)
    y = _offsets(np.random.PCG64(s), starts)
    assert y.dtype == np.uint64 and int(y.max()) < s
    assert _residue_p_value(y, modulus) > 1e-4
    x = np.random.PCG64(s).random_raw(draws) >> 32  # the same first words
    assert _residue_p_value((x * starts) >> 32, modulus) < 1e-12
    if s == 7 << 29:
        # a threshold (2**64 - s) % s, from uint64 wrap-around, rejects the wrong words
        low = (x * starts) & 0xFFFFFFFF
        wrapped = ((x * starts) >> 32)[low >= (0 - starts) % starts]
        assert _residue_p_value(wrapped, modulus) < 1e-12


def test_offsets_redraw_rejected_entries_in_index_order():
    # at s = 7 * 2**29 the words whose top 32 bits are a multiple of 8 are rejected,
    # at s = 5 only x = 0 (2**32 mod 5 = 1); the low 32 bits of a word are never read
    s = 7 << 29
    junk = 0xDEADBEEF
    script = [
        (8 << 32) | junk,  # entry 0: rejected
        (0 << 32) | junk,  # entry 1: rejected
        (9 << 32) | junk,  # entry 2: kept
        (16 << 32) | junk,  # entry 3: rejected
        (24 << 32) | junk,  # entry 0 again: rejected
        ((2**32 - 1) << 32) | junk,  # entry 1: kept
        (17 << 32) | junk,  # entry 3: kept
        ((2**31 + 1) << 32) | junk,  # entry 0: kept
        12345,  # never drawn
    ]
    for dtype in (np.uint64, np.uint32):  # the engine's int64 and int32 lanes
        bits = ScriptedBits(script)
        got = _offsets(bits, np.array([s, 5, s, s], dtype=dtype))
        assert got.dtype == np.uint64
        assert bits.requests == [4, 3, 1] and bits.words == [12345]
        x = [2**31 + 1, 2**32 - 1, 9, 17]
        assert got.tolist() == [(xi * si) >> 32 for xi, si in zip(x, [s, 5, s, s])]
        assert got.tolist() == [7 << 28, 4, 7, 14]


def test_oversized_rows_are_rejected_before_any_work(monkeypatch):
    def forbidden(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(simulate, "_simulate_chunk", forbidden)
    monkeypatch.setattr(simulate, "_mean_column", forbidden)
    SimConfig(ProcessParams(2**32, 2), 1, seed=0)  # 2**32 - 1 starts: the largest that fits
    message = re.escape("n - k + 1 < 2**32 starts")
    for params in (ProcessParams(2**32 + 1, 2), ProcessParams(2**32 + 6, 7)):
        for request in (
            lambda: SimConfig(params, 1, seed=0),
            lambda: map_chunks(_states, [(params, 1, 0)]),
            lambda: state_counters([(params, 1, 0)]),
        ):
            with pytest.raises(ValueError, match=message):
                request()


@pytest.mark.parametrize("n, k, replications", [(400, 2, 80_000), (2000, 5, 16_000)])
def test_vector_engine_moments_match_the_recursions_at_large_n(n, k, replications):
    """Mean and covariance within 5 standard errors, at start counts far above the exact laws' n."""
    (parts,) = map_chunks(_states, [(ProcessParams(n, k), replications, 13)])
    counts = np.concatenate([c for c, _ in parts])
    x = counts.astype(float)
    mean = x.mean(axis=0)
    z = x - mean
    cov = z.T @ z / replications
    mean_se = x.std(axis=0) / np.sqrt(replications)
    cov_se = (z[:, :, None] * z[:, None, :]).std(axis=0) / np.sqrt(replications)
    assert np.all(np.abs(mean - mean_recursion(k, n).values[n]) < 5 * mean_se)
    assert np.all(np.abs(cov - cross_moment_recursion(k, n).cov[n]) < 5 * cov_se)


def test_sample_states_validate_and_partial_chunks():
    params = ProcessParams(9, 3)
    reps = chunk_size(9, 3) + 137  # forces a short final chunk
    (parts,) = map_chunks(_states, [(params, reps, 3)])
    assert parts[-1][0].shape[0] == 137  # the short final chunk
    counts, hats = (np.concatenate(a) for a in zip(*parts))
    assert counts.shape == (reps, 2) and hats.shape == (reps,)
    total = params.k * hats + counts @ np.array([1, 2])
    assert (total == params.n).all()


def test_batch_is_deterministic():
    cfg = SimConfig(ProcessParams(30, 3), 150_000, seed=11)
    a = simulate_batch(cfg)
    b = simulate_batch(cfg)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.cov, b.cov)
    assert np.array_equal(a.std_moments, b.std_moments)
    assert a.shift == b.shift


def test_worker_count_never_changes_results(monkeypatch):
    cfg = SimConfig(ProcessParams(24, 2), 200_000, seed=5)
    monkeypatch.setattr(simulate, "_cpu_count", lambda: 1)
    solo = simulate_batch(cfg)
    monkeypatch.setattr(simulate, "_cpu_count", lambda: 3)
    fanned = simulate_batch(cfg)
    assert np.array_equal(solo.mean, fanned.mean)
    assert np.array_equal(solo.cov, fanned.cov)
    assert np.array_equal(solo.std_moments, fanned.std_moments)


def test_seed_changes_results():
    base = SimConfig(ProcessParams(20, 2), 10_000, seed=1)
    other = SimConfig(ProcessParams(20, 2), 10_000, seed=2)
    assert not np.array_equal(
        simulate_batch(base).mean, simulate_batch(other).mean
    )


@pytest.mark.parametrize("n,k", [(10, 3), (200, 3)])
def test_batch_mean_matches_exact_mean(n, k):
    cfg = SimConfig(ProcessParams(n, k), 120_000, seed=9)
    stats = simulate_batch(cfg)
    exact = [float(v) for v in mean_recursion_exact(k, n)[n]]
    for got, want, se in zip(stats.mean, exact, stats.mean_se):
        assert abs(got - want) < 6 * se


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(ProcessParams(10, 2), 0, seed=0)
    with pytest.raises(ValueError):
        SimConfig(ProcessParams(10, 2), 10, seed=0, projection=(1.0, 2.0))
    with pytest.raises(ValueError):
        SimConfig(ProcessParams(10, 2), 10, seed=0, moment_order=1)
    with pytest.raises(ValueError, match=f"2..{MAX_ORDER // 2}, got"):
        SimConfig(ProcessParams(10, 2), 10, seed=0, moment_order=MAX_ORDER // 2 + 1)


def test_tiny_batch_and_degenerate_rows():
    # single replication: population covariance collapses to zero
    s = simulate_batch(SimConfig(ProcessParams(10, 2), 1, seed=0))
    assert s.replications == 1
    assert np.allclose(s.cov, 0.0)
    # n = 0: nothing to place, all statistics degenerate
    z = simulate_batch(SimConfig(ProcessParams(0, 2), 100, seed=0))
    assert np.allclose(z.mean, 0.0)
    assert z.std_moments[0] == 1.0


def _sample_composite(params: ProcessParams, rng) -> GapCounts:
    # draw the first block's left edge uniformly, then run the two halves
    # independently; the law must match a direct run of the full row
    j = int(rng.integers(params.n - params.k + 1))
    left = simulate_once(ProcessParams(j, params.k), rng)
    right = simulate_once(ProcessParams(params.n - params.k - j, params.k), rng)
    counts = tuple(a + b for a, b in zip(left.counts, right.counts))
    return GapCounts(counts, left.hats + right.hats + 1)


@pytest.mark.parametrize("n,k", [(10, 2), (9, 3), (12, 4)])
def test_splitting_law_two_sample(n, k):
    from scipy.stats import chi2

    params = ProcessParams(n, k)
    rng = np.random.default_rng(1000 * n + k)
    reps = 20_000
    direct: dict[GapCounts, int] = {}
    split: dict[GapCounts, int] = {}
    for _ in range(reps):
        s = simulate_once(params, rng)
        direct[s] = direct.get(s, 0) + 1
        t = _sample_composite(params, rng)
        split[t] = split.get(t, 0) + 1
    cells = sorted(set(direct) | set(split), key=lambda g: (g.hats, g.counts))
    stat = 0.0
    used = 0
    for g in cells:
        a, b = direct.get(g, 0), split.get(g, 0)
        pooled = (a + b) / 2
        if pooled < 5:
            continue
        stat += (a - pooled) ** 2 / pooled + (b - pooled) ** 2 / pooled
        used += 1
    p = float(chi2.sf(stat, used - 1))
    assert p > 1e-4, (stat, used, p)


def test_stats_serialize_to_json():
    cfg = SimConfig(ProcessParams(12, 4), 5_000, seed=2, projection=(1.0, 0.5, 2.0))
    obj = simulate_batch(cfg).to_obj()
    text = json.dumps(obj, sort_keys=True, default=np.ndarray.tolist)
    back = json.loads(text)
    assert back["n"] == 12 and back["k"] == 4
    assert back["projection"] == [1.0, 0.5, 2.0]
    assert len(back["std_moments"]) == cfg.moment_order + 1
    assert "PCG64" in back["rng"]


@pytest.mark.parametrize("projection", [None, (1.0, 0.5, 2.0)])
def test_stats_projection_holds_python_floats(projection):
    cfg = SimConfig(ProcessParams(12, 4), 100, seed=2, projection=projection)
    items = simulate_batch(cfg).to_obj()["projection"]
    assert len(items) == 3 and all(type(v) is float for v in items)


@pytest.mark.parametrize(
    "n, k, replications",
    [(10, 2, 1), (10, 2, 65_536), (10, 2, 65_537), (9, 3, 3 * 65_536 + 137), (4000, 2, 5000)],
)
def test_chunk_sizes_deal_out_every_replication(n, k, replications):
    params = ProcessParams(n, k)
    sizes = list(_chunk_sizes(params, replications, 0))
    assert sum(sizes) == replications
    assert all(m == chunk_size(n, k) for m in sizes[:-1])
    assert 1 <= sizes[-1] <= chunk_size(n, k)


@pytest.mark.parametrize("order", [2, 8, 60])
def test_blocked_power_sums_are_bit_identical_to_one_sum(order):
    rng = np.random.default_rng(order)
    counts = rng.integers(0, 12, size=(2 * _POWER_ROWS + 137, 3))  # three blocks, one partial
    c = np.array([1.0, -2.0, 0.5])
    y = counts @ c - 4.0
    want = (y[:, None] ** np.arange(2 * order + 1)).sum(axis=0)
    assert _chunk_sums(c, 4.0, order, counts, None)[2].tobytes() == want.tobytes()


# (n, k, projection, replications) of one chunk each
REDUCTION_SHAPES = [
    (0, 2, None, 3000),
    (2, 3, None, 3000),
    (10, 2, None, 3000),
    (12, 4, None, 3000),
    (40, 3, None, 3000),
    (200, 4, (1.0, -2.0, 0.5), 3000),
]
NINE_CHUNKS = (12, 4, (1.0, 0.5, 2.0), 8 * chunk_size(12, 4) + 137)


def _batch_and_reference(n, k, projection, replications, order):
    cfg = SimConfig(ProcessParams(n, k), replications, seed=7, projection=projection,
                    moment_order=order)
    chunks = [counts for counts, _ in _chunks_one_by_one(cfg.params, replications, cfg.seed)]
    return cfg, oracles.batch_stats_per_chunk_comb(cfg, chunks)


@pytest.mark.parametrize(
    "n, k, projection, replications, order",
    [(*shape, order) for shape in REDUCTION_SHAPES for order in (2, 6, 10, 33)]
    + [(*NINE_CHUNKS, order) for order in (6, 33)],
)
def test_batch_reduction_is_bit_identical_to_per_chunk_comb(
    n, k, projection, replications, order, monkeypatch
):
    cfg, want = _batch_and_reference(n, k, projection, replications, order)
    for cpus in (1, 3):
        monkeypatch.setattr(simulate, "_cpu_count", lambda: cpus)
        got = simulate_batch(cfg)
        for field in ("replications", "mean", "mean_se", "cov", "std_moments",
                      "std_moment_se", "shift"):
            a, b = np.asarray(getattr(got, field)), np.asarray(want[field])
            assert a.dtype == b.dtype and np.array_equal(a, b), (field, cpus)


@pytest.mark.parametrize("order", [60, 100, 200])
@pytest.mark.parametrize("n, k, projection, replications", REDUCTION_SHAPES)
def test_batch_reduction_agrees_with_per_chunk_comb_at_high_order(
    n, k, projection, replications, order
):
    """Past central order 66 the reference's binomials are Python ints, so the last bits differ.

    Agreement is to 1e-12 of ``terms``, the magnitude of the summed terms:
    where the re-centering cancels, neither route holds more digits than that.
    """
    cfg, want = _batch_and_reference(n, k, projection, replications, order)
    if not all(np.isfinite(want[f]).all() for f in ("std_moments", "std_moment_se")):
        with pytest.raises(OverflowError):
            simulate_batch(cfg)
        return
    got = simulate_batch(cfg)
    p = np.arange(order + 1)
    scale = float(n) ** -0.5 if n >= 1 else 0.0
    terms = want["terms"]
    assert np.all(
        np.abs(got.std_moments - want["std_moments"]) <= 1e-12 * terms[p] * scale**p
    )
    # the standard errors are sqrt((central[2p] - central[p]**2) / m) * scale**p,
    # and |central[p]| <= terms[p]
    var_terms = terms[2 * p] + 3 * terms[p] ** 2
    assert np.all(
        np.abs(got.std_moment_se**2 - want["std_moment_se"] ** 2)
        <= 1e-12 * var_terms / replications * scale ** (2 * p)
    )


def _where(counts, hats):
    """A reducer that says where its chunk ran and fingerprints the chunk's stream."""
    return os.getpid(), counts.shape[0], int(hats @ np.arange(hats.size))


@pytest.fixture
def pools(monkeypatch):
    """The worker counts of the pools ``map_chunks`` forks, starting with none forked."""
    simulate._shut_down_pool()
    forked = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            forked.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return forked


def _pids(results):
    return {chunk[0] for part in results for chunk in part}


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


_fork_only = pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool forks its workers")
_FOUR_CHUNKS = [(ProcessParams(10, 2), 4 * chunk_size(10, 2), 1)]


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_map_chunks_runs_in_chunk_order_on_at_most_one_worker_per_chunk(cpus, pools, monkeypatch):
    monkeypatch.setattr(simulate, "_cpu_count", lambda: cpus)
    requests = [(ProcessParams(10, 2), chunk_size(10, 2) + 5, 1), (ProcessParams(400, 3), 7, 2)]
    want = [
        [(counts.shape[0], int(hats @ np.arange(hats.size)))
         for counts, hats in _chunks_one_by_one(*request)]
        for request in requests
    ]
    for _ in range(2):
        results = map_chunks(_where, requests)
        assert [[chunk[1:] for chunk in part] for part in results] == want
        pids = _pids(results)
        if cpus == 1 or not hasattr(os, "fork"):
            assert pools == [] and pids == {os.getpid()}
        else:
            # three chunks: never more workers than CPUs or chunks, and the
            # second map forks no pool, since the first one's is large enough
            assert pools == [min(cpus, 3)]
            assert os.getpid() not in pids and len(pids) <= min(cpus, 3)
    with pytest.raises(ValueError, match="replications must be >= 1"):
        map_chunks(_where, [(ProcessParams(10, 2), 10, 1), (ProcessParams(10, 2), 0, 1)])
    for bad_seed in (
        lambda: map_chunks(_where, [(ProcessParams(10, 2), 10, 1), (ProcessParams(10, 2), 10, -1)]),
        lambda: state_counters([(ProcessParams(10, 2), 5, -1)]),
        lambda: SimConfig(ProcessParams(10, 2), 5, -1),
    ):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            bad_seed()


@_fork_only
@pytest.mark.parametrize("chunks, batch", [(1, None), (2, 1), (3, 1), (4, 1), (5, 1), (8, 2),
                                           (9, 2), (12, 3), (17, 4)])
def test_map_chunks_batches_the_pools_messages_and_keeps_chunk_order(chunks, batch, monkeypatch):
    """At most four chunks to a message, at least two messages per CPU; the results are unmoved."""
    simulate._shut_down_pool()
    batches = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def map(self, fn, *iterables, chunksize=1, **kwargs):
            batches.append(chunksize)
            return super().map(fn, *iterables, chunksize=chunksize, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(simulate, "_cpu_count", lambda: 2)
    request = (ProcessParams(10, 2), (chunks - 1) * chunk_size(10, 2) + 7, 5)
    want = [(counts.shape[0], int(hats @ np.arange(hats.size)))
            for counts, hats in _chunks_one_by_one(*request)]
    (results,) = map_chunks(_where, [request])
    assert [chunk[1:] for chunk in results] == want
    assert batches == ([] if batch is None else [batch])
    pids = _pids([results])
    assert pids == {os.getpid()} if chunks == 1 else os.getpid() not in pids


@pytest.mark.parametrize("cpus", [1, 2, 4])
@pytest.mark.parametrize("replications, chunks", [(10, 1), (2 * chunk_size(10, 2) + 5, 3)])
def test_simulate_batch_runs_on_one_thread_per_cpu_and_chunk(cpus, replications, chunks, pools,
                                                             monkeypatch):
    """One fan-out: the chunks go through ``map_chunks``' pool of ``min(cpus, chunks)`` workers.

    The pool is forked once: a second batch reuses it.
    """
    monkeypatch.setattr(simulate, "_cpu_count", lambda: cpus)
    config = SimConfig(ProcessParams(10, 2), replications, seed=1)
    first = simulate_batch(config)
    again = simulate_batch(config)
    assert np.array_equal(first.std_moments, again.std_moments)
    workers = min(cpus, chunks)
    assert pools == ([workers] if workers > 1 and hasattr(os, "fork") else [])


@pytest.mark.parametrize("n, k", [(300, 100), (60_000, 2)])
def test_simulate_batch_runs_past_the_recursions_bounds(n, k):
    """The shift column has no ``MAX_K``/``MAX_N_MAX``; it is round(E(c . X_n)) all the same."""
    assert k > MAX_K or n > MAX_N_MAX
    c = np.linspace(1.0, 2.0, k - 1)
    stats = simulate_batch(SimConfig(ProcessParams(n, k), 3, seed=4, projection=tuple(c)))
    column = _mean_column(c.tolist(), n, [])  # every row, where the shift keeps the last k
    assert stats.shift == float(np.round(column[n]))


def test_shift_keeps_no_list_of_the_rows_mean():
    # the shift reads row n of the mean column alone, from its last k rows
    tracemalloc.start()
    try:
        stats = simulate_batch(SimConfig(ProcessParams(100_000, 2), 1, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.shift == 13534.0
    assert peak < 2.5e6


def _mapped_while_another_thread_runs():
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        results = map_chunks(_where, [(ProcessParams(10, 2), chunk_size(10, 2) + 5, 1)])
    finally:
        release.set()
        other.join(timeout=30)
    assert not other.is_alive()
    return _pids(results)


def test_map_chunks_stays_in_process_while_another_thread_runs(pools, monkeypatch):
    monkeypatch.setattr(simulate, "_cpu_count", lambda: 2)
    # no pool yet: forking now could hand a child a lock the other thread holds
    assert _mapped_while_another_thread_runs() == {os.getpid()}
    assert pools == []
    if hasattr(os, "fork"):
        # once the pool exists, no fork is needed, so other threads do not matter
        map_chunks(_where, [(ProcessParams(10, 2), chunk_size(10, 2) + 5, 1)])
        assert os.getpid() not in _mapped_while_another_thread_runs()
        assert pools == [2]


@_fork_only
def test_two_maps_run_on_the_workers_of_one_fork(pools, monkeypatch):
    monkeypatch.setattr(simulate, "_cpu_count", lambda: 2)
    first = _pids(map_chunks(_where, _FOUR_CHUNKS))
    second = _pids(map_chunks(_where, _FOUR_CHUNKS))
    assert pools == [2]
    assert os.getpid() not in first | second and len(first | second) <= 2


@_fork_only
@pytest.mark.parametrize("cpus, chunks", [((2, 3), (2, 2)), ((3, 3), (2, 3))])
def test_the_pool_reforks_only_after_the_old_one_is_joined(cpus, chunks, monkeypatch):
    """A changed CPU count, or a map that needs more workers, forks a new pool once the old one is gone."""
    simulate._shut_down_pool()
    forks = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            old = _pids(done)
            forks.append((max_workers, threading.active_count(), any(_alive(p) for p in old)))
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    done = []
    for cpu_count, chunk_count in zip(cpus, chunks):
        monkeypatch.setattr(simulate, "_cpu_count", lambda: cpu_count)
        request = [(ProcessParams(10, 2), chunk_count * chunk_size(10, 2), 1)]
        done.append(map_chunks(_where, request)[0])
    # the second pool is forked with no thread of the first left and its workers reaped
    assert forks == [(2, 1, False), (chunks[1], 1, False)]
    assert not _pids(done[:1]) & _pids(done[1:])


def _killed(parent, counts, hats):
    """A reducer that kills the worker it runs on (and does nothing in ``parent``)."""
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return os.getpid()


@_fork_only
def test_a_killed_worker_breaks_that_map_and_the_next_forks_afresh(pools, monkeypatch):
    monkeypatch.setattr(simulate, "_cpu_count", lambda: 2)
    before = map_chunks(_where, _FOUR_CHUNKS)
    with pytest.raises(BrokenProcessPool):
        map_chunks(functools.partial(_killed, os.getpid()), _FOUR_CHUNKS)
    assert not any(_alive(pid) for pid in _pids(before))
    after = map_chunks(_where, _FOUR_CHUNKS)
    assert [chunk[1:] for chunk in after[0]] == [chunk[1:] for chunk in before[0]]
    assert pools == [2, 2]
    assert os.getpid() not in _pids(after) and not _pids(after) & _pids(before)


@_fork_only
def test_a_forked_child_maps_without_the_parents_pool(pools, monkeypatch):
    monkeypatch.setattr(simulate, "_cpu_count", lambda: 2)
    workers = _pids(map_chunks(_where, _FOUR_CHUNKS))
    reader, writer = os.pipe()
    child = os.fork()
    if child == 0:  # the child reports its map's pids and fingerprints, and never returns
        code = 1
        try:
            os.close(reader)
            results = map_chunks(_where, _FOUR_CHUNKS)
            os.write(writer, json.dumps(results).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(writer)
    try:
        ready, _, _ = select.select([reader], [], [], 60)
        report = os.read(reader, 1 << 16) if ready else b""
    finally:
        os.close(reader)
        if not ready:
            os.kill(child, signal.SIGKILL)
        _, status = os.waitpid(child, 0)
    assert ready, "the child's map did not finish"
    assert os.waitstatus_to_exitcode(status) == 0
    results = json.loads(report)
    want = [[list(chunk[1:]) for chunk in part] for part in map_chunks(_where, _FOUR_CHUNKS)]
    assert [[chunk[1:] for chunk in part] for part in results] == want
    assert not _pids(results) & (workers | {os.getpid()})
    assert pools == [2]  # the parent's pool is still the one it forked


_MAPS_TWICE = """
import os
from spacings import simulate, verify
from spacings.model import ProcessParams


def where(counts, hats):
    return os.getpid()


def test_maps_twice():
    simulate._cpu_count = lambda: 2
    request = [(ProcessParams(10, 2), 4 * simulate.chunk_size(10, 2), 1)]
    pids = {pid for _ in range(2) for pid in simulate.map_chunks(where, request)[0]}
    with open(os.environ["PIDS_OUT"], "w") as out:
        print(os.getpid(), *pids, file=out)
"""


def test_a_session_that_maps_twice_leaves_no_worker_and_nothing_on_stderr(tmp_path):
    # a pytest session: its module teardown is where an executor left to the
    # garbage collector once printed an ignored exception
    (tmp_path / "test_maps_twice.py").write_text(_MAPS_TWICE)
    out = tmp_path / "pids"
    src = str(Path(spacings.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_maps_twice.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src, "PIDS_OUT": str(out)},
    )
    assert done.returncode == 0, done.stdout
    assert done.stderr == ""
    parent, *pids = map(int, out.read_text().split())
    if hasattr(os, "fork"):
        assert 1 <= len(pids) <= 2 and parent not in pids
    assert not any(_alive(pid) for pid in pids if pid != parent)


_MAPS_ON_IMPORT = """
import json

import numpy as np

from spacings import simulate
from spacings.model import ProcessParams


def fingerprint(counts, hats):
    return counts.shape[0], int(hats @ np.arange(hats.size))


simulate._cpu_count = lambda: 2
print(json.dumps(simulate.map_chunks(fingerprint, [(ProcessParams(10, 2), 200_000, 1)])))
"""


def test_a_map_run_while_its_reducers_module_imports_finishes(tmp_path):
    # a worker forked now would block for good on the module's import lock
    (tmp_path / "maps_on_import.py").write_text(_MAPS_ON_IMPORT)
    src = str(Path(spacings.__file__).resolve().parents[1])
    child = subprocess.Popen(
        [sys.executable, "-c", "import maps_on_import"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,  # its own process group: a timeout kills its workers too
        env={**os.environ, "PYTHONPATH": os.pathsep.join([src, str(tmp_path)])},
    )
    try:
        out, err = child.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail("importing a module that maps on import did not finish within 60 s")
    assert child.returncode == 0, err
    request = [(ProcessParams(10, 2), 200_000, 1)]
    want = [[list(chunk[1:]) for chunk in part] for part in map_chunks(_where, request)]
    assert json.loads(out) == want


@pytest.mark.parametrize("n, k", [(10, 2), (12, 4), (400, 3)])
def test_state_counter_is_the_serial_counter_at_any_worker_count(n, k, monkeypatch):
    params = ProcessParams(n, k)
    replications = 2 * chunk_size(n, k) + 137
    serial: Counter[GapCounts] = Counter()
    for counts, hats in _chunks_one_by_one(params, replications, 11):
        serial.update(GapCounts(tuple(r), h) for r, h in zip(counts.tolist(), hats.tolist()))
    for cpus in (1, 2):
        monkeypatch.setattr(simulate, "_cpu_count", lambda: cpus)
        assert state_counters([(params, replications, 11)])[0] == dict(serial)


def test_importing_the_cli_leaves_the_process_pool_unimported():
    code = (
        "import sys\n"
        "import spacings.cli\n"
        "unloaded = {'multiprocessing', 'concurrent.futures', 'concurrent.futures.process'}\n"
        "loaded = unloaded & set(sys.modules)\n"
        "assert not loaded, loaded\n"
    )
    src = str(Path(spacings.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})
