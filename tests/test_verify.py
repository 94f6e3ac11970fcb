"""Verification checks 04 and 12: the same verdicts at any worker count, and check 12 can fail.

Check 12 validates each distinct state of a chunk once and counts every row.

Also: a check that overruns its budget fails, and check 11's
measured string is pinned.
"""
from __future__ import annotations

import numpy as np
import pytest

from spacings import exact, simulate, verify
from spacings.model import ProcessParams, validate_counts


@pytest.mark.parametrize(
    "check, size",
    [(verify.check_simulator_against_exact, 100_000), (verify.check_conservation_at_scale, 200_000)],
)
def test_sampling_checks_do_not_depend_on_the_worker_count(check, size, monkeypatch):
    results = []
    for cpus in (1, 2):
        monkeypatch.setattr(simulate, "_cpu_count", lambda: cpus)
        results.append(check(size))
    assert all(r.passed for r in results)
    assert len({r.measured for r in results}) == 1
    for r in results:
        assert sum(r.stages.values()) <= r.elapsed_s


def _first_failure(plan, reject) -> str:
    """Check 12's failure message, found by walking the chunks one after another."""
    for params, m, seed in plan:
        for counts, hats in simulate.iter_state_chunks(params, m, seed):
            for row, h in zip(counts.tolist(), hats.tolist()):
                if reject(params, h):
                    return f"state {row}, hats={h} invalid for {params}"
    raise AssertionError("no rejected state was sampled")


def test_check_12_reports_the_first_invalid_row_in_chunk_order(monkeypatch):
    # states of the first shape and of the last are rejected, so a report
    # taken from any chunk but the first failing one names the wrong shape
    def reject(params, hats):
        return (params.n, params.k, hats) in {(10, 2, 3), (12, 4, 2)}

    def validator(params, state):
        return not reject(params, state.hats) and validate_counts(params, state)

    total = 200_000
    plan = [
        (ProcessParams(10, 2), total * 4 // 10, verify.VERIFY_SEED + 1),
        (ProcessParams(10, 3), total * 3 // 10, verify.VERIFY_SEED + 1),
        (ProcessParams(12, 4), total * 3 // 10, verify.VERIFY_SEED + 1),
    ]
    want = _first_failure(plan, reject)
    monkeypatch.setattr(verify, "validate_counts", validator)
    for cpus in (2, 1):  # the worker pool, then in-process
        monkeypatch.setattr(simulate, "_cpu_count", lambda: cpus)
        result = verify.check_conservation_at_scale(total)
        assert not result.passed
        assert result.measured == want


# a hand-built (10, 3) chunk: three valid states, one of them three times
_CHUNK = (
    np.array([[1, 0], [0, 2], [1, 0], [2, 1], [0, 2], [1, 0]]),
    np.array([3, 2, 3, 2, 2, 3]),
)


def test_validate_chunk_validates_each_distinct_state_once(monkeypatch):
    seen = []

    def validator(params, state):
        seen.append(state)
        return validate_counts(params, state)

    monkeypatch.setattr(verify, "validate_counts", validator)
    counts, hats = _CHUNK
    rows, _ = verify._validate_chunk(ProcessParams(10, 3), counts, hats)
    assert rows == counts.shape[0]
    assert sorted(seen) == sorted({(tuple(r), h) for r, h in zip(counts.tolist(), hats.tolist())})


def test_validate_chunk_reports_a_lone_invalid_state_in_the_last_row():
    counts = np.vstack([_CHUNK[0], [[0, 0]]])
    hats = np.append(_CHUNK[1], 3)  # 3 * 3 hooks of 10: not conserved
    rows, _ = verify._validate_chunk(ProcessParams(10, 3), counts, hats)
    assert rows == "state [0, 0], hats=3 invalid for ProcessParams(n=10, k=3)"


@pytest.mark.parametrize("lost", [1, -1])  # a row dropped, a row counted twice
def test_check_12_fails_when_the_collapse_miscounts_a_row(lost, monkeypatch):
    collapse = exact.empirical_counter
    chunks = []

    def miscounting(counts, hats):
        chunks.append(counts.shape[0])
        counter = collapse(counts, hats)
        counter[next(iter(counter))] -= lost
        return counter

    monkeypatch.setattr(exact, "empirical_counter", miscounting)
    monkeypatch.setattr(simulate, "_cpu_count", lambda: 1)  # in-process, so the calls are seen
    total = 200_000
    result = verify.check_conservation_at_scale(total)
    assert sum(chunks) == total
    assert not result.passed
    assert result.measured == f"{total - lost * len(chunks):,} states validated"


def test_a_check_that_overruns_its_budget_fails():
    result = verify._timed("x", 0.0, lambda: (True, "m"))
    assert not result.passed
    assert result.measured == "m (overran budget 0s)"


def test_check_11_measured_string_is_pinned():
    result = verify.check_drift_bound_tail()
    assert result.passed
    assert result.measured == "k=2: sup=1.333333 tail_monotone=True; k=3: sup=1.788854 tail_monotone=True"
