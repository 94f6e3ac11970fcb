"""Verification checks 04 and 12: the same verdicts at any worker count, and check 12 can fail.

Check 12 validates each distinct state of a request once, in the parent,
and counts every row.

Also: a check that overruns its budget fails, and check 11's
measured string is pinned.
"""
from __future__ import annotations

import pytest

from spacings import exact, simulate, verify
from spacings.model import GapCounts, ProcessParams, validate_counts


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


def _check_12_plan(total):
    """The requests check 12 samples for ``total`` rows."""
    return [
        (ProcessParams(10, 2), total * 4 // 10, verify.VERIFY_SEED + 1),
        (ProcessParams(10, 3), total * 3 // 10, verify.VERIFY_SEED + 1),
        (ProcessParams(12, 4), total - total * 4 // 10 - total * 3 // 10, verify.VERIFY_SEED + 1),
    ]


def _states(counts, hats):
    """A reducer that keeps its chunk's terminal states."""
    return counts, hats


def _first_failure(plan, reject) -> str:
    """Check 12's failure message, found by walking the chunks one after another."""
    for params, m, seed in plan:
        for counts, hats in simulate.map_chunks(_states, [(params, m, seed)])[0]:
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
    want = _first_failure(_check_12_plan(total), reject)
    monkeypatch.setattr(verify, "validate_counts", validator)
    for cpus in (2, 1):  # the worker pool, then in-process
        monkeypatch.setattr(simulate, "_cpu_count", lambda: cpus)
        result = verify.check_conservation_at_scale(total)
        assert not result.passed
        assert result.measured == want


def test_check_12_validates_each_distinct_state_once(monkeypatch):
    seen = []

    def validator(params, state):
        seen.append((params, state))
        return validate_counts(params, state)

    monkeypatch.setattr(verify, "validate_counts", validator)
    total = 200_000
    result = verify.check_conservation_at_scale(total)
    assert result.passed
    assert result.measured == f"{total:,} states validated"
    distinct = sum(len(counter) for counter in simulate.state_counters(_check_12_plan(total)))
    assert len(seen) == len(set(seen)) == distinct


def _injecting(counts, hats):
    """``empirical_counter`` plus one non-conserving state in the chunk of k = 3."""
    counter = exact.empirical_counter(counts, hats)
    if counts.shape[1] == 2:  # k = 3: at 60,000 rows, one chunk
        counter[GapCounts((0, 0), 3)] = 1  # 3 * 3 hooks of 10: not conserved
    return counter


def test_check_12_reports_a_non_conserving_state_in_one_chunk(monkeypatch):
    # the reducer crosses to the workers by name, so it lives at module level
    monkeypatch.setattr(simulate, "empirical_counter", _injecting)
    for cpus in (2, 1):  # the worker pool, then in-process
        monkeypatch.setattr(simulate, "_cpu_count", lambda: cpus)
        result = verify.check_conservation_at_scale(200_000)
        assert not result.passed
        assert result.measured == "state [0, 0], hats=3 invalid for ProcessParams(n=10, k=3)"


@pytest.mark.parametrize("lost", [1, -1])  # a row dropped, a row counted twice
def test_check_12_fails_when_the_collapse_miscounts_a_row(lost, monkeypatch):
    collapse = simulate.empirical_counter
    chunks = []

    def miscounting(counts, hats):
        chunks.append(counts.shape[0])
        counter = collapse(counts, hats)
        counter[next(iter(counter))] -= lost
        return counter

    monkeypatch.setattr(simulate, "empirical_counter", miscounting)
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
