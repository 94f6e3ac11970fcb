"""State containers and validation rules."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from spacings.model import (
    GapCounts,
    ProcessParams,
    single_spacing_state,
    vacancy,
    validate_counts,
    validate_counts_batch,
)

params_st = st.builds(
    ProcessParams,
    n=st.integers(min_value=0, max_value=60),
    k=st.integers(min_value=2, max_value=6),
)


def test_params_reject_bad_values():
    with pytest.raises(ValueError):
        ProcessParams(n=5, k=1)
    with pytest.raises(ValueError):
        ProcessParams(n=-1, k=2)
    with pytest.raises(TypeError):
        ProcessParams(n=5.0, k=2)  # type: ignore[arg-type]


def test_single_spacing_state_small_rows():
    assert single_spacing_state(0, 3) == GapCounts((0, 0), 0)
    assert single_spacing_state(2, 3) == GapCounts((0, 1), 0)
    with pytest.raises(ValueError):
        single_spacing_state(3, 3)


def test_vacancy_weights_counts_by_length():
    assert vacancy(GapCounts((3, 2), 4)) == 3 * 1 + 2 * 2
    assert vacancy(GapCounts((0, 0), 5)) == 0


def test_validate_accepts_every_reachable_state():
    for k in (2, 3, 4):
        for n in range(0, 11):
            p = ProcessParams(n, k)
            for (counts, hats) in oracles.law(n, k):
                assert validate_counts(p, GapCounts(counts, hats))


def test_validate_rejects_shape_and_balance_errors():
    p = ProcessParams(10, 3)
    good = GapCounts((2, 1), 2)  # 2*1 + 1*2 + 2*3 = 10
    assert validate_counts(p, good)
    assert validate_counts(p, GapCounts((1, 0), 3))  # 9 + 1 = 10, also fine
    assert not validate_counts(p, GapCounts((2,), 2))  # wrong arity
    assert not validate_counts(p, GapCounts((-1, 2), 2))  # negative count
    assert not validate_counts(p, GapCounts((2, 1), 3))  # conservation broken
    # hats must be at least 1 once n >= k
    assert not validate_counts(ProcessParams(6, 3), GapCounts((0, 3), 0))


def test_validate_small_row_forces_single_spacing():
    p = ProcessParams(2, 4)
    assert validate_counts(p, GapCounts((0, 1, 0), 0))
    assert not validate_counts(p, GapCounts((2, 0, 0), 0))  # same vacancy, wrong shape
    assert not validate_counts(p, GapCounts((0, 1, 0), 1))


@given(params_st, st.data())
def test_batch_validation_matches_scalar(params, data):
    k = params.k
    rows = data.draw(
        st.lists(
            st.tuples(
                st.lists(
                    st.integers(min_value=0, max_value=4), min_size=k - 1, max_size=k - 1
                ),
                st.integers(min_value=0, max_value=params.n // k + 1),
            ),
            min_size=1,
            max_size=30,
        )
    )
    counts = np.array([r[0] for r in rows], dtype=np.int64)
    hats = np.array([r[1] for r in rows], dtype=np.int64)
    got = validate_counts_batch(params, counts, hats)
    want = [validate_counts(params, GapCounts(tuple(c), int(h))) for c, h in rows]
    assert got.tolist() == want


@st.composite
def _candidate_states(draw) -> tuple[int, int, tuple[int, ...], int]:
    """(n, k, counts, hats), mostly conserving hooks so the other rules decide."""
    k = draw(st.integers(min_value=2, max_value=6))
    length = draw(st.sampled_from([k - 1, k - 1, k - 1, k - 2, k]))
    counts = tuple(draw(st.lists(st.integers(-2, 5), min_size=length, max_size=length)))
    hats = draw(st.integers(-2, 4))
    conserving = k * hats + sum(j * c for j, c in enumerate(counts, start=1))
    rows = [conserving, conserving, conserving + 1] if conserving >= 0 else [0]
    n = draw(st.sampled_from(rows) | st.integers(0, 20))
    return n, k, counts, hats


@given(_candidate_states())
@example((9, 2, (-1,), 5))  # negative count, hooks conserved
@example((1, 3, (2, 1), -1))  # negative hats, hooks conserved
@example((0, 3, (0, 0), 0))  # the empty row
@example((2, 5, (0, 1, 0, 0), 0))  # a row too short for a block
@example((6, 4, (2, 0), 1))  # one count short
def test_validate_matches_rule_oracle(state):
    n, k, counts, hats = state
    want = oracles.validate_counts_rules(n, k, counts, hats)
    assert validate_counts(ProcessParams(n, k), GapCounts(counts, hats)) == want


def test_states_are_hashable_value_types():
    a = GapCounts((1, 0), 2)
    b = GapCounts((1, 0), 2)
    assert a == b and hash(a) == hash(b)
    with pytest.raises(Exception):
        a.hats = 3  # type: ignore[misc]
