"""Exact terminal law: both routes against the brute-force enumerator."""
from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import chdtrc
from scipy.stats import chi2

import oracles
import spacings
from spacings.exact import (
    CapExceededError,
    _chi2_sf,
    chi_square_gof,
    empirical_counter,
    moments_from_pmf,
    pmf_direct,
    pmf_split,
    total_variation_empirical,
)
from spacings.model import GapCounts, ProcessParams
from spacings.moments import cross_moment_recursion_exact, mean_recursion_exact


def plain(pmf):
    return {(g.counts, g.hats): p for g, p in pmf.probs.items()}


def test_oracle_matches_hand_enumeration_n4_k2():
    # Row of 4, blocks of 2, starts 1..3 each w.p. 1/3:
    #   start 1 -> hooks 3,4 stay a run of 2 -> forced second block -> full
    #   start 2 -> vacant {1} and {4}, both too short -> two length-1 spacings
    #   start 3 -> mirror of start 1 -> full
    assert oracles.law(4, 2) == {
        ((0,), 2): Fraction(2, 3),
        ((2,), 1): Fraction(1, 3),
    }


def test_oracle_matches_hand_enumeration_n5_k2():
    # Every first placement leaves exactly one more block and one spacing.
    assert oracles.law(5, 2) == {((1,), 2): Fraction(1)}


@pytest.mark.parametrize("k", [2, 3, 4])
def test_split_route_equals_enumerator(k):
    for n in range(0, 13):
        got = plain(pmf_split(ProcessParams(n, k)))
        assert got == oracles.law(n, k), (n, k)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_direct_route_equals_enumerator(k):
    for n in range(0, 13):
        got = plain(pmf_direct(ProcessParams(n, k)))
        assert got == oracles.law(n, k), (n, k)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_split_route_equals_direct_up_to_direct_cap(k):
    for n in range(0, 21):
        params = ProcessParams(n, k)
        assert pmf_split(params).probs == pmf_direct(params).probs, (n, k)


@pytest.mark.parametrize("n,k", [(80, 2), (48, 3), (40, 5)])
def test_split_moments_match_recursions_above_cap(n, k):
    m = moments_from_pmf(pmf_split(ProcessParams(n, k), cap=n))
    assert list(m.mean) == mean_recursion_exact(k, n)[n]
    assert [list(r) for r in m.second_raw] == cross_moment_recursion_exact(k, n)[n]


def test_pmf_is_an_exact_distribution():
    pmf = pmf_split(ProcessParams(12, 3))
    assert pmf.total() == Fraction(1)
    assert all(p > 0 for p in pmf.probs.values())
    assert pmf.validate()


def test_known_table_n6_k2():
    # frozen from tests/oracles.py
    assert plain(pmf_split(ProcessParams(6, 2))) == {
        ((0,), 3): Fraction(7, 15),
        ((2,), 2): Fraction(8, 15),
    }


def test_known_table_n7_k3():
    # frozen from tests/oracles.py
    assert plain(pmf_split(ProcessParams(7, 3))) == {
        ((0, 2), 1): Fraction(1, 5),
        ((1, 0), 2): Fraction(4, 5),
    }


def test_caps_guard_both_routes():
    with pytest.raises(CapExceededError):
        pmf_split(ProcessParams(60, 2))
    with pytest.raises(CapExceededError):
        pmf_direct(ProcessParams(30, 2))
    # explicit override lifts the cap
    assert pmf_direct(ProcessParams(22, 2), cap=22).validate()


def test_moments_match_enumerator_means():
    m = moments_from_pmf(pmf_split(ProcessParams(7, 3)))
    assert list(m.mean) == oracles.mean_counts(7, 3) == [Fraction(4, 5), Fraction(2, 5)]
    assert [list(r) for r in m.second_raw] == oracles.second_moments(7, 3)


def test_moments_covariance_n4_k2():
    m = moments_from_pmf(pmf_split(ProcessParams(4, 2)))
    # E X = 2/3, E X^2 = 4/3  =>  var = 4/3 - 4/9
    assert m.mean[0] == Fraction(2, 3)
    assert m.covariance()[0][0] == Fraction(8, 9)


def test_projected_moments_match_enumerator():
    m = moments_from_pmf(pmf_split(ProcessParams(7, 3)), order=3, projection=(1, 2))
    assert m.projected_raw[3] == oracles.projected_moment(7, 3, (1, 2), 3) == Fraction(68, 5)
    m2 = moments_from_pmf(pmf_split(ProcessParams(8, 2)), order=4, projection=(1,))
    assert m2.projected_raw[4] == Fraction(1136, 105)


def test_projected_moments_reject_a_negative_order():
    pmf = pmf_split(ProcessParams(4, 2))
    assert moments_from_pmf(pmf, order=0).projected_raw == (Fraction(1),)
    for order in (-1, -5):
        with pytest.raises(ValueError, match=f"order must be >= 0, got {order}"):
            moments_from_pmf(pmf, order=order)


def test_total_variation_zero_on_itself():
    pmf = pmf_split(ProcessParams(10, 3))
    assert pmf.total_variation(pmf) == 0


def test_total_variation_against_counter():
    pmf = pmf_split(ProcessParams(4, 2))
    # all mass on the full state: TV = 1 - P(full) = 1/3
    full = GapCounts((0,), 2)
    assert total_variation_empirical(pmf, {full: 50}) == pytest.approx(1 / 3)


def test_chi_square_accepts_its_own_law():
    pmf = pmf_split(ProcessParams(6, 2))
    # counts proportional to the law itself: statistic exactly 0
    counter = {g: int(p * 1500) for g, p in pmf.probs.items()}
    stat, dof, pval = chi_square_gof(pmf, counter)
    assert stat == pytest.approx(0, abs=1e-12)
    assert dof == 1
    assert pval == pytest.approx(1.0)


def test_chi_square_rejects_stray_states():
    pmf = pmf_split(ProcessParams(6, 2))
    with pytest.raises(ValueError):
        chi_square_gof(pmf, {GapCounts((1,), 2): 10})


def test_chi_square_pools_rare_cells():
    # (20, 2) at 100 draws expects 3.64 and 4.01 of its two rarest states,
    # which make one pooled cell beside the two common ones
    pmf = pmf_split(ProcessParams(20, 2))
    p = {g.hats: float(q) for g, q in pmf.probs.items()}
    assert sorted(100 * v for v in p.values())[:2] == [
        pytest.approx(3.64, abs=5e-3), pytest.approx(4.01, abs=5e-3)
    ]
    observed = {10: 5, 9: 45, 8: 47, 7: 3}
    stat, dof, _ = chi_square_gof(pmf, {g: observed[g.hats] for g in pmf.probs})
    cells = [(100 * p[9], 45), (100 * p[8], 47), (100 * (p[10] + p[7]), 5 + 3)]
    assert dof == 2
    assert stat == pytest.approx(sum((o - e) ** 2 / e for e, o in cells), rel=1e-12)


def _tail_tol(x: float, dof: int) -> float:
    """The relative error bound of ``_chi2_sf``, which grows with x."""
    return 1e-11 if dof <= 200 and x <= 800 else 1e-10


def _assert_tail_matches_scipy(x: float, dof: int) -> None:
    got = _chi2_sf(x, dof)
    for want in (float(chdtrc(dof, x)), float(chi2.sf(x, dof))):
        if want > 1e-300:
            assert got == pytest.approx(want, rel=_tail_tol(x, dof), abs=0), (x, dof)


def test_chi2_tail_matches_scipy_on_a_grid():
    for dof in [*range(1, 201), 1001, 5000]:
        xs = np.linspace(0.0, 4.5 * dof + 20, 61).tolist()
        tail = [_chi2_sf(x, dof) for x in xs]
        for x in xs:
            _assert_tail_matches_scipy(x, dof)
        assert tail[0] == 1.0
        # non-increasing up to the error bound: where the tail is within 1e-14
        # of 1, the rounding of its terms moves the sum more than the law does
        assert all(b <= a * (1 + _tail_tol(x, dof)) for x, a, b in zip(xs[1:], tail, tail[1:]))


@given(
    dof=st.integers(min_value=1, max_value=300),
    x=st.floats(min_value=0.0, max_value=3000.0, allow_nan=False),
)
def test_chi2_tail_matches_scipy(dof, x):
    _assert_tail_matches_scipy(x, dof)


def test_chi2_tail_edges():
    assert _chi2_sf(0.0, 1) == _chi2_sf(-3.0, 7) == 1.0
    with pytest.raises(ValueError):
        _chi2_sf(1.0, 0)


def test_goodness_of_fit_leaves_scipy_unimported():
    code = (
        "import sys\n"
        "import spacings.cli\n"
        "from spacings import exact, verify\n"
        "from spacings.model import ProcessParams\n"
        "assert verify.check_simulator_against_exact(20_000).passed\n"
        "pmf = exact.pmf_split(ProcessParams(6, 2))\n"
        "exact.chi_square_gof(pmf, {g: 1 + int(p * 900) for g, p in pmf.probs.items()})\n"
        "assert not any(m.partition('.')[0] == 'scipy' for m in sys.modules)\n"
    )
    src = str(Path(spacings.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


def test_empirical_counter_groups_rows():
    counts = np.array([[1, 0], [0, 2], [1, 0]], dtype=np.int64)
    hats = np.array([2, 1, 2], dtype=np.int64)
    got = empirical_counter(counts, hats)
    assert got == {GapCounts((1, 0), 2): 2, GapCounts((0, 2), 1): 1}


@st.composite
def _state_rows(draw) -> tuple[int, list[tuple[list[int], int]]]:
    """(k, rows), the rows drawn from a small pool so that they repeat, as states do."""
    k = draw(st.integers(min_value=2, max_value=6))
    row = st.tuples(st.lists(st.integers(0, 3), min_size=k - 1, max_size=k - 1), st.integers(0, 3))
    pool = draw(st.lists(row, min_size=1, max_size=4))
    return k, draw(st.lists(st.sampled_from(pool), max_size=60))


@given(_state_rows())
@example((3, []))
@example((3, [([1, 0], 2)]))
@example((3, [([0, 1], 1)] * 9))
def test_empirical_counter_matches_counter_over_rows(case):
    k, rows = case
    counts = np.array([c for c, _ in rows], dtype=np.int64).reshape(len(rows), k - 1)
    hats = np.array([h for _, h in rows], dtype=np.int64)
    got = empirical_counter(counts, hats)
    assert got == Counter(GapCounts(tuple(c), h) for c, h in rows)
    assert all(type(v) is int for v in got.values())
    assert all(type(h) is int for g in got for h in (g.hats, *g.counts))


def _lexsort_counter(counts: np.ndarray, hats: np.ndarray) -> list[tuple[GapCounts, int]]:
    """Counter over the rows, its states in the order ``np.lexsort`` puts the rows in."""
    rows = np.column_stack([counts, hats])
    rows = rows.take(np.lexsort(rows.T), axis=0)
    tally = Counter(GapCounts(tuple(r[:-1]), r[-1]) for r in rows.tolist())
    return list(tally.items())  # a Counter keeps first-insertion order


_WIDE_VALUES = [
    st.integers(0, 1),
    st.integers(2**62 - 3, 2**62 + 3),
    st.integers(-(2**62) - 3, -(2**62) + 3) | st.integers(2**62 - 3, 2**62 + 3),
    st.integers(-(2**63), 2**63 - 1),
]


@st.composite
def _wide_rows(draw) -> tuple[np.ndarray, np.ndarray]:
    """Up to 63 count columns, each column's entries 0/1 or near +-2**62 or anywhere in int64."""
    width = draw(st.integers(min_value=1, max_value=63))
    columns = [draw(st.sampled_from(_WIDE_VALUES)) for _ in range(width + 1)]  # the last is hats
    pool = draw(st.lists(st.tuples(*columns), min_size=1, max_size=6))
    rows = draw(st.lists(st.sampled_from(pool), max_size=40))
    table = np.array(rows, dtype=np.int64).reshape(len(rows), width + 1)
    return table[:, :-1], table[:, -1].copy()


@settings(max_examples=100)
@given(_wide_rows())
def test_empirical_counter_is_the_lexsorted_counter_on_wide_and_huge_rows(case):
    counts, hats = case
    got = empirical_counter(counts, hats)
    assert list(got.items()) == _lexsort_counter(counts, hats)


@pytest.mark.parametrize("width", [1, 62, 63])
@pytest.mark.parametrize("rows", [0, 1, 2, 5, 40])
def test_empirical_counter_on_empty_single_and_zero_one_rows(width, rows):
    # rows 0 and 1 make every count column span 0..1, so from 62 columns on
    # the radix reaches 2**62 and the key is ranked before the last column
    rng = np.random.default_rng(width * 100 + rows)
    counts = rng.integers(0, 2, size=(rows, width))
    counts[:2] = np.arange(2)[:rows, None]
    hats = rng.integers(0, 3, size=rows)
    got = empirical_counter(counts, hats)
    assert list(got.items()) == _lexsort_counter(counts, hats)
    assert sum(got.values()) == rows


@settings(max_examples=30)
@given(
    n=st.integers(min_value=0, max_value=14),
    k=st.sampled_from([2, 3, 4, 5]),
)
def test_split_route_always_valid(n, k):
    pmf = pmf_split(ProcessParams(n, k))
    assert pmf.validate()
    assert pmf.total() == 1
