"""Finite-n moment recursions against the enumerator and closed constants."""
from __future__ import annotations

import math
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from spacings import moments
from spacings.asymptotics import constants_by_extrapolation
from spacings.moments import (
    CONTINUATION_TOL,
    MAX_K,
    MAX_N_MAX,
    MAX_ORDER,
    _binomial_rows,
    _recenter,
    averaging_recursion_limit,
    cross_moment_recursion,
    cross_moment_recursion_exact,
    mean_drift_bound,
    mean_recursion,
    mean_recursion_exact,
    projected_moment_recursion,
    projected_moment_recursion_exact,
)

# frozen from tests/oracles.py: E X_n for k=2, n = 0..8
GAMMA_K2 = [
    Fraction(0),
    Fraction(1),
    Fraction(0),
    Fraction(1),
    Fraction(2, 3),
    Fraction(1),
    Fraction(16, 15),
    Fraction(11, 9),
    Fraction(142, 105),
]


def test_exact_mean_sequence_k2():
    table = mean_recursion_exact(2, 8)
    assert [row[0] for row in table] == GAMMA_K2


@pytest.mark.parametrize("k", [3, 4])
def test_exact_means_match_enumerator(k):
    table = mean_recursion_exact(k, 10)
    for n in range(0, 11):
        assert table[n] == oracles.mean_counts(n, k), n


def test_float_mean_tracks_exact():
    exact = mean_recursion_exact(3, 200)
    table = mean_recursion(3, 200)
    worst = max(
        abs(float(exact[n][i]) - table.values[n][i])
        for n in range(201)
        for i in range(2)
    )
    assert worst < 1e-12


@pytest.mark.parametrize(
    "k, n_max",
    [(2, 3000), (3, 2000), (8, 600), (3, 3), (5, 2), (2, 0), (2, 1), (8, 8), (8, 9), (64, 1000)],
)
def test_float_mean_is_bit_identical_to_numpy_step(k, n_max):
    want = oracles.mean_recursion_numpy_step(k, n_max)
    assert np.array_equal(mean_recursion(k, n_max).values, want)


@pytest.mark.parametrize("k", [2, 3, 8])
def test_mean_tables_are_c_contiguous(k):
    # The cross loop's products g[:m+1].T @ g[m::-1] sum in an order that
    # BLAS picks from the layout: an F-ordered mean table changed the cov
    # bytes at k >= 3 while every other test stayed green.
    assert mean_recursion(k, 500).values.flags.c_contiguous
    assert moments._settled_rows(k, MAX_N_MAX)[0].flags.c_contiguous
    assert moments._settled_rows(k, 20)[0].flags.c_contiguous


@pytest.mark.parametrize("k", [*range(2, 9), 33, 64])
def test_settled_rows_hold_the_mean_table_bit_for_bit(k):
    # the mean rows end with the cross rows, at the row the rates are read
    g, packed, t = moments._settled_rows(k, MAX_N_MAX)
    assert t is not None and len(g) == len(packed) == t + 1
    assert np.array_equal(g, mean_recursion(k, t).values)


PROJECTIONS = {
    "ones": lambda k: (1.0,) * (k - 1),
    "ramp": lambda k: tuple(float(j) for j in range(1, k)),
    "mixed": lambda k: tuple((-1.0) ** j * (1.0 + j % 3) for j in range(1, k)),
}


@pytest.mark.parametrize("kind", sorted(PROJECTIONS))
@pytest.mark.parametrize("k", [2, 3, 5, 8, 16, 32, 64, 256, 1024])
def test_mean_reader_is_its_column_to_17k_then_a_decimal_twin(k, kind):
    """``_mean_at`` returns the column's bits to row 17k - 1, and past it lies
    within 3e-14 relative of a 40-digit twin, continued by its rate past row 24k."""
    c = PROJECTIONS[kind](k)
    for n in (17 * k - 2, 17 * k - 1):
        assert moments._mean_at(c, n) == moments._mean_column(c, n)[n]
    top = 24 * k
    twin = oracles.mean_column_twin(c, top)
    for n in (17 * k, top, 10**6, 2**32 - 1):
        want = twin[n] if n <= top else twin[top] / (top + k) * (n + k)
        assert abs(Decimal(moments._mean_at(c, n)) - want) <= Decimal("3e-14") * abs(want), n


def test_one_step_and_cumulative_forms_agree():
    a = mean_recursion(2, 3000).values
    b = oracles.mean_recursion_cumulative(2, 3000)
    rel = np.abs(a - b) / np.maximum(np.abs(a), 1.0)
    assert rel.max() < 1e-12


def test_mean_rate_reaches_limit_k2():
    table = mean_recursion(2, 4000)
    assert table.rate(4000) == pytest.approx(math.exp(-2), abs=1e-9)


def test_extrapolated_rates_report_their_settle_row():
    res = constants_by_extrapolation(2)
    # the row the cross table settles at
    assert res.diagnostics["continued_from"] == cross_moment_recursion(2, 100).continued_from
    assert res.rates[0] == pytest.approx(math.exp(-2), abs=1e-10)


def test_cross_moments_match_enumerator():
    second = cross_moment_recursion_exact(3, 9)
    for n in (7, 8, 9):
        assert second[n] == oracles.second_moments(n, 3), n


def test_cross_moment_covariance_n4_k2():
    table = cross_moment_recursion(2, 4)
    assert table.cov[4][0][0] == pytest.approx(8 / 9, abs=1e-14)


def _second(table):
    """Raw second moments rebuilt from the public tables: cov + outer(mean, mean)."""
    g = mean_recursion(table.k, len(table.cov) - 1).values
    return table.cov + g[:, :, None] * g[:, None, :]


def test_float_cross_moments_track_exact():
    ex = cross_moment_recursion_exact(2, 120)
    fl = _second(cross_moment_recursion(2, 120))
    worst = max(abs(float(ex[n][0][0]) - fl[n][0][0]) for n in range(121))
    assert worst < 1e-11


def _floats(table):
    return np.array(table, dtype=object).astype(float)


@pytest.mark.parametrize("k, n_max", [(3, 80), (4, 80), (5, 60)])
def test_float_cross_moments_track_exact_every_entry(k, n_max):
    want = _floats(cross_moment_recursion_exact(k, n_max))
    fl = cross_moment_recursion(k, n_max)
    np.testing.assert_allclose(_second(fl), want, rtol=1e-12, atol=0)
    assert np.array_equal(fl.cov, fl.cov.transpose(0, 2, 1))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_cross_moments_match_exact_at_every_table_end(k):
    # the loop fills k rows per step; every n_max ends a step somewhere else
    for n_max in range(0, 3 * k + 2):
        want = _floats(cross_moment_recursion_exact(k, n_max))
        got = _second(cross_moment_recursion(k, n_max))
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0, err_msg=str(n_max))


def test_cov_rate_reaches_limit_k2():
    res = constants_by_extrapolation(2)
    assert res.cov_rates[0][0] == pytest.approx(4 * math.exp(-4), abs=1e-10)


def test_cov_rate_k2_holds_from_the_switch_to_the_largest_table():
    t = cross_moment_recursion(2, MAX_N_MAX)
    n = np.arange(t.continued_from, MAX_N_MAX + 1)
    rel = t.cov[n, 0, 0] / (n + 2) / (4 * math.exp(-4)) - 1
    assert np.abs(rel).max() < 2e-14


@pytest.mark.parametrize("k", range(2, 9))
def test_cross_table_switches_and_keeps_its_rows(k):
    t = cross_moment_recursion(k, 2000)
    n0 = t.continued_from
    assert n0 is not None
    # a table that ends before the switch row is all loop rows
    full = cross_moment_recursion(k, n0 - 1)
    assert full.continued_from is None
    # the rows the loop filled are the full recursion's, bit for bit
    assert np.array_equal(t.cov[:n0], full.cov)
    # later rows are the rates at n0 times n+k
    n = np.arange(n0 + 1, 2001)[:, None, None]
    assert np.array_equal(t.cov[n0 + 1 :], t.cov_rate(n0) * (n + k))


@pytest.mark.parametrize("k", [2, 3, 5, 8, 33])
def test_cross_table_switch_row_depends_on_k_alone(k):
    # the switch row is 17k - 1 whenever the table reaches it; a table that
    # ends before it reports none of its own
    t = cross_moment_recursion(k, 40 * k).continued_from
    assert t == 17 * k - 1
    # a full step and a partial one on either side of the switch row
    for n_max in (t - k, t - 1, t, t + 1, t + k):
        want = t if n_max >= t else None
        assert cross_moment_recursion(k, n_max).continued_from == want, n_max


def test_cross_table_holds_only_its_output_array():
    tracemalloc.start()
    try:
        t = cross_moment_recursion(16, 4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.continued_from is not None
    assert peak < 1.25 * t.cov.nbytes


def test_cross_table_ending_before_its_settle_row_makes_no_full_size_temporary():
    # (64, 300) ends before its loop settles, so every row is a loop row
    tracemalloc.start()
    try:
        t = cross_moment_recursion(64, 300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.continued_from is None
    assert peak < 1.7 * t.cov.nbytes


@pytest.mark.parametrize("k, n_max", [(2, MAX_N_MAX), (8, 20000)])
def test_cross_table_builds_no_mean_row_past_its_loop(monkeypatch, k, n_max):
    # the loops stop at t = 17k - 1 = 33 and 135; no mean row past them is
    # built, and no column twice
    asked = []
    column = moments._mean_column

    def spy(c, last_row):
        asked.append(last_row)
        return column(c, last_row)

    monkeypatch.setattr(moments, "_mean_column", spy)
    assert cross_moment_recursion(k, n_max).continued_from < 1000
    assert len(asked) == k - 1 and max(asked) < 1000


def test_projected_raw_matches_enumerator():
    t = projected_moment_recursion([1.0, 2.0], 3, 10, order=4)
    for n in range(0, 11):
        for m in range(5):
            want = float(oracles.projected_moment(n, 3, (1, 2), m))
            assert t.raw[n, m] == pytest.approx(want, rel=1e-12, abs=1e-12), (n, m)


def test_projected_raw_frozen_value():
    t = projected_moment_recursion([1.0], 2, 8, order=4)
    assert t.raw[8, 4] == pytest.approx(float(Fraction(1136, 105)), rel=1e-14)


def test_projected_exact_twin_agrees():
    ex = projected_moment_recursion_exact((1, 2), 3, 9, order=3)
    fl = projected_moment_recursion([1.0, 2.0], 3, 9, order=3)
    for n in range(10):
        for m in range(4):
            assert fl.raw[n, m] == pytest.approx(float(ex[n][m]), rel=1e-12, abs=1e-12)


def test_projected_exact_twin_agrees_at_high_order():
    ex = projected_moment_recursion_exact((1, 2), 3, 40, order=8)
    fl = projected_moment_recursion([1.0, 2.0], 3, 40, order=8)
    want = np.array([[float(v) for v in row] for row in ex])
    np.testing.assert_allclose(fl.raw, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "projection, k",
    [((Fraction(-3, 2),), 2), ((1, -2, Fraction(1, 2)), 4), ((0, 1, -1, 3), 5)],
)
@pytest.mark.parametrize("n_max", [2, 41, 42])
def test_projected_exact_twin_agrees_with_mixed_signs(projection, k, n_max):
    # both parities of the split length L, so rows with and without a centre term;
    # n_max = 2 ends the table at or before its seed rows (n_max <= k)
    ex = projected_moment_recursion_exact(projection, k, n_max, order=8)
    fl = projected_moment_recursion([float(v) for v in projection], k, n_max, 8)
    np.testing.assert_allclose(fl.raw, _floats(ex), rtol=1e-12, atol=0)


def test_projected_raw_survives_overflow_off_the_anti_diagonals():
    # raw[n, m] ~ (1e30 n)^m: the pair entries with i + l > 8 overflow to inf,
    # yet every read entry stays finite, so no OverflowError may be raised
    big = projected_moment_recursion([1e30], 2, 60, 8)
    unit = projected_moment_recursion([1.0], 2, 60, 8)
    for m in range(9):
        want = 1e30**m * unit.raw[:, m]
        ok = np.isfinite(want)
        assert ok.any(), m
        np.testing.assert_allclose(big.raw[ok, m], want[ok], rtol=1e-12, atol=0)


def test_standardized_moments_shape_and_centering():
    t = projected_moment_recursion([1.0], 2, 300, order=6)
    assert t.standardized.shape == (301, 7)
    assert t.standardized[:, 0] == pytest.approx(1.0)
    # centered first moment vanishes up to rounding
    assert np.max(np.abs(t.standardized[1:, 1])) < 1e-12
    # second standardized moment approaches the covariance rate
    cov = cross_moment_recursion(2, 300).cov[300][0][0]
    assert t.standardized[300, 2] == pytest.approx(cov / 300, rel=1e-10)


def test_standardized_matches_the_rational_twin_across_the_switch():
    # rows up to continued_from are re-centred from Z, later rows come from
    # the cumulant rates; measured max abs error 1.1e-16 on both sides
    raw = projected_moment_recursion_exact((1,), 2, 80, order=6)
    t = projected_moment_recursion([1.0], 2, 80, order=6)
    assert t.continued_from == 60
    want = np.zeros((81, 7))
    want[:, 0] = 1.0
    for n in range(1, 81):
        mu = raw[n][1]
        for m in range(1, 7):
            central = sum(math.comb(m, i) * raw[n][i] * (-mu) ** (m - i) for i in range(m + 1))
            want[n, m] = float(central) / n ** (m / 2)
    np.testing.assert_allclose(t.standardized, want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("projection, k", [((1.0,), 2), ((1.0, 0.0), 3), ((1.0, 1.0), 3)])
def test_standardized_kurtosis_ratio_rises_strictly(projection, k):
    # the 8th standardized moment over sigma^8 climbs toward the normal 105;
    # re-centering raw moments made it wander from n of about 1000 on
    std = projected_moment_recursion(projection, k, 5000).standardized
    ratio = std[50:, 8] / std[50:, 2] ** 4
    assert (np.diff(ratio) > 0).all()
    assert 104.5 < ratio[-1] < 105


def _full_recursion(monkeypatch, projection, k, n_max):
    """Raw and standardized tables of the centred recursion run to n_max, never continued."""
    with monkeypatch.context() as patch:
        patch.setattr(moments, "CONTINUATION_TOL", 0.0)
        t = projected_moment_recursion(projection, k, n_max)
    assert t.continued_from is None and t.cumulant_rates is None
    return t.raw, t.standardized


@pytest.mark.parametrize(
    "projection, k, n_max",
    [((1.0,) * (k - 1), k, n) for k, n in zip(range(2, 9), (2000, 1500, 300, 1000, 500, 700, 300))]
    + [((1.0, -1.0, 2.0), 4, 600)],
    ids=lambda v: str(v),
)
def test_continuation_matches_the_full_recursion(monkeypatch, projection, k, n_max):
    t = projected_moment_recursion(projection, k, n_max)
    n0 = t.continued_from
    assert n0 is not None and n0 < n_max
    raw, std = _full_recursion(monkeypatch, projection, k, n_max)
    # the rows up to the switch are the recursion's own
    assert np.array_equal(t.raw[: n0 + 1], raw[: n0 + 1])
    assert np.array_equal(t.standardized[: n0 + 1], std[: n0 + 1])
    # past it, within the switch constant in units of the standardized law
    sigma = std[n0 + 1 :, 2:3] ** 0.5
    gap = np.abs(t.standardized[n0 + 1 :] - std[n0 + 1 :]) / sigma ** np.arange(9)
    assert gap.max() < CONTINUATION_TOL
    np.testing.assert_allclose(t.standardized, std, rtol=0, atol=CONTINUATION_TOL)
    np.testing.assert_allclose(t.raw, raw, rtol=1e-12, atol=0)
    assert t.cumulant_rates[2] == pytest.approx(std[-1, 2] * n_max / (n_max + k), rel=1e-12)


@pytest.mark.parametrize("scale", [1e-7, 1e7])
def test_continuation_does_not_depend_on_the_scale_of_c(scale):
    unit = projected_moment_recursion([1.0, 2.0], 3, 400)
    scaled = projected_moment_recursion([scale, 2.0 * scale], 3, 400)
    assert scaled.continued_from == unit.continued_from is not None
    m = np.arange(9)
    # rows and orders whose value is 0 hold rounding: an absolute floor in units of c
    np.testing.assert_allclose(
        scaled.standardized / scale**m, unit.standardized, rtol=1e-12, atol=1e-13
    )
    np.testing.assert_allclose(scaled.raw / scale**m, unit.raw, rtol=1e-12, atol=0)


def _rational_cumulants(mom):
    kap = [Fraction(0)] * len(mom)
    for p in range(1, len(mom)):
        kap[p] = mom[p] - sum(math.comb(p - 1, j - 1) * kap[j] * mom[p - j] for j in range(1, p))
    return kap


@pytest.mark.parametrize("projection, k, top, bound", [((1,), 2, 6, 1e-25), ((1, 0), 3, 4, 1e-18)])
def test_rational_cumulants_are_affine_in_n_plus_k(projection, k, top, bound):
    # kappa_m(n) = kappa_m (n+k) + a remainder that dies faster than geometrically:
    # the rate read at n and LOOKBACK rows earlier agree ever more closely
    raw = projected_moment_recursion_exact(projection, k, 80, order=top)

    def gaps(n):
        now, before = _rational_cumulants(raw[n]), _rational_cumulants(raw[n - 10])
        return [abs(now[m] / (n + k) - before[m] / (n - 10 + k)) for m in range(1, top + 1)]

    at_80, at_60 = gaps(80), gaps(60)
    assert max(at_80) < bound
    assert all(late < early for late, early in zip(at_80, at_60))


def test_projected_rejects_bad_input():
    with pytest.raises(ValueError):
        projected_moment_recursion([1.0, 2.0], 2, 10)  # wrong length
    with pytest.raises(ValueError):
        projected_moment_recursion([1.0], 2, 10, order=1)
    with pytest.raises(OverflowError):
        projected_moment_recursion([1e40], 2, 400, order=8)


def test_arguments_past_their_bounds_are_rejected():
    with pytest.raises(ValueError, match=f"2..{MAX_K}"):
        mean_recursion(MAX_K + 1, 10)
    with pytest.raises(ValueError, match=f"0..{MAX_N_MAX}"):
        cross_moment_recursion(2, MAX_N_MAX + 1)
    with pytest.raises(ValueError, match=f"2..{MAX_ORDER}"):
        projected_moment_recursion([1.0], 2, 10, order=MAX_ORDER + 1)
    with pytest.raises(ValueError, match=f"2..{MAX_ORDER}"):
        projected_moment_recursion_exact([1], 2, 10, order=MAX_ORDER + 1)
    # the largest binomial weight of order MAX_ORDER is the last that is a double
    assert math.comb(MAX_ORDER, MAX_ORDER // 2) < sys.float_info.max
    assert math.comb(MAX_ORDER + 1, (MAX_ORDER + 1) // 2) > sys.float_info.max


@pytest.mark.parametrize("order", [0, 1, 2, 8, 57, 200])
def test_binomial_rows_are_math_comb(order):
    rows = _binomial_rows(order)
    want = [[math.comb(m, i) for i in range(order + 1)] for m in range(order + 1)]
    assert np.array_equal(rows, np.array(want, float))


_SMALL_RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=8)


@settings(max_examples=50)
@given(
    samples=st.lists(st.lists(_SMALL_RATIONALS, min_size=1, max_size=12), min_size=1, max_size=4),
    about=_SMALL_RATIONALS,
    order=st.integers(1, 10),
)
def test_recenter_matches_exact_central_moments(samples, about, order):
    """Each row: the moments of one sample about ``about``, against exact central moments.

    The tolerance is relative to the summed magnitudes of the expansion's
    terms, the size of the rounding the re-centering can make.
    """
    def moments_about(xs, a):
        return [sum((x - a) ** p for x in xs) / len(xs) for p in range(order + 1)]

    about_point = np.array([[float(v) for v in moments_about(xs, about)] for xs in samples])
    got = _recenter(about_point, _binomial_rows(order))
    for xs, row, mom in zip(samples, got, about_point):
        want = moments_about(xs, sum(xs) / len(xs))
        for m in range(order + 1):
            terms = sum(
                math.comb(m, i) * abs(mom[i]) * abs(mom[1]) ** (m - i) for i in range(m + 1)
            )
            assert abs(row[m] - float(want[m])) <= 1e-13 * terms, (m, row[m], want[m])


def test_averaging_limit_k2():
    res = averaging_recursion_limit(alpha=2.0, beta=3.0, k=2, n_max=50_000)
    assert res.predicted_limit == 4.0
    assert res.gap < 1e-3


def test_averaging_zero_forcing_stays_zero():
    res = averaging_recursion_limit(alpha=0.0, beta=2.0, k=3, n_max=2_000)
    assert res.a_final == 0.0
    assert res.gap == 0.0


def test_averaging_requires_beta_above_one():
    with pytest.raises(ValueError):
        averaging_recursion_limit(alpha=1.0, beta=1.0, k=2, n_max=100)


@pytest.mark.parametrize(
    "alpha, beta, k, N",
    [(1.0, 2.0, 2, 100_000), (2.0, 3.0, 2, 50_000), (0.0, 2.0, 3, 2000), (1.0, 2.5, 5, 3001)],
)
def test_averaging_ring_of_k_slots_keeps_the_bits_of_every_row(alpha, beta, k, N):
    res = averaging_recursion_limit(alpha, beta, k, N)
    assert res.a_final == oracles.averaging_recursion_final(alpha, beta, k, N)


def test_averaging_holds_k_values_not_n_max():
    tracemalloc.start()
    try:
        averaging_recursion_limit(1.0, 2.0, 2, 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_averaging_matches_literal_sum():
    # O(N^2) restatement of the same recursion
    alpha, beta, k, N = 1.0, 2.0, 2, 800
    a = [0.0] * (N + 1)
    for n in range(k + 1, N + 1):
        s = sum((j / n) ** beta * a[j] for j in range(0, n - k + 1))
        a[n] = alpha + 2.0 * s / (n - k + 1)
    res = averaging_recursion_limit(alpha, beta, k, N)
    assert res.a_final == pytest.approx(a[N], rel=1e-13)


def test_drift_bound_small_values_k2():
    res = mean_drift_bound(2, 200)
    # max over j of |g_j + g_{2-j} - g_4|: j=1 gives |1 + 1 - 2/3| = 4/3
    assert res.per_n[4] == pytest.approx(4 / 3, rel=1e-12)
    assert res.sup == pytest.approx(4 / 3, rel=1e-12)


def test_drift_bound_tail_settles():
    res = mean_drift_bound(3, 400)
    tail = res.per_n[100:]
    assert np.all(np.diff(tail) <= 1e-12)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 9, 17, 33, 64])
def test_drift_bound_blocks_keep_the_bits_of_a_per_n_loop(k):
    # the name dates from the 32-row blocks, kept so the cases keep their ids;
    # k = 9 and 17 sum 8 or more columns, numpy's pairwise order
    sizes = {0, 1, k - 1, k, k + 1, k + 2, 2 * k + 1, 63, 64, 65, 257, 400}
    sizes |= {1000} if k <= 9 else set()
    sizes |= {2000} if k <= 3 else set()
    sizes |= {5000} if k == 2 else set()
    for n_max in sorted(sizes):
        want = oracles.drift_per_n(k, n_max)
        res = mean_drift_bound(k, n_max)
        assert np.array_equal(res.per_n, want), n_max
        assert res.sup == want.max()


def test_drift_bound_holds_one_row_vector_per_pass():
    tracemalloc.start()
    try:
        mean_drift_bound(3, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the mean table and a pass's (n_max+1, k-1) drift array take 16 KB each
    assert peak < 200_000
