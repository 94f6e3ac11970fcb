"""Limiting constants: quadrature route, kernel structure, fixed point."""
from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import spacings.asymptotics as asy
import spacings.moments as moments
from spacings.asymptotics import (
    DEFAULT_OUTER_NODES,
    _rule,
    cf_fixed_point_residual,
    cf_residual,
    constants_by_extrapolation,
    constants_by_quadrature,
    cov_kernel,
    cov_rates_by_quadrature,
    exp_weight,
    mean_gf,
    rates_by_quadrature,
    vacancy_rate_by_quadrature,
)


def test_rule_integrates_polynomials_exactly():
    # exact through degree 2 * nodes - 1 = 127, so every monomial x^m there
    # integrates to 1/(m+1) up to rounding, which grows with m: 5.0e-14
    # relative at m = 127, inside the 1e-13 asserted
    nodes, weights = _rule()
    assert len(nodes) == DEFAULT_OUTER_NODES
    for m in range(2 * DEFAULT_OUTER_NODES):
        assert float(weights @ nodes**m) == pytest.approx(1.0 / (m + 1), rel=1e-13, abs=0.0)


def test_rule_is_built_once_and_read_only():
    nodes, weights = _rule()
    again = _rule()
    assert again[0] is nodes and again[1] is weights
    with pytest.raises(ValueError):
        nodes[0] = 0.5
    with pytest.raises(ValueError):
        weights[0] = 0.5


def test_quadrature_entry_points_bound_k():
    k = moments.MAX_K + 1
    calls = [
        lambda: asy.rates_by_quadrature(k),
        lambda: asy.cov_rates_by_quadrature(k),
        lambda: asy.vacancy_rate_by_quadrature(k),
        lambda: asy.mean_gf([0.5], k),
        lambda: asy.cov_kernel([0.5], k),
        lambda: asy.constants_by_quadrature(k),
        lambda: asy.constants_by_extrapolation(k),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"2..{moments.MAX_K}, got {k}"):
            call()


def test_exp_weight_closed_form_k2():
    y = np.linspace(0.0, 1.0, 7)
    assert exp_weight(y, 2) == pytest.approx(np.exp(2 * y), rel=1e-14)
    assert float(exp_weight(0.0, 5)) == 1.0


def test_spacing_rate_k2_is_exp_minus_two():
    rates = rates_by_quadrature(2)
    assert rates.shape == (1,)
    assert rates[0] == pytest.approx(math.exp(-2), abs=1e-12)


def test_vacancy_rate_k2_equals_spacing_rate():
    # only length-1 spacings exist at k=2, so both constants coincide
    assert vacancy_rate_by_quadrature(2) == pytest.approx(math.exp(-2), abs=1e-12)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_vacancy_identity_all_k(k):
    c = constants_by_quadrature(k)
    assert c.identity_gap() < 1e-12


def test_mean_gf_domain():
    assert mean_gf([0.0], 3).tolist() == [[0.0, 0.0]]
    for y in ([0.5, 1.0], [-0.1], [np.nan]):
        with pytest.raises(ValueError, match="0 <= y < 1"):
            mean_gf(y, 3)
    for y in (0.5, [[0.5]]):  # the points are one 1-D array
        with pytest.raises(ValueError, match="1-D array"):
            mean_gf(y, 3)
        with pytest.raises(ValueError, match="1-D array"):
            cov_kernel(y, 3)


def test_mean_gf_closed_form_k2():
    z = np.array([0.2, 0.5, 0.8])
    want = np.exp(-2 * z) / (1 - z) ** 2 - 1
    assert mean_gf(z, 2)[:, 0] == pytest.approx(want, rel=1e-11)


def test_cov_kernel_symmetric_in_indices():
    value, _ = cov_kernel([0.1, 0.4, 0.7, 0.95], 3)
    assert value[:, 0, 1] == pytest.approx(value[:, 1, 0], rel=1e-14, abs=1e-14)


@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_cov_kernel_matches_scalar_reference(k):
    # the array kernel against a term-by-term scalar evaluation; the two
    # differ only in rounding, which the largest piece bounds
    rates = rates_by_quadrature(k)
    ys = [0.05, 0.3, 0.7, 0.95, 0.999]
    value, pieces = cov_kernel(ys, k)
    max_term = pieces.max(axis=0)
    for n, y in enumerate(ys):
        for i in range(1, k):
            for j in range(1, k):
                want = oracles.cov_kernel_at(y, i, j, k, rates, DEFAULT_OUTER_NODES)
                got = value[n, i - 1, j - 1]
                assert abs(got - want) <= 1e-13 * max_term[n, i - 1, j - 1]


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_cov_matrix_symmetric_psd(k):
    res = cov_rates_by_quadrature(k)
    m = res.matrix
    assert np.allclose(m, m.T, rtol=0, atol=1e-14)
    eigs = np.linalg.eigvalsh(m)
    assert eigs.min() > -1e-12


def test_cov_diagnostics_report_cancellation(monkeypatch):
    # the kernel vanishes at y=1 while its pieces do not: at default nodes
    # the error estimate stays tiny and no entry misses 1e-8 in the unit of
    # its row and column, near-zero off-diagonal entries included
    for k in range(2, 65):
        res = cov_rates_by_quadrature(k)
        assert np.max(res.est_abs_error) < 1e-10
        assert not res.flagged.any()
    # at k=2 the estimate, about 1.1e-11, is 1.5e-10 of the variance rate
    # 0.073: a tolerance below that ratio must flag the entry, and the
    # diagnostics must say so
    monkeypatch.setattr(asy, "COV_REL_TOL", 1e-10)
    assert cov_rates_by_quadrature(2).flagged.any()
    assert constants_by_quadrature(2).diagnostics["cancellation_flagged"] is True


@pytest.mark.parametrize("nodes", [64])
def test_cov_error_estimate_covers_closed_form_k2(nodes):
    assert nodes == DEFAULT_OUTER_NODES
    res = cov_rates_by_quadrature(2)
    actual = abs(res.matrix[0, 0] - 4.0 * math.exp(-4.0))
    assert res.est_abs_error[0, 0] >= actual


def test_cov_kernel_is_the_quadrature_integrand():
    k = 3
    nodes, weights = _rule()
    res = cov_rates_by_quadrature(k)
    weight = 2.0 / exp_weight(1.0, k) * weights * exp_weight(nodes, k)
    kernel, _ = cov_kernel(nodes, k)
    for i in (1, 2):
        for j in (1, 2):
            got = weight @ kernel[:, i - 1, j - 1]
            assert got == pytest.approx(res.matrix[i - 1, j - 1], rel=1e-13)


def test_quadrature_and_extrapolation_agree():
    for k in (2, 3):
        q = constants_by_quadrature(k)
        e = constants_by_extrapolation(k)
        assert q.rates == pytest.approx(e.rates, abs=1e-8)
        assert q.cov_rates == pytest.approx(e.cov_rates, abs=1e-7)
        assert q.vacancy_rate == pytest.approx(e.vacancy_rate, abs=1e-8)
        assert q.provenance == "quadrature"
        assert e.provenance == "extrapolation"


@pytest.mark.parametrize("k", [*range(2, 9), 33])
def test_extrapolation_shares_its_mean_table(k):
    # both rates are read from the rows of one pass of the cross loop, at the
    # row t where it settles: the bits of a deeper cross table and of the
    # mean table at t
    table = moments.cross_moment_recursion(k, 40 * k)
    t = table.continued_from
    c = constants_by_extrapolation(k)
    assert c.diagnostics == {"continued_from": t}
    assert np.array_equal(c.cov_rates, table.cov_rate(t))
    assert np.array_equal(c.rates, moments.mean_recursion(k, t).rate(t))


@pytest.mark.parametrize("k", [*range(2, 9), 16, 24, 32, 48, 64])
def test_extrapolation_meets_quadrature_within_its_error(k):
    # the settled rates are as good as the quadrature's own error estimate;
    # the kernel's pieces cancel as far as the outer and the mean_gf
    # integrals agree, and one rule serves both, so the quadrature is
    # within 1e-12 and flags nothing
    q = constants_by_quadrature(k)
    e = constants_by_extrapolation(k)
    gap = np.abs(e.cov_rates - q.cov_rates).max()
    assert gap < q.diagnostics["cov_est_abs_error"] + 1e-15
    assert gap < 1e-12
    assert abs(e.vacancy_rate - q.vacancy_rate) < 5e-14
    assert np.abs(e.rates - q.rates).max() < 1e-15
    assert q.diagnostics["nodes"] == DEFAULT_OUTER_NODES
    assert not q.diagnostics["cancellation_flagged"]


@pytest.mark.parametrize("k", [2, 3, 5, 8, 16, 64])
def test_rates_and_vacancy_meet_the_weights_power_series(k):
    # the series oracle sums to 40 digits; measured gaps: extrapolation up to
    # 1.1e-16 absolute, quadrature rates 1.0e-14 relative, vacancy 2.5e-14
    rates, vacancy = oracles.series_constants(k)
    want, want_vacancy = np.array([float(r) for r in rates]), float(vacancy)
    e = constants_by_extrapolation(k)
    assert np.abs(e.rates - want).max() <= 2.5e-16
    assert abs(e.vacancy_rate - want_vacancy) <= 2.5e-16
    assert np.all(np.abs(rates_by_quadrature(k) - want) <= 5e-14 * want)
    assert abs(vacancy_rate_by_quadrature(k) - want_vacancy) <= 1e-13


@pytest.mark.parametrize("k", [3, 4, 5])
def test_rational_twin_cov_rates_meet_both_routes(k):
    # the rational twins' covariance rates at n = 100, rounded once; they
    # have settled, moving by less than 1e-18 from n = 90, so they meet the
    # extrapolation within 1e-15 absolute and the quadrature within its own
    # cov_est_abs_error
    n, d = 100, k - 1
    g = moments.mean_recursion_exact(k, n)
    second = moments.cross_moment_recursion_exact(k, n)

    def cov_rate(m):
        return [
            [(second[m][i][j] - g[m][i] * g[m][j]) / (m + k) for j in range(d)] for i in range(d)
        ]

    twin, earlier = cov_rate(n), cov_rate(n - 10)
    assert max(abs(float(a - b)) for ra, rb in zip(twin, earlier) for a, b in zip(ra, rb)) < 1e-18
    twin = np.array(twin, dtype=float)
    assert np.abs(twin - constants_by_extrapolation(k).cov_rates).max() <= 1e-15
    q = constants_by_quadrature(k)
    assert np.abs(twin - q.cov_rates).max() <= q.diagnostics["cov_est_abs_error"]


_TWIN_ENTRIES = [
    (k, i, j)
    for k, middle in [(16, (7, 8)), (32, (15, 16)), (64, (31, 32))]
    for i, j in [(1, 1), (k - 1, k - 1), (1, k - 1), middle]
]


@functools.cache
def _cov_twin(k, i, j):
    rate, drift = oracles.cov_rate_twin(k, i, j)
    return float(rate), float(drift)


@functools.cache
def _extrapolated_cov_rates(k):
    return constants_by_extrapolation(k).cov_rates


@pytest.mark.parametrize("k, i, j", _TWIN_ENTRIES)
def test_extrapolated_cov_rates_meet_the_decimal_twin(k, i, j):
    # the 30-digit twin has settled: it moves by less than 1e-22 of the unit
    # over its last k rows.  Measured gaps, worst per k: 1.9e-15, 3.2e-15 and
    # 1.5e-15 at k = 16, 32 and 64 (2.6e-14, 3.4e-14 and 5.3e-13 when the
    # rates were read where a settle trial stopped)
    twin, drift = _cov_twin(k, i, j)
    e = _extrapolated_cov_rates(k)
    unit = math.sqrt(abs(e[i - 1, i - 1] * e[j - 1, j - 1]))
    assert drift < 1e-20 * unit
    assert abs(e[i - 1, j - 1] - twin) < 1e-14 * unit


@pytest.mark.parametrize("k, i, j", _TWIN_ENTRIES)
def test_quadrature_cov_rates_meet_the_decimal_twin_within_their_error(k, i, j):
    twin, _ = _cov_twin(k, i, j)
    q = cov_rates_by_quadrature(k)
    assert abs(q.matrix[i - 1, j - 1] - twin) <= q.est_abs_error[i - 1, j - 1]


T_GRID = np.linspace(-5, 5, 41)


def test_normal_cf_solves_fixed_point():
    assert cf_fixed_point_residual(1.0, T_GRID) < 1e-12
    assert cf_fixed_point_residual(0.25, T_GRID) < 1e-12
    assert cf_fixed_point_residual(0.0, T_GRID) < 1e-12


def test_heavy_tailed_cf_fails_fixed_point():
    res = cf_residual(lambda s: np.exp(-np.abs(s)), T_GRID)
    assert res > 1e-3


@settings(max_examples=20)
@given(sigma2=st.floats(min_value=0.0, max_value=9.0, allow_nan=False))
def test_fixed_point_holds_for_every_variance(sigma2):
    assert cf_fixed_point_residual(sigma2, T_GRID) < 1e-11


@pytest.mark.parametrize("variance", [-1.0, math.nan, math.inf])
def test_fixed_point_refuses_what_is_not_a_variance(variance):
    # nan would come back as a nan residual and inf as 0.0, which reads as
    # "the fixed point holds"
    with pytest.raises(ValueError, match="variance"):
        cf_fixed_point_residual(variance, T_GRID)


@pytest.mark.parametrize("t_grid", [[], 2.0, [[1.0, 2.0]]])
def test_cf_residual_refuses_a_grid_with_no_points_or_not_1d(t_grid):
    with pytest.raises(ValueError, match="t_grid"):
        cf_residual(lambda s: np.exp(-np.abs(s)), t_grid)
