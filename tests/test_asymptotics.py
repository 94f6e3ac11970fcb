"""Limiting constants: quadrature route, kernel structure, fixed point."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import spacings.asymptotics as asy
import spacings.moments as moments
from spacings.asymptotics import (
    DEFAULT_INNER_NODES,
    MAX_RULE_NODES,
    GaussLegendreRule,
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


@given(
    nodes=st.integers(min_value=2, max_value=12),
    coeffs=st.lists(
        st.floats(min_value=-4, max_value=4, allow_nan=False),
        min_size=1,
        max_size=8,
    ),
)
def test_rule_integrates_polynomials_exactly(nodes, coeffs):
    # degree cap 2*nodes - 1
    coeffs = coeffs[: 2 * nodes]
    rule = GaussLegendreRule.make(nodes)
    got = float(rule.weights @ sum(c * rule.nodes**m for m, c in enumerate(coeffs)))
    want = sum(c / (m + 1) for m, c in enumerate(coeffs))
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_rule_is_built_once_and_read_only():
    rule = GaussLegendreRule.make(128)
    assert GaussLegendreRule.make(128) is rule
    assert GaussLegendreRule.make(64) is not rule
    with pytest.raises(ValueError):
        rule.nodes[0] = 0.5
    with pytest.raises(ValueError):
        rule.weights[0] = 0.5


def test_rule_node_count_is_bounded():
    # checked before leggauss allocates its n x n matrix; never built here
    with pytest.raises(ValueError, match=f"2..{MAX_RULE_NODES} nodes"):
        GaussLegendreRule.make(MAX_RULE_NODES + 1)
    with pytest.raises(ValueError):
        GaussLegendreRule.make(1)


def test_quadrature_entry_points_bound_k():
    k = moments.MAX_K + 1
    calls = [
        lambda: asy.rates_by_quadrature(k),
        lambda: asy.cov_rates_by_quadrature(k),
        lambda: asy.vacancy_rate_by_quadrature(k),
        lambda: asy.mean_gf(0.5, 1, k),
        lambda: asy.cov_kernel(0.5, 1, 1, k, [0.1] * (k - 1)),
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
    assert mean_gf(0.0, 1, 3) == 0.0
    with pytest.raises(ValueError):
        mean_gf(1.0, 1, 3)
    with pytest.raises(ValueError):
        mean_gf(-0.1, 1, 3)
    with pytest.raises(ValueError):
        mean_gf(0.5, 3, 3)  # spacing length out of range


def test_mean_gf_closed_form_k2():
    for z in (0.2, 0.5, 0.8):
        want = math.exp(-2 * z) / (1 - z) ** 2 - 1
        assert mean_gf(z, 1, 2) == pytest.approx(want, rel=1e-11)


def test_cov_kernel_symmetric_in_indices():
    rates = rates_by_quadrature(3)
    for y in (0.1, 0.4, 0.7, 0.95):
        a, _ = cov_kernel(y, 1, 2, 3, rates)
        b, _ = cov_kernel(y, 2, 1, 3, rates)
        assert a == pytest.approx(b, rel=1e-14, abs=1e-14)


@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_cov_kernel_matches_scalar_reference(k):
    # the array kernel against a term-by-term scalar evaluation; the two
    # differ only in rounding, which the largest piece bounds
    rates = rates_by_quadrature(k)
    for y in (0.05, 0.3, 0.7, 0.95, 0.999):
        for i in range(1, k):
            for j in range(1, k):
                value, max_term = cov_kernel(y, i, j, k, rates)
                want = oracles.cov_kernel_at(y, i, j, k, rates, DEFAULT_INNER_NODES)
                assert abs(value - want) <= 1e-13 * max_term


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_cov_matrix_symmetric_psd(k):
    res = cov_rates_by_quadrature(k)
    m = res.matrix
    assert np.allclose(m, m.T, rtol=0, atol=1e-14)
    eigs = np.linalg.eigvalsh(m)
    assert eigs.min() > -1e-12


def test_cov_diagnostics_report_cancellation():
    # the kernel vanishes at y=1 while its pieces do not: at default nodes
    # the error estimate stays tiny and no entry misses 1e-8 relative
    for k in range(2, 9):
        res = cov_rates_by_quadrature(k)
        assert np.max(res.est_abs_error) < 1e-10
        assert not res.flagged.any()
    # 1024 nodes crowd y=1, where the pieces grow like (1-y)^-2: the k=2
    # entry is off by about 2e-9, beyond 1e-8 relative, and must say so
    assert cov_rates_by_quadrature(2, GaussLegendreRule.make(1024)).flagged.any()


@pytest.mark.parametrize("nodes", [64, 128, 256, 512, 1024])
def test_cov_error_estimate_covers_closed_form_k2(nodes):
    res = cov_rates_by_quadrature(2, GaussLegendreRule.make(nodes))
    actual = abs(res.matrix[0, 0] - 4.0 * math.exp(-4.0))
    assert res.est_abs_error[0, 0] >= actual


def test_cov_kernel_is_the_quadrature_integrand():
    k = 3
    rule = GaussLegendreRule.make(32)
    rates = rates_by_quadrature(k, rule)
    res = cov_rates_by_quadrature(k, rule)
    weight = 2.0 / exp_weight(1.0, k) * rule.weights * exp_weight(rule.nodes, k)
    for i in (1, 2):
        for j in (1, 2):
            kernel = [cov_kernel(float(y), i, j, k, rates)[0] for y in rule.nodes]
            assert weight @ kernel == pytest.approx(res.matrix[i - 1, j - 1], rel=1e-13)


def test_quadrature_and_extrapolation_agree():
    for k in (2, 3):
        q = constants_by_quadrature(k)
        e = constants_by_extrapolation(k, n_max=400)
        assert q.rates == pytest.approx(e.rates, abs=1e-8)
        assert q.cov_rates == pytest.approx(e.cov_rates, abs=1e-7)
        assert q.vacancy_rate == pytest.approx(e.vacancy_rate, abs=1e-8)
        assert q.provenance == "quadrature"
        assert e.provenance == "extrapolation"


@pytest.mark.parametrize("k", range(2, 9))
def test_extrapolation_shares_its_mean_table(k):
    # the constants carry the covariance rates of cov_rates_by_extrapolation,
    # bit for bit; its rates and covariances read equal (k, n_max) mean
    # tables, each built where it is used, none handed over
    want = moments.cov_rates_by_extrapolation(k, 300).value
    assert np.array_equal(constants_by_extrapolation(k, 300).cov_rates, want)


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
