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
    DEFAULT_OUTER_NODES,
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
        lambda: asy.mean_gf([0.5], k),
        lambda: asy.cov_kernel([0.5], k, [0.1] * (k - 1)),
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
            cov_kernel(y, 3, [0.1, 0.1])


def test_mean_gf_closed_form_k2():
    z = np.array([0.2, 0.5, 0.8])
    want = np.exp(-2 * z) / (1 - z) ** 2 - 1
    assert mean_gf(z, 2)[:, 0] == pytest.approx(want, rel=1e-11)


def test_cov_kernel_symmetric_in_indices():
    rates = rates_by_quadrature(3)
    value, _ = cov_kernel([0.1, 0.4, 0.7, 0.95], 3, rates)
    assert value[:, 0, 1] == pytest.approx(value[:, 1, 0], rel=1e-14, abs=1e-14)


@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_cov_kernel_matches_scalar_reference(k):
    # the array kernel against a term-by-term scalar evaluation; the two
    # differ only in rounding, which the largest piece bounds
    rates = rates_by_quadrature(k)
    ys = [0.05, 0.3, 0.7, 0.95, 0.999]
    value, pieces = cov_kernel(ys, k, rates)
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


def test_cov_diagnostics_report_cancellation():
    # the kernel vanishes at y=1 while its pieces do not: at default nodes
    # the error estimate stays tiny and no entry misses 1e-8 in the unit of
    # its row and column, near-zero off-diagonal entries included
    for k in range(2, 65):
        res = cov_rates_by_quadrature(k)
        assert np.max(res.est_abs_error) < 1e-10
        assert not res.flagged.any()
    # 1024 nodes crowd y=1, where the pieces grow like (1-y)^-2: the k=2
    # entry is off by only 7.9e-12, but the estimate, about 4e-8, is beyond
    # 1e-8 relative and must say so
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
    kernel, _ = cov_kernel(rule.nodes, k, rates, rule)
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
