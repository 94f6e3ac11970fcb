"""Limiting constants of the block-placement process by quadrature.

The expected number of length-j spacings on a row of n hooks grows like
rate_j * (n + k), and the covariances like cov_rate_ij * (n + k).  Both
limits have closed integral forms against the weight

    exp_weight(y, k) = exp(2 * (y + y^2/2 + ... + y^(k-1)/(k-1))),

which this module evaluates with one Gauss-Legendre rule: the same nodes
serve the outer integrals and, scaled onto [0, y], the inner integral of
``mean_gf``.  The covariance kernel is the bounded difference of two pieces
that each grow like (1-y)^-2 near y = 1; with one rule their quadrature
errors cancel along with them, and ``cov_rates_by_quadrature`` estimates
the rounding that is left.
``mean_gf`` and ``cov_kernel`` evaluate the integrands at an array of points.

An independent route to the same constants is finite-n recursion plus
extrapolation (:mod:`spacings.moments`); ``constants_by_extrapolation`` and
``constants_by_quadrature`` package the two for side-by-side comparison.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import moments
from .moments import _check_k, _pair_columns, _settled_rows

__all__ = [
    "GaussLegendreRule",
    "exp_weight",
    "rates_by_quadrature",
    "mean_gf",
    "cov_kernel",
    "cov_rates_by_quadrature",
    "vacancy_rate_by_quadrature",
    "cf_fixed_point_residual",
    "cf_residual",
    "AsymptoticConstants",
    "CovQuadrature",
    "constants_by_quadrature",
    "constants_by_extrapolation",
    "DEFAULT_OUTER_NODES",
    "MAX_RULE_NODES",
    "COV_REL_TOL",
]

# one rule for every integral here; the kernel's pieces cancel only as far
# as the outer and the inner integrals agree
DEFAULT_OUTER_NODES = 64
# leggauss(n) eigensolves an n x n matrix: 4096 nodes take about 134 MB
MAX_RULE_NODES = 4096
# relative accuracy callers need from the covariance quadrature (check 02)
COV_REL_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class GaussLegendreRule:
    """Gauss-Legendre nodes and weights mapped onto [0, 1].

    Nodes are strictly interior and weights are positive and sum to 1, so
    integrands may blow up at the endpoints without ever being evaluated
    there.  Integrate f over [0, 1] as ``weights @ f(nodes)``.
    """

    nodes: np.ndarray
    weights: np.ndarray

    @classmethod
    @functools.lru_cache(maxsize=16)
    def make(cls, n: int) -> "GaussLegendreRule":
        """The n-node rule, built on first use and shared by every later caller.

        Its arrays are read-only, since every caller holds the same ones.
        """
        if not 2 <= n <= MAX_RULE_NODES:
            raise ValueError(f"a Gauss-Legendre rule takes 2..{MAX_RULE_NODES} nodes, got {n}")
        x, w = np.polynomial.legendre.leggauss(n)
        nodes, weights = (x + 1.0) / 2.0, w / 2.0
        nodes.flags.writeable = weights.flags.writeable = False
        return cls(nodes, weights)


def exp_weight(y, k: int):
    """exp(2 * sum_{m=1}^{k-1} y^m / m), the weight behind every limit here."""
    y = np.asarray(y, dtype=float)
    acc = np.zeros_like(y)
    term = np.ones_like(y)
    for m in range(1, k):
        term = term * y
        acc += term / m
    out = np.exp(2.0 * acc)
    return out if out.ndim else float(out)


def _exp_weight_at_one(k: int) -> float:
    return math.exp(2.0 * sum(1.0 / m for m in range(1, k)))


def rates_by_quadrature(k: int, rule: GaussLegendreRule | None = None) -> np.ndarray:
    """Limiting per-hook rates of length-j spacings, j = 1..k-1.

    rate_j = 2/exp_weight(1) * integral_0^1 (1-y) y^j exp_weight(y) dy.
    """
    _check_k(k)
    rule = rule or GaussLegendreRule.make(DEFAULT_OUTER_NODES)
    y, w = rule.nodes, rule.weights
    base = w * (1.0 - y) * exp_weight(y, k)
    scale = 2.0 / _exp_weight_at_one(k)
    return np.array([scale * float(base @ y**j) for j in range(1, k)])


def mean_gf(y, k: int, rule: GaussLegendreRule | None = None) -> np.ndarray:
    """Generating functions of the expected spacing counts at each point of y.

    gf[n, i-1] = 2 (1-y)^-2 exp_weight(y)^-1 * integral_0^y t^i (1-t) exp_weight(t) dt
    for i = 1..k-1 and the 1-D points 0 <= y[n] < 1; the coefficient of
    y^(n-k+1) in its series is the expected number of length-i spacings on
    a row of n hooks.  The rule is mapped onto [0, y] at every point at
    once; writing t^i = y^i x^i keeps every temporary at points x nodes
    floats.
    """
    _check_k(k)
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"the kernels take a 1-D array of points, got shape {y.shape}")
    outside = y[~((0.0 <= y) & (y < 1.0))]
    if outside.size:
        raise ValueError(f"the kernels need 0 <= y < 1, got y={outside[0]}")
    rule = rule or GaussLegendreRule.make(DEFAULT_OUTER_NODES)
    x = rule.nodes
    t = y[:, None] * x[None, :]
    f = (1.0 - t) * exp_weight(t, k) * rule.weights
    powers = np.arange(1, k)
    # y^i from t^i = y^i x^i, and one more y for the width of [0, y]
    integral = y[:, None] ** (powers + 1) * (f @ x[:, None] ** powers)
    return 2.0 * integral / ((1.0 - y) ** 2 * exp_weight(y, k))[:, None]


def cov_kernel(
    y, k: int, rates: Sequence[float], rule: GaussLegendreRule | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Covariance kernel at each point of y and (i, j) pair, and its pieces.

    The kernel combines a diagonal piece, a product of mean generating
    functions, and a rate-correction polynomial divided by (1-y)^2; the last
    two diverge separately as y -> 1 while their difference stays bounded.
    Returns (value, pieces), both exactly symmetric in (i, j): value[n, i-1,
    j-1] is the kernel at y[n], and pieces[:, n, i-1, j-1] holds the
    magnitudes of its diagonal, product and rate-correction pieces.  The
    points are checked by ``mean_gf``, which integrates with ``rule``.
    """
    gf = mean_gf(y, k, rule)
    y = np.asarray(y, dtype=float)
    d = k - 1
    w = 1.0 - y
    yi = y[:, None] ** np.arange(1, k)
    b = yi + (y ** (k - 1))[:, None] * gf
    diag = np.zeros((len(y), d, d))
    diag[:, range(d), range(d)] = w[:, None] * yi
    prod = (w * w)[:, None, None] * (b[:, :, None] * b[:, None, :])
    # polynomial part of the rate correction, written in w = 1 - y
    lead = 3.0 + (4 * k - 5) * w + 2.0 * (k - 1) ** 2 * w * w - 2.0 * k * k * w**4
    trail = 2.0 + (4 * k - 3) * w + (2 * k - 1) ** 2 * w * w - 4.0 * k * k * w**3
    r = np.asarray(rates, dtype=float)[:d]
    corr = np.outer(r, r) * ((lead - trail * y**k) / (w * w))[:, None, None]
    return diag + prod - corr, np.abs(np.stack([diag, prod, corr]))


@dataclass(frozen=True)
class CovQuadrature:
    """Covariance rates from one quadrature, with their error diagnostics per (i, j)."""

    matrix: np.ndarray
    flagged: np.ndarray  # est_abs_error > COV_REL_TOL * sqrt(|matrix_ii matrix_jj|)
    est_abs_error: np.ndarray  # rounding and inherited input error


def cov_rates_by_quadrature(k: int, rule: GaussLegendreRule | None = None) -> CovQuadrature:
    """Limiting covariance rates cov_rate_ij by quadrature of the kernel.

    cov_rate_ij = 2/exp_weight(1) * integral_0^1 kernel_ij(y) exp_weight(y) dy,
    with the rates in the kernel's rate correction from
    ``rates_by_quadrature(k, rule)`` and its mean generating functions from
    ``mean_gf`` on the same rule.

    Returns the matrix with, per entry, an estimate of the absolute error
    carried to the integral.
    At each node that estimate takes eps times the largest piece, plus the
    relative error the product piece inherits from the mean generating
    function, 2 (nodes + k + 6) eps, and the one the rate correction
    inherits from the rates, 2 (k + 6) eps.  An entry is flagged when the
    estimate exceeds ``COV_REL_TOL`` in the unit of its row and column,
    sqrt(|matrix_ii matrix_jj|), so a near-zero off-diagonal entry is
    judged against the variances it is a covariance of.
    """
    _check_k(k)
    rule = rule or GaussLegendreRule.make(DEFAULT_OUTER_NODES)
    rates = rates_by_quadrature(k, rule)
    value, pieces = cov_kernel(rule.nodes, k, rates, rule)
    weight = 2.0 / _exp_weight_at_one(k) * rule.weights * exp_weight(rule.nodes, k)
    eps = np.finfo(float).eps
    node_err = eps * (
        pieces.max(axis=0) + 2 * (len(rule.nodes) + k + 6) * pieces[1] + 2 * (k + 6) * pieces[2]
    )
    matrix = np.tensordot(weight, value, axes=1)
    err = np.tensordot(weight, node_err, axes=1)
    sd = np.sqrt(np.abs(np.diag(matrix)))
    return CovQuadrature(matrix, err > COV_REL_TOL * np.outer(sd, sd), err)


def vacancy_rate_by_quadrature(k: int, rule: GaussLegendreRule | None = None) -> float:
    """Limiting fraction of hooks left free, relative to n + k.

    Equals 1 - k/exp_weight(1) * integral_0^1 exp_weight(y) dy, and also
    sum_j j * rate_j; agreement of the two is a standing identity check.
    """
    _check_k(k)
    rule = rule or GaussLegendreRule.make(DEFAULT_OUTER_NODES)
    integral = float(rule.weights @ exp_weight(rule.nodes, k))
    return 1.0 - k * integral / _exp_weight_at_one(k)


def cf_residual(
    psi: Callable[[np.ndarray], np.ndarray],
    t_grid: Sequence[float],
    rule: GaussLegendreRule | None = None,
) -> float:
    """Max gap between psi and its split-average over the given t grid.

    The split identity forces any limiting characteristic function to solve
    psi(t) = integral_0^1 psi(sqrt(u) t) psi(sqrt(1-u) t) du; the residual is
    zero exactly for centered normal characteristic functions.
    """
    rule = rule or GaussLegendreRule.make(DEFAULT_OUTER_NODES)
    u, w = rule.nodes, rule.weights
    t = np.asarray(t_grid, dtype=float)
    left = psi(np.sqrt(u)[:, None] * t[None, :])
    right = psi(np.sqrt(1.0 - u)[:, None] * t[None, :])
    averaged = w @ (left * right)
    return float(np.abs(averaged - psi(t)).max())


def cf_fixed_point_residual(
    variance: float,
    t_grid: Sequence[float],
    rule: GaussLegendreRule | None = None,
) -> float:
    """Split-average residual of the centered normal cf exp(-variance t^2 / 2)."""
    if variance < 0:
        raise ValueError("variance must be >= 0")
    return cf_residual(lambda t: np.exp(-0.5 * variance * t * t), t_grid, rule)


@dataclass(frozen=True)
class AsymptoticConstants:
    """Limiting constants for one k, tagged with how they were obtained."""

    k: int
    rates: np.ndarray
    cov_rates: np.ndarray
    vacancy_rate: float
    provenance: str  # "quadrature" or "extrapolation"
    diagnostics: dict = field(default_factory=dict)

    def identity_gap(self) -> float:
        """|sum_j j*rate_j - vacancy_rate|; zero in exact arithmetic."""
        j = np.arange(1, self.k)
        return float(abs(j @ self.rates - self.vacancy_rate))


def constants_by_quadrature(k: int) -> AsymptoticConstants:
    rule = GaussLegendreRule.make(DEFAULT_OUTER_NODES)
    rates = rates_by_quadrature(k, rule)
    cov = cov_rates_by_quadrature(k, rule)
    vac = vacancy_rate_by_quadrature(k, rule)
    return AsymptoticConstants(
        k=k,
        rates=rates,
        cov_rates=cov.matrix,
        vacancy_rate=vac,
        provenance="quadrature",
        diagnostics={
            "nodes": DEFAULT_OUTER_NODES,
            "cancellation_flagged": bool(cov.flagged.any()),
            "cov_est_abs_error": float(cov.est_abs_error.max()),
        },
    )


def constants_by_extrapolation(k: int) -> AsymptoticConstants:
    """Both rates read at the row t where the cross table settles, from one pass of its loop.

    The loop runs as deep as it needs, up to ``moments.MAX_N_MAX`` rows; it
    raises ``ArithmeticError`` when the rates do not settle by then.
    """
    g, packed, t = _settled_rows(k, moments.MAX_N_MAX)
    if t is None:
        raise ArithmeticError(
            f"the covariance rates of k={k} do not settle by n_max {moments.MAX_N_MAX}"
        )
    rates = g[t] / (t + k)
    return AsymptoticConstants(
        k=k,
        rates=rates,
        cov_rates=(packed[t, _pair_columns(k - 1)] - np.outer(g[t], g[t])) / (t + k),
        vacancy_rate=float(np.arange(1, k) @ rates),
        provenance="extrapolation",
        diagnostics={"continued_from": t},
    )
