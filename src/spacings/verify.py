"""End-to-end verification checks.

Each check exercises one guaranteed behaviour of the package at full scale
and returns a :class:`CheckResult`; ``run_all`` executes the complete set.
The same functions back the CLI ``verify`` subcommand and the acceptance
test module, so there is a single source of truth for what "working" means.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from . import asymptotics as asy
from . import exact, moments, simulate
from .model import GapCounts, ProcessParams, validate_counts

__all__ = ["CheckResult", "run_all", "ALL_CHECKS", "closed_form_mean_gf_k2", "closed_form_cov_kernel_k2"]

VERIFY_SEED = 20250811


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: str
    budget_s: float | None
    elapsed_s: float
    # seconds per named stage of the body, for checks that time their parts
    stages: Mapping[str, float] = field(default_factory=dict, compare=False)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        budget = f" budget={self.budget_s:g}s" if self.budget_s else ""
        return f"{status}  {self.name}: {self.measured} [{self.elapsed_s:.2f}s{budget}]"


def _timed(
    name: str,
    budget_s: float | None,
    body: Callable[[], tuple[bool, str]],
    stages: dict[str, float] | None = None,
) -> CheckResult:
    """Run ``body`` against its budget; ``stages`` is filled in by the body."""
    start = time.perf_counter()
    ok, measured = body()
    elapsed = time.perf_counter() - start
    if budget_s is not None and elapsed > budget_s:
        ok = False
        measured += f" (overran budget {budget_s:g}s)"
    return CheckResult(name, bool(ok), measured, budget_s, elapsed, dict(stages or {}))


def closed_form_mean_gf_k2(z: float) -> float:
    """k = 2 mean generating function in closed form: (1-z)^-2 e^-2z - 1."""
    return math.exp(-2.0 * z) / (1.0 - z) ** 2 - 1.0


def closed_form_cov_kernel_k2(z: float) -> float:
    """k = 2 covariance kernel in closed form."""
    w = 1.0 - z
    poly = 1.0 / w**2 + 2.0 / w + 1.0 + 29.0 * w - 49.0 * w**2 + 16.0 * w**3
    return (
        z * w
        + (1.0 - 2.0 / w + 1.0 / w**2) * math.exp(-4.0 * z)
        - math.exp(-4.0) * poly
    )


def check_mean_rate_k2() -> CheckResult:
    def body() -> tuple[bool, str]:
        target = math.exp(-2.0)
        quad = asy.rates_by_quadrature(2)[0]
        ext = asy.constants_by_extrapolation(2)
        gap_q = abs(quad - target)
        gap_e = abs(float(ext.rates[0]) - target)
        ok = gap_q < 1e-10 and gap_e < 1e-8
        return ok, f"quad_err={gap_q:.3e} (tol 1e-10), extrap_err={gap_e:.3e} (tol 1e-8)"

    return _timed("01 mean-rate k=2 equals exp(-2)", 1.0, body)


def check_cov_rate_k2() -> CheckResult:
    def body() -> tuple[bool, str]:
        target = 4.0 * math.exp(-4.0)
        quad = asy.cov_rates_by_quadrature(2).matrix[0, 0]
        ext = asy.constants_by_extrapolation(2)
        gap_q = abs(quad - target)
        gap_e = abs(float(ext.cov_rates[0, 0]) - target)
        ok = gap_q < 1e-8 and gap_e < 1e-8
        return ok, f"quad_err={gap_q:.3e}, extrap_err={gap_e:.3e} (tol 1e-8)"

    return _timed("02 cov-rate k=2 equals 4*exp(-4)", 5.0, body)


def check_split_vs_direct() -> CheckResult:
    def body() -> tuple[bool, str]:
        for k in (2, 3, 4):
            for n in range(0, 13):
                params = ProcessParams(n, k)
                a = exact.pmf_split(params)
                b = exact.pmf_direct(params)
                if a.probs != b.probs:
                    return False, f"mismatch at n={n}, k={k}"
                if a.total() != 1:
                    return False, f"mass {a.total()} != 1 at n={n}, k={k}"
        return True, "all equal"

    return _timed("03 exact pmf: split route == direct route (n<=12, k=2,3,4)", 30.0, body)


def check_simulator_against_exact(replications: int = 1_000_000) -> CheckResult:
    # TV tolerance is calibrated to 1e6 replications; smaller (smoke) runs
    # get the same criterion rescaled by the sampling rate sqrt(m)
    tv_tol = 5e-3 * math.sqrt(1_000_000 / replications)
    stages: dict[str, float] = {}

    def body() -> tuple[bool, str]:
        start = time.perf_counter()
        shapes = [ProcessParams(n, k) for n, k in ((10, 2), (10, 3), (12, 4))]
        counters = simulate.state_counters([(p, replications, VERIFY_SEED) for p in shapes])
        stages["sample_s"] = time.perf_counter() - start
        msgs = []
        ok = True
        for params, counter in zip(shapes, counters):
            pmf = exact.pmf_split(params)
            tv = exact.total_variation_empirical(pmf, counter)
            _, dof, p = exact.chi_square_gof(pmf, counter)
            ok &= tv < tv_tol and p > 1e-3
            msgs.append(f"(n={params.n},k={params.k}) tv={tv:.2e} p={p:.3f} dof={dof}")
        stages["law_s"] = time.perf_counter() - start - stages["sample_s"]
        return ok, "; ".join(msgs) + f" (tv tol {tv_tol:g}, p > 1e-3)"

    return _timed(f"04 simulator matches exact law ({replications:,} reps)", 60.0, body, stages)


def check_mean_ratio_stabilizes_k3() -> CheckResult:
    def body() -> tuple[bool, str]:
        table = moments.mean_recursion(3, 300)
        ref = table.rate(300)
        worst = max(
            float(np.abs(table.rate(n) - ref).max()) for n in range(60, 301)
        )
        return worst < 1e-8, f"max |rate(n) - rate(300)| for n>=60: {worst:.3e} (tol 1e-8)"

    return _timed("05 k=3 mean rates settle beyond n=60", 1.0, body)


def check_clt_standardized_moments() -> CheckResult:
    def body() -> tuple[bool, str]:
        targets = {3: 0.0, 4: 3.0, 6: 15.0}
        tols = {3: 0.1, 4: 0.15, 6: 1.0}
        msgs = []
        ok = True
        for k in (2, 3):
            table = moments.projected_moment_recursion([1.0] * (k - 1), k, 400, order=6)
            devs: dict[int, dict[int, float]] = {}
            for n in (100, 200, 400):
                sigma = math.sqrt(table.standardized[n, 2])
                devs[n] = {
                    m: abs(table.standardized[n, m] / sigma**m - targets[m])
                    for m in (3, 4, 6)
                }
            for m in (3, 4, 6):
                ok &= devs[400][m] < tols[m]
                ok &= devs[400][m] <= devs[200][m] <= devs[100][m]
            msgs.append(
                "k=%d dev3=%.3f dev4=%.3f dev6=%.3f" % (k, devs[400][3], devs[400][4], devs[400][6])
            )
        return ok, "; ".join(msgs) + " (tols 0.1/0.15/1.0, decreasing in n)"

    return _timed("06 standardized moments near normal at n=400", 30.0, body)


def check_averaging_recursion() -> CheckResult:
    def body() -> tuple[bool, str]:
        res = moments.averaging_recursion_limit(1.0, 2.0, 2, 100_000)
        return res.gap < 1e-3, f"|a_N - 3| = {res.gap:.3e} (tol 1e-3)"

    return _timed("07 averaging recursion reaches alpha(beta+1)/(beta-1)", 1.0, body)


def check_closed_forms_k2() -> CheckResult:
    def body() -> tuple[bool, str]:
        rates = asy.rates_by_quadrature(2)
        zs = np.linspace(0.025, 0.975, 20)
        g_quad = asy.mean_gf(zs, 2)[:, 0]
        h_quad = asy.cov_kernel(zs, 2, rates)[0][:, 0, 0]
        worst_g = worst_h = 0.0
        for z, g, h in zip(zs.tolist(), g_quad.tolist(), h_quad.tolist()):
            worst_g = max(worst_g, abs(g - closed_form_mean_gf_k2(z)))
            worst_h = max(worst_h, abs(h - closed_form_cov_kernel_k2(z)))
        ok = worst_g < 1e-9 and worst_h < 1e-9
        return ok, f"max |gf err|={worst_g:.2e}, max |kernel err|={worst_h:.2e} (tol 1e-9)"

    return _timed("08 k=2 closed forms reproduced at 20 interior points", 10.0, body)


def check_vacancy_identity() -> CheckResult:
    def body() -> tuple[bool, str]:
        ok = True
        msgs = []
        for k in range(2, 7):
            rates = asy.rates_by_quadrature(k)
            vac = asy.vacancy_rate_by_quadrature(k)
            gap_id = abs(float(np.arange(1, k) @ rates) - vac)
            table = moments.mean_recursion(k, 300)
            mean_vac = float(np.arange(1, k) @ table.values[300]) / (300 + k)
            gap_n = abs(mean_vac - vac)
            ok &= gap_id < 1e-10 and gap_n < 1e-8
            msgs.append(f"k={k}: id={gap_id:.1e} finite={gap_n:.1e}")
        return ok, "; ".join(msgs) + " (tols 1e-10 / 1e-8)"

    return _timed("09 vacancy rate identity, k=2..6", 10.0, body)


def check_cf_fixed_point() -> CheckResult:
    def body() -> tuple[bool, str]:
        grid = np.linspace(-5.0, 5.0, 101)
        res_normal = max(
            asy.cf_fixed_point_residual(v, grid) for v in (0.0, 1.0, 0.25)
        )
        res_counter = asy.cf_residual(lambda t: np.exp(-np.abs(t)), [2.0])
        ok = res_normal < 1e-12 and res_counter > 1e-3
        return ok, f"normal residual={res_normal:.2e} (<1e-12), exp(-|t|) residual={res_counter:.2e} (>1e-3)"

    return _timed("10 split fixed point singles out the normal cf", 10.0, body)


def check_drift_bound_tail() -> CheckResult:
    def body() -> tuple[bool, str]:
        ok = True
        msgs = []
        for k in (2, 3):
            res = moments.mean_drift_bound(k, 1000)
            tail = res.per_n[100:]
            non_increasing = bool(np.all(np.diff(tail) <= 1e-12))
            no_new_records = res.per_n[500:].max() <= res.per_n[: 500].max() + 1e-12
            ok &= non_increasing and no_new_records
            msgs.append(f"k={k}: sup={res.sup:.6f} tail_monotone={non_increasing}")
        return ok, "; ".join(msgs)

    return _timed("11 split-identity drift stays bounded (k=2,3, n<=1000)", 30.0, body)


def _validate_chunk(
    params: ProcessParams, counts: np.ndarray, hats: np.ndarray
) -> tuple[int | str, float]:
    """Check 12 on one chunk: (rows validated or the first failure, scalar seconds).

    The sampler has already run the batch validator on these rows.  This
    independent pass runs the pure ``validate_counts`` once per distinct
    state and sums their frequencies; only a failure makes it scan the rows.
    """
    start = time.perf_counter()
    counter = exact.empirical_counter(counts, hats)
    failed = {g for g in counter if not validate_counts(params, g)}
    if failed:
        for row, h in zip(counts.tolist(), hats.tolist()):
            if GapCounts(tuple(row), h) in failed:
                return f"state {row}, hats={h} invalid for {params}", time.perf_counter() - start
    return sum(counter.values()), time.perf_counter() - start


def check_conservation_at_scale(total: int = 10_000_000) -> CheckResult:
    stages: dict[str, float] = {}

    def body() -> tuple[bool, str]:
        plan = [
            (ProcessParams(10, 2), total * 4 // 10, VERIFY_SEED + 1),
            (ProcessParams(10, 3), total * 3 // 10, VERIFY_SEED + 1),
            (ProcessParams(12, 4), total - total * 4 // 10 - total * 3 // 10, VERIFY_SEED + 1),
        ]
        start = time.perf_counter()
        per_request, sample_s = simulate.map_chunks(_validate_chunk, plan)
        wall = time.perf_counter() - start
        outcomes = [o for chunks in per_request for o in chunks]
        seconds = {"sample_s": sample_s, "scalar_s": sum(o[1] for o in outcomes)}
        # the chunks may have run side by side: split the map's wall time
        # across the stages in proportion to the seconds each one took
        busy = sum(seconds.values())
        stages.update({name: wall * s / busy if busy else 0.0 for name, s in seconds.items()})
        failures = [rows for rows, _ in outcomes if isinstance(rows, str)]
        if failures:
            return False, failures[0]
        checked = sum(rows for rows, _ in outcomes)
        return checked == total, f"{checked:,} states validated"

    return _timed("12 every simulated state passes validation", None, body, stages)


ALL_CHECKS: tuple[Callable[[], CheckResult], ...] = (
    check_mean_rate_k2,
    check_cov_rate_k2,
    check_split_vs_direct,
    check_simulator_against_exact,
    check_mean_ratio_stabilizes_k3,
    check_clt_standardized_moments,
    check_averaging_recursion,
    check_closed_forms_k2,
    check_vacancy_identity,
    check_cf_fixed_point,
    check_drift_bound_tail,
    check_conservation_at_scale,
)


def run_all(quick: bool = False) -> list[CheckResult]:
    """Run every check; ``quick`` shrinks the two sampling-heavy ones.

    Quick mode is a smoke test of the plumbing, not the acceptance gate:
    budgets and sample-size-dependent tolerances only bind at full scale.
    """
    results = []
    for fn in ALL_CHECKS:
        if quick and fn is check_simulator_against_exact:
            results.append(check_simulator_against_exact(100_000))
        elif quick and fn is check_conservation_at_scale:
            results.append(check_conservation_at_scale(300_000))
        else:
            results.append(fn())
    return results
