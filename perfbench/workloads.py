"""The two benchmark workloads: gate and tables.

Each workload runs a round of real ``spacings`` commands in-process, at a
full size (the benchmark) or a smoke size (the self-test and the warm-up).
``run_round`` is the timed part; ``check`` looks at the round's outputs
afterwards, outside the timing, and counts each command or check whose
outcome is not the expected one as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction

from spacings import cli, exact, moments, verify
from spacings.model import GapCounts, ProcessParams

# tables: tolerances of the report command's own acceptance criteria
ROUTE_GAP_TOL = 1e-8
IDENTITY_GAP_TOL = 1e-10


@dataclass
class Round:
    """One timed round: its wall time, named parts and what to check."""

    wall_s: float
    parts: dict[str, float]
    outputs: list


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def _cli(argv: list[str]) -> int:
    """Run one CLI command in-process; its console output is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Gate:
    """``spacings verify`` at full scale, then ``spacings verify --quick``.

    Checks 01-03 and 05-11 run at full scale.  Check 04 samples a stated
    share of its 1e6 replications (its TV tolerance rescales with the
    count) and check 12 validates a stated slice of its 1e7 rows, in the
    same 4:3:3 mix, so that a run holds several rounds; the cost of both is
    linear in their size.
    """

    name = "gate"
    CHECK04_FULL_REPS = 1_000_000
    CHECK12_FULL_ROWS = 10_000_000

    def __init__(self, scale: str, seed: int, out_dir: str) -> None:
        del seed  # verify's seeds are fixed inside the program
        smoke = scale == "smoke"
        self.check04_reps = 20_000 if smoke else 250_000
        self.check12_rows = 3_000 if smoke else 250_000
        self.quick_out = os.path.join(out_dir, "verify-quick.json")

    def run_round(self, tracer=None) -> Round:
        sized = {
            "check_simulator_against_exact": (self.check04_reps,),
            "check_conservation_at_scale": (self.check12_rows,),
        }
        start = time.perf_counter()
        results = []
        for fn in verify.ALL_CHECKS:
            args = sized.get(fn.__name__, ())
            if tracer is None:
                results.append(fn(*args))
            else:
                results.append(tracer.call(f"verify.{fn.__name__}", fn, *args))
        full_s = time.perf_counter() - start
        code = _cli(["verify", "--quick", "--out", self.quick_out])
        quick_s = time.perf_counter() - start - full_s
        # checks 04 and 12 scaled linearly to their full sizes
        elapsed = {r.name[:2]: r.elapsed_s for r in results}
        estimate = (
            full_s
            + elapsed["04"] * (self.CHECK04_FULL_REPS / self.check04_reps - 1)
            + elapsed["12"] * (self.CHECK12_FULL_ROWS / self.check12_rows - 1)
        )
        return Round(
            full_s + quick_s,
            {"gate_s": full_s, "gate_quick_s": quick_s, "gate_full_estimate_s": estimate},
            [results, code, _load(self.quick_out)],
        )

    def check(self, rnd: Round, out: Outcome) -> None:
        results, code, quick = rnd.outputs
        # check 07 fails by design (see the README's "Known failing check")
        for r in results:
            out.expect(r.passed != r.name.startswith("07 "), f"full {r.name}: {r.measured}")
        out.expect(code == 1, f"verify --quick exit code {code}, expected 1 (check 07)")
        for r in quick["payload"]["checks"]:
            out.expect(r["passed"] != r["name"].startswith("07 "), f"quick {r['name']}: {r['measured']}")

    def figures(self, rounds: list[Round]) -> dict:
        return {
            name: (_median(rounds, name), "s")
            for name in ("gate_s", "gate_full_estimate_s", "gate_quick_s")
        }


class Tables:
    """``spacings exact``, ``moments`` and ``report`` writing into a temp dir."""

    name = "tables"

    def __init__(self, scale: str, seed: int, out_dir: str) -> None:
        del seed  # no random input
        smoke = scale == "smoke"
        self.exact_sizes = [(16, 2), (12, 3)] if smoke else [(80, 2), (48, 3)]
        self.moment_sizes = [(2, 200), (3, 100)] if smoke else [(2, 5_000), (3, 2_500)]
        self.k_max = 3 if smoke else 8
        self.out_dir = out_dir
        self.exact_means = {
            (n, k): tuple(moments.mean_recursion_exact(k, n)[n]) for n, k in self.exact_sizes
        }
        # rows the moments envelope must reproduce from the rational recursion
        self.mean_rows = {k: moments.mean_recursion_exact(k, 60) for k, _ in self.moment_sizes}

    def _commands(self) -> list[tuple[str, list[str], str]]:
        cmds = []
        for n, k in self.exact_sizes:
            path = os.path.join(self.out_dir, f"exact-{n}-{k}.json")
            cmds.append(("exact_s", ["exact", "--n", str(n), "--k", str(k), "--cap", str(n)], path))
        for k, n_max in self.moment_sizes:
            path = os.path.join(self.out_dir, f"moments-{k}-{n_max}.json")
            argv = ["moments", "--k", str(k), "--n-max", str(n_max)]
            cmds.append(("moments_s", argv + ["--tables", "mean,cov,projected", "--order", "8"], path))
        path = os.path.join(self.out_dir, "report.json")
        cmds.append(("constants_s", ["report", "--k-max", str(self.k_max)], path))
        return cmds

    def run_round(self, tracer=None) -> Round:
        parts = {"exact_s": 0.0, "moments_s": 0.0, "constants_s": 0.0}
        codes = []
        for part, argv, path in self._commands():
            start = time.perf_counter()
            codes.append(_cli(argv + ["--out", path]))
            parts[part] += time.perf_counter() - start
        envelopes = [(argv, _load(path)) for _, argv, path in self._commands()]
        return Round(sum(parts.values()), parts, [codes, envelopes])

    def check(self, rnd: Round, out: Outcome) -> None:
        codes, envelopes = rnd.outputs
        for code in codes:
            out.expect(code == 0, f"tables exit code {code}")
        for argv, env in envelopes:
            {"exact": self._check_exact, "moments": self._check_moments, "report": self._check_report}[
                argv[0]
            ](env, out)

    def _check_exact(self, env: dict, out: Outcome) -> None:
        n, k = env["config"]["n"], env["config"]["k"]
        probs = {
            GapCounts(tuple(r["counts"]), r["hats"]): Fraction(r["prob_num"], r["prob_den"])
            for r in env["payload"]["states"]
        }
        pmf = exact.Pmf(ProcessParams(n, k), probs)
        out.expect(pmf.total() == 1, f"exact (n={n},k={k}) mass {pmf.total()}")
        mean = exact.moments_from_pmf(pmf).mean
        out.expect(
            mean == self.exact_means[(n, k)],
            f"exact (n={n},k={k}) mean differs from mean_recursion_exact",
        )

    def _check_moments(self, env: dict, out: Outcome) -> None:
        k, n_max = env["config"]["k"], env["config"]["n_max"]
        tables = {t["table"]: t["values"] for t in env["payload"]["tables"]}
        shapes_ok = sorted(tables) == ["cov", "mean", "raw", "standardized"] and all(
            len(v) == n_max + 1 for v in tables.values()
        )
        out.expect(shapes_ok, f"moments (k={k}) tables {sorted(tables)} of wrong shape")
        if not shapes_ok:
            return
        exact_rows = self.mean_rows[k]
        worst = max(
            abs(v - float(e))
            for n in range(min(n_max, 60) + 1)
            for v, e in zip(tables["mean"][n], exact_rows[n])
        )
        out.expect(worst < 1e-12, f"moments (k={k}) mean rows off the rational recursion by {worst:.2e}")
        finite = all(
            math.isfinite(x) for t in ("raw", "standardized") for row in tables[t] for x in row
        )
        out.expect(finite, f"moments (k={k}) projected table has non-finite entries")

    def _check_report(self, env: dict, out: Outcome) -> None:
        blocks = env["payload"]["constants"]
        out.expect(
            [b["k"] for b in blocks] == list(range(2, self.k_max + 1)),
            "report k range",
        )
        for b in blocks:
            gap = max(b["route_gap"]["rates"], b["route_gap"]["cov_rates"])
            out.expect(gap < ROUTE_GAP_TOL, f"report k={b['k']} route gap {gap:.2e}")
            ident = max(b["quadrature"]["identity_gap"], b["extrapolation"]["identity_gap"])
            out.expect(ident < IDENTITY_GAP_TOL, f"report k={b['k']} identity gap {ident:.2e}")

    def figures(self, rounds: list[Round]) -> dict:
        return {name: (_median(rounds, name), "s") for name in ("exact_s", "moments_s", "constants_s")}


def _median(rounds: list[Round], part: str) -> float:
    return statistics.median(r.parts[part] for r in rounds)


WORKLOADS = {w.name: w for w in (Gate, Tables)}
