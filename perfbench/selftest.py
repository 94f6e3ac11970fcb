"""Smoke-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at smoke size, untraced and traced, and checks that the
last line is the result object with every metric BENCHMARK.json declares,
each with its declared unit, and that the workload's correctness checks
pass.  Then checks that a directory holding only BENCHMARK.json and the
benchmark's files (no package to measure) makes run.py fail without
printing a result.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _fail(message: str) -> None:
    print(f"selftest FAILED: {message}")
    sys.exit(1)


def _run(cwd: Path, workload: str, trace: int, smoke: bool = True) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7"]
    argv += ["--seconds", "0", "--trace", str(trace)]
    if smoke:
        argv += ["--scale", "smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from tracing import PER_LAYER

    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if declared != PER_LAYER:
        _fail("per_layer in BENCHMARK.json differs from tracing.PER_LAYER")

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, workload, trace)
            if proc.returncode != 0:
                _fail(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                _fail(f"{workload} trace={trace} result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                _fail(f"{workload} trace={trace} correctness: {proc.stdout[-2000:]}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                _fail(f"{workload} trace={trace} metrics {got} != declared {want}")
            if any(not isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                _fail(f"{workload} trace={trace} has a non-numeric metric value")
            if key == "end_to_end" and any(m["value"] <= 0 for m in result["metrics"].values()):
                _fail(f"{workload} an end-to-end metric reads 0")
            print(f"ok {workload} trace={trace}: {len(got)} metrics, {result['attempted']} checked")

    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = _run(bare, spec["workloads"][0]["name"], 0, smoke=False)
        if proc.returncode == 0 or proc.stdout.strip():
            _fail(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}")
        print(f"ok bare directory: exit {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
