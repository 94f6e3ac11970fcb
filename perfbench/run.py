"""Benchmark runner for the spacings package.

    python3 perfbench/run.py --workload {gate,tables} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The package is imported from the
checkout's ``src/`` and driven in-process through ``spacings.cli.main``;
nothing is installed.  One run:

1. imports the package, then times ``import spacings.cli`` in five fresh
   interpreters (``setup_s`` is their median);
2. warms up with one smoke-size round of the workload;
3. repeats full-size rounds until ``--seconds`` have passed, checking the
   outputs of each round outside its timing;
4. prints a provenance line, the workload's own figures, and as the last
   line one JSON object with ``correct``, ``attempted``, ``failed`` and
   ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
   metrics with ``--trace 1``.

With ``--trace 1`` untraced and traced rounds alternate; the per-layer
figures come from the traced rounds, and the gap between the two round
times is the tracing overhead.  The spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("gate", "tables"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "smoke"), default="full", help="smoke: the self-test size")
    return p


def measure_setup() -> float:
    """Median wall time of a fresh interpreter that imports ``spacings.cli``."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import spacings.cli"
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            label = f"L{level}" + ({"Data": "d", "Instruction": "i"}.get(kind, ""))
            sizes[label] = (index / "size").read_text().strip()
    except OSError:
        pass
    return sizes or {"unknown": "cache sizes not readable"}


def provenance() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_rev": _git_rev(),
        "cpu0_caches": _cache_sizes(),
    }


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "spacings" / "cli.py").is_file():
        print(f"error: no spacings package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS, Outcome

    setup_s = measure_setup()
    run_dir = OUT / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    kind = WORKLOADS[args.workload]
    try:
        workload = kind(args.scale, args.seed, str(run_dir))
        kind("smoke", args.seed, str(run_dir)).run_round()  # warm-up, unchecked
        outcome = Outcome()
        plain, traced = [], []
        tracer = Tracer() if args.trace else None
        start = time.perf_counter()
        while True:
            if tracer is not None and len(traced) < len(plain):
                tracer.install()
                try:
                    rnd = workload.run_round(tracer)
                finally:
                    tracer.uninstall()
                traced.append(rnd)
            else:
                rnd = workload.run_round()
                plain.append(rnd)
            workload.check(rnd, outcome)
            rnd.outputs = []  # checked; memory must not grow with the round count
            if time.perf_counter() - start >= args.seconds and (tracer is None or traced):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    wall_s = statistics.median(r.wall_s for r in plain)
    print("provenance " + json.dumps(provenance(), sort_keys=True))
    figures = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "fail_share": (outcome.failed / outcome.attempted, "1"),
        **workload.figures(plain),
    }
    for name, (value, unit) in figures.items():
        print(f"figure {name} = {value:.6g} {unit}")
    for problem in outcome.problems:
        print(f"FAILED {problem}")

    if tracer is not None:
        traced_wall = statistics.median(r.wall_s for r in traced)
        overhead_pct = 100.0 * (traced_wall / wall_s - 1.0)
        metrics = layer_metrics(tracer, len(traced), overhead_pct)
        _write_spans(tracer, args.workload, len(traced))
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "wall_s": {"value": wall_s, "unit": "s"},
        }
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def _write_spans(tracer, workload: str, rounds: int) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    functions = {
        name: {
            "calls": tracer.calls[name],
            "inclusive_s": tracer.inclusive[name],
            "self_s": tracer.exclusive[name],
        }
        for name in sorted(tracer.calls)
    }
    doc = {
        "workload": workload,
        "traced_rounds": rounds,
        "functions": functions,
        "span_fields": ["id", "parent", "name", "start", "end"],
        "spans": tracer.spans,
        "spans_not_kept": sum(tracer.calls.values()) - len(tracer.spans),
    }
    with open(OUT / f"trace-{workload}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main())
