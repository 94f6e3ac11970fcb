"""The package namespace: each library module's public names, declared once."""
from __future__ import annotations

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import spacings
from spacings import asymptotics, cli, exact, model, moments, simulate, verify

LIBRARY = (model, exact, moments, asymptotics, simulate)
ROOT = Path(__file__).resolve().parents[1]
# entry points the package no longer has: the first two were folded into
# asymptotics.constants_by_extrapolation, the last three into simulate.map_chunks.
# The benchmark's tracer still lists them, and their annotations never fire.
GONE_FROM_PACKAGE = {
    "moments.rates_by_extrapolation",
    "moments.cov_rates_by_extrapolation",
    "simulate.iter_state_chunks",
    "simulate.sample_states",
    "simulate.state_counter",
}


def test_package_reexports_each_module_all():
    declared = [name for module in LIBRARY for name in module.__all__]
    assert spacings.__all__ == [*declared, "__version__"]
    assert len(set(spacings.__all__)) == len(spacings.__all__)
    for module in LIBRARY:
        for name in module.__all__:
            assert getattr(spacings, name) is getattr(module, name), name


def test_cli_and_verify_stay_out_of_the_namespace():
    for module in (cli, verify):
        for name in module.__all__:
            assert name not in spacings.__all__
            assert not hasattr(spacings, name), name


def test_benchmark_finds_every_name_it_reads(monkeypatch):
    # perfbench/ reads these names and may not change with the package, so a
    # rename here would break the benchmark, or silently zero the counter an
    # annotation keeps, without failing any other test
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    importlib.import_module("workloads")
    tracer = tracing.Tracer()
    assert tracer.outer_nodes == asymptotics.DEFAULT_OUTER_NODES
    assert callable(moments.mean_recursion_exact)
    assert callable(exact.moments_from_pmf)
    for name in GONE_FROM_PACKAGE:  # a live name here would go untested below
        layer, _, attr = name.partition(".")
        assert not hasattr(importlib.import_module(f"spacings.{layer}"), attr), name
    annotated = []
    for name in sorted(tracing._ANNOTATIONS.keys() - GONE_FROM_PACKAGE):
        layer, _, attr = name.partition(".")
        module = importlib.import_module(f"spacings.{layer}")
        annotated.append((name, module, attr, getattr(module, attr)))
    tracer.install()
    try:
        for name, module, attr, fn in annotated:
            assert getattr(module, attr) is not fn, f"{name} is not traced"
    finally:
        tracer.uninstall()
    for name, module, attr, fn in annotated:
        assert getattr(module, attr) is fn, f"{name} is not restored"


def test_benchmark_sizes_the_sampling_checks_it_finds_by_name():
    # the benchmark's gate looks these two checks up by ``fn.__name__`` to
    # pass each its row count; under any other name, check 12 would run at
    # its full 1e7 rows in every round
    by_name = {fn.__name__: fn for fn in verify.ALL_CHECKS}
    for name in ("check_simulator_against_exact", "check_conservation_at_scale"):
        assert name in by_name, name
        (size,) = inspect.signature(by_name[name]).parameters.values()
        assert size.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD, name


def test_cli_import_leaves_numpy_polynomial_unloaded():
    # the quadrature rule is built on first use: numpy.polynomial, which
    # builds it, costs import time to every command that never integrates
    code = "import sys, spacings.cli\nassert 'numpy.polynomial' not in sys.modules\n"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
