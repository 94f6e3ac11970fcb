"""Span tracing around the spacings layer modules, installed from outside.

The tracer replaces the public functions of each layer module (and every
name another module imported them under) with thin wrappers for the
duration of a traced round, then puts the originals back.  Each call
becomes a span with a name, start, end and parent; nested calls become
child spans, so a layer's self time is its span time minus the time its
children cover.  Spans are aggregated per function as they close, and the
first ``KEEP_SPANS`` of them are kept verbatim for the span file.

Nothing in ``src/`` is changed: the program is traced only at the
boundaries it already exposes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

LAYERS = ("model", "exact", "moments", "asymptotics", "simulate", "verify", "cli")

# the scalar validation loop alone makes about 1.3e6 spans per gate round
KEEP_SPANS = 20_000

# Per-element helpers called once per row inside other traced functions;
# wrapping them would triple the cost of the scalar validation loop while
# adding no boundary the metrics need.  Their time stays in the caller.
_UNTRACED = {"model.vacancy", "asymptotics.exp_weight"}

# The k range of ``spacings report --k-max 8``; one cov-quadrature time each.
COV_QUADRATURE_KS = range(2, 9)

# Extrapolation entry points; only the outermost one of a nest is timed.
_EXTRAPOLATION = {
    "asymptotics.constants_by_extrapolation",
    "moments.rates_by_extrapolation",
    "moments.cov_rates_by_extrapolation",
}


_RAISED = object()  # result of a call that raised; such calls are not annotated


@dataclass
class Call:
    """One finished call, as handed to an annotation."""

    name: str
    args: tuple
    kwargs: dict
    result: Any
    duration: float
    parent: str | None  # name of the enclosing span in this thread


class Tracer:
    """Aggregates spans of the layer modules' public functions."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.exclusive: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []
        # taken before install(), so annotations never call a wrapper
        self.chunk_size = importlib.import_module("spacings.simulate").chunk_size
        self.check_names = [f.__name__ for f in importlib.import_module("spacings.verify").ALL_CHECKS]
        self.outer_nodes = importlib.import_module("spacings.asymptotics").DEFAULT_OUTER_NODES

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> tuple[list, list, float]:
        stack = self._stack()
        frame = [name, next(self._ids), 0.0]  # name, span id, child time
        stack.append(frame)
        return stack, frame, time.perf_counter()

    def _exit(self, stack: list, frame: list, start: float, args, kwargs, result) -> None:
        end = time.perf_counter()
        stack.pop()
        duration = end - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
        name = frame[0]
        with self._lock:
            self.calls[name] += 1
            self.inclusive[name] += duration
            self.exclusive[name] += duration - frame[2]
            if len(self.spans) < KEEP_SPANS:
                self.spans.append((frame[1], parent[1] if parent else None, name, start, end))
            annotate = _ANNOTATIONS.get(name)
            if annotate is not None and result is not _RAISED:
                annotate(self, Call(name, args, kwargs, result, duration, parent[0] if parent else None))

    def _wrap(self, name: str, fn: Callable) -> Callable:
        if inspect.isgeneratorfunction(fn):
            # one span per next(): the time to produce an item, not to consume it
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    stack, frame, start = self._enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        self._exit(stack, frame, start, args, kwargs, None)
                        return
                    except BaseException:
                        self._exit(stack, frame, start, args, kwargs, _RAISED)
                        raise
                    self._exit(stack, frame, start, args, kwargs, item)
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        stack, frame, start = self._enter(name)
        result = _RAISED
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            self._exit(stack, frame, start, args, kwargs, result)

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Swap every traced function for its wrapper, wherever it is bound."""
        modules = {layer: importlib.import_module(f"spacings.{layer}") for layer in LAYERS}
        wrappers: dict[int, tuple[Callable, Callable]] = {}
        for layer, mod in modules.items():
            # verify's checks are not rebound: run_all tells them apart by
            # identity.  The gate workload spans its own calls to them instead.
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                qualified = f"{layer}.{attr}"
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and qualified not in _UNTRACED
                ):
                    wrappers[id(fn)] = (fn, self._wrap(qualified, fn))
        package = importlib.import_module("spacings")
        for mod in (package, *modules.values()):
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, value = self._patches.pop()
            setattr(mod, attr, value)


# -- annotations: work counts read from a call's arguments and result ------


def _outside_simulate(call: Call) -> bool:
    return call.parent is None or not call.parent.startswith("simulate.")


def _sampled(t: Tracer, params, replications: int, blocks: int, chunks: int | None = None) -> None:
    """Record the work of one outermost call into the simulate layer."""
    size = t.chunk_size(params.n, params.k)
    t.counters["chunks"] += math.ceil(replications / size) if chunks is None else chunks
    t.counters["blocks_placed"] += blocks
    # computed, not measured: the (rows, n // k) int64 open-run array of one chunk
    t.counters["chunk_bytes"] = max(t.counters["chunk_bytes"], size * max(1, params.n // params.k) * 8)


def _iter_state_chunks(t: Tracer, call: Call) -> None:
    if call.result is None:
        return
    counts, hats = call.result
    t.counters["sampled_states"] += counts.shape[0]
    if _outside_simulate(call):
        _sampled(t, call.args[0], counts.shape[0], int(hats.sum()), chunks=1)


def _sample_states(t: Tracer, call: Call) -> None:
    if _outside_simulate(call):
        _sampled(t, call.args[0], call.args[1], int(call.result[1].sum()))


def _state_counter(t: Tracer, call: Call) -> None:
    t.counters["collapsed_rows"] += call.args[1]
    if _outside_simulate(call):
        blocks = sum(g.hats * f for g, f in call.result.items())
        _sampled(t, call.args[0], call.args[1], blocks)


def _validate_counts_batch(t: Tracer, call: Call) -> None:
    t.counters["batch_rows"] += len(call.result)


def _pmf_split(t: Tracer, call: Call) -> None:
    t.counters["pmf_split_support"] += len(call.result.probs)


def _cov_rates_by_quadrature(t: Tracer, call: Call) -> None:
    k = call.args[0] if call.args else call.kwargs["k"]
    rule = call.args[1] if len(call.args) > 1 else call.kwargs.get("rule")
    nodes = len(rule.nodes) if rule is not None else t.outer_nodes
    d = k - 1
    t.counters["kernel_evals"] += d * (d + 1) // 2 * nodes
    t.counters[f"cov_k{k}_s"] += call.duration


def _cov_kernel(t: Tracer, call: Call) -> None:
    t.counters["kernel_evals"] += 1


def _extrapolation(t: Tracer, call: Call) -> None:
    if call.parent not in _EXTRAPOLATION:
        t.counters["extrapolation_s"] += call.duration


def _render(t: Tracer, call: Call) -> None:
    t.counters["bytes_out"] += len(call.result.encode())


_ANNOTATIONS: dict[str, Callable[[Tracer, Call], None]] = {
    "simulate.iter_state_chunks": _iter_state_chunks,
    "simulate.sample_states": _sample_states,
    "simulate.state_counter": _state_counter,
    "model.validate_counts_batch": _validate_counts_batch,
    "exact.pmf_split": _pmf_split,
    "asymptotics.cov_rates_by_quadrature": _cov_rates_by_quadrature,
    "asymptotics.cov_kernel": _cov_kernel,
    "cli.render": _render,
    **{name: _extrapolation for name in _EXTRAPOLATION},
}


# -- per-layer metrics -----------------------------------------------------

# (name, unit, better); the same list is declared in BENCHMARK.json
PER_LAYER: list[tuple[str, str, str]] = [
    *[(f"{layer}.self_s", "s", "lower") for layer in LAYERS],
    ("model.validate_counts.rows_per_s", "1/s", "higher"),
    ("model.validate_counts_batch.rows_per_s", "1/s", "higher"),
    ("simulate.sample.states_per_s", "1/s", "higher"),
    ("simulate.collapse.rows_per_s", "1/s", "higher"),
    ("simulate.blocks_placed", "count", "lower"),
    ("simulate.chunks", "count", "lower"),
    ("simulate.chunk_bytes", "B", "lower"),
    ("exact.pmf_split_s", "s", "lower"),
    ("exact.pmf_split.support", "count", "lower"),
    ("exact.pmf_direct_s", "s", "lower"),
    ("moments.mean_recursion_s", "s", "lower"),
    ("moments.cross_moment_recursion_s", "s", "lower"),
    ("moments.projected_moment_recursion_s", "s", "lower"),
    ("asymptotics.rates_s", "s", "lower"),
    *[(f"asymptotics.cov_quadrature_k{k}_s", "s", "lower") for k in COV_QUADRATURE_KS],
    ("asymptotics.kernel_evals", "count", "lower"),
    ("asymptotics.extrapolation_s", "s", "lower"),
    ("cli.render_s", "s", "lower"),
    ("cli.bytes_out", "B", "lower"),
    *[(f"verify.check_{i:02d}_s", "s", "lower") for i in range(1, 13)],
    ("trace.overhead_pct", "%", "lower"),
]


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(t: Tracer, rounds: int, overhead_pct: float) -> dict:
    """Per-layer figures per traced round; a layer idle on the workload reads 0."""
    c, incl = t.counters, t.inclusive
    per = 1.0 / max(rounds, 1)
    values: dict[str, float] = {
        f"{layer}.self_s": per * sum(v for k, v in t.exclusive.items() if k.startswith(layer + "."))
        for layer in LAYERS
    }
    values.update(
        {
            "model.validate_counts.rows_per_s": _rate(
                t.calls["model.validate_counts"], incl["model.validate_counts"]
            ),
            "model.validate_counts_batch.rows_per_s": _rate(
                c["batch_rows"], incl["model.validate_counts_batch"]
            ),
            "simulate.sample.states_per_s": _rate(
                c["sampled_states"], incl["simulate.iter_state_chunks"]
            ),
            "simulate.collapse.rows_per_s": _rate(
                c["collapsed_rows"], t.exclusive["simulate.state_counter"]
            ),
            "simulate.blocks_placed": c["blocks_placed"] * per,
            "simulate.chunks": c["chunks"] * per,
            "simulate.chunk_bytes": c["chunk_bytes"],
            "exact.pmf_split_s": incl["exact.pmf_split"] * per,
            "exact.pmf_split.support": c["pmf_split_support"] * per,
            "exact.pmf_direct_s": incl["exact.pmf_direct"] * per,
            "moments.mean_recursion_s": incl["moments.mean_recursion"] * per,
            "moments.cross_moment_recursion_s": incl["moments.cross_moment_recursion"] * per,
            "moments.projected_moment_recursion_s": incl["moments.projected_moment_recursion"] * per,
            "asymptotics.rates_s": incl["asymptotics.rates_by_quadrature"] * per,
            "asymptotics.kernel_evals": c["kernel_evals"] * per,
            "asymptotics.extrapolation_s": c["extrapolation_s"] * per,
            "cli.render_s": incl["cli.render"] * per,
            "cli.bytes_out": c["bytes_out"] * per,
            "trace.overhead_pct": overhead_pct,
        }
    )
    for k in COV_QUADRATURE_KS:
        values[f"asymptotics.cov_quadrature_k{k}_s"] = c[f"cov_k{k}_s"] * per
    for i, name in enumerate(t.check_names, 1):
        values[f"verify.check_{i:02d}_s"] = incl[f"verify.{name}"] * per
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: {"value": values[name], "unit": units[name]} for name in units}
