"""Command-line front end.

Subcommands: simulate, exact, moments, asympt, verify, report.  Results are
wrapped in a small envelope (tool version, echoed config, timestamp,
payload, diagnostics) and written as JSON or CSV.  Output is byte-stable
for a fixed command line and seed: floats use shortest round-trip repr,
keys are sorted, and the timestamp honours SOURCE_DATE_EPOCH so archived
runs can be reproduced bit for bit.

Exit codes: 0 success, 1 a requested tolerance or verification failed,
2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import sys
from datetime import datetime, timezone
from typing import Any, Iterator, Sequence

import numpy as np

from . import __version__
from . import asymptotics as asy
from . import exact, moments, simulate, verify
from .model import ProcessParams

__all__ = ["main", "build_envelope", "render"]

_OUTPUT_DIR_ENV = "SPACINGS_OUT_DIR"


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    moment = (
        datetime.fromtimestamp(int(epoch), tz=timezone.utc)
        if epoch is not None
        else datetime.now(tz=timezone.utc)
    )
    return moment.isoformat()


def build_envelope(tool: str, config: dict, payload: Any, diagnostics: dict | None = None) -> dict:
    return {
        "tool": f"spacings {tool}",
        "version": __version__,
        "timestamp": _timestamp(),
        "config": config,
        "payload": payload,
        "diagnostics": diagnostics or {},
    }


def _exact_rows(payload: dict) -> list[list]:
    return [
        ["|".join(map(str, r["counts"])), r["hats"], r["prob_num"], r["prob_den"], repr(r["prob"])]
        for r in payload["states"]
    ]


def _array_rows(header: list[str], parts: list[tuple[list, Any, tuple[str, ...]]]) -> Iterator:
    """One row per entry of each (lead cells, array, axis names) part, zipped from columns.

    A row holds the lead cells, then the entry's index under the header
    column named by each axis (i and j count from 1, n and order from 0),
    "" in the other columns, and the value's repr last.
    """
    for lead, values, axes in parts:
        arr = np.asarray(values)
        index = np.indices(arr.shape).reshape(arr.ndim, arr.size)
        given = {name: (row + (name in ("i", "j"))).tolist() for name, row in zip(axes, index)}
        yield from zip(
            *map(itertools.repeat, lead),
            *(given.get(name, itertools.repeat("")) for name in header[len(lead) : -1]),
            map(repr, arr.ravel().tolist()),  # numpy 2 scalars repr as np.float64(...)
        )


_SIMULATE_HEADER = ["quantity", "i", "j", "order", "value"]
_MOMENTS_HEADER = ["table", "n", "i", "j", "order", "value"]
_CONSTANTS_HEADER = ["k", "quantity", "route", "i", "j", "value"]
_TABLE_AXES = {"mean": ("n", "i"), "cov": ("n", "i", "j")}  # raw, standardized: ("n", "order")


def _simulate_rows(payload: dict) -> Iterator:
    return _array_rows(
        _SIMULATE_HEADER,
        [
            (["mean"], payload["mean"], ("i",)),
            (["mean_se"], payload["mean_se"], ("i",)),
            (["cov"], payload["cov"], ("i", "j")),
            (["std_moment"], payload["std_moments"], ("order",)),
            (["std_moment_se"], payload["std_moment_se"], ("order",)),
        ],
    )


def _moments_rows(payload: dict) -> Iterator:
    parts = [
        ([e["table"]], e["values"], _TABLE_AXES.get(e["table"], ("n", "order")))
        for e in payload["tables"]
    ]
    return _array_rows(_MOMENTS_HEADER, parts)


def _constants_rows(blocks: list[dict]) -> Iterator:
    quantities = [("rate", "rates", ("i",)), ("cov_rate", "cov_rates", ("i", "j"))]
    parts = [
        ([b["k"], quantity, route], b[route][key], axes)
        for b in blocks
        for route in ("quadrature", "extrapolation")
        for quantity, key, axes in [*quantities, ("vacancy_rate", "vacancy_rate", ())]
    ]
    return _array_rows(_CONSTANTS_HEADER, parts)


def _verify_rows(payload: dict) -> list[list]:
    return [[r["name"], r["passed"], r["measured"], repr(r["elapsed_s"])] for r in payload["checks"]]


# tool -> (CSV header, payload -> rows)
_CSV_SCHEMAS = {
    "exact": (["counts", "hats", "prob_num", "prob_den", "prob"], _exact_rows),
    "simulate": (_SIMULATE_HEADER, _simulate_rows),
    "moments": (_MOMENTS_HEADER, _moments_rows),
    "asympt": (_CONSTANTS_HEADER, lambda payload: _constants_rows([payload])),
    "report": (_CONSTANTS_HEADER, lambda payload: _constants_rows(payload["constants"])),
    "verify": (["name", "passed", "measured", "elapsed_s"], _verify_rows),
}


def _array_text(arr: np.ndarray, indent: str) -> str:
    """What ``json.dumps(arr.tolist(), indent=2)`` writes on a line indented by ``indent``.

    ``arr`` is a float array with finite entries and no empty axis.  One
    join interleaves the float reprs with separators built once from the
    shape: a comma, a newline and the indent inside a row, and the runs of
    ``]`` and ``[`` where axes wrap.
    """
    shape = arr.shape
    texts = list(map(float.__repr__, arr.ravel().tolist()))
    pad = [indent + "  " * level for level in range(len(shape) + 1)]
    opens = ["[\n" + pad[level + 1] for level in range(len(shape))]
    closes = ["\n" + pad[level] + "]" for level in range(len(shape))]
    seps: list[str] = []  # what follows each entry of one block of the inner axes, bar the last
    for axis in reversed(range(len(shape))):
        wrap = "".join(closes[:axis:-1]) + ",\n" + pad[axis + 1] + "".join(opens[axis + 1 :])
        seps = (seps + [wrap]) * (shape[axis] - 1) + seps
    pieces = [""] * (2 * len(texts) + 1)
    pieces[0] = "".join(opens)
    pieces[1::2] = texts
    pieces[2:-1:2] = seps
    pieces[-1] = "".join(reversed(closes))
    return "".join(pieces)


def render(envelope: dict, fmt: str) -> str:
    """Serialize an envelope; JSON carries provenance, CSV the payload only.

    The JSON text is exactly ``json.dumps(envelope, sort_keys=True,
    indent=2)`` plus a newline, each array written as its ``tolist()``.
    The standard encoder writes all of it but the float arrays with finite
    entries, such as the moment tables: it writes a placeholder string for
    each, which is then replaced by the ``_array_text`` of the array.
    """
    if fmt == "json":
        tag = os.urandom(16).hex()  # random, so no string of the envelope reads as a placeholder
        arrays: list[np.ndarray] = []

        def stash(obj: Any) -> Any:
            floats = isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and obj.size
            if floats and np.isfinite(obj).all():
                arrays.append(obj)
                return tag
            return np.ndarray.tolist(obj)  # a TypeError for anything but an array

        text = json.dumps(envelope, sort_keys=True, indent=2, default=stash)
        head, *tails = text.split(f'"{tag}"')  # the encoder calls stash in output order
        out = [head]
        for arr, tail in zip(arrays, tails):
            line = out[-1][out[-1].rfind("\n") + 1 :]
            out += (_array_text(arr, line[: len(line) - len(line.lstrip(" "))]), tail)
        out.append("\n")
        return "".join(out)
    tool = envelope["tool"].split()[-1]
    if tool not in _CSV_SCHEMAS:
        raise ValueError(f"no CSV schema for tool {tool}")
    header, rows = _CSV_SCHEMAS[tool]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows(envelope["payload"]))
    return buf.getvalue()


def _write(envelope: dict, out: str | None, fmt: str) -> None:
    text = render(envelope, fmt)
    if out is None:
        sys.stdout.write(text)
        return
    base = os.environ.get(_OUTPUT_DIR_ENV)
    path = os.path.join(base, out) if base and not os.path.isabs(out) else out
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as err:  # a usage error, not a failed check
        raise ValueError(f"cannot write --out {path}: {err.strerror or err}") from None


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help=f"output file (relative paths join ${_OUTPUT_DIR_ENV} if set)")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="spacings", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    sim = sub.add_parser("simulate", help="Monte Carlo batch statistics")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--k", type=int, required=True)
    sim.add_argument("--replications", type=int, default=100_000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--projection", help="comma-separated weights, length k-1")
    sim.add_argument("--order", type=int, default=8, help="highest standardized moment")
    _add_common(sim)

    ex = sub.add_parser("exact", help="exact terminal-state distribution")
    ex.add_argument("--n", type=int, required=True)
    ex.add_argument("--k", type=int, required=True)
    ex.add_argument("--cap", type=int, help="override the size cap")
    ex.add_argument(
        "--compare",
        action="store_true",
        help="run both methods; nonzero total variation exits 1",
    )
    _add_common(ex)

    mo = sub.add_parser("moments", help="finite-n moment tables")
    mo.add_argument("--k", type=int, required=True)
    mo.add_argument("--n-max", type=int, required=True)
    mo.add_argument("--tables", default="mean,cov", help="subset of mean,cov,projected")
    mo.add_argument("--projection", help="comma-separated weights, length k-1")
    mo.add_argument("--order", type=int, default=8)
    _add_common(mo)

    ay = sub.add_parser("asympt", help="limiting constants by both routes")
    ay.add_argument("--k", type=int, required=True)
    _add_common(ay)

    ve = sub.add_parser("verify", help="run the full verification suite")
    ve.add_argument("--quick", action="store_true", help="smoke-scale sampling checks")
    _add_common(ve)

    re = sub.add_parser("report", help="constants table for a range of k")
    re.add_argument("--k-max", type=int, default=8)
    _add_common(re)
    return p


def _parse_projection(text: str | None) -> tuple[float, ...] | None:
    """Comma-separated finite weights; their length is checked where they are used."""
    if text is None:
        return None
    try:
        weights = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"--projection weights must be numbers, got {text}") from None
    if not all(map(math.isfinite, weights)):
        raise ValueError(f"--projection weights must be finite, got {text}")
    return weights


def _constants_obj(c: asy.AsymptoticConstants) -> dict:
    return {
        "rates": c.rates,
        "cov_rates": c.cov_rates,
        "vacancy_rate": c.vacancy_rate,
        "identity_gap": c.identity_gap(),
        "diagnostics": c.diagnostics,
    }


def _constants_block(k: int, quad: asy.AsymptoticConstants, ext: asy.AsymptoticConstants) -> dict:
    return {
        "k": k,
        "quadrature": _constants_obj(quad),
        "extrapolation": _constants_obj(ext),
        "route_gap": {
            "rates": float(np.abs(quad.rates - ext.rates).max()),
            "cov_rates": float(np.abs(quad.cov_rates - ext.cov_rates).max()),
        },
    }


def _cmd_simulate(args: argparse.Namespace) -> int:
    params = ProcessParams(args.n, args.k)
    config = simulate.SimConfig(
        params=params,
        replications=args.replications,
        seed=args.seed,
        projection=_parse_projection(args.projection),
        moment_order=args.order,
    )
    stats = simulate.simulate_batch(config)
    payload = stats.to_obj()
    env = build_envelope(
        "simulate",
        {
            "n": args.n,
            "k": args.k,
            "replications": args.replications,
            "seed": args.seed,
            "projection": payload["projection"],
            "order": args.order,
        },
        payload,
        {"rng": stats.rng_id},
    )
    _write(env, args.out, args.format)
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    params = ProcessParams(args.n, args.k)
    kw = {} if args.cap is None else {"cap": args.cap}
    code = 0
    diagnostics: dict[str, Any] = {}
    if args.compare:
        a = exact.pmf_split(params, **kw)
        b = exact.pmf_direct(params, **kw)
        tv = a.total_variation(b)
        diagnostics = {
            "total_variation": float(tv),
            "total_variation_exact": f"{tv.numerator}/{tv.denominator}",
            "methods_agree": tv == 0,
        }
        payload = {"states": a.to_rows()}
        if tv != 0:
            code = 1
    else:
        payload = {"states": exact.pmf_split(params, **kw).to_rows()}
    env = build_envelope(
        "exact", {"n": args.n, "k": args.k, "compare": args.compare}, payload, diagnostics
    )
    _write(env, args.out, args.format)
    return code


def _cmd_moments(args: argparse.Namespace) -> int:
    wanted = [t.strip() for t in args.tables.split(",") if t.strip()]
    unknown = set(wanted) - {"mean", "cov", "projected"}
    if unknown:
        raise ValueError(f"unknown tables {sorted(unknown)}")
    k, n_max = args.k, args.n_max
    moments._check_kn(k, n_max)  # every argument is checked, also when no table uses it
    proj = _parse_projection(args.projection) or tuple([1.0] * (k - 1))
    if len(proj) != k - 1:
        raise ValueError(f"projection must have length {k - 1}")
    moments._check_order(args.order)
    tables = []
    diagnostics: dict[str, Any] = {}
    if "mean" in wanted:
        tables.append({"table": "mean", "values": moments.mean_recursion(k, n_max).values})
    if "cov" in wanted:
        ct = moments.cross_moment_recursion(k, n_max)
        tables.append({"table": "cov", "values": ct.cov})
        diagnostics["cov"] = {"continued_from": ct.continued_from}
    if "projected" in wanted:
        pt = moments.projected_moment_recursion(proj, k, n_max, args.order)
        tables.append({"table": "raw", "values": pt.raw})
        tables.append({"table": "standardized", "values": pt.standardized})
        diagnostics["projected"] = {
            "continued_from": pt.continued_from,
            "shift_rate": pt.shift_rate,
            "cumulant_rates": pt.cumulant_rates,
        }
    env = build_envelope(
        "moments",
        {
            "k": k,
            "n_max": n_max,
            "tables": wanted,
            "projection": args.projection,
            "order": args.order,
        },
        {"tables": tables},
        diagnostics,
    )
    _write(env, args.out, args.format)
    return 0


def _cmd_asympt(args: argparse.Namespace) -> int:
    quad = asy.constants_by_quadrature(args.k)
    ext = asy.constants_by_extrapolation(args.k)
    env = build_envelope("asympt", {"k": args.k}, _constants_block(args.k, quad, ext))
    _write(env, args.out, args.format)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = verify.run_all(quick=args.quick)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if args.out:
        payload = {
            "checks": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "measured": r.measured,
                    "elapsed_s": r.elapsed_s,
                    "stages": r.stages,
                }
                for r in results
            ]
        }
        env = build_envelope("verify", {"quick": args.quick}, payload)
        _write(env, args.out, args.format)
    return 0 if not failed else 1


def _cmd_report(args: argparse.Namespace) -> int:
    moments._check_k(args.k_max)  # before any block is computed
    blocks = [
        _constants_block(k, asy.constants_by_quadrature(k), asy.constants_by_extrapolation(k))
        for k in range(2, args.k_max + 1)
    ]
    env = build_envelope("report", {"k_max": args.k_max}, {"constants": blocks})
    _write(env, args.out, args.format)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "exact": _cmd_exact,
        "moments": _cmd_moments,
        "asympt": _cmd_asympt,
        "verify": _cmd_verify,
        "report": _cmd_report,
    }
    try:
        return handlers[args.cmd](args)
    except (ValueError, exact.CapExceededError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
