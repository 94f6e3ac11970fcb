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
import json
import math
import os
import sys
from datetime import datetime, timezone
from typing import Any, Sequence

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


def _simulate_rows(payload: dict) -> list[list]:
    rows: list[list] = []
    for i, v in enumerate(payload["mean"], start=1):
        rows.append(["mean", i, "", "", repr(v)])
    for i, v in enumerate(payload["mean_se"], start=1):
        rows.append(["mean_se", i, "", "", repr(v)])
    for i, row in enumerate(payload["cov"], start=1):
        for j, v in enumerate(row, start=1):
            rows.append(["cov", i, j, "", repr(v)])
    for m, v in enumerate(payload["std_moments"]):
        rows.append(["std_moment", "", "", m, repr(v)])
    for m, v in enumerate(payload["std_moment_se"]):
        rows.append(["std_moment_se", "", "", m, repr(v)])
    return rows


def _moments_rows(payload: dict) -> list[list]:
    return [row for entry in payload["tables"] for row in entry_rows(entry)]


def entry_rows(entry: dict) -> list[list]:
    rows = []
    table = entry["table"]
    arr = np.asarray(entry["values"]).tolist()  # numpy 2 scalars repr as np.float64(...)
    if table == "mean":
        for n, row in enumerate(arr):
            for i, v in enumerate(row, start=1):
                rows.append([table, n, i, "", "", repr(v)])
    elif table == "cov":
        for n, mat in enumerate(arr):
            for i, row in enumerate(mat, start=1):
                for j, v in enumerate(row, start=1):
                    rows.append([table, n, i, j, "", repr(v)])
    else:  # raw / standardized projected moments
        for n, row in enumerate(arr):
            for m, v in enumerate(row):
                rows.append([table, n, "", "", m, repr(v)])
    return rows


def _constants_rows(blocks: list[dict]) -> list[list]:
    rows: list[list] = []
    for block in blocks:
        k = block["k"]
        for route in ("quadrature", "extrapolation"):
            c = block[route]
            for i, v in enumerate(np.asarray(c["rates"]).tolist(), start=1):
                rows.append([k, "rate", route, i, "", repr(v)])
            for i, row in enumerate(np.asarray(c["cov_rates"]).tolist(), start=1):
                for j, v in enumerate(row, start=1):
                    rows.append([k, "cov_rate", route, i, j, repr(v)])
            rows.append([k, "vacancy_rate", route, "", "", repr(c["vacancy_rate"])])
    return rows


def _verify_rows(payload: dict) -> list[list]:
    return [[r["name"], r["passed"], r["measured"], repr(r["elapsed_s"])] for r in payload["checks"]]


_CONSTANTS_HEADER = ["k", "quantity", "route", "i", "j", "value"]

# tool -> (CSV header, payload -> rows)
_CSV_SCHEMAS = {
    "exact": (["counts", "hats", "prob_num", "prob_den", "prob"], _exact_rows),
    "simulate": (["quantity", "i", "j", "order", "value"], _simulate_rows),
    "moments": (["table", "n", "i", "j", "order", "value"], _moments_rows),
    "asympt": (_CONSTANTS_HEADER, lambda payload: _constants_rows([payload])),
    "report": (_CONSTANTS_HEADER, lambda payload: _constants_rows(payload["constants"])),
    "verify": (["name", "passed", "measured", "elapsed_s"], _verify_rows),
}


def _json_pieces(obj: Any, indent: str, out: list[str]) -> None:
    """Append the text of ``json.dumps(obj, sort_keys=True, indent=2)`` to ``out``.

    ``indent`` is the indentation of the line ``obj`` starts on.  Scalars
    and keys go through ``json.dumps`` itself, so escaping, NaN/Infinity
    and big ints read exactly as the standard encoder writes them.  A list
    of finite floats, or a float array with finite entries, is written in
    one join; any other array is written as its ``tolist()``.
    """
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key, value in sorted(obj.items()):
            # non-str keys become their JSON text, quoted, as the encoder does
            out += (sep, json.dumps(key if isinstance(key, str) else json.dumps(key)), ": ")
            _json_pieces(value, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(obj, np.ndarray):
        text = None
        if obj.ndim and obj.size and obj.dtype.kind == "f":
            text = _float_join(obj.ravel().tolist(), obj.shape, indent)
        if text is not None:
            out.append(text)
        else:
            _json_pieces(obj.tolist(), indent, out)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        # a flat float list, such as simulate's (k-1)^2 covariance entries at large k
        text = _float_join(obj, (len(obj),), indent)
        if text is not None:
            out.append(text)
            return
        inner = indent + "  "
        sep = ",\n" + inner
        out.append("[\n" + inner)
        for i, item in enumerate(obj):
            if i:
                out.append(sep)
            _json_pieces(item, inner, out)
        out.append("\n" + indent + "]")
    else:
        out.append(json.dumps(obj))


def _float_join(values: Sequence, shape: tuple[int, ...], indent: str) -> str | None:
    """The JSON text of ``values`` nested in ``shape`` if all are finite floats, else None.

    ``values`` lists the entries in row-major order, and no axis of
    ``shape`` is empty.  The text is what ``json.dumps(..., indent=2)``
    writes for the nested lists on a line indented by ``indent``.  One join
    interleaves the float reprs with separators built once from the shape:
    a comma, a newline and the indent inside a row, and the runs of ``]``
    and ``[`` where axes wrap.
    """
    if not isinstance(values[0], float):
        return None
    try:
        texts = list(map(float.__repr__, values))
    except TypeError:  # an item that is not a float
        return None
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
    text = "".join(pieces)
    # only nan and inf put an "n" in a float repr; JSON spells them NaN/Infinity
    return None if "n" in text else text


def render(envelope: dict, fmt: str) -> str:
    """Serialize an envelope; JSON carries provenance, CSV the payload only.

    The JSON text is exactly ``json.dumps(envelope, sort_keys=True,
    indent=2)`` plus a newline.
    """
    if fmt == "json":
        out: list[str] = []
        _json_pieces(envelope, "", out)
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
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


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
    ex.add_argument("--method", choices=("split", "direct"), default="split")
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
    ay.add_argument("--nodes", type=int, default=asy.DEFAULT_OUTER_NODES)
    ay.add_argument("--inner-nodes", type=int, default=asy.DEFAULT_INNER_NODES)
    ay.add_argument("--n-max", type=int, default=300, help="extrapolation table depth")
    _add_common(ay)

    ve = sub.add_parser("verify", help="run the full verification suite")
    ve.add_argument("--quick", action="store_true", help="smoke-scale sampling checks")
    _add_common(ve)

    re = sub.add_parser("report", help="constants table for a range of k")
    re.add_argument("--k-max", type=int, default=8)
    re.add_argument("--n-max", type=int, default=300)
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
        fn = exact.pmf_split if args.method == "split" else exact.pmf_direct
        pmf = fn(params, **kw)
        payload = {"states": pmf.to_rows()}
    env = build_envelope(
        "exact",
        {"n": args.n, "k": args.k, "method": args.method, "compare": args.compare},
        payload,
        diagnostics,
    )
    _write(env, args.out, args.format)
    return code


def _cmd_moments(args: argparse.Namespace) -> int:
    wanted = [t.strip() for t in args.tables.split(",") if t.strip()]
    unknown = set(wanted) - {"mean", "cov", "projected"}
    if unknown:
        raise ValueError(f"unknown tables {sorted(unknown)}")
    k, n_max = args.k, args.n_max
    moments._check_kn(k, n_max)  # also when no table is asked for
    tables = []
    diagnostics: dict[str, Any] = {}
    if "mean" in wanted:
        tables.append({"table": "mean", "values": moments.mean_recursion(k, n_max).values})
    if "cov" in wanted:
        tables.append({"table": "cov", "values": moments.cross_moment_recursion(k, n_max).cov})
    if "projected" in wanted:
        proj = _parse_projection(args.projection) or tuple([1.0] * (k - 1))
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
    quad = asy.constants_by_quadrature(args.k, args.nodes, args.inner_nodes)
    ext = asy.constants_by_extrapolation(args.k, args.n_max)
    env = build_envelope(
        "asympt",
        {"k": args.k, "nodes": args.nodes, "inner_nodes": args.inner_nodes, "n_max": args.n_max},
        _constants_block(args.k, quad, ext),
    )
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
        _constants_block(
            k, asy.constants_by_quadrature(k), asy.constants_by_extrapolation(k, args.n_max)
        )
        for k in range(2, args.k_max + 1)
    ]
    env = build_envelope(
        "report", {"k_max": args.k_max, "n_max": args.n_max}, {"constants": blocks}
    )
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
    except (ValueError, exact.CapExceededError, OverflowError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
