"""Command line surface: schemas, determinism, exit codes."""
from __future__ import annotations

import csv
import io
import json
import math
import re
import runpy
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spacings import cli, exact, moments, simulate
from spacings.asymptotics import constants_by_extrapolation
from spacings.moments import MAX_K, MAX_N_MAX, MAX_ORDER
from spacings.cli import main, render


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


ENVELOPE_KEYS = {"config", "diagnostics", "payload", "timestamp", "tool", "version"}


def test_exact_json_envelope(capsys):
    code, env = run_json(capsys, "exact", "--n", "6", "--k", "2")
    assert code == 0
    assert set(env) == ENVELOPE_KEYS
    assert env["tool"] == "spacings exact"
    got = {
        (tuple(r["counts"]), r["hats"]): (r["prob_num"], r["prob_den"])
        for r in env["payload"]["states"]
    }
    assert got == {((0,), 3): (7, 15), ((2,), 2): (8, 15)}


def test_exact_compare_routes(capsys):
    code, env = run_json(capsys, "exact", "--n", "10", "--k", "3", "--compare")
    assert code == 0
    d = env["diagnostics"]
    assert d["methods_agree"] is True
    assert d["total_variation"] == 0.0


def test_exact_compare_exits_1_when_the_routes_disagree(capsys, monkeypatch):
    def moved(params, **kw):
        # move 1e-9 of mass from one state to another
        probs = dict(direct(params, **kw).probs)
        first, second = sorted(probs)[:2]
        probs[first] -= Fraction(1, 10**9)
        probs[second] += Fraction(1, 10**9)
        return exact.Pmf(params, probs)

    direct = exact.pmf_direct
    monkeypatch.setattr(exact, "pmf_direct", moved)
    code, env = run_json(capsys, "exact", "--n", "10", "--k", "3", "--compare")
    assert code == 1
    assert env["diagnostics"]["methods_agree"] is False
    assert env["diagnostics"]["total_variation_exact"] == "1/1000000000"


def test_exact_csv_schema(capsys):
    code, out = run(capsys, "exact", "--n", "6", "--k", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "counts,hats,prob_num,prob_den,prob"
    assert len(lines) == 3
    fields = lines[1].split(",")
    assert fields[:4] == ["0", "3", "7", "15"]
    assert float(fields[4]) == pytest.approx(7 / 15)


def test_simulate_deterministic_output(capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    replications = 2 * simulate.chunk_size(8, 2) + 5  # three chunks
    argv = ("simulate", "--n", "8", "--k", "2", "--replications", str(replications), "--seed", "7")
    monkeypatch.setattr(simulate, "_cpu_count", lambda: 1)
    _, first = run(capsys, *argv)
    _, again = run(capsys, *argv)
    assert first == again  # byte-identical rerun
    monkeypatch.setattr(simulate, "_cpu_count", lambda: 3)
    _, fanned = run(capsys, *argv)
    # the whole envelope, config included, is the same on any machine
    assert fanned == first
    env = json.loads(first)
    assert env["timestamp"].startswith("2023-11-14")
    assert env["config"] == {
        "n": 8, "k": 2, "replications": replications, "seed": 7, "projection": [1.0], "order": 8
    }


def test_moments_mean_table(capsys):
    code, env = run_json(capsys, "moments", "--k", "2", "--n-max", "8", "--tables", "mean")
    assert code == 0
    values = env["payload"]["tables"][0]["values"]
    assert values[4][0] == pytest.approx(2 / 3, rel=1e-14)


def test_moments_projected_table_reports_its_continuation(tmp_path):
    out = tmp_path / "m.json"
    argv = ["moments", "--k", "2", "--n-max", "20000", "--tables", "projected", "--out", str(out)]
    assert main(argv) == 0
    env = json.loads(out.read_text())
    raw, std = (entry["values"] for entry in env["payload"]["tables"])
    # the 8th standardized moment over sigma^8 rises toward the normal 105
    assert 104.9 < std[20000][8] / std[20000][2] ** 4 < 105
    projected = env["diagnostics"]["projected"]
    assert 0 < projected["continued_from"] < 20000
    rates = projected["cumulant_rates"]
    assert len(rates) == 9 and rates[0] == 0.0
    assert rates[1] == pytest.approx(math.exp(-2), rel=1e-12)  # the k=2 spacing rate
    assert rates[2] == pytest.approx(4 * math.exp(-4), rel=1e-12)  # and its variance rate
    assert projected["shift_rate"] == pytest.approx(math.exp(-2), rel=1e-12)
    assert raw[20000][1] == pytest.approx(rates[1] * 20002, rel=1e-12)


def test_moments_diagnostics_stay_empty_for_the_mean_table(capsys):
    code, env = run_json(capsys, "moments", "--k", "2", "--n-max", "100", "--tables", "mean")
    assert code == 0 and env["diagnostics"] == {}


def test_moments_cov_table_reports_its_continuation(capsys):
    code, env = run_json(capsys, "moments", "--k", "2", "--n-max", "100", "--tables", "cov")
    assert code == 0
    n0 = moments.cross_moment_recursion(2, 100).continued_from
    assert env["diagnostics"] == {"cov": {"continued_from": n0}}
    assert 0 < n0 < 100


def test_moments_rejects_unknown_table(capsys):
    code = main(["moments", "--k", "2", "--n-max", "8", "--tables", "median"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "unknown tables ['median']" in captured.err


def test_asympt_both_routes(capsys):
    code, env = run_json(capsys, "asympt", "--k", "2")
    assert code == 0
    p = env["payload"]
    assert p["quadrature"]["rates"][0] == pytest.approx(math.exp(-2), abs=1e-12)
    assert p["route_gap"]["rates"] < 1e-8
    assert p["quadrature"]["identity_gap"] < 1e-12
    assert env["config"] == {"k": 2}
    n0 = constants_by_extrapolation(2).diagnostics["continued_from"]
    assert p["extrapolation"]["diagnostics"] == {"continued_from": n0}


@pytest.mark.parametrize("argv", [("asympt", "--k", "2"), ("report", "--k-max", "2")])
def test_constants_commands_take_no_table_depth(capsys, argv):
    # the extrapolation reads each table where its rates settle
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--n-max", "300"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --n-max 300" in capsys.readouterr().err


def test_report_csv(capsys):
    code, out = run(capsys, "report", "--k-max", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,quantity,route,i,j,value"
    assert any(line.startswith("2,rate,quadrature,1") for line in lines)


def _csv_and_payload(capsys, *argv):
    """The CSV rows of one command line, and the JSON payload of the same line."""
    code, out = run(capsys, *argv, "--format", "csv")
    assert code == 0
    code, env = run_json(capsys, *argv)
    assert code == 0
    return list(csv.reader(io.StringIO(out))), env["payload"]


def _entry(values, cells, names):
    """The entry of a JSON array that a CSV row names by its index cells (i and j from 1)."""
    for name, cell in zip(names, cells):
        if cell:
            values = values[int(cell) - (name in ("i", "j"))]
    return values


def _assert_rows_are_the_arrays(rows, arrays, lead):
    # every row reads one entry of its array, and every entry has its row
    header = rows[0]
    for row in rows[1:]:
        want = _entry(arrays[tuple(row[:lead])], row[lead:-1], header[lead:-1])
        assert row[-1] == repr(want)
    assert len(rows) - 1 == sum(np.size(a) for a in arrays.values())


def test_moments_csv_rows_match_json(capsys):
    rows, payload = _csv_and_payload(
        capsys, "moments", "--k", "3", "--n-max", "12", "--tables", "mean,cov,projected"
    )
    assert rows[0] == ["table", "n", "i", "j", "order", "value"]
    tables = {(e["table"],): e["values"] for e in payload["tables"]}
    assert ["cov", "5", "1", "2", "", repr(tables["cov",][5][0][1])] in rows
    assert ["standardized", "7", "", "", "4", repr(tables["standardized",][7][4])] in rows
    assert ["mean", "0", "1", "", "", "0.0"] in rows
    _assert_rows_are_the_arrays(rows, tables, 1)


def test_simulate_csv_rows_match_json(capsys):
    rows, payload = _csv_and_payload(
        capsys, "simulate", "--n", "12", "--k", "3", "--replications", "500", "--seed", "4"
    )
    assert rows[0] == ["quantity", "i", "j", "order", "value"]
    names = {"std_moment": "std_moments"}  # the other quantities are their payload keys
    keys = ("mean", "mean_se", "cov", "std_moment", "std_moment_se")
    arrays = {(key,): payload[names.get(key, key)] for key in keys}
    assert ["cov", "1", "2", "", repr(payload["cov"][0][1])] in rows
    assert ["std_moment", "", "", "3", repr(payload["std_moments"][3])] in rows
    _assert_rows_are_the_arrays(rows, arrays, 1)


def test_asympt_csv_rows_match_json(capsys):
    rows, payload = _csv_and_payload(capsys, "asympt", "--k", "4")
    assert rows[0] == ["k", "quantity", "route", "i", "j", "value"]
    names = {"rate": "rates", "cov_rate": "cov_rates", "vacancy_rate": "vacancy_rate"}
    arrays = {
        ("4", quantity, route): payload[route][key]
        for quantity, key in names.items()
        for route in ("quadrature", "extrapolation")
    }
    vacancy = payload["extrapolation"]["vacancy_rate"]
    assert ["4", "vacancy_rate", "extrapolation", "", "", repr(vacancy)] in rows
    cov = payload["quadrature"]["cov_rates"]
    assert ["4", "cov_rate", "quadrature", "3", "1", repr(cov[2][0])] in rows
    _assert_rows_are_the_arrays(rows, arrays, 3)


def test_verify_quick_line_per_check(capsys, tmp_path):
    out_file = tmp_path / "verify.json"
    code, out = run(capsys, "verify", "--quick", "--out", str(out_file))
    lines = out.strip().split("\n")
    check_lines = [l for l in lines if re.match(r"^(PASS|FAIL)\s+\d{2} ", l)]
    assert len(check_lines) == 12
    all_passed = all(l.startswith("PASS") for l in check_lines)
    assert code == (0 if all_passed else 1)
    assert re.match(r"^\d+/12 checks passed$", lines[-1])
    report = json.loads(out_file.read_text())
    checks = report["payload"]["checks"]
    assert len(checks) == 12
    stage_keys = {c["name"][:2]: set(c["stages"]) for c in checks}
    assert stage_keys["04"] == {"sample_s", "law_s"}
    assert stage_keys["12"] == {"sample_s", "scalar_s"}
    assert all(not keys for name, keys in stage_keys.items() if name not in ("04", "12"))
    for c in checks:
        assert all(v >= 0 for v in c["stages"].values())
        assert sum(c["stages"].values()) <= c["elapsed_s"]


def test_out_dir_env_joins_relative_paths(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SPACINGS_OUT_DIR", str(tmp_path))
    code, _ = run(capsys, "exact", "--n", "4", "--k", "2", "--out", "sub/law.json")
    assert code == 0
    env = json.loads((tmp_path / "sub" / "law.json").read_text())
    assert env["tool"] == "spacings exact"


def test_resource_errors_exit_2(capsys):
    code, _ = run(capsys, "exact", "--n", "100", "--k", "2")
    assert code == 2
    code, _ = run(capsys, "moments", "--k", "1", "--n-max", "10")
    assert code == 2
    argv = ("--n", "400", "--k", "2", "--order", "200", "--replications", "2000")
    code, out = run(capsys, "simulate", *argv)
    assert code == 2 and out == ""


def test_simulate_rejects_a_row_past_the_32_bit_decode_before_any_work(capsys, monkeypatch):
    def forbidden(*args):
        raise AssertionError("work started")

    # unpatched, the shift, then the sampler's split tree, would run at n = 2**32 + 2
    monkeypatch.setattr(simulate, "_mean_at", forbidden)
    monkeypatch.setattr(simulate, "map_chunks", forbidden)
    tracemalloc.start()
    try:
        code = main(["simulate", "--n", "4294967298", "--k", "2", "--replications", "1"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "n - k + 1 < 2**32 starts, got n=4294967298, k=2" in captured.err
    assert peak < 1 << 20


def test_bad_projection_is_a_usage_error(capsys):
    for argv in (
        ["simulate", "--n", "10", "--k", "2", "--projection", "1,2"],
        ["moments", "--k", "2", "--n-max", "10", "--tables", "projected", "--projection", "1,2"],
        ["moments", "--k", "2", "--n-max", "10", "--tables", "mean", "--projection", "1,2"],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "projection must have length 1" in captured.err


PROJECTION_COMMANDS = pytest.mark.parametrize(
    "argv",
    [
        ("moments", "--k", "2", "--n-max", "6", "--tables", "projected", "--order", "2"),
        pytest.param(("moments", "--k", "2", "--n-max", "6", "--tables", "mean"), id="moments_mean"),
        ("simulate", "--n", "10", "--k", "2", "--replications", "100", "--order", "2"),
    ],
    ids=lambda argv: argv[0],
)


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
@PROJECTION_COMMANDS
def test_non_finite_projection_is_a_usage_error(capsys, argv, weight):
    code = main([*argv, f"--projection={weight}"])  # "=": -inf is not an option
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--projection weights must be finite" in captured.err


@pytest.mark.parametrize("weight", ["abc", "0x1", ""])
@PROJECTION_COMMANDS
def test_non_numeric_projection_names_the_option(capsys, argv, weight):
    code = main([*argv, f"--projection={weight}"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"--projection weights must be numbers, got {weight}\n" in captured.err


@pytest.mark.parametrize("flag", ["--nodes", "--inner-nodes"])
def test_asympt_takes_no_node_count(capsys, flag):
    # one Gauss-Legendre rule of DEFAULT_OUTER_NODES serves every integral
    with pytest.raises(SystemExit) as exit_info:
        main(["asympt", "--k", "2", flag, "64"])
    captured = capsys.readouterr()
    assert exit_info.value.code == 2 and captured.out == ""
    assert f"unrecognized arguments: {flag} 64" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("moments", "--k", "2", "--n-max", str(MAX_N_MAX + 1)), f"0..{MAX_N_MAX}, got"),
        (("moments", "--k", str(MAX_K + 1), "--n-max", "10"), f"2..{MAX_K}, got"),
        (
            ("moments", "--k", "2", "--n-max", "10", "--tables", "projected",
             "--order", str(MAX_ORDER + 1)),
            f"2..{MAX_ORDER}, got",
        ),
        (("asympt", "--k", str(MAX_K + 1)), f"2..{MAX_K}, got"),
        (("report", "--k-max", str(MAX_K + 1)), f"2..{MAX_K}, got"),
        (("report", "--k-max", "1"), f"2..{MAX_K}, got 1"),
        (("report", "--k-max", "0"), f"2..{MAX_K}, got 0"),
        (("simulate", "--n", "10", "--k", "2", "--order", str(MAX_ORDER // 2 + 1)),
         f"2..{MAX_ORDER // 2}, got {MAX_ORDER // 2 + 1}"),
        (("simulate", "--n", "10", "--k", "2", "--seed", "-1"), "seed must be >= 0, got -1"),
        # the projection's scale, not the order, takes these out of double range
        (("moments", "--k", "2", "--n-max", "400", "--tables", "projected",
          "--projection", "1e40"), "lower the order, n_max or the projection's scale"),
        (("simulate", "--n", "10", "--k", "2", "--replications", "5", "--projection", "1e308"),
         "lower the order or the projection's scale"),
        # the order is checked whatever the tables
        (("moments", "--k", "2", "--n-max", "10", "--tables", "mean", "--order", str(MAX_ORDER + 1)),
         f"2..{MAX_ORDER}, got"),
        (("moments", "--k", "2", "--n-max", "10", "--tables", "mean", "--order", "1"),
         f"2..{MAX_ORDER}, got 1"),
    ],
)
def test_arguments_one_past_their_bounds_exit_2(capsys, argv, message):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("out", ["/", "file/env.json"], ids=["directory", "under_a_file"])
def test_unwritable_out_path_is_a_usage_error(capsys, tmp_path, out):
    (tmp_path / "file").write_text("")
    path = str(tmp_path / out)  # "/" stays the root
    code = main(["exact", "--n", "4", "--k", "2", "--out", path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"cannot write --out {path}: " in captured.err


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SCRIPT_ERRORS = [
    (("clt_moments.py", "--k", "3", "--projection", "1"), "projection must have length 2"),
    (("clt_moments.py", "--k", "1"), f"k must lie in 2..{MAX_K}, got 1"),
    (("averaging_gap.py", "--beta", "1"), "beta must exceed 1, got beta=1.0"),
    (("averaging_gap.py", "--k", "1"), f"k must lie in 2..{MAX_K}, got 1"),
    (("sim_vs_exact.py", "--reps", "0"), "replications must be >= 1"),
    (("sim_vs_exact.py", "--seed", "-1"), "seed must be >= 0, got -1"),
]


@pytest.mark.parametrize(
    "argv, message", SCRIPT_ERRORS, ids=[" ".join(argv) for argv, _ in SCRIPT_ERRORS]
)
def test_scripts_exit_2_on_invalid_input(capsys, monkeypatch, argv, message):
    script, *args = argv
    monkeypatch.setattr(sys, "argv", [script, *args])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    captured = capsys.readouterr()
    assert exit_info.value.code == 2 and captured.out == ""
    assert f"{script}: error: {message}" in captured.err


SCRIPT_RUNS = [
    ("averaging_gap.py",),
    ("sim_vs_exact.py", "--reps", "2000"),
    ("clt_moments.py", "--reps", "2000"),
]


@pytest.mark.parametrize("argv", SCRIPT_RUNS, ids=[" ".join(argv) for argv in SCRIPT_RUNS])
def test_scripts_run_to_exit_0(capsys, monkeypatch, argv):
    script, *args = argv
    monkeypatch.setattr(sys, "argv", [script, *args])
    try:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    except SystemExit as exit_info:
        assert exit_info.code in (0, None)
    captured = capsys.readouterr()
    assert captured.out and captured.err == ""


def _stdlib_json(obj) -> str:
    # arrays are encoded as their nested lists, which is what render promises
    return json.dumps(obj, sort_keys=True, indent=2, default=np.ndarray.tolist) + "\n"


_TRICKY_TEXT = st.text(alphabet='"\\,\n\t:{}[] a\u00e9\u2603\U0001f600\x00')
_FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, 2.2e-308, float("inf"), float("-inf")])
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    _FLOATS,
    _FLOATS.map(np.float64),
    st.text(),
    _TRICKY_TEXT,
)
# lists are written by the standard encoder; ints and np.float64 items mix in
_ROWS = st.lists(_FLOATS | _FLOATS.map(np.float64) | st.integers(), max_size=6)
# float arrays with finite entries, 0-d ones too, are joined in one pass; ints,
# non-finite entries and zero-size arrays go to the standard encoder as their tolist()
_ARRAYS = st.sampled_from(["float64", "float32", "float16", "int64"]).flatmap(
    lambda dtype: hnp.arrays(
        dtype,
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
        elements=st.integers(-(2**40), 2**40) if dtype == "int64" else _FLOATS,
    )
)
_KEYS = st.text(max_size=4) | _TRICKY_TEXT
_TREES = st.recursive(
    _SCALARS | _ROWS | _ARRAYS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_KEYS, children, max_size=4),
    ),
    max_leaves=40,
)


# hypothesis casts float64 draws into float16/float32 arrays; overflow to inf is wanted
@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
@given(st.dictionaries(_KEYS, _TREES, max_size=6))
# strings shaped like a placeholder (32 hex digits, with an index or without), bare and quoted
@example({
    "0" * 32 + "0": "0123456789abcdef" * 2 + "0",
    "b": "f" * 32,
    "q": '"' + "f" * 32 + '1"',
    "a": np.ones(2),
})
# arrays three lists deep, beside empty containers and a zero-size array
@example({"x": [[[np.arange(6.0).reshape(2, 3)]], [], {}, np.zeros((0, 2)), [[np.ones(1)]]]})
# a non-finite array and a 0-d array inside a list
@example({"y": [np.array([1.0, np.nan, -np.inf]), np.array(2.5), np.array([0.5])]})
def test_json_render_matches_stdlib_bytes(env):
    assert render(env, "json") == _stdlib_json(env)


def test_json_render_matches_stdlib_non_str_keys():
    for env in ({1: 2}, {None: 1}, {1.5: [0.5]}, {True: {}}, {float("nan"): ()}):
        assert render(env, "json") == _stdlib_json(env)


@pytest.mark.parametrize(
    "argv",
    [
        ("exact", "--n", "12", "--k", "3", "--compare"),
        ("moments", "--k", "3", "--n-max", "40", "--tables", "mean,cov,projected"),
        ("asympt", "--k", "3"),
        ("report", "--k-max", "3"),
        ("simulate", "--n", "12", "--k", "3", "--replications", "500"),
        ("verify", "--quick"),
    ],
    ids=lambda argv: argv[0],
)
def test_json_render_matches_stdlib_on_real_envelopes(argv, monkeypatch, tmp_path, capsys):
    seen = []

    def checked(envelope, fmt):
        text = render(envelope, fmt)
        seen.append(text == _stdlib_json(envelope))
        return text

    monkeypatch.setattr(cli, "render", checked)
    main([*argv, "--out", str(tmp_path / "env.json")])
    assert seen == [True]


def _as_lists(obj, arrays: list):
    """``obj`` with each ndarray replaced by its ``tolist()``; the arrays go to ``arrays``."""
    if isinstance(obj, np.ndarray):
        arrays.append(obj)
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: _as_lists(value, arrays) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(_as_lists(item, arrays) for item in obj)
    return obj


@pytest.mark.parametrize(
    "argv",
    [
        ("moments", "--k", "3", "--n-max", "60", "--tables", "mean,cov,projected",
         "--projection", "1,-0.5"),
        ("report", "--k-max", "3"),
        ("simulate", "--n", "12", "--k", "3", "--replications", "500"),
        ("asympt", "--k", "3"),
    ],
    ids=lambda argv: argv[0],
)
def test_payload_arrays_render_as_their_lists(argv, monkeypatch, tmp_path):
    envelopes = []

    def kept(envelope, fmt):
        envelopes.append(envelope)
        return render(envelope, fmt)

    monkeypatch.setattr(cli, "render", kept)
    assert main([*argv, "--out", str(tmp_path / "env.json")]) == 0
    [envelope] = envelopes
    arrays: list = []
    lists = _as_lists(envelope, arrays)
    assert arrays  # the tables travel as arrays
    for fmt in ("json", "csv"):
        assert render(envelope, fmt) == render(lists, fmt)
