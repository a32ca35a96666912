"""Command-line surface: formats, round-trips, exit codes."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import xlegendre.cli as cli
import xlegendre.xfamily as xfamily
from helpers import run_cli as _run
from xlegendre import (
    FamilyKey,
    Poly,
    exceptional_poly,
    legendre_poly,
    norm_of,
    recursive_family,
    tau,
)

F = Fraction


# -- gen ------------------------------------------------------------------------


def test_gen_json_roundtrips_exact_polynomials():
    res = _run("gen", "--m", "4", "--t", "26/5", "--i", "0..5")
    assert res.exit_code == 0, res.output
    blob = json.loads(res.output)
    key = FamilyKey((4,), (F(26, 5),))
    assert blob["m"] == [4] and blob["t"] == ["26/5"]
    assert blob["admissible"] is True
    assert Poly.from_json(blob["tau"]) == tau(key)
    for entry in blob["polys"]:
        p = Poly.from_json(entry["coeffs"])
        assert p == exceptional_poly(key, entry["i"])
        assert entry["degree"] == p.degree
    assert blob["norms"][4] == "10/97"


def test_gen_classical_family():
    res = _run("gen", "--m", "", "--i", "0..3")
    assert res.exit_code == 0
    blob = json.loads(res.output)
    assert blob["m"] == [] and Poly.from_json(blob["tau"]) == Poly.one()
    for entry in blob["polys"]:
        assert Poly.from_json(entry["coeffs"]) == legendre_poly(entry["i"])


def test_gen_records_original_key_when_merged():
    res = _run("gen", "--m", "3,3", "--t", "1/2,1/2", "--i", "0..1")
    assert res.exit_code == 0
    blob = json.loads(res.output)
    assert blob["m"] == [3] and blob["t"] == ["1/1"]
    assert blob["original"] == {"m": [3, 3], "t": ["1/2", "1/2"]}


def test_gen_two_level_figure_point():
    res = _run("gen", "--m", "1,2", "--t", "2,-8/5", "--i", "0..4")
    assert res.exit_code == 0
    blob = json.loads(res.output)
    key = FamilyKey((1, 2), (F(2), F(-8, 5)))
    assert Poly.from_json(blob["tau"]) == tau(key)
    assert [e["i"] for e in blob["polys"]] == [0, 1, 2, 3, 4]
    assert blob["norms"] == [
        "2/1",
        "2/7",
        "10/9",
        "2/7",
        "2/9",
    ]


def test_gen_csv_format():
    res = _run("gen", "--m", "0", "--t", "1", "--i", "0..1", "--format", "csv")
    assert res.exit_code == 0
    rows = list(csv.reader(io.StringIO(res.output)))
    assert rows[0][:2] == ["label", "degree"]
    assert rows[1][0] == "tau" and rows[1][1] == "1"
    assert rows[1][2:] == ["2/1", "1/1"]
    assert rows[2][0] == "P[0]"


def test_gen_output_file(tmp_path):
    out = tmp_path / "family.json"
    res = _run("gen", "--m", "1", "--t", "1", "--i", "0..1", "--out", str(out))
    assert res.exit_code == 0
    blob = json.loads(out.read_text())
    assert blob["m"] == [1]


@pytest.mark.parametrize("args", [("--i", "5..1"), ("--t", "x"), ("--m", "1,2")])
def test_gen_refused_input_creates_no_out_file(tmp_path, args):
    out = tmp_path / "family.json"
    res = _run("gen", "--m", "1", "--t", "1", *args, "--out", str(out))
    assert res.exit_code == 2
    assert not out.exists()


_EVERY_COMMAND = [
    ("gen", "--i", "0..1"),
    ("verify", "--max-i", "2", "--suites", "degree"),
    ("weight", "--samples", "3"),
    ("degrees", "--max-i", "2"),
]


@pytest.mark.parametrize("command", _EVERY_COMMAND)
@pytest.mark.parametrize("target", ["missing directory", "directory"])
def test_unwritable_out_exits_2_without_traceback(tmp_path, command, target):
    out = tmp_path / "missing" / "x.out" if target == "missing directory" else tmp_path
    name, *rest = command
    res = _run(name, "--m", "1", "--t", "1", *rest, "--out", str(out))
    assert res.exit_code == 2
    assert f"cannot write --out {out}: " in res.stderr
    assert "Traceback" not in res.stderr
    assert res.output == ""


@pytest.mark.parametrize("command", _EVERY_COMMAND)
@pytest.mark.parametrize("t", ["1/0", "0/0"])
def test_zero_denominator_in_t_exits_2_without_traceback(tmp_path, command, t):
    out = tmp_path / "x.out"
    name, *rest = command
    res = _run(name, "--m", "1", "--t", t, *rest, "--out", str(out))
    assert res.exit_code == 2
    assert "invalid family key" in res.stderr
    assert "Traceback" not in res.stderr
    assert res.output == ""
    assert not out.exists()


def test_verify_refuses_unwritable_out_before_any_suite(tmp_path, monkeypatch):
    def never(key, max_i):
        pytest.fail("a suite ran before --out was opened")

    for name in cli._SUITE_RUNNERS:
        monkeypatch.setitem(cli._SUITE_RUNNERS, name, never)
    out = tmp_path / "missing" / "x.json"
    res = _run("verify", "--m", "63", "--t", "1", "--max-i", "12", "--suites", "all",
               "--out", str(out))
    assert res.exit_code == 2
    assert f"cannot write --out {out}: " in res.stderr
    assert res.output == ""


def test_gen_invalid_inputs_exit_2():
    assert _run("gen", "--m", "1", "--t", "x").exit_code == 2
    assert _run("gen", "--m", "1,2", "--t", "1").exit_code == 2
    assert _run("gen", "--m", "-3", "--t", "1").exit_code == 2
    assert _run("gen", "--m", "1", "--t", "1", "--i", "5..1").exit_code == 2
    assert _run("gen", "--m", "1", "--t", "1", "--i", "a").exit_code == 2


# sha256 of the output bytes of one 4-level key at index 130, taken from the
# Fraction-based antiderivative, per-term products and Fraction rendering
_GEN_DIGESTS = {
    "json": "b5a876569d95dd8d5dd46d5dda0d543bb9ff037c0f223684434af8cec1621d61",
    "csv": "92c572ee9401879f1356b2555faf6cf69e273f792f826fa6ba5045c3cd357203",
}


@pytest.mark.parametrize("fmt", sorted(_GEN_DIGESTS))
def test_gen_high_index_bytes_pinned(fmt):
    res = _run(
        "gen", "--m", "0,1,2,4", "--t", "897/722,323/239,668/1003,409/313",
        "--i", "0..130", "--format", fmt,
    )
    assert res.exit_code == 0
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == _GEN_DIGESTS[fmt]


# sha256 of a 2-level key's CSV up to index 200, taken while every index above
# 12 was built with two Kronecker products by P_i and P_{i-1}
_GEN_ROUTE_DIGEST = "2e4dbce6e307edfbb10b0ebd4dd6cd9a5dc65d6ffa2179557be0d76d4f02c795"


def test_gen_bytes_pinned_across_slot_widenings(monkeypatch):
    # a fresh family: the route starts at 13 and widens its slots several times
    monkeypatch.setattr(xfamily, "_FAMILY_CACHE", {})
    assert xfamily._capacity(xfamily._capacity(xfamily._capacity(13) + 1) + 1) < 200
    res = _run("gen", "--m", "31,32", "--t", "1,1", "--i", "0..200", "--format", "csv")
    assert res.exit_code == 0, res.stderr
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == _GEN_ROUTE_DIGEST


# in-process tracemalloc peak of a fresh 2-level family up to index 200 written
# to os.devnull, in bytes; in a fresh process it measured 1.2 MB as JSON and
# 1.5 MB as CSV once each polynomial was dropped after it was written (33.0
# and 5.2 MB while every polynomial was held and the JSON text built whole)
_GEN_PEAK_BOUND = 3_000_000


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_gen_holds_one_polynomial_at_a_time(monkeypatch, fmt):
    monkeypatch.setattr(xfamily, "_FAMILY_CACHE", {})
    args = ["gen", "--m", "31,32", "--t", "1,1", "--i", "0..200", "--format", fmt]
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as exc:
            cli.main.main([*args, "--out", os.devnull])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.code == 0
    assert peak < _GEN_PEAK_BOUND, peak


# -- the JSON writer --------------------------------------------------------------

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


def _generators_for_lists(obj):
    """obj with every list replaced by a generator over its converted items."""
    if isinstance(obj, list):
        return (_generators_for_lists(v) for v in obj)
    if isinstance(obj, dict):
        return {k: _generators_for_lists(v) for k, v in obj.items()}
    return obj


def _written(obj) -> str:
    out = io.StringIO()
    cli._write_json(obj, out)
    return out.getvalue()


@given(_json_values)
@example({"polys": [], "tail": {}})
@example({"polys": ["a", "\u00e9\n\"\\", "\ud800"], "n": [1, {"k": []}, None, True]})
def test_json_writer_matches_json_dumps(obj):
    want = json.dumps(obj, indent=2) + "\n"
    assert _written(obj) == want
    assert _written(_generators_for_lists(obj)) == want


# -- input caps -------------------------------------------------------------------


@pytest.fixture
def no_family_built(monkeypatch):
    def refuse(key):
        raise AssertionError(f"family built for {key}")

    monkeypatch.setattr(xfamily, "_FAMILY_CACHE", {})
    monkeypatch.setattr(xfamily, "XFamily", refuse)


_OVER_LEVELS = (",".join(str(v) for v in range(cli.MAX_LEVELS + 1)),
                ",".join(["1"] * (cli.MAX_LEVELS + 1)))
_HALF = cli.MAX_TAU_DEGREE // 2
_OVER_TAU_DEGREE = (str(_HALF), f"1,{_HALF - 1}", f"{_HALF // 2},{_HALF - _HALF // 2}")


@pytest.mark.parametrize(
    "args",
    [
        ("gen", "--i", f"0..{cli.MAX_GEN_INDEX + 1}"),
        ("gen", "--i", f"{cli.MAX_GEN_INDEX + 1}"),
        ("gen", "--i", f"3,{cli.MAX_GEN_INDEX + 1}"),
        ("gen", "--i", "0..1000000000000"),
        ("verify", "--max-i", str(cli.MAX_CHECK_INDEX + 1)),
        ("degrees", "--max-i", str(cli.MAX_CHECK_INDEX + 1)),
        ("weight", "--samples", str(cli.MAX_SAMPLES + 1)),
        ("gen", "--m", _OVER_LEVELS[0], "--t", _OVER_LEVELS[1]),
        ("verify", "--m", _OVER_LEVELS[0], "--t", _OVER_LEVELS[1]),
        ("weight", "--m", _OVER_LEVELS[0], "--t", _OVER_LEVELS[1]),
        ("degrees", "--m", _OVER_LEVELS[0], "--t", _OVER_LEVELS[1]),
        ("weight", "--precision", str(cli.MAX_PRECISION + 1)),
        # deg tau = 2*sum(m) + n just above the cap, counted before merging
        ("gen", "--m", _OVER_TAU_DEGREE[0], "--t", "1"),
        ("verify", "--m", _OVER_TAU_DEGREE[1], "--t", "1,1"),
        ("degrees", "--m", _OVER_TAU_DEGREE[2], "--t", "1,-1"),
        ("weight", "--m", _OVER_TAU_DEGREE[2], "--t", "1,1"),
    ],
)
def test_input_over_cap_exits_2_before_any_family(no_family_built, args):
    cmd, *rest = args
    if "--m" not in rest:
        rest += ["--m", "1,3", "--t", "2/7,5/11"]
    res = _run(cmd, *rest)
    assert res.exit_code == 2, res.output


def test_gen_renders_coefficients_past_the_int_text_limit():
    # 2,500-digit parameters give tau coefficients of more than 4,300 digits,
    # CPython's default limit on converting an int to text
    tall = "7" * 2500
    limit = sys.get_int_max_str_digits()
    res = _run("gen", "--m", "1,2", "--t", f"{tall},{tall}", "--i", "0..1")
    assert res.exit_code == 0, res.stderr
    assert sys.get_int_max_str_digits() == limit
    blob = json.loads(res.output)
    assert max(len(c) for c in blob["tau"]) > 4300
    rec = recursive_family(FamilyKey((1, 2), (int(tall), int(tall))), 1)
    sys.set_int_max_str_digits(0)
    try:
        assert Poly.from_json(blob["tau"]) == rec.tau
        assert [Poly.from_json(e["coeffs"]) for e in blob["polys"]] == [rec.xpolys[0], rec.xpolys[1]]
    finally:
        sys.set_int_max_str_digits(limit)


def test_parameter_past_the_int_text_limit_exits_2(no_family_built):
    res = _run("gen", "--m", "1", "--t", "7" * 5000)
    assert res.exit_code == 2, res.output
    assert "Exceeds the limit (4300 digits) for integer string conversion" in res.stderr


def test_caps_are_stated_in_help():
    for cmd, caps in (
        ("gen", (cli.MAX_LEVELS, cli.MAX_TAU_DEGREE, cli.MAX_GEN_INDEX)),
        ("verify", (cli.MAX_LEVELS, cli.MAX_TAU_DEGREE, cli.MAX_CHECK_INDEX)),
        ("degrees", (cli.MAX_LEVELS, cli.MAX_TAU_DEGREE, cli.MAX_CHECK_INDEX)),
        ("weight", (cli.MAX_LEVELS, cli.MAX_TAU_DEGREE, cli.MAX_SAMPLES, cli.MAX_PRECISION)),
    ):
        res = _run(cmd, "--help")
        assert res.exit_code == 0, res.stderr
        text = res.output
        for cap in caps:
            assert str(cap) in text, (cmd, cap)


# -- argument parsing -------------------------------------------------------------


@pytest.mark.parametrize(
    "m, t_args",
    [("0", ("--t", "-1/2")), ("0", ("--t=-1/2",)), ("1,2", ("--t", "-3,1"))],
)
def test_value_beginning_with_minus_is_the_option_value(m, t_args):
    res = _run("verify", "--m", m, *t_args, "--suites", "eigen", "--max-i", "2")
    assert res.exit_code == 0, res.stderr
    assert json.loads(res.output)["pass"] is True


# sha256 of the output bytes of a key whose --t list begins with '-'
_NEGATIVE_T_DIGEST = "70ee14a8b4891a7155b00d6fbf260154528e09957b5bfc7617dcc38966cc8f39"


def test_gen_negative_parameters_bytes_pinned():
    res = _run("gen", "--m", "1,2,3", "--t", "-1,-1,1", "--i", "0..3")
    assert res.exit_code == 0, res.stderr
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == _NEGATIVE_T_DIGEST


@pytest.mark.parametrize(
    "args",
    [
        (),
        ("nope",),
        ("GEN",),
        ("-h",),
        ("verify", "-h"),
        ("verify", "--max", "3", "--suites", "degree"),
        ("verify", "--max=3", "--suites", "degree"),
        ("gen", "--format", "xml"),
        ("gen", "--i", "0", "extra"),
        ("gen", "--m"),
    ],
)
def test_malformed_command_line_exits_2(args):
    res = _run(*args)
    assert res.exit_code == 2, res.output
    assert res.output == ""


def test_repeated_option_takes_last_value():
    res = _run("gen", "--m", "5", "--t", "3", "--m", "1", "--t", "1", "--i", "0..1", "--i", "2")
    assert res.exit_code == 0, res.stderr
    assert res.output == _run("gen", "--m", "1", "--t", "1", "--i", "2").output


def test_module_entry_point_matches_in_process_run():
    args = ["degrees", "--m", "0", "--t", "-1/2", "--max-i", "3"]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-m", "xlegendre.cli", *args], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == _run(*args).output


def test_closed_stdout_exits_1_quietly():
    # megabytes of rows: the writer blocks on the pipe until its reader closes it
    args = ["weight", "--m", "0", "--t", "1", "--samples", str(cli.MAX_SAMPLES)]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    with subprocess.Popen([sys.executable, "-m", "xlegendre.cli", *args], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"z,W\r\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""


# -- verify ---------------------------------------------------------------------


def test_verify_all_suites_pass():
    res = _run("verify", "--m", "4", "--t", "26/5", "--max-i", "6", "--suites", "all")
    assert res.exit_code == 0, res.output
    blob = json.loads(res.output)
    assert blob["pass"] is True
    assert set(blob["suites"]) == {"eigen", "ortho", "factor", "recur", "degree"}


# sha256 of the ``verify --suites all`` report bytes of a 1-, a 3- and a
# 4-level key, taken from the seed code; the benchmark checks the same digests
_VERIFY_DIGESTS = {
    ("4", "26/5"): "48dd493f497d4c0b09fe15d840772b7d068b6cc38a025bd423f866f65932b179",
    ("1,2,4", "1,-1/4,7/2"):
        "50547f4d2476c5350e788858a4ba4b3b5dd632f0e96cfcb938fc26720e281398",
    ("1,2,3,5", "1,1,1,1"):
        "d13aaedecfeefa80102b5f982dcc68c65b7761d435ab12242aad22b14af63cb2",
}


@pytest.mark.parametrize("m, t", sorted(_VERIFY_DIGESTS))
def test_verify_all_suites_bytes_pinned(m, t):
    res = _run("verify", "--m", m, "--t", t, "--suites", "all")
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == _VERIFY_DIGESTS[(m, t)]


def test_verify_inadmissible_ortho_exit_3():
    res = _run("verify", "--m", "0", "--t", "-1/2", "--suites", "ortho")
    assert res.exit_code == 3
    blob = json.loads(res.output)
    assert blob["suites"]["ortho"]["pass"] is False


def test_verify_inadmissible_non_ortho_suites_still_run():
    res = _run("verify", "--m", "0", "--t", "-1/2", "--suites", "eigen", "--max-i", "4")
    assert res.exit_code == 0, res.output


def test_verify_duplicate_key_canonicalized_with_note():
    res = _run("verify", "--m", "3,3", "--t", "1/2,1/2", "--suites", "recur", "--max-i", "4")
    assert res.exit_code == 0, res.output
    blob = json.loads(res.output)
    assert blob["key"] == {"m": [3], "t": ["1/1"]}
    assert blob["original"] == {"m": [3, 3], "t": ["1/2", "1/2"]}
    assert "merged" in blob["note"]


def test_verify_unknown_suite_exit_2():
    assert _run("verify", "--m", "1", "--t", "1", "--suites", "nope").exit_code == 2


def test_verify_failure_exit_1(monkeypatch):
    monkeypatch.setattr(cli, "verify_eigen", lambda key, i: False)
    res = _run("verify", "--m", "1", "--t", "1", "--suites", "eigen", "--max-i", "2")
    assert res.exit_code == 1
    blob = json.loads(res.output)
    assert blob["pass"] is False


# -- weight ---------------------------------------------------------------------


def test_weight_three_samples_exact_left_endpoint():
    res = _run("weight", "--m", "4", "--t", "26/5", "--samples", "3")
    assert res.exit_code == 0
    rows = list(csv.reader(io.StringIO(res.output)))
    assert rows[0] == ["z", "W"]
    assert [r[0] for r in rows[1:]] == ["-1", "0", "1"]
    assert rows[1][1] == "1"  # tau(-1) = 1 exactly
    key = FamilyKey((4,), (F(26, 5),))
    w0 = 1 / tau(key).evaluate(0) ** 2
    import decimal

    ctx = decimal.Context(prec=17)
    want = str(ctx.divide(decimal.Decimal(w0.numerator), decimal.Decimal(w0.denominator)))
    assert rows[2][1] == want


def test_weight_precision_flag():
    res = _run("weight", "--m", "0", "--t", "1", "--samples", "2", "--precision", "5")
    rows = list(csv.reader(io.StringIO(res.output)))
    assert rows[1] == ["-1", "1"]
    assert rows[2] == ["1", "0.11111"]  # 1/(1+2)^2 to 5 significant digits


@pytest.mark.parametrize(
    "m, t, samples, precision",
    [("4", "26/5", 41, 17), ("1,2", "2,-8/5", 17, 2), ("0,3", "1,1/7", 9, 60), ("", "", 3, 5)],
)
def test_weight_lines_match_csv_writer(m, t, samples, precision):
    res = _run(
        "weight", "--m", m, "--t", t, "--samples", str(samples), "--precision", str(precision)
    )
    assert res.exit_code == 0
    tau_val = tau(FamilyKey.of(m.split(",") if m else [], t.split(",") if t else []))
    rows = [["z", "W"]]
    for k in range(samples):
        z = -1 + F(2 * k, samples - 1)
        rows.append([cli._decimal_str(v, precision) for v in (z, 1 / tau_val.evaluate(z) ** 2)])
    want = io.StringIO()
    csv.writer(want).writerows(rows)
    assert res.output == want.getvalue()


def test_weight_inadmissible_exit_3():
    assert _run("weight", "--m", "0", "--t", "-1/2").exit_code == 3


def test_weight_invalid_samples_exit_2():
    assert _run("weight", "--m", "0", "--t", "1", "--samples", "1").exit_code == 2


# -- degrees ---------------------------------------------------------------------


def test_degrees_table_and_missing_set():
    res = _run("degrees", "--m", "4", "--t", "26/5", "--max-i", "5")
    assert res.exit_code == 0
    assert "missing degrees (9):" in res.output
    assert "codimension match: True" in res.output


def test_degrees_classical_empty_missing_set():
    res = _run("degrees", "--m", "", "--max-i", "4")
    assert res.exit_code == 0
    assert "missing degrees (0): []" in res.output


# sha256 of the output bytes of a 4-level key's degree table, taken while the
# table was still computed apart from the degree suite
_DEGREES_DIGEST = "204b091d3be91a19088f3873f96bf64f64e513f6ddce98eb6cce2245fbb6e5f2"


def test_degrees_bytes_pinned():
    res = _run("degrees", "--m", "1,2,3,5", "--t", "1,1,1,1", "--max-i", "12")
    assert res.exit_code == 0
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == _DEGREES_DIGEST


def test_degree_verdict_shared_by_degrees_and_verify(monkeypatch):
    # one wrong prediction must fail the table and the suite alike
    original = cli.expected_degree
    monkeypatch.setattr(
        cli, "expected_degree", lambda key, i: original(key, i) + (i == 3)
    )
    args = ("--m", "1,2", "--t", "2,-8/5", "--max-i", "5")
    table = _run("degrees", *args)
    assert table.exit_code == 1
    row = next(line for line in table.output.splitlines() if line.split()[:1] == ["3"])
    predicted, actual = map(int, row.split()[1:])
    assert predicted == actual + 1
    suite = _run("verify", *args, "--suites", "degree")
    assert suite.exit_code == 1
    entries = json.loads(suite.output)["suites"]["degree"]["entries"]
    assert [e["i"] for e in entries if not e["pass"]] == [3]
