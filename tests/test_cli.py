import csv
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import qint.cli as cli
from conftest import FUNCTION_SPECS, PATH_SPECS, POINT_SPECS
from qint import CheckReport, Quaternion
from qint.cli import format_quaternion, main

LINE_0_TO_J = json.dumps({"kind": "line", "a": [0, 0, 0, 0], "b": [0, 0, 1, 0]})
UNIT_CIRCLE = json.dumps({"kind": "circle", "center": 0.0, "radius": 1.0,
                          "u": [0, 1, 0, 0], "turns": 1.0})


def printed_quaternion(capsys):
    out = capsys.readouterr().out.strip().splitlines()[-1]
    return json.loads(out)


def test_format_quaternion_is_json_parsable():
    s = format_quaternion(Quaternion(-1.0, 1.2246467991473532e-16, 0.0, 2.5))
    assert json.loads(s) == [-1.0, 1.2246467991473532e-16, 0.0, 2.5]


def test_eval_euler_identity(capsys):
    rc = main(["eval", "--fn", "exp", "--at", f"[0, {math.pi}, 0, 0]"])
    assert rc == 0
    got = printed_quaternion(capsys)
    assert got[0] == pytest.approx(-1.0, abs=1e-12)
    assert abs(got[1]) < 1e-12 and got[2] == 0 and got[3] == 0


def test_eval_series_spec(capsys):
    fn = json.dumps({"kind": "series", "coeffs": [0, 0, 1]})
    rc = main(["eval", "--fn", fn, "--at", "[1, 1, 0, 0]"])
    assert rc == 0
    assert printed_quaternion(capsys) == pytest.approx([0.0, 2.0, 0.0, 0.0])


def test_diff_perpendicular_increment(capsys):
    fn = json.dumps({"kind": "series", "coeffs": [0, 0, 1]})
    rc = main(["diff", "--fn", fn, "--at", "[1, 1, 0, 0]", "--delta", "[0, 0, 1, 0]"])
    assert rc == 0
    assert printed_quaternion(capsys) == pytest.approx([0.0, 0.0, 2.0, 0.0])


def test_malformed_point_exits_1(capsys):
    rc = main(["eval", "--fn", "exp", "--at", "[1, 2]"])
    assert rc == 1
    assert "parse error" in capsys.readouterr().err


def test_log_branch_point_exits_2(capsys):
    rc = main(["eval", "--fn", "ln", "--at", "[-1, 0, 0, 0]"])
    assert rc == 2
    assert "domain error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["eval", "--fn", '{"kind": "series", "coeffs": [1, NaN]}', "--at", "[0.5, 1, 0, 0]"],
    ["eval", "--fn", '{"kind": "series", "coeffs": [1, 1], "radius": NaN}',
     "--at", "[0.5, 1, 0, 0]"],
    ["eval", "--fn", '{"kind": "scaled", "factor": Infinity, "inner": {"kind": "named", '
     '"name": "exp"}}', "--at", "[0.5, 1, 0, 0]"],
    ["eval", "--fn", "exp", "--at", "[0.5, -Infinity, 0, 0]"],
    ["integrate", "--fn", "exp", "--steps", "10", "--path",
     '{"kind": "circle", "center": NaN, "radius": 1, "u": [0, 1, 0, 0]}'],
    ["integrate", "--fn", "exp", "--steps", "10", "--path",
     '{"kind": "circle", "center": 0, "radius": Infinity, "u": [0, 1, 0, 0]}'],
    ["integrate", "--fn", "exp", "--steps", "10", "--path",
     '{"kind": "circle", "center": 0, "radius": 1, "u": [0, 1, 0, 0], "turns": NaN}'],
])
def test_non_finite_json_numbers_exit_1(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "parse error" in err[0] and "finite" in err[0]


@pytest.mark.parametrize("argv", [
    ["eval", "--fn", "exp", "--at", "[1000, 1, 0, 0]"],
    ["integrate", "--fn", "exp", "--steps", "10", "--path",
     '{"kind": "line", "a": [700, 1, 0, 0], "b": [720, 1, 0, 0]}'],
    ["eval", "--fn", '{"kind": "series", "coeffs": [0, 1e308, 1e308]}', "--at", "[3, 1, 0, 0]"],
    # finite inputs whose results are not: inf or nan must never print
    ["diff", "--fn", "exp", "--at", "[709, 1, 0, 0]", "--delta", "[1e10, 0, 0, 0]"],
    ["integrate", "--fn", "exp", "--steps", "4", "--path",
     '{"kind": "line", "a": [709, 1, 0, 0], "b": [709, 1, 1e10, 0]}'],
    ["eval", "--fn", "reciprocal", "--at", "[1, 5e-324, 0, 0]"],
    ["diff", "--fn", "sin", "--at", "[0, 700, 0, 0]", "--delta", "[1e300, 0, 0, 0]"],
    ["diff", "--fn", "ln1m", "--at", "[1, 5e-324, 0, 0]", "--delta", "[0, 1, 0, 0]"],
    ["integrate", "--fn", "ln", "--steps", "1", "--branch-track", "--path",
     '{"kind": "line", "a": [5e-324, 0, 0, 0], "b": [1, 0, 0, 0]}'],
    # an imaginary part longer than the largest double
    ["eval", "--fn", "exp", "--at", "[0, 1.7e308, 1.7e308, 0]"],
    ["diff", "--fn", "exp", "--at", "[0, 1.7e308, 1.7e308, 0]", "--delta", "[1, 0, 0, 0]"],
    ["integrate", "--fn", "exp", "--steps", "4", "--path",
     '{"kind": "line", "a": [0, 1.7e308, 1.7e308, 0], "b": [1, 1.7e308, 1.7e308, 0]}'],
    # a study needs the end value exp(710), which overflows at s = 1
    ["integrate", "--fn", "exp", "--study", "1,2,4", "--path",
     '{"kind": "line", "a": [0, 1, 0, 0], "b": [710, 1, 0, 0]}'],
    # |z| of a branch-tracked end point is past the largest double
    ["integrate", "--fn", "ln", "--steps", "10", "--branch-track", "--path",
     '{"kind": "line", "a": [1.7e308, 1.7e308, 0, 0], "b": [1, 1, 0, 0]}'],
    ["integrate", "--fn", "ln", "--steps", "10", "--branch-track", "--path",
     '{"kind": "line", "a": [1, 1, 0, 0], "b": [1.7e308, 1.7e308, 0, 0]}'],
])
def test_overflow_is_a_domain_error(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "domain error" in err[0] and "overflow" in err[0]
    if argv[0] == "integrate":
        assert "(at s=" in err[0]
    if "--branch-track" in argv and "1.7e308" in argv[-1]:  # the end point past range
        assert ("(at s=0)" if '"a": [1.7e308' in argv[-1] else "(at s=1)") in err[0]


@pytest.mark.parametrize("argv", [
    ["diff", "--fn", "reciprocal", "--at", "[1, 1e-300, 0, 0]", "--delta", "[1, 0, 0, 0]"],
    ["integrate", "--fn", "reciprocal", "--steps", "2", "--path",
     '{"kind": "line", "a": [1, 1e-300, -1, 0], "b": [1, 1e-300, 1, 0]}'],
])
def test_reciprocal_pole_within_underflow_exits_2(argv, capsys):
    # (1 - x)^2 underflows to 0 at x = 1 + 1e-300 i: a pole, not a ZeroDivisionError
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "pole" in err[0]


@pytest.mark.parametrize("fn, a", [("reciprocal", 1), ("ln", 0)])
@pytest.mark.parametrize("steps", ["2", "3000", "3001"])
@pytest.mark.parametrize("rule", ["left", "midpoint"])
@pytest.mark.parametrize("k", [1, 4])
def test_a_staircase_across_a_singular_point_exits_2(fn, a, steps, rule, k, cpus, capsys):
    # unchecked, the chord across the pole or branch point at s = 0.5 sums to
    # a value: -14807.34i for reciprocal at N = 3001, -8i at N = 2 (midpoint)
    cpus(k)
    path = json.dumps({"kind": "line", "a": [a, -1, 0, 0], "b": [a, 1, 0, 0]})
    assert main(["integrate", "--fn", fn, "--path", path, "--steps", steps,
                 "--rule", rule]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "(at s=0.5)" in err[0] and f"passes x = {a}," in err[0]


def test_overflow_in_the_staircase_names_s(capsys):
    argv = ["integrate", "--fn", "exp", "--steps", "10", "--path",
            '{"kind": "line", "a": [700, 1, 0, 0], "b": [720, 1, 0, 0]}']
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "(at s=0.5)" in err and "overflow" in err


@pytest.mark.parametrize("argv, expected", [
    pytest.param(["eval", "--at", "[-1, 2e-12, 0, 0]"], [0.0, math.pi, 0.0, 0.0], id="2e-12"),
    pytest.param(["eval", "--at", "[-1, 1e-13, 0, 0]"], [0.0, math.pi, 0.0, 0.0], id="1e-13"),
    pytest.param(["eval", "--at", "[-1, 5e-324, 0, 0]"], [0.0, math.pi, 0.0, 0.0], id="5e-324"),
    # the perpendicular quotient b/r = (pi - r)/r, not the branch cut
    pytest.param(["diff", "--at", "[-1, 1e-13, 0, 0]", "--delta", "[0, 0, 1, 0]"],
                 [0.0, 0.0, math.pi * 1e13, 0.0], id="diff-1e-13"),
])
def test_eval_off_the_cut_lifts_along_the_true_direction(argv, expected, capsys):
    # ln(-1 + r*i) = ~0 + (pi - r)*i for every r > 0: no threshold snaps to the cut
    assert main(argv[:1] + ["--fn", "ln"] + argv[1:]) == 0
    got = printed_quaternion(capsys)
    assert all(math.isfinite(c) for c in got)
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-11)


@pytest.mark.parametrize("fn, expected", [("exp", math.exp(-1)), ("sin", math.cos(-1))])
def test_diff_at_subnormal_r_keeps_the_perpendicular_quotient(fn, expected, capsys):
    # b = Im f(-1 + 5e-324 i) underflows, so b/r would read 0; Re f'(z) does not
    argv = ["diff", "--fn", fn, "--at", "[-1, 5e-324, 0, 0]", "--delta", "[0, 0, 1, 0]"]
    assert main(argv) == 0
    assert printed_quaternion(capsys) == [0.0, 0.0, expected, 0.0]


def test_diff_at_subnormal_r_on_the_cut_overflows(capsys):
    # ln is not defined at the real point -1, so b/r = (pi - r)/r stays and overflows
    argv = ["diff", "--fn", "ln", "--at", "[-1, 5e-324, 0, 0]", "--delta", "[0, 0, 1, 0]"]
    assert main(argv) == 2
    assert "overflow" in capsys.readouterr().err


def test_missing_subcommand_exits_1(capsys):
    assert main([]) == 1


def test_usage_errors_exit_1(capsys):
    assert main(["integrate", "--fn", "exp", "--path", LINE_0_TO_J, "--steps", "0"]) == 1
    assert main(["integrate", "--fn", "exp", "--path", LINE_0_TO_J,
                 "--rule", "simpson"]) == 1
    assert main(["verify", "--suite", "nightly"]) == 1
    assert main(["verify", "--threads", "2"]) == 1


def _nested(depth):
    return "[" * depth + "]" * depth


def _nested_fn(depth):
    scaled = '{"kind": "scaled", "factor": 1, "inner": '
    return scaled * depth + '{"kind": "named", "name": "exp"}' + "}" * depth


# at depth 1000 a Python whose JSON decoder nests deeper than its recursion
# limit reads the value and rejects its shape instead, so only the prefix is fixed
@pytest.mark.parametrize("argv,message", [
    (["integrate", "--fn", "exp", "--path", LINE_0_TO_J, "--steps", "abc"], "is not an integer"),
    (["eval", "--fn", "exp", "--at", "nope"], "not valid JSON"),
    (["integrate", "--fn", "exp", "--path", "nope"], "not valid JSON"),
    (["diff", "--fn", "exp", "--at", "[1, 1, 0, 0]", "--delta", "nope"], "not valid JSON"),
    (["eval", "--fn", _nested_fn(1000), "--at", "[1, 1, 0, 0]"], "qint eval: parse error: "),
    (["eval", "--fn", "exp", "--at", _nested(1000)], "qint eval: parse error: "),
    (["diff", "--fn", "exp", "--at", "[1, 1, 0, 0]", "--delta", _nested(1000)],
     "qint diff: parse error: "),
    (["integrate", "--fn", "exp", "--path", _nested(1000)], "qint integrate: parse error: "),
    (["eval", "--fn", _nested_fn(10**5), "--at", "[1, 1, 0, 0]"], "input nested too deeply"),
    (["eval", "--fn", "exp", "--at", _nested(10**5)], "input nested too deeply"),
    (["diff", "--fn", "exp", "--at", "[1, 1, 0, 0]", "--delta", _nested(10**5)],
     "input nested too deeply"),
    (["integrate", "--fn", "exp", "--path", _nested(10**5)], "input nested too deeply"),
])
def test_malformed_arguments_exit_1(argv, message, capsys):
    assert main(argv) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["eval", "--fn", "exp", "--at", "nope"],
    ["diff", "--fn", "exp", "--at", "[1, 1, 0, 0]", "--delta", "nope"],
    ["integrate", "--fn", "exp", "--path", "nope"],
])
def test_a_json_argument_that_is_not_json_is_named_by_its_text(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"qint {argv[0]}: parse error: not valid JSON: 'nope' (")


def test_function_given_as_a_json_string_is_its_bare_name(capsys):
    assert main(["eval", "--fn", '"exp"', "--at", "[0.5, 1, 0, 0]"]) == 0
    quoted = capsys.readouterr().out
    assert main(["eval", "--fn", "exp", "--at", "[0.5, 1, 0, 0]"]) == 0
    assert capsys.readouterr().out == quoted


@pytest.mark.parametrize("u", ["[0, 0, 0, 0]", "[1, 0, 0, 0]", "[0, 1, 0]", "null"])
def test_malformed_circle_u_exits_1(u, capsys):
    path = '{"kind": "circle", "center": 0, "radius": 1, "u": %s}' % u
    assert main(["integrate", "--fn", "exp", "--steps", "10", "--path", path]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "parse error" in err[0] and "circle 'u'" in err[0]


def test_integrate_square_to_j(capsys):
    fn = json.dumps({"kind": "series", "coeffs": [0, 0, 1]})
    rc = main(["integrate", "--fn", fn, "--path", LINE_0_TO_J, "--steps", "10000"])
    assert rc == 0
    got = printed_quaternion(capsys)
    assert got == pytest.approx([-1.0, 0.0, 0.0, 0.0], abs=1e-3)


def test_integrate_csv_study(tmp_path, capsys):
    out = tmp_path / "study.csv"
    fn = json.dumps({"kind": "series", "coeffs": [0, 0, 1]})
    rc = main(["integrate", "--fn", fn, "--path", LINE_0_TO_J,
               "--study", "100,400,1600", "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["N", "value_w", "value_x1", "value_x2", "value_x3",
                       "abs_error", "est_order"]
    assert [r[0] for r in rows[1:]] == ["100", "400", "1600"]
    errs = [float(r[5]) for r in rows[1:]]
    assert errs[0] > errs[1] > errs[2]
    orders = {r[6] for r in rows[1:]}
    assert len(orders) == 1
    assert float(orders.pop()) == pytest.approx(1.0, abs=0.1)


def test_integrate_csv_exact_marker(tmp_path):
    out = tmp_path / "study.csv"
    fn = json.dumps({"kind": "series", "coeffs": [0, 1]})
    rc = main(["integrate", "--fn", fn, "--path", LINE_0_TO_J,
               "--study", "100,200,400", "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert all(r[6] == "exact" for r in rows[1:])


def test_integrate_json_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["integrate", "--fn", "exp", "--path", LINE_0_TO_J,
               "--steps", "500", "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        doc = json.load(fh)
    assert doc["steps"] == 500
    assert len(doc["value"]) == 4
    assert doc["rows"][0]["N"] == 500
    assert doc["abs_error"] == pytest.approx(
        sum((a - b) ** 2 for a, b in zip(doc["value"], doc["reference"])) ** 0.5)


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in a report")


def test_integrate_json_report_holds_only_finite_numbers(tmp_path):
    # value and reference are ~3e199; the squares in |value - reference| are not finite
    out = tmp_path / "report.json"
    rc = main(["integrate", "--fn", "exp", "--steps", "100", "--out", str(out), "--path",
               '{"kind": "line", "a": [400, 1, 0, 0], "b": [460, 1, 0, 0]}'])
    assert rc == 0
    doc = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert math.isfinite(doc["abs_error"]) and doc["abs_error"] > 0


def test_branch_tracked_winding(capsys):
    rc = main(["integrate", "--fn", "ln", "--path", UNIT_CIRCLE,
               "--steps", "10000", "--branch-track"])
    assert rc == 0
    got = printed_quaternion(capsys)
    assert got[1] == pytest.approx(2 * math.pi, abs=1e-2)


def test_study_and_branch_track_conflict(capsys):
    # branch tracking sums by the left rule only
    for other in (["--study", "100,200,400"], ["--rule", "midpoint"]):
        rc = main(["integrate", "--fn", "ln", "--path", UNIT_CIRCLE, *other, "--branch-track"])
        assert rc == 1
        assert "cannot be combined" in capsys.readouterr().err


def test_bad_study_list(capsys):
    rc = main(["integrate", "--fn", "exp", "--path", LINE_0_TO_J,
               "--study", "100,abc"])
    assert rc == 1


@pytest.mark.parametrize("options,message", [
    (["--study", "100,200,400", "--branch-track"],
     "--study and --branch-track cannot be combined"),
    (["--rule", "midpoint", "--branch-track"],
     "--rule midpoint and --branch-track cannot be combined"),
    (["--study", "100,abc"], "bad --study list '100,abc'"),
])
def test_integrate_option_problems_are_parse_errors(options, message, capsys):
    assert main(["integrate", "--fn", "ln", "--path", UNIT_CIRCLE, *options]) == 1
    assert capsys.readouterr().err == f"qint integrate: parse error: {message}\n"


CROSSING_AT_MINUS_1 = '{"kind":"line","a":[-1,-1,0,0],"b":[-1,1,0,0]}'


def test_log_on_axis_point_reports_s(capsys):
    # the node at s = 1/2 is -1, on ln's cut
    rc = main(["integrate", "--fn", "ln", "--path", CROSSING_AT_MINUS_1, "--steps", "100"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "domain error" in err and "(at s=0.5)" in err and "branch cut" in err


@pytest.mark.parametrize("steps", ["100", "101"])
def test_a_node_on_the_axis_where_the_function_is_defined_gives_a_value(steps, capsys):
    # reciprocal is defined at -1, so a node there, at 100 steps, is no fault
    rc = main(["integrate", "--fn", "reciprocal", "--path", CROSSING_AT_MINUS_1,
               "--steps", steps])
    assert rc == 0
    assert capsys.readouterr().err == ""


def test_out_to_directory_exits_1(tmp_path, capsys):
    rc = main(["integrate", "--fn", "exp", "--path", LINE_0_TO_J,
               "--steps", "10", "--out", str(tmp_path)])
    assert rc == 1
    assert "i/o error" in capsys.readouterr().err


def _fake_reports(all_pass):
    reps = [CheckReport(check="alpha", passed=True, residuals=[1e-9], tolerance=1e-3),
            CheckReport(check="beta", passed=all_pass, residuals=[1e-1], tolerance=1e-3)]
    return reps


def test_verify_all_green(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_suite", lambda suite, tol: _fake_reports(True))
    rc = main(["verify", "--suite", "default"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "2/2 checks passed" in out
    assert out.count("PASS") == 2


def test_verify_failure_exits_3(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "run_suite", lambda suite, tol: _fake_reports(False))
    out_file = tmp_path / "report.json"
    rc = main(["verify", "--suite", "default", "--out", str(out_file)])
    out = capsys.readouterr().out
    assert rc == 3
    assert "1/2 checks passed" in out
    with open(out_file) as fh:
        doc = json.load(fh)
    assert [d["pass"] for d in doc] == [True, False]
    assert doc[0]["check"] == "alpha"


@pytest.mark.parametrize("argv", [
    ["integrate", "--fn", "exp", "--path", LINE_0_TO_J, "--steps", "500"],
    ["verify", "--suite", "default"],
])
def test_json_reports_are_indented_by_two_and_end_in_a_newline(argv, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "run_suite", lambda suite, tol: _fake_reports(False))
    out = tmp_path / "report.json"
    main([*argv, "--out", str(out)])
    text = out.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_verify_invalid_tolerance_env_exits_1(monkeypatch, capsys):
    monkeypatch.setenv("QINT_TOL", "definitely not json")
    rc = main(["verify", "--suite", "default"])
    assert rc == 1
    assert "parse error" in capsys.readouterr().err


def test_verify_nested_tolerance_exits_1(monkeypatch, capsys):
    monkeypatch.setenv("QINT_TOL", _nested(10**5))
    assert main(["verify", "--suite", "default"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("qint verify: parse error: input nested too deeply (")


def test_verify_infinite_tolerance_exits_1(monkeypatch, capsys):
    # an infinite bound would pass every check
    monkeypatch.setenv("QINT_TOL", "Infinity")
    rc = main(["verify", "--suite", "default"])
    assert rc == 1
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("raw,named", [("-1", "QINT_TOL"),
                                       ('{"by_parts": -0.001}', "'by_parts'")])
def test_verify_negative_tolerance_exits_1(monkeypatch, capsys, raw, named):
    # a negative bound would fail every check
    monkeypatch.setenv("QINT_TOL", raw)
    rc = main(["verify", "--suite", "default"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "parse error" in err and named in err and "negative" in err


# -- the CLI contract over generated specs --------------------------------------

_ARGVS = (
    st.builds(lambda f, x: ["eval", "--fn", json.dumps(f), "--at", json.dumps(x)],
              FUNCTION_SPECS, POINT_SPECS)
    | st.builds(lambda f, x, d: ["diff", "--fn", json.dumps(f), "--at", json.dumps(x),
                                 "--delta", json.dumps(d)],
                FUNCTION_SPECS, POINT_SPECS, POINT_SPECS)
    | st.builds(lambda f, p, n, mode: ["integrate", "--fn", json.dumps(f), "--path",
                                       json.dumps(p), "--steps", str(n), mode],
                FUNCTION_SPECS, PATH_SPECS, st.integers(1, 64),
                st.sampled_from(["--rule=left", "--rule=midpoint"]))
    | st.builds(lambda f, p, n: ["integrate", "--fn", json.dumps(f), "--path",
                                 json.dumps(p), "--steps", str(n), "--branch-track"],
                st.just({"kind": "named", "name": "ln"}) | FUNCTION_SPECS, PATH_SPECS,
                st.integers(1, 64)))


@settings(max_examples=200, deadline=None)
@given(_ARGVS)
def test_cli_contract_holds_for_generated_specs(argv):
    # exit 0, 1 or 2; finite numbers on success; one stderr line on failure;
    # no exception escapes main
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2)
    if rc == 0:
        printed = out.getvalue().strip()
        assert printed.startswith("[") and printed.endswith("]")
        assert all(math.isfinite(float(c)) for c in printed[1:-1].split(","))
    else:
        assert len(err.getvalue().strip().splitlines()) == 1
