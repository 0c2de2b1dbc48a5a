import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballfourier import (FamilyParams, ball_basis_eval, cli, fourier_closed_form, gegenbauer,
                         theta_factor)
from ballfourier.verify import fourier_report, report_to_dict, reports_to_json, run_suite


def run_cli(args, capsys):
    """Invoke the CLI in-process; returns (exit_code, stdout)."""
    try:
        code = cli.main(args)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
    out = capsys.readouterr().out
    return code, out


class TestEval:
    def test_gegenbauer_example(self, capsys):
        code, out = run_cli(["eval", "--fn", "gegenbauer", "--n", "1",
                             "--lambda", "1.5", "--x", "0.4"], capsys)
        assert code == 0
        record = json.loads(out)
        assert record["value_re"] == pytest.approx(1.2, rel=1e-12)
        assert record["value_im"] == 0.0

    def test_ball_example(self, capsys):
        code, out = run_cli(["eval", "--fn", "ball", "--r", "2", "--n", "0,1",
                             "--mu", "1", "--x", "0.3,0.4"], capsys)
        assert code == 0
        assert json.loads(out)["value_re"] == pytest.approx(0.8, rel=1e-12)

    def test_family_member_at_origin(self, capsys):
        code, out = run_cli(["eval", "--fn", "f_r", "--r", "1", "--n", "0",
                             "--a", "0.5", "--mu", "0.5", "--x", "0"], capsys)
        assert code == 0
        assert json.loads(out)["value_re"] == pytest.approx(1.0, rel=1e-14)

    def test_missing_parameter_exits_2(self, capsys):
        code, _ = run_cli(["eval", "--fn", "ball", "--n", "0,1", "--mu", "1"], capsys)
        assert code == 2

    def test_dimension_mismatch_exits_2(self, capsys):
        code, _ = run_cli(["eval", "--fn", "ball", "--r", "3", "--n", "0,1",
                           "--mu", "1", "--x", "0.3,0.4"], capsys)
        assert code == 2

    def test_invalid_domain_exits_2(self, capsys):
        code, _ = run_cli(["eval", "--fn", "ball", "--n", "0,1", "--mu", "1",
                           "--x", "0.9,0.9"], capsys)
        assert code == 2

    @pytest.mark.parametrize("args", [
        ["--fn", "gegenbauer", "--n", "1,2", "--lambda", "1", "--x", "0.3"],
        ["--fn", "gegenbauer", "--n", "1", "--lambda", "1", "--x", "0.3,0.4"],
        ["--fn", "jacobi", "--n", "2,0", "--alpha", "1", "--beta", "0", "--x", "0.3"],
        ["--fn", "hahn", "--n", "1", "--x", "0.3,0.2",
         "--a", "1", "--b", "1", "--c", "1", "--d", "1"],
    ])
    def test_scalar_functions_reject_extra_entries(self, capsys, args):
        code, out = run_cli(["eval", *args], capsys)
        assert code == 2
        assert out == ""

    def test_hahn_beyond_the_forward_range_exits_2(self, capsys):
        # Re(a + b + c + d) <= 0 takes the forward series, measured up to
        # degree 12; at degree 30 it printed 1.5e34 + 2.8e35i against
        # -1.6e29 + 1.05e30i (50-digit mpmath), so it is refused
        args = ["eval", "--fn", "hahn", "--x", "0.7", "--a", "-0.3", "--b", "-0.4",
                "--c", "0.2", "--d", "0.15"]
        code, out = run_cli([*args, "--n", "30"], capsys)
        assert code == 2
        assert out == ""
        code, out = run_cli([*args, "--n", "12"], capsys)
        assert code == 0
        assert out == ('{"inputs": {"a": -0.3, "b": -0.4, "c": 0.2, "d": 0.15, "fn": "hahn", '
                       '"n": 12, "x": 0.7}, "value_im": -143951.82513584418, '
                       '"value_re": 7935268.134225179}\n')


# every required option of each eval function, with a value, in the order
# the function names a missing one
_EVAL_OPTIONS = {
    "gegenbauer": [("--n", "3"), ("--lambda", "0.7"), ("--x", "0.3")],
    "jacobi": [("--n", "3"), ("--alpha", "0.5"), ("--beta", "-0.25"), ("--x", "0.3")],
    "hahn": [("--n", "2"), ("--x", "0.7"), ("--a", "0.3"), ("--b", "0.4"), ("--c", "0.2"),
             ("--d", "0.15")],
    "ball": [("--n", "1,2"), ("--mu", "0.5"), ("--x", "0.3,-0.4")],
    "f_r": [("--n", "1,2"), ("--a", "1"), ("--mu", "0.5"), ("--x", "0.3,-0.4")],
    "d_family": [("--n", "1,2"), ("--a1", "0.7"), ("--a2", "1.2"), ("--x", "0.3,-0.4")],
}


def _eval_args(fn, skip=None) -> list:
    return ["eval", "--fn", fn] + [part for option, value in _EVAL_OPTIONS[fn]
                                   if option != skip for part in (option, value)]


class TestEvalFunctions:
    @pytest.mark.parametrize("fn, expected", [
        ("gegenbauer", b'{"inputs": {"fn": "gegenbauer", "lambda": 0.7, "n": 3, "x": 0.3}, '
                       b'"value_im": 0.0, "value_re": -0.598332}\n'),
        ("jacobi", b'{"inputs": {"alpha": 0.5, "beta": -0.25, "fn": "jacobi", "n": 3, "x": 0.3}, '
                   b'"value_im": 0.0, "value_re": -0.5335791015625}\n'),
        ("hahn", b'{"inputs": {"a": 0.3, "b": 0.4, "c": 0.2, "d": 0.15, "fn": "hahn", "n": 2, '
                 b'"x": 0.7}, "value_im": -0.3802749999999998, "value_re": 1.4055624999999996}\n'),
        ("ball", b'{"inputs": {"fn": "ball", "mu": 0.5, "n": [1, 2], "x": [0.3, -0.4]}, '
                 b'"value_im": 0.0, "value_re": -0.3869999999999999}\n'),
        ("f_r", b'{"inputs": {"a": 1.0, "fn": "f_r", "mu": 0.5, "n": [1, 2], "x": [0.3, -0.4]}, '
                b'"value_im": 0.0, "value_re": -0.34724316940961486}\n'),
        ("d_family", b'{"inputs": {"a1": 0.7, "a2": 1.2, "fn": "d_family", "n": [1, 2], '
                     b'"x": [0.3, -0.4]}, "value_im": 0.0, "value_re": -0.045913167854334566}\n'),
    ])
    def test_output_bytes(self, capsysbinary, fn, expected):
        assert run_cli(_eval_args(fn), capsysbinary) == (0, expected)

    @pytest.mark.parametrize("fn, option", [(fn, option) for fn, options in _EVAL_OPTIONS.items()
                                            for option, _ in options])
    def test_missing_option_exits_2(self, capsys, fn, option):
        with pytest.raises(SystemExit) as exc:
            cli.main(_eval_args(fn, skip=option))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"ballfourier eval: error: {option} is required for this function\n" in captured.err


class TestFourier:
    def test_check_passes(self, capsys):
        code, out = run_cli(["fourier", "--r", "1", "--n", "0", "--a", "0.5",
                             "--mu", "0.5", "--xi", "0", "--check"], capsys)
        assert code == 0
        record = json.loads(out)
        assert record["passed"] is True
        assert record["closed_re"] == pytest.approx(3.141592653589793, rel=1e-10)
        assert record["rel_error"] <= 1e-10

    def test_acceptance_case(self, capsys):
        code, out = run_cli(["fourier", "--r", "2", "--n", "1,1", "--a", "1",
                             "--mu", "0.5", "--xi", "0.5,-1", "--check"], capsys)
        assert code == 0
        assert json.loads(out)["rel_error"] <= 1e-6

    def test_scale_up_to_the_double_range(self, capsys):
        # the power of two 2^(2a - 1) is finite at a = 512, not at a = 513
        args = ["fourier", "--n", "0", "--mu", "0.5", "--xi", "0"]
        code, out = run_cli(args + ["--a", "512"], capsys)
        assert code == 0
        assert json.loads(out)["closed_re"] == pytest.approx(0.07835125996989818, rel=1e-11)
        assert run_cli(args + ["--a", "513"], capsys)[0] == 2

    def test_missing_xi_exits_2(self, capsys):
        code, _ = run_cli(["fourier", "--r", "1", "--n", "0", "--a", "0.5",
                           "--mu", "0.5"], capsys)
        assert code == 2

    def test_failed_check_exits_1(self, capsys, monkeypatch):
        from ballfourier import quadrature

        monkeypatch.setattr(quadrature, "fourier_numeric",
                            lambda params, xi, spec=None: 123.0 + 0j)
        code, out = run_cli(["fourier", "--r", "1", "--n", "0", "--a", "0.5",
                             "--mu", "0.5", "--xi", "0", "--check"], capsys)
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_negative_tolerance_exits_2(self, capsys):
        args = ["fourier", "--n", "1,1", "--a", "1", "--mu", "0.5", "--xi", "0.5,1", "--check"]
        code, out = run_cli(args + ["--tolerance", "-1"], capsys)
        assert code == 2
        assert out == ""
        # zero stays valid; this check passes on the absolute floor
        code, out = run_cli(args + ["--tolerance", "0"], capsys)
        assert code == 0
        assert json.loads(out)["tolerance"] == 0.0

    def test_negative_zero_tolerance_is_written_as_zero(self, capsys):
        code, out = run_cli(["fourier", "--n", "1,1", "--a", "1", "--mu", "0.5",
                             "--xi", "0.5,1", "--check", "--tolerance", "-0"], capsys)
        assert code == 0
        assert '"tolerance": 0.0' in out
        assert math.copysign(1.0, json.loads(out)["tolerance"]) == 1.0

    def test_check_is_gated_by_node_doubling(self, capsys, monkeypatch):
        # an oracle that matches the closed form on the check's rule but
        # moves by 1e-3 on the doubled rule must not pass the check
        from ballfourier import quadrature

        def drifting(params, xi, spec=None):
            value = fourier_closed_form(params, xi)
            return value if spec == quadrature.tanh_default_spec() else value + 1e-3

        monkeypatch.setattr(quadrature, "fourier_numeric", drifting)
        code, out = run_cli(["fourier", "--r", "1", "--n", "0", "--a", "0.5",
                             "--mu", "0.5", "--xi", "0", "--check"], capsys)
        assert code == 1
        record = json.loads(out)
        assert record["passed"] is False
        assert record["low_confidence"] is True
        assert record["rel_error"] == 0.0

    def test_unresolved_oracle_is_flagged(self, capsys):
        # the closed form, 1.0039e-181, is right to 4.5e-14 here; the oracle
        # gives 0.0272 and does not settle under node doubling, and the
        # record says so
        code, out = run_cli(["fourier", "--n", "60", "--a", "0.5", "--mu", "0.5",
                             "--xi", "400", "--check"], capsys)
        assert code == 1
        record = json.loads(out)
        assert record["closed_re"] == pytest.approx(1.0039035361360644e-181, rel=1e-12)
        assert (record["passed"], record["low_confidence"]) == (False, True)

    def test_check_at_high_degree(self, capsys):
        # the check integrates on the whole-line rule; the truncated default
        # line rule is off by 1.1e-2 here and failed a right closed form
        code, out = run_cli(["fourier", "--n", "30", "--a", "1.75", "--mu", "1.25",
                             "--xi", "3", "--check"], capsys)
        assert code == 0
        record = json.loads(out)
        assert record["passed"] is True
        assert record["rel_error"] <= 1e-12

    @pytest.mark.filterwarnings("error")
    def test_nan_frequency_check_exits_2(self, capsys):
        code, out = run_cli(["fourier", "--n", "1", "--a", "1", "--mu", "0.5",
                             "--xi", "nan", "--check"], capsys)
        assert code == 2
        assert out == ""


_NON_FINITE_CASES = [
    ["eval", "--fn", "gegenbauer", "--n", "1", "--lambda", "1.5", "--x", "{v}"],
    ["eval", "--fn", "gegenbauer", "--n", "1", "--lambda={v}", "--x", "0.4"],
    ["eval", "--fn", "ball", "--n", "0,1", "--mu", "1", "--x", "0.3,{v}"],
    ["eval", "--fn", "f_r", "--n", "0", "--a={v}", "--mu", "0.5", "--x", "0"],
    ["eval", "--fn", "d_family", "--n", "1", "--a1", "1", "--a2={v}", "--x", "0.5"],
    ["fourier", "--n", "1", "--a", "1", "--mu", "0.5", "--xi", "{v}"],
    ["fourier", "--n", "1,0", "--a", "1", "--mu={v}", "--xi", "0.5,1"],
    ["fourier", "--n", "1", "--a", "1", "--mu", "0.5", "--xi", "0", "--check",
     "--tolerance={v}"],
    ["table", "--fn", "theta", "--n", "2", "--a", "1", "--mu", "1",
     "--start", "0", "--stop={v}", "--step", "0.5"],
    ["table", "--fn", "gegenbauer", "--n", "2", "--lambda", "1",
     "--start={v}", "--stop", "1", "--step", "0.5"],
    ["table", "--fn", "d_family", "--n", "1", "--a1", "1", "--a2", "0.75",
     "--start", "0", "--stop", "1", "--step={v}"],
    ["verify", "--suite", "hahn-ort", "--tolerance={v}"],
]


class TestNonFiniteArguments:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    @pytest.mark.parametrize("case", range(len(_NON_FINITE_CASES)))
    def test_usage_error(self, capsys, case, value):
        args = [arg.format(v=value) for arg in _NON_FINITE_CASES[case]]
        code, out = run_cli(args, capsys)
        assert code == 2
        assert out == ""


class TestVerify:
    def test_bad_suite_exits_2(self, capsys):
        code, _ = run_cli(["verify", "--suite", "nonsense"], capsys)
        assert code == 2

    @pytest.mark.parametrize("suite", ["ball-pde", "fourier-oracle"])
    def test_r_max_below_one_exits_2(self, capsys, suite):
        code, out = run_cli(["verify", "--suite", suite, "--r-max", "0"], capsys)
        assert code == 2
        assert out == ""

    def test_suite_passes_and_writes_json(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out = run_cli(["verify", "--suite", "hahn-ort",
                             "--output", str(out_path)], capsys)
        assert code == 0
        assert "checks passed" in out
        data = json.loads(out_path.read_text())
        assert all(item["passed"] for item in data)
        assert list(data[0].keys()) == [
            "identity_name", "parameters", "lhs_re", "lhs_im", "rhs_re", "rhs_im",
            "abs_error", "rel_error", "tolerance", "passed", "low_confidence"]

    def test_reruns_byte_identical(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code, _ = run_cli(["verify", "--suite", "fourier-paths", "--seed", "7",
                               "--r-max", "2", "--output", str(path)], capsys)
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_impossible_tolerance_exits_1(self, capsys):
        code, _ = run_cli(["verify", "--suite", "gegenbauer-ort",
                           "--tolerance", "1e-18"], capsys)
        assert code == 1

    def test_negative_tolerance_exits_2(self, capsys):
        code, out = run_cli(["verify", "--suite", "hahn-ort", "--tolerance", "-1"], capsys)
        assert code == 2
        assert out == ""
        code, out = run_cli(["verify", "--suite", "hahn-ort", "--tolerance", "0"], capsys)
        assert code in (0, 1)
        assert {report["tolerance"] for report in json.loads(out)} == {0.0}

    def test_negative_zero_tolerance_is_written_as_zero(self, capsys):
        code, out = run_cli(["verify", "--suite", "hahn-ort", "--tolerance", "-0"], capsys)
        assert code in (0, 1)
        assert out.count('"tolerance": 0.0') == len(json.loads(out))
        assert {math.copysign(1.0, report["tolerance"]) for report in json.loads(out)} == {1.0}

    def test_csv_format(self, capsys):
        code, out = run_cli(["verify", "--suite", "hahn-ort", "--format", "csv"], capsys)
        assert code == 0
        header = out.splitlines()[0]
        assert header == ("identity_name,parameters,lhs_re,lhs_im,rhs_re,rhs_im,"
                          "abs_error,rel_error,tolerance,passed,low_confidence")


class TestTable:
    def test_theta_grid_row_count(self, capsys):
        code, out = run_cli(["table", "--fn", "theta", "--n", "2", "--a", "1",
                             "--mu", "1", "--start", "-2", "--stop", "2",
                             "--step", "0.5"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "xi,value_re,value_im"
        assert len(lines) == 1 + 9

    def test_ball_grid_filters_domain(self, capsys):
        code, out = run_cli(["table", "--fn", "ball", "--n", "1,1", "--mu", "0.5",
                             "--grid", "5"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        # 13 of the 25 grid points lie inside the closed unit disc
        assert len(lines) == 1 + 13

    def test_d_family_grid_matches_eval(self, capsys):
        code, out = run_cli(["table", "--fn", "d_family", "--n", "1", "--a1", "1",
                             "--a2", "0.75", "--start", "0", "--stop", "1",
                             "--step", "0.5"], capsys)
        assert code == 0
        rows = out.strip().splitlines()[1:]
        for row in rows:
            x, value_re, value_im = row.split(",")
            code2, out2 = run_cli(["eval", "--fn", "d_family", "--n", "1",
                                   "--a1", "1", "--a2", "0.75", "--x", x], capsys)
            assert code2 == 0
            record = json.loads(out2)
            # identical code path, identical floats
            assert repr(record["value_re"]) == value_re
            assert repr(record["value_im"]) == value_im

    @pytest.mark.parametrize("fn, options, grid, coords", [
        ("gegenbauer", ["--n", "5", "--lambda", "0.7"],
         ["--start", "-0.9", "--stop", "0.9", "--step", "0.3"], 1),
        ("ball", ["--n", "2,1", "--mu", "0.7"], ["--grid", "9"], 2),
        ("d_family", ["--n", "3", "--a1", "0.7", "--a2", "1.2"],
         ["--start", "-2", "--stop", "2", "--step", "0.5"], 1),
    ])
    def test_eval_gives_the_table_bits(self, capsys, fn, options, grid, coords):
        # one --fn table evaluates both commands: the row of a table point
        # and an eval at that point carry the same value bits
        code, out = run_cli(["table", "--fn", fn, *options, *grid], capsys)
        assert code == 0
        # the row of largest value, so the compared bits are not a zero
        row = max((line.split(",") for line in out.strip().splitlines()[1:]),
                  key=lambda cells: abs(float(cells[coords])))
        code, out = run_cli(["eval", "--fn", fn, *options, "--x=" + ",".join(row[:coords])],
                            capsys)
        assert code == 0
        record = json.loads(out)
        assert [repr(record["value_re"]), repr(record["value_im"])] == row[coords:]

    def test_gegenbauer_rejects_extra_degrees(self, capsys):
        code, out = run_cli(["table", "--fn", "gegenbauer", "--n", "1,5", "--lambda", "1",
                             "--start", "0", "--stop", "0.5", "--step", "0.5"], capsys)
        assert code == 2
        assert out == ""

    @staticmethod
    def _values(out, coords):
        rows = [row.split(",") for row in out.strip().splitlines()[1:]]
        points = np.array([[float(c) for c in row[:coords]] for row in rows])
        values = np.array([complex(float(row[coords]), float(row[coords + 1]))
                           for row in rows])
        return points, values

    def test_theta_rows_are_one_batched_call(self, capsys):
        code, out = run_cli(["table", "--fn", "theta", "--n", "3,1", "--a", "0.8",
                             "--mu", "0.6", "--axis", "2", "--start", "-3",
                             "--stop", "3", "--step", "0.25"], capsys)
        assert code == 0
        points, values = self._values(out, 1)
        params = FamilyParams(0.8, 0.6, (3, 1))
        assert np.array_equal(values, theta_factor(2, 2, params, points[:, 0]))

    def test_ball_rows_are_one_batched_call(self, capsys):
        code, out = run_cli(["table", "--fn", "ball", "--n", "2,1", "--mu", "0.7",
                             "--grid", "9"], capsys)
        assert code == 0
        points, values = self._values(out, 2)
        assert np.all(np.sum(points * points, axis=1) <= 1.0)
        assert np.array_equal(values, ball_basis_eval((2, 1), 0.7, points))

    def test_empty_grid_writes_header_only(self, capsys):
        code, out = run_cli(["table", "--fn", "theta", "--n", "2", "--a", "1",
                             "--mu", "1", "--start", "1", "--stop", "0",
                             "--step", "0.5"], capsys)
        assert code == 0
        assert out == "xi,value_re,value_im\n"
        code, out = run_cli(["table", "--fn", "ball", "--n", "1,1", "--mu", "0.5",
                             "--grid", "0"], capsys)
        assert code == 0
        assert out == "x1,x2,value_re,value_im\n"

    def test_bad_grid_exits_2(self, capsys):
        # each refusal is a usage error that names the option
        for args, option in [(["--fn", "theta", "--n", "2", "--a", "1", "--mu", "1",
                               "--start", "0", "--stop", "1", "--step", "-0.5"], "--step"),
                             (["--fn", "ball", "--n", "1,1", "--mu", "0.5", "--grid", "-3"],
                              "--grid")]:
            with pytest.raises(SystemExit) as info:
                cli.main(["table", *args])
            captured = capsys.readouterr()
            assert info.value.code == 2
            assert captured.out == ""
            assert option in captured.err

    @pytest.mark.parametrize("args", [
        ["--fn", "theta", "--n", "2", "--a", "1", "--mu", "1",
         "--start", "0", "--stop", "1", "--step", "1e-6"],
        ["--fn", "gegenbauer", "--n", "2", "--lambda", "1",
         "--start", "-1", "--stop", "1", "--step", "1e-300"],
        ["--fn", "ball", "--n", "1,1", "--mu", "0.5", "--grid", "1001"],
    ])
    def test_row_limit_exits_2(self, capsys, args):
        code, out = run_cli(["table", *args], capsys)
        assert code == 2
        assert out == ""

    def test_fine_step_within_limit(self, capsys):
        code, out = run_cli(["table", "--fn", "gegenbauer", "--n", "1", "--lambda", "1",
                             "--start", "0", "--stop", "1", "--step", "1e-4"], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 10001


class TestDimensionOption:
    @pytest.mark.parametrize("args", [
        ["verify", "--suite", "hahn-ort", "--r", "7"],
        ["table", "--fn", "gegenbauer", "--n", "1", "--lambda", "1", "--start", "0",
         "--stop", "1", "--step", "0.5", "--r", "9"],
    ])
    def test_rejected_where_unused(self, capsys, args):
        code, out = run_cli(args, capsys)
        assert code == 2
        assert out == ""


class TestWorkBounds:
    @pytest.mark.parametrize("fn, limit, extra", [
        ("gegenbauer", cli._DEGREE_LIMIT, ["--lambda", "1.5", "--x", "0.3"]),
        ("jacobi", cli._JACOBI_DEGREE_LIMIT, ["--alpha", "0.5", "--beta", "1.5", "--x", "0.3"]),
    ])
    def test_eval_degree_boundary(self, capsys, fn, limit, extra):
        code, out = run_cli(["eval", "--fn", fn, "--n", str(limit), *extra], capsys)
        assert code == 0 and json.loads(out)["inputs"]["n"] == limit
        code, out = run_cli(["eval", "--fn", fn, "--n", str(limit + 1), *extra], capsys)
        assert code == 2 and out == ""

    def test_fourier_total_degree_beyond_limit(self, capsys):
        half = cli._DEGREE_LIMIT // 2
        with pytest.raises(SystemExit) as info:
            cli.main(["fourier", "--n", f"{half},{half + 1}", "--a", "1", "--mu", "1",
                      "--xi", "0,0"])
        captured = capsys.readouterr()
        assert info.value.code == 2 and captured.out == ""
        assert f"total degree {cli._DEGREE_LIMIT + 1} exceeds" in captured.err

    def test_table_degree_beyond_limit(self, capsys):
        code, out = run_cli(["table", "--fn", "theta", "--n", str(cli._DEGREE_LIMIT + 1),
                             "--a", "1", "--mu", "1", "--start", "0", "--stop", "0",
                             "--step", "1"], capsys)
        assert code == 2 and out == ""

    def test_table_row_boundary(self, capsys):
        stop = cli._TABLE_ROW_LIMIT - 1
        args = ["table", "--fn", "gegenbauer", "--n", "0", "--lambda", "1",
                "--start", "0", "--step", "1", "--stop"]
        code, out = run_cli(args + [str(stop)], capsys)
        assert code == 0 and len(out.splitlines()) == 1 + cli._TABLE_ROW_LIMIT
        code, out = run_cli(args + [str(stop + 1)], capsys)
        assert code == 2 and out == ""

    def test_table_rows_times_degree_boundary(self, capsys):
        # 10,000 rows on an exact step of 2^-13, at exactly rows x degree = the limit
        rows = 10_000
        degree = cli._TABLE_TERM_LIMIT // rows
        args = ["table", "--fn", "gegenbauer", "--lambda", "1", "--start", "-0.5",
                "--stop", repr(-0.5 + (rows - 1) * 2.0 ** -13), "--step", repr(2.0 ** -13)]
        code, out = run_cli(args + ["--n", str(degree)], capsys)
        assert code == 0 and len(out.splitlines()) == 1 + rows
        code, out = run_cli(args + ["--n", str(degree + 1)], capsys)
        assert code == 2 and out == ""


class TestNonFiniteResults:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("args", [
        ["eval", "--fn", "d_family", "--n", "1000", "--a1", "1", "--a2", "1", "--x", "300.3"],
        ["fourier", "--n", "3", "--a", "1", "--mu", "1", "--xi", "1e300"],
        ["fourier", "--n", "3", "--a", "1", "--mu", "1", "--xi", "1e300", "--check"],
        ["table", "--fn", "theta", "--n", "1000", "--a", "1", "--mu", "1",
         "--start", "0", "--stop", "1e4", "--step", "5e3"],
    ])
    def test_usage_error_without_warnings(self, capsys, args):
        with pytest.raises(SystemExit) as info:
            cli.main(args)
        captured = capsys.readouterr()
        assert info.value.code == 2
        assert captured.out == ""
        assert "not finite" in captured.err
        assert "Warning" not in captured.err


_GOOD_NUMBERS = ["0.3", "0.5", "1", "1.75", "2.5", "-0.25", "0"]
_BAD_NUMBERS = ["-3", "12", "1e-300", "5e-324", "1e300", "-1e300", "1e400", "nan", "inf",
                "-inf", "x", ""]
# valid values first and much more likely, so most argument vectors get
# past argparse into the library
_NUMBERS = st.sampled_from(_GOOD_NUMBERS * 12 + _BAD_NUMBERS)
_INTEGERS = st.sampled_from(["1", "2", "3", "0", "7", "-1", "1.5", "99999999999999"])
_BAD_INDICES = ["-1", "1,", ",", "1.5", "x", "1000", "25000", "99999999999999999999",
                "1,2,3,4"]
_OFTEN = st.sampled_from([True, True, True, False])
_RANGE = ("--start", "--stop", "--step")
# (command, --fn or --suite value, dimensions, the flags that call reads)
_CALLS = [
    ("eval", "gegenbauer", (1,), ("--n", "--lambda", "--x")),
    ("eval", "jacobi", (1,), ("--n", "--alpha", "--beta", "--x")),
    ("eval", "hahn", (1,), ("--n", "--x", "--a", "--b", "--c", "--d")),
    ("eval", "ball", (1, 2, 3), ("--n", "--mu", "--x", "--r")),
    ("eval", "f_r", (1, 2, 3), ("--n", "--a", "--mu", "--x", "--r")),
    ("eval", "d_family", (1, 2, 3), ("--n", "--a1", "--a2", "--x", "--r")),
    ("fourier", None, (1, 2, 3), ("--n", "--a", "--mu", "--xi", "--check", "--tolerance",
                                  "--r")),
    ("table", "theta", (1, 2, 3), ("--n", "--a", "--mu", "--axis") + _RANGE),
    ("table", "ball", (2,), ("--n", "--mu", "--grid")),
    ("table", "gegenbauer", (1,), ("--n", "--lambda") + _RANGE),
    ("table", "d_family", (1,), ("--n", "--a1", "--a2") + _RANGE),
    ("verify", "hahn-ort", (1,), ("--seed", "--r-max", "--tolerance", "--format")),
    ("verify", "parseval", (1,), ("--seed", "--r-max", "--tolerance", "--format")),
]
_ALL_FLAGS = sorted({flag for *_, flags in _CALLS for flag in flags} | {"--bogus"})


def _flag_value(draw, flag: str, r: int):
    """A value for ``flag`` in an r-dimensional call, usually a valid one."""
    if flag == "--n":
        if draw(_OFTEN):
            return ",".join(draw(st.sampled_from("0123")) for _ in range(r))
        return draw(st.sampled_from(_BAD_INDICES))
    if flag in ("--x", "--xi"):
        length = r if draw(_OFTEN) else draw(st.integers(1, 4))
        return ",".join(draw(_NUMBERS) for _ in range(length))
    if flag == "--r":
        return str(r) if draw(_OFTEN) else draw(_INTEGERS)
    if flag in ("--axis", "--grid", "--seed", "--r-max"):
        return draw(_INTEGERS)
    if flag == "--format":
        return draw(st.sampled_from(["json", "csv", "xml"]))
    return draw(_NUMBERS)


@st.composite
def _argv(draw):
    command, selector, dims, flags = draw(st.sampled_from(_CALLS))
    r = draw(st.sampled_from(dims))
    argv = [command]
    if selector is not None and draw(st.sampled_from([True] * 19 + [False])):
        argv.append(("--suite=" if command == "verify" else "--fn=") + selector)
    # each flag the call reads is present nine times in ten; a stray flag
    # from another call joins a third of the time
    chosen = [flag for flag in flags if draw(st.sampled_from([True] * 9 + [False]))]
    if draw(st.sampled_from([False, False, True])):
        chosen.append(draw(st.sampled_from(_ALL_FLAGS)))
    for flag in chosen:
        argv.append(flag if flag == "--check" else f"{flag}={_flag_value(draw, flag, r)}")
    return argv


class TestArgumentVectors:
    @pytest.mark.filterwarnings("error")
    @settings(max_examples=300, deadline=5000)
    @given(_argv())
    def test_exit_code_is_0_1_or_2(self, argv):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), argv


def _run_both(args, capsysbinary, tmp_path):
    """(exit code, stdout bytes) with no --output, and (exit code, file
    bytes, stdout bytes) with one."""
    code, out = run_cli(args, capsysbinary)
    path = tmp_path / "out"
    file_code, file_out = run_cli(args + ["--output", str(path)], capsysbinary)
    return (code, out), (file_code, path.read_bytes(), file_out)


def _csv_text(rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


class TestOutputBytes:
    """The streamed writers give the bytes of the text built in one piece:
    the same to a file and to stdout, where a missing final newline is
    added."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_verify(self, capsysbinary, tmp_path, fmt):
        args = ["verify", "--suite", "parseval", "--r-max", "2", "--format", fmt]
        reports = run_suite("parseval", r_max=2)
        if fmt == "json":
            handle = io.StringIO()
            reports_to_json(reports, handle)
            expected = handle.getvalue() + "\n"
        else:
            header = ["identity_name", "parameters", "lhs_re", "lhs_im", "rhs_re", "rhs_im",
                      "abs_error", "rel_error", "tolerance", "passed", "low_confidence"]
            rows = [header]
            for report in reports:
                data = report_to_dict(report)
                rows.append([data["identity_name"], json.dumps(data["parameters"], sort_keys=True)]
                            + [repr(data[key]) for key in header[2:9]]
                            + [str(data["passed"]).lower(), str(data["low_confidence"]).lower()])
            expected = _csv_text(rows)
        (code, out), (file_code, data, summary) = _run_both(args, capsysbinary, tmp_path)
        assert code == file_code == 0
        assert out == data == expected.encode()
        assert summary == f"{len(reports)}/{len(reports)} checks passed\n".encode()

    def test_eval(self, capsysbinary, tmp_path):
        args = ["eval", "--fn", "gegenbauer", "--n", "3", "--lambda", "0.7", "--x", "0.3"]
        record = {"inputs": {"fn": "gegenbauer", "n": 3, "lambda": 0.7, "x": 0.3},
                  "value_re": float(gegenbauer(3, 0.7, 0.3)), "value_im": 0.0}
        expected = json.dumps(record, sort_keys=True).encode()
        (code, out), (file_code, data, file_out) = _run_both(args, capsysbinary, tmp_path)
        assert code == file_code == 0
        assert (out, data, file_out) == (expected + b"\n", expected, b"")

    def test_fourier(self, capsysbinary, tmp_path):
        args = ["fourier", "--n", "1,2", "--a", "1", "--mu", "0.5", "--xi", "0.3,1.2",
                "--check"]
        params = FamilyParams(1.0, 0.5, (1, 2))
        closed = fourier_closed_form(params, np.array([0.3, 1.2]))
        report = fourier_report(params, np.array([0.3, 1.2]), None)
        record = {"inputs": {"n": [1, 2], "a": 1.0, "mu": 0.5, "xi": [0.3, 1.2]},
                  "closed_re": closed.real, "closed_im": closed.imag,
                  "oracle_re": report.rhs.real, "oracle_im": report.rhs.imag,
                  "rel_error": report.rel_error, "tolerance": report.tolerance,
                  "passed": report.passed, "low_confidence": False}
        expected = json.dumps(record, sort_keys=True).encode()
        (code, out), (file_code, data, file_out) = _run_both(args, capsysbinary, tmp_path)
        assert code == file_code == 0
        assert (out, data, file_out) == (expected + b"\n", expected, b"")

    def test_table(self, capsysbinary, tmp_path):
        args = ["table", "--fn", "theta", "--n", "2,1", "--a", "1", "--mu", "0.5",
                "--start", "-1", "--stop", "1", "--step", "0.5"]
        points = [-1.0, -0.5, 0.0, 0.5, 1.0]
        values = theta_factor(1, 2, FamilyParams(1.0, 0.5, (2, 1)), np.array(points))
        expected = _csv_text([["xi", "value_re", "value_im"]]
                             + [[repr(x), repr(v.real), repr(v.imag)]
                                for x, v in zip(points, values.tolist())]).encode()
        (code, out), (file_code, data, file_out) = _run_both(args, capsysbinary, tmp_path)
        assert code == file_code == 0
        assert (out, data, file_out) == (expected, expected, b"")

    @pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
    def test_process_stdout(self, capsysbinary, tmp_path, unbuffered):
        # a real process's stdout redirected to a file, which capsys replaces
        # above, with and without PYTHONUNBUFFERED
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        if unbuffered is not None:
            env["PYTHONUNBUFFERED"] = unbuffered
        for args, newline in [(["verify", "--suite", "hahn-ort", "--r-max", "1"], b""),
                              (["eval", "--fn", "gegenbauer", "--n", "3", "--lambda", "0.7",
                                "--x", "0.3"], b"\n")]:
            path, stdout = tmp_path / "out", tmp_path / "stdout"
            assert run_cli(args + ["--output", str(path)], capsysbinary)[0] == 0
            with open(stdout, "wb") as handle:
                proc = subprocess.run([sys.executable, "-m", "ballfourier.cli", *args],
                                      stdout=handle, stderr=subprocess.PIPE, env=env,
                                      timeout=60)
            assert (proc.returncode, proc.stderr) == (0, b"")
            assert stdout.read_bytes() == path.read_bytes() + newline


class TestOutputErrors:
    @pytest.mark.parametrize("args", [
        ["verify", "--suite", "hahn-ort"],
        ["eval", "--fn", "gegenbauer", "--n", "3", "--lambda", "0.7", "--x", "0.3"],
    ])
    @pytest.mark.parametrize("where, reason", [("missing", "No such file or directory"),
                                               ("directory", "Is a directory")])
    def test_unwritable_output_exits_2(self, capsys, tmp_path, args, where, reason):
        path = str(tmp_path / "no" / "such" / "dir" / "x.json" if where == "missing"
                   else tmp_path)
        with pytest.raises(SystemExit) as info:
            cli.main(args + ["--output", path])
        captured = capsys.readouterr()
        assert info.value.code == 2
        assert captured.out == ""
        assert captured.err == f"error: cannot write {path}: {reason}\n"

    def test_closed_pipe_keeps_the_exit_code(self):
        # buffered stdout, as in a pipeline; the report text (about 190 KB)
        # is larger than a pipe's buffer, so the writer meets the closed end
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        proc = subprocess.Popen([sys.executable, "-m", "ballfourier.cli", "verify",
                                 "--suite", "fourier-paths", "--r-max", "1"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.read(5) == b"[\n  {"
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert stderr == b""


class TestRefusalMessages:
    """A refusal inside a subcommand prints that subcommand's usage and
    names the option as it is spelled on the command line."""

    @staticmethod
    def _refusal(args, capsys) -> str:
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2
        return capsys.readouterr().err

    @pytest.mark.parametrize("args, command", [
        (["table", "--fn", "ball", "--n", "1,1", "--mu", "0.5", "--grid", "-3"], "table"),
        (["table", "--fn", "theta", "--n", "1,1", "--a", "1", "--mu", "0.5", "--axis", "3",
          "--start", "0", "--stop", "1", "--step", "0.5"], "table"),
        (["eval", "--fn", "ball", "--r", "3", "--n", "0,1", "--mu", "1", "--x", "0.3,0.4"], "eval"),
        (["fourier", "--n", "1,1", "--a", "1", "--mu", "0.5", "--xi", "0.5"], "fourier"),
        (["verify", "--suite", "parseval", "--r-max", "0"], "verify"),
        (["eval", "--fn", "hahn", "--n", "200", "--x", "0", "--a", "50", "--b", "50",
          "--c", "50", "--d", "50"], "eval"),
        (["eval", "--fn", "d_family", "--n", "0", "--a1", "400", "--a2", "400", "--x", "0"],
         "eval"),
        (["table", "--fn", "gegenbauer", "--n", "3", "--lambda", "1", "--start", "0",
          "--stop", "1", "--step", "-1"], "table"),
        (["table", "--fn", "ball", "--n", "1,1", "--mu", "0.5", "--grid", "400"], "table"),
        # 3F2 recurrence coefficients whose divisor rounds to 0: an s that
        # overflows, a product l1 l2 that underflows, 2 + s - 2 at tiny s
        (["eval", "--fn", "d_family", "--n", "1", "--a1", "0.5", "--a2", "1e308", "--x", "400"],
         "eval"),
        (["table", "--fn", "d_family", "--n", "1", "--a1", "0.5", "--a2", "1e308", "--start", "0",
          "--stop", "1", "--step", "0.5"], "table"),
        (["eval", "--fn", "hahn", "--n", "1", "--x", "0.3", "--a", "1e-200", "--b", "1",
          "--c", "0", "--d", "1e-200"], "eval"),
        (["eval", "--fn", "hahn", "--n", "2", "--x", "0.3", "--a", "-0.5", "--b", "1",
          "--c", "0", "--d", "-0.4999999999999999"], "eval"),
        # an option the subcommand does not know
        (["verify", "--suite", "hahn-ort", "--quick"], "verify"),
    ])
    def test_usage_is_the_subcommand_s(self, capsys, args, command):
        err = self._refusal(args, capsys)
        assert err.startswith(f"usage: ballfourier {command} "), err
        assert f"ballfourier {command}: error: " in err

    @pytest.mark.parametrize("args", [
        ["eval", "--fn", "gegenbauer", "--n", "3", "--x", "0.3"],
        ["table", "--fn", "gegenbauer", "--n", "3", "--start", "0", "--stop", "1",
         "--step", "0.5"],
    ])
    def test_missing_lambda_is_named_as_spelled(self, capsys, args):
        err = self._refusal(args, capsys)
        assert "error: --lambda is required for this function" in err
        assert "--lam " not in err

    @pytest.mark.parametrize("fn, args, entries", [
        ("ball", ["--n", "1", "--mu", "0.5", "--grid", "3"], 2),
        ("ball", ["--n", "1,1,1", "--mu", "0.5", "--grid", "3"], 2),
        ("gegenbauer", ["--n", "1,5", "--lambda", "1", "--start", "0", "--stop", "1",
                        "--step", "0.5"], 1),
        ("d_family", ["--n", "1,2", "--a1", "1", "--a2", "0.75", "--start", "0", "--stop", "1",
                      "--step", "0.5"], 1),
    ])
    def test_table_entry_count_has_one_message(self, capsys, fn, args, entries):
        err = self._refusal(["table", "--fn", fn, *args], capsys)
        assert err.endswith(f"ballfourier table: error: --fn {fn} tables take an --n "
                            f"of length {entries}\n"), err

    @pytest.mark.parametrize("args, reason", [
        (["--fn", "theta", "--n", "2", "--a", "-0.25", "--mu", "1", "--start", "0",
          "--stop", "1", "--step", "-0.5"], "decay parameter must satisfy a > 0"),
        (["--fn", "theta", "--n", "2", "--a", "1", "--mu", "-2", "--start", "0",
          "--stop", "1e9", "--step", "1e-3"], "mu must satisfy mu > -1/2"),
        (["--fn", "d_family", "--n", "2", "--a1", "1", "--a2", "0", "--start", "0",
          "--stop", "1", "--step", "0"], "decay parameter must satisfy a2 > 0"),
    ])
    def test_family_tables_name_a_bad_parameter_before_a_bad_grid(self, capsys, args, reason):
        # theta and d_family tables build FamilyParams / DParams before their grid
        err = self._refusal(["table", *args], capsys)
        assert err.splitlines()[-1].startswith(f"ballfourier table: error: {reason}"), err

    def test_missing_option_with_a_plain_name(self, capsys):
        err = self._refusal(["eval", "--fn", "d_family", "--n", "1", "--a1", "0.7",
                             "--x", "0.2"], capsys)
        assert "error: --a2 is required for this function" in err

    def test_unstored_dest_falls_back_to_its_spelling(self, capsys):
        parser = argparse.ArgumentParser(prog="ballfourier eval")
        with pytest.raises(SystemExit) as exc:
            cli._require(parser, argparse.Namespace(), ["some_dest"])
        assert exc.value.code == 2
        assert "error: --some-dest is required for this function" in capsys.readouterr().err
