import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballfourier import FamilyParams, ball_basis_eval, cli, theta_factor


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

    def test_missing_xi_exits_2(self, capsys):
        code, _ = run_cli(["fourier", "--r", "1", "--n", "0", "--a", "0.5",
                           "--mu", "0.5"], capsys)
        assert code == 2

    def test_failed_check_exits_1(self, capsys, monkeypatch):
        from ballfourier import quadrature

        monkeypatch.setattr(quadrature, "fourier_numeric",
                            lambda params, xi, spec=None, mode="separated": 123.0 + 0j)
        code, out = run_cli(["fourier", "--r", "1", "--n", "0", "--a", "0.5",
                             "--mu", "0.5", "--xi", "0", "--check"], capsys)
        assert code == 1
        assert json.loads(out)["passed"] is False


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

    def test_bad_grid_exits_2(self, capsys):
        code, _ = run_cli(["table", "--fn", "theta", "--n", "2", "--a", "1",
                           "--mu", "1", "--start", "0", "--stop", "1",
                           "--step", "-0.5"], capsys)
        assert code == 2

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
        ["eval", "--fn", "d_family", "--n", "1000", "--a1", "1", "--a2", "1", "--x", "0.3"],
        ["fourier", "--n", "3", "--a", "1", "--mu", "1", "--xi", "1e300"],
        ["fourier", "--n", "3", "--a", "1", "--mu", "1", "--xi", "1e300", "--check"],
        ["table", "--fn", "theta", "--n", "1000", "--a", "1", "--mu", "1",
         "--start", "0", "--stop", "1", "--step", "0.5"],
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
    ("verify", "hahn-ort", (1,), ("--seed", "--r-max", "--tolerance", "--format", "--quick")),
    ("verify", "parseval", (1,), ("--seed", "--r-max", "--tolerance", "--format", "--quick")),
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
        argv.append(flag if flag in ("--check", "--quick")
                    else f"{flag}={_flag_value(draw, flag, r)}")
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
