import json

import numpy as np
import pytest

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
