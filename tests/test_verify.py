import ast
import inspect
import json
import math
from pathlib import Path

import pytest

from ballfourier import cli, quadrature, verify
from ballfourier.verify import (SUITE_NAMES, SplitMix64, _gated_report,
                                canonical_sort, make_report, report_from_dict,
                                report_to_dict, reports_from_json, reports_to_json,
                                run_suite)


class TestSplitMix64:
    def test_published_reference_vector(self):
        rng = SplitMix64(0)
        assert rng.next_raw() == 0xE220A8397B1DCDAF
        assert rng.next_raw() == 0x6E789E6AA1B965F4
        assert rng.next_raw() == 0x06C45D188009454F

    def test_uniform_range(self):
        rng = SplitMix64(12345)
        values = [rng.uniform(-2.0, 3.0) for _ in range(200)]
        assert all(-2.0 <= v < 3.0 for v in values)

    def test_integer_range(self):
        rng = SplitMix64(9)
        values = [rng.integer(1, 3) for _ in range(100)]
        assert set(values) == {1, 2, 3}

    def test_seed_reproducibility(self):
        a = SplitMix64(777)
        b = SplitMix64(777)
        assert [a.next_raw() for _ in range(10)] == [b.next_raw() for _ in range(10)]


class TestStabilityGate:
    def test_stable_case_keeps_make_report_verdict(self):
        for lhs, rhs in ((1.0, 1.0 + 1e-9), (1.0, 2.0)):
            gated = _gated_report("x", {"k": 1}, lhs, rhs, 1e-6, 1e-12,
                                  [(lhs, lhs * (1.0 + 1e-12))])
            assert gated == make_report("x", {"k": 1}, lhs, rhs, 1e-6, abs_floor=1e-12)

    def test_gated_value_differs_from_lhs(self):
        # fourier-oracle style: lhs is the closed form, the gate watches the
        # oracle (rhs) alone
        closed, oracle = 2.0 + 1.0j, 2.0 + 1.0j + 1e-9
        stable = _gated_report("x", {}, closed, oracle, 1e-6, 1e-12,
                               [(oracle, oracle + 1e-13)])
        assert stable.passed and not stable.low_confidence
        drifting = _gated_report("x", {}, closed, oracle, 1e-6, 1e-12,
                                 [(oracle, oracle + 1e-3)])
        assert not drifting.passed and drifting.low_confidence
        assert drifting.lhs == closed and drifting.rhs == oracle

    def test_only_second_pair_drifts(self):
        # Parseval style: both sides are gated; a drift in either fails
        lhs, rhs = 3.0, 3.0 + 1e-10
        report = _gated_report("x", {}, lhs, rhs, 1e-8, 1e-8,
                               [(lhs, lhs + 1e-12), (rhs, rhs + 1e-2)])
        assert not report.passed
        assert report.low_confidence
        assert make_report("x", {}, lhs, rhs, 1e-8, abs_floor=1e-8).passed

    def test_non_finite_doubled_value_fails(self):
        report = _gated_report("x", {}, 1.0, 1.0, 1e-6, 1.0, [(1.0, float("nan"))])
        assert not report.passed and report.low_confidence

    def test_override_judges_the_sides_only(self):
        # the gate holds the drift to the suite's tolerance; a user
        # tolerance, tighter or looser, moves the verdict, not the gate
        lhs, rhs = 1.0, 1.0 + 1e-9
        tight = _gated_report("x", {}, lhs, rhs, 1e-6, 0.0, [(lhs, lhs + 1e-12)], 0.0)
        assert tight == make_report("x", {}, lhs, rhs, 0.0)
        assert not tight.passed and not tight.low_confidence
        loose = _gated_report("x", {}, lhs, rhs, 1e-6, 0.0, [(lhs, lhs + 1e-3)], 1.0)
        assert not loose.passed and loose.low_confidence and loose.tolerance == 1.0

    @pytest.mark.parametrize("suite", ["gegenbauer-ort", "ball-ort", "hahn-ort", "dfamily-ort"])
    def test_zero_tolerance_keeps_converged_rules_confident(self, suite):
        # at tolerance 0 the diagonal gate used to demand a drift of exactly
        # 0 and flagged converged quadrature low-confidence (6 of 30 in
        # hahn-ort); the verdicts still use the user's tolerance
        reports = run_suite(suite, tolerance=0.0)
        assert not any(rep.low_confidence for rep in reports)
        assert {rep.tolerance for rep in reports} == {0.0}


class TestSuites:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("nonsense")

    def test_r_max_below_one_rejected(self):
        for name in ("ball-pde", "fourier-oracle", "all"):
            with pytest.raises(ValueError):
                run_suite(name, r_max=0)

    @pytest.mark.parametrize("name", [n for n in SUITE_NAMES if n != "all"])
    def test_suite_passes(self, name):
        reports = run_suite(name, seed=3, r_max=2,
                            quick=True) if name == "fourier-oracle" else run_suite(
            name, seed=3, r_max=2)
        assert reports
        failed = [r for r in reports if not r.passed]
        assert not failed, failed[:3]

    def test_canonical_order_and_determinism(self):
        first = run_suite("fourier-paths", seed=11, r_max=2)
        second = run_suite("fourier-paths", seed=11, r_max=2)
        assert first == second
        assert first == canonical_sort(first)

    def test_seed_changes_draws(self):
        a = run_suite("fourier-paths", seed=1, r_max=2)
        b = run_suite("fourier-paths", seed=2, r_max=2)
        assert a != b

    def test_tolerance_override_can_fail(self):
        reports = run_suite("gegenbauer-ort", tolerance=1e-18)
        assert any(not r.passed for r in reports)


class TestLayering:
    def test_no_private_library_routes(self):
        # the suites reach quadrature and the families through public names;
        # the pair spec is the one (a1, a2)-dependent default a suite doubles
        tree = ast.parse(inspect.getsource(verify))
        private = {node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id == "quad" and node.attr.startswith("_")}
        private |= {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module in (
                        "quadrature", "tanh_family")
                    for alias in node.names if alias.name.startswith("_")}
        assert private == {"_d_pair_spec"}

    def test_verdicts_are_built_in_verify_only(self):
        # the oracle returns numbers; every report is built by verify
        package = Path(verify.__file__).parent
        builders = {path.name for path in package.glob("*.py")
                    if "make_report(" in path.read_text(encoding="utf-8")
                    or "VerificationReport(" in path.read_text(encoding="utf-8")}
        assert builders == {"verify.py"}
        for name in ("make_report", "VerificationReport", "parseval_check",
                     "parseval_ball_value", "default_spec"):
            assert not hasattr(quadrature, name), name
        quad_imports = {alias.name for node in ast.walk(ast.parse(inspect.getsource(quadrature)))
                        if isinstance(node, ast.Import) for alias in node.names}
        assert "cmath" not in quad_imports
        cli_imports = {(node.module, alias.name)
                       for node in ast.walk(ast.parse(inspect.getsource(cli)))
                       if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert not any("quadrature" in (module or "", name) for module, name in cli_imports)

    def test_parseval_reports_share_the_gate(self, monkeypatch):
        # all three parseval reports rest on the two quadrature sides, so a
        # drift of either side under node doubling fails every one of them
        sides = quadrature.parseval_sides

        def drifting(n, m, a1, a2, spec=None):
            lhs, rhs = sides(n, m, a1, a2, spec)
            if spec == quadrature.QuadratureSpec():
                return lhs, rhs
            return lhs, rhs * 1.01 + 0.01

        monkeypatch.setattr(quadrature, "parseval_sides", drifting)
        reports = run_suite("parseval", r_max=2)
        assert {rep.identity_name for rep in reports} == {
            "parseval", "parseval-ball-value", "parseval-pair-constant"}
        assert all(not rep.passed and rep.low_confidence for rep in reports)

    @pytest.mark.parametrize("drift_floors, stable", [(2.0, True), (8.0, False)])
    def test_parseval_pair_gate_is_in_pair_units(self, monkeypatch, drift_floors, stable):
        # the pair report compares rhs / (k_n k_m) with the floor
        # floor * 4 pi / |k_n k_m|, so its gate divides both resolution
        # pairs by k_n k_m too.  At (1,) x (1,), a1 = 1, a2 = 0.75,
        # |k_n k_m| = 19.9: a doubled-rule drift of the raw xi side by
        # 2 pi floor is 0.5 of that floor in pair units, 8 pi floor is 2.0
        sides = quadrature.parseval_sides
        floor = 1e-8
        drift = drift_floors * math.pi * floor

        def drifting(n, m, a1, a2, spec=None):
            lhs, rhs = sides(n, m, a1, a2, spec)
            if spec == quadrature.QuadratureSpec():
                return lhs, rhs
            return lhs, rhs + drift

        monkeypatch.setattr(quadrature, "parseval_sides", drifting)
        reports = {rep.identity_name: rep
                   for rep in verify._parseval_case((1,), (1,), 1.0, 0.75, 0.0, floor)}
        pair = reports["parseval-pair-constant"]
        assert pair.low_confidence is not stable
        assert pair.passed is stable
        # the raw sides' reports gate the raw drift against the side floor
        assert reports["parseval"].low_confidence and not reports["parseval"].passed

    def test_ball_ort_entries_are_the_pair_integrals(self):
        from ballfourier.quadrature import ball_default_spec, ball_inner_product_numeric
        spec = ball_default_spec(3)
        for report in run_suite("ball-ort", r_max=3):
            params = report.parameters
            if params["r"] == 3:
                assert report.lhs == ball_inner_product_numeric(
                    params["n"], params["m"], params["mu"], spec)

    def test_fourier_oracle_entries_are_the_per_index_routes(self):
        # batching over multi-indices or vectors never changes what a report says
        from ballfourier.quadrature import QuadratureSpec, fourier_numeric
        from ballfourier.tanh_family import FamilyParams, fourier_closed_form
        for report in run_suite("fourier-oracle", r_max=3):
            params = report.parameters
            member = FamilyParams(params["a"], params["mu"], tuple(params["n"]))
            assert report.lhs == fourier_closed_form(member, params["xi"])
            assert report.rhs == fourier_numeric(member, params["xi"], QuadratureSpec())


class TestSerialization:
    def test_schema_keys_exact(self):
        report = run_suite("hahn-ort")[0]
        data = report_to_dict(report)
        assert list(data.keys()) == [
            "identity_name", "parameters", "lhs_re", "lhs_im", "rhs_re", "rhs_im",
            "abs_error", "rel_error", "tolerance", "passed", "low_confidence"]

    def test_round_trip_identity(self):
        reports = run_suite("parseval", r_max=2)
        text = reports_to_json(reports)
        assert reports_from_json(text) == reports

    def test_dict_round_trip(self):
        report = run_suite("gegenbauer-ort")[5]
        assert report_from_dict(json.loads(json.dumps(report_to_dict(report)))) == report

    def test_json_bytes_stable(self):
        text1 = reports_to_json(run_suite("ball-pde", seed=5, r_max=2))
        text2 = reports_to_json(run_suite("ball-pde", seed=5, r_max=2))
        assert text1 == text2
