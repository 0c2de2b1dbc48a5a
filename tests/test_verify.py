import ast
import inspect
import json

import pytest

from ballfourier import verify

from ballfourier.quadrature import make_report
from ballfourier.verify import (SUITE_NAMES, SplitMix64, _gated_report,
                                canonical_sort, report_from_dict, report_to_dict,
                                reports_from_json, reports_to_json, run_suite)


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

    def test_ball_ort_entries_are_the_pair_integrals(self):
        from ballfourier.quadrature import ball_default_spec, ball_inner_product_numeric
        spec = ball_default_spec(3)
        for report in run_suite("ball-ort", r_max=3):
            params = report.parameters
            if params["r"] == 3:
                assert report.lhs == ball_inner_product_numeric(
                    params["n"], params["m"], params["mu"], spec)


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
