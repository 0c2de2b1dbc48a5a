import ast
import dataclasses
import gc
import hashlib
import inspect
import io
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ballfourier import FamilyParams, cli, quadrature, verify
from ballfourier.tanh_family import fourier_prefactor
from ballfourier.verify import (SUITE_NAMES, SplitMix64, _gated_report,
                                canonical_sort, make_report, report_to_dict,
                                reports_to_json, run_suite)


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
        reports = run_suite(name, seed=3, r_max=2)
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

    def test_fourier_value_scale_is_positive(self):
        # the signed prefactor is negative for mu in (-1/2, 0); the scale
        # began from it, so the fourier-paths floor tol * scale was negative
        # there and could never apply
        params = FamilyParams(0.8, -0.3, (1, 2))
        assert fourier_prefactor(params) < 0
        scale = verify.fourier_value_scale(params, np.array([0.5, 1.0]))
        assert scale > 0
        assert scale == 1.8389694780381762  # the magnitude of the signed value

    def test_fourier_paths_floors_are_positive(self, monkeypatch):
        # at seed 0, 63 of the 360 reports have mu < 0; each gets a floor
        floors, make = [], verify.make_report

        def recording(name, parameters, lhs, rhs, tolerance, **kwargs):
            floors.append((parameters["mu"], kwargs["abs_floor"]))
            return make(name, parameters, lhs, rhs, tolerance, **kwargs)

        monkeypatch.setattr(verify, "make_report", recording)
        run_suite("fourier-paths", seed=0)
        assert len(floors) == 360
        assert sum(mu < 0 for mu, _ in floors) == 63
        assert all(floor > 0 for _, floor in floors)

    def test_tolerance_override_can_fail(self):
        reports = run_suite("gegenbauer-ort", tolerance=1e-18)
        assert any(not r.passed for r in reports)


class TestLayering:
    def test_no_private_library_routes(self):
        # the suites reach quadrature and the families through public names
        tree = ast.parse(inspect.getsource(verify))
        private = {node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id == "quad" and node.attr.startswith("_")}
        private |= {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module in (
                        "quadrature", "tanh_family")
                    for alias in node.names if alias.name.startswith("_")}
        assert private == set()

    def test_quadrature_takes_axis_factors_from_the_axis_table(self):
        # the one-axis public factors would bypass tanh_family._axis_table,
        # and the evaluators the oracle referees would bring a dense path
        # back; every name, attribute and import of the module is checked
        tree = ast.parse(inspect.getsource(quadrature))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {alias.name for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        assert "_axis_table" in names
        assert not names & {"family_axis_factor", "theta_factor", "ball_basis_eval",
                            "d_family_eval", "family_eval", "family_eval_peel_last"}

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

    def test_cli_imports_only_public_names(self):
        # the CLI parses and routes; a private name it imports from the
        # library is a decision the library has not made public
        private = {(node.module, alias.name)
                   for node in ast.walk(ast.parse(inspect.getsource(cli)))
                   if isinstance(node, ast.ImportFrom)
                   and (node.level > 0 or (node.module or "").startswith("ballfourier"))
                   for alias in node.names if alias.name.startswith("_")}
        assert private == set()

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
        assert json.loads(_written(reports)) == [report_to_dict(rep) for rep in reports]

    def test_json_bytes_stable(self):
        text1 = _written(run_suite("ball-pde", seed=5, r_max=2))
        text2 = _written(run_suite("ball-pde", seed=5, r_max=2))
        assert text1 == text2


# per suite, the report count and the SHA-256 prefix of the output of
# `ballfourier verify --suite NAME --r-max 3 --seed S`, so that a change to one
# suite moves one digest; rounding may differ on another numpy, so they are
# checked only on the numpy they were recorded with
_RECORDED_NUMPY = "2.4."
_SEED_FREE_SHA256 = {
    "gegenbauer-ort": (84, "b65ca6575cd26123"), "ball-ort": (114, "6429009b5e426468"),
    "fourier-oracle": (2670, "93a986d89f8bfe73"), "hahn-ort": (30, "abbb75ed747eeec9"),
    "parseval": (27, "1fc48b70ab49a1f3"), "dfamily-ort": (41, "600632fa61199ebf"),
}
_SUITE_SHA256 = {
    0: {**_SEED_FREE_SHA256, "ball-pde": (20, "bfd7f4ca6215171d"),
        "fourier-paths": (360, "ac7ee507b616cbb8")},
    1: {**_SEED_FREE_SHA256, "ball-pde": (20, "917738655d047208"),
        "fourier-paths": (360, "5b29bd26985e5fc6")},
}


class TestRecordedBytes:
    @pytest.mark.skipif(not np.__version__.startswith(_RECORDED_NUMPY),
                        reason=f"digests recorded with numpy {_RECORDED_NUMPY}x, "
                               f"this is numpy {np.__version__}")
    @pytest.mark.parametrize("seed", sorted(_SUITE_SHA256))
    def test_verify_all_output_digest(self, seed):
        digests = {}
        for name in verify._SUITES:
            reports = run_suite(name, seed, 3)
            assert all(report.passed for report in reports), name
            text = _written(reports) + "\n"
            digests[name] = (len(reports), hashlib.sha256(text.encode()).hexdigest()[:16])
        assert digests == _SUITE_SHA256[seed]


def _written(reports) -> str:
    """The text reports_to_json writes to a string handle."""
    handle = io.StringIO()
    reports_to_json(reports, handle)
    return handle.getvalue()


def _dumps_all(reports) -> str:
    """The list encoded in one piece, as reports_to_json must reproduce it."""
    return json.dumps([report_to_dict(rep) for rep in reports], indent=2)


def _hand_built_reports():
    def report(name, parameters, lhs, rel_error=0.0):
        return verify.VerificationReport(name, parameters, lhs, 1.0 + 0.0j, 0.0, rel_error,
                                         1e-6, False, True)
    return [
        report("nan", {"n": [1, 2]}, 1.0 + 0.0j, rel_error=math.nan),
        report("inf", {"xi": 0.5}, complex(math.inf, -math.inf)),
        report("negative zero", {"x": -0.0}, complex(-0.0, -0.0)),
        report('quote " and \\ and é and ∞', {'key "q"': 'naïve "x"\n', "ω": "π"}, 0.5j),
        report("empty", {}, 1.0 + 2.0j),
        report("nested", {"grid": [[1, [2, []]], {"deep": {"a": [0.1, {}]}}]}, 3.0 + 0.0j),
        report("tuple", {"n": (3, 2, 1), "pairs": ((0, 1), (2, 3))}, 1.0 + 0.0j),
        report("numpy", {"a": np.float64(0.1), "mu": [np.float64(-0.0), np.float64(1e300)]},
               complex(np.float64(2.5), np.float64(-1e-320)), rel_error=np.float64(1e-17)),
    ]


class TestStreamedJson:
    """reports_to_json writes each report on its own; the text must be that
    of encoding the whole list at once."""

    @pytest.mark.parametrize("suite, r_max", [("hahn-ort", 3), ("fourier-paths", 2),
                                              ("dfamily-ort", 2)])
    def test_suite_output_matches_one_piece_encoding(self, suite, r_max):
        reports = run_suite(suite, seed=4, r_max=r_max)
        assert _written(reports) == _dumps_all(reports)

    @pytest.mark.parametrize("count", [0, 1, 2, 8])
    def test_hand_built_reports(self, count):
        reports = _hand_built_reports()[:count]
        assert _written(reports) == _dumps_all(reports)

    def test_each_edge_case_alone(self):
        for report in _hand_built_reports():
            assert _written([report]) == _dumps_all([report])

    def test_handle_receives_the_text(self):
        reports = _hand_built_reports() + run_suite("hahn-ort")
        handle = io.StringIO()
        assert reports_to_json(reports, handle) is None
        assert handle.getvalue() == _dumps_all(reports)


# floats where json's text is easy to get wrong: both zeros, the non-finite
# values, subnormals and the edges of repr's switch to exponent form
_EDGE_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.225073858507201e-308,
                1e16, 9999999999999998.0, 1e-05, 0.0001, 1.7976931348623157e308]
_FLOATS = st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS))
# numbers json writes, numpy.float64 among them
_NUMBERS = st.one_of(_FLOATS, _FLOATS.map(np.float64), st.integers())
# quotes, backslashes, control characters, a line separator, a non-BMP
# character and a lone surrogate among any others
_TEXT = st.text(st.one_of(st.sampled_from('"\\\n\t\x00\x1f\x7fé\u2028\U0001f600\ud800'),
                          st.characters()), max_size=8)
_LEAVES = st.one_of(_NUMBERS, _TEXT, st.booleans(), st.none())
_KEYS = st.one_of(_TEXT, _FLOATS, st.integers(), st.booleans(), st.none())


def _nested(leaves, keys):
    return st.recursive(leaves, lambda children: st.one_of(
        st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4)), max_leaves=12)


def _reports(leaves, keys, passed=st.booleans()):
    complexes = st.builds(complex, _FLOATS, _FLOATS)
    report = st.builds(verify.VerificationReport, _TEXT,
                       st.dictionaries(keys, _nested(leaves, keys), max_size=5),
                       complexes, complexes, _NUMBERS, _NUMBERS, _NUMBERS, passed, st.booleans())
    return st.lists(report, max_size=3)


# values and keys json refuses, mixed with the ones it writes
_REFUSED = st.sampled_from([np.int64(3), np.bool_(True), np.float32(0.5), 1j, b"x", {1},
                            object()])
_REFUSED_KEYS = st.sampled_from([(1, 2), b"k", np.int64(1), frozenset()])


def _self_holding():
    loop = [1.0]
    loop.append(loop)
    return loop


def _outcome(write):
    """The text ``write`` returns, or the type of the error it raises."""
    try:
        return write()
    except (TypeError, ValueError) as exc:
        return type(exc)


class TestJsonFormatter:
    """reports_to_json formats every value itself; its text and its
    refusals must be those of json.dumps(..., indent=2) on any report."""

    @settings(max_examples=150)
    @given(_reports(_LEAVES, _KEYS, st.one_of(st.booleans(), st.integers(0, 1))))
    @example([verify.VerificationReport("zeros", {"z": [0.0, -0.0], -0.0: 0.0, 0.0: -0.0},
                                        complex(0.0, -0.0), complex(-0.0, 0.0), 0.0, -0.0,
                                        np.float64(-0.0), True, False)])
    def test_matches_one_piece_encoding(self, reports):
        assert _written(reports) == _dumps_all(reports)

    @settings(max_examples=100)
    @given(_reports(st.one_of(_LEAVES, _REFUSED), st.one_of(_KEYS, _REFUSED_KEYS),
                    st.one_of(st.booleans(), st.sampled_from([np.bool_(True), np.bool_(False)]))))
    def test_refuses_what_json_refuses(self, reports):
        outcome = _outcome(lambda: _dumps_all(reports))
        assert _outcome(lambda: _written(reports)) == outcome

    @pytest.mark.parametrize("field, value, error", [
        ("parameters", {"n": np.int64(2)}, TypeError), ("parameters", {(1, 2): 0.5}, TypeError),
        ("passed", np.bool_(True), TypeError), ("parameters", {"loop": _self_holding()}, ValueError)])
    def test_refusals(self, field, value, error):
        report = dataclasses.replace(make_report("refused", {}, 1.0, 1.0, 1e-6), **{field: value})
        for write in (_dumps_all, _written):
            with pytest.raises(error):
                write([report])


class _Discard:
    def write(self, text):
        pass


def _writer_peak(reports) -> int:
    """Peak bytes traced while the reports are written to a handle that
    keeps nothing."""
    gc.collect()
    tracemalloc.start()
    try:
        reports_to_json(reports, _Discard())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWriterMemory:
    """A report's text is dropped once it is written: the writer's peak
    does not grow with the number of reports.  The writer peaks at about
    2.4 KB; one that leaves per-report garbage for the collector (as
    json's indent=2 encoder does) peaks at about 72 KB for 100 reports and
    107 KB for 2,670."""

    def test_peak_does_not_grow_with_the_count(self):
        reports = run_suite("fourier-oracle", seed=0, r_max=3)
        assert len(reports) == 2670
        few, all_ = _writer_peak(reports[:100]), _writer_peak(reports)
        assert all_ <= 16_000
        assert abs(all_ - few) <= 4_000
