import itertools
import math

import numpy as np
import pytest

from ballfourier import (FamilyParams, NonFiniteIntegrandError, QuadratureSpec,
                         ball_norm, family_eval, fourier_closed_form,
                         fourier_numeric, hahn_orthogonality_constant,
                         hahn_orthogonality_integral, integrate_line,
                         parseval_check)
from ballfourier.quadrature import (_TENSOR_GRID_LIMIT, _fourier_axis_integral,
                                    _line_rule, ball_default_spec,
                                    ball_gram_matrix, ball_inner_product_numeric,
                                    d_biorthogonality_integral, default_spec,
                                    make_report, parseval_ball_value)
from conftest import rel_err


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(nodes_per_axis=1)
        with pytest.raises(ValueError):
            QuadratureSpec(truncation_halfwidth=-1.0)
        with pytest.raises(ValueError):
            QuadratureSpec(panels=0)


class TestIntegrateLine:
    def test_sech_integral(self):
        value = integrate_line(lambda x: 1.0 / np.cosh(x), default_spec(1))
        assert rel_err(value, math.pi) <= 1e-12

    def test_zero_integrand(self):
        assert integrate_line(np.zeros_like, default_spec(1)) == 0.0

    def test_sech_squared_scaled(self):
        value = integrate_line(lambda x: 1.0 / np.cosh(np.pi * x / 2.0) ** 2,
                               default_spec(1))
        assert rel_err(value, 4.0 / math.pi) <= 1e-12

    def test_nonfinite_integrand_raises(self):
        with pytest.raises(NonFiniteIntegrandError):
            integrate_line(lambda x: np.full_like(x, np.inf), default_spec(1))


class TestFourierNumeric:
    def test_sech_case(self):
        params = FamilyParams(0.5, 0.5, (0,))
        assert rel_err(fourier_numeric(params, [0.0]), math.pi) <= 1e-12

    def test_odd_integrand_vanishes(self):
        params = FamilyParams(1.0, 0.5, (1,))
        assert abs(fourier_numeric(params, [0.0])) <= 1e-12

    def test_r2_matches_closed_form(self):
        params = FamilyParams(1.0, 0.5, (1, 1))
        xi = np.array([0.5, -1.0])
        oracle = fourier_numeric(params, xi)
        closed = fourier_closed_form(params, xi)
        assert rel_err(oracle, closed) <= 1e-6

    def test_tensor_mode_matches_separated(self, rng):
        spec = QuadratureSpec(nodes_per_axis=192, panels=12)
        for _ in range(4):
            r = int(rng.integers(1, 3))
            n = tuple(int(v) for v in rng.integers(0, 3, size=r))
            params = FamilyParams(float(rng.uniform(0.5, 1.5)), 0.75, n)
            xi = rng.uniform(-2, 2, size=r)
            sep = fourier_numeric(params, xi, spec=spec)
            tens = fourier_numeric(params, xi, spec=spec, mode="tensor")
            assert abs(sep - tens) <= 1e-13 * max(abs(sep), 1.0)

    @pytest.mark.parametrize("case", [
        (0.5, 0.5, (0,), 0.0),
        (0.5, 0.5, (0,), 2.0),
        (1.0, 0.8, (1,), 0.7),
        (0.5, 0.8, (2,), 1.3),
        (1.75, 1.25, (3,), -2.4),
    ])
    def test_tanh_mode_matches_direct(self, case):
        # the substituted and direct evaluations are independent node sets
        a, mu, n, xi = case
        params = FamilyParams(a, mu, n)
        direct = fourier_numeric(params, [xi])
        substituted = fourier_numeric(params, [xi], mode="tanh")
        assert abs(direct - substituted) <= 1e-9 * max(abs(direct), 1e-3)

    def test_node_doubling_stability(self):
        params = FamilyParams(0.5, 1.25, (2, 1))
        xi = np.array([1.5, -0.5])
        coarse = fourier_numeric(params, xi, spec=QuadratureSpec(1024, 40.0, 64))
        fine = fourier_numeric(params, xi, spec=QuadratureSpec(2048, 40.0, 128))
        assert abs(coarse - fine) <= 1e-10 * max(abs(fine), 1e-9)

    def test_deterministic_reruns(self):
        params = FamilyParams(1.0, 0.5, (1, 0))
        xi = np.array([0.3, 1.1])
        first = fourier_numeric(params, xi)
        second = fourier_numeric(params, xi)
        assert first == second

    def test_rejects_bad_mode(self):
        params = FamilyParams(1.0, 0.5, (0,))
        with pytest.raises(ValueError):
            fourier_numeric(params, [0.0], mode="monte-carlo")


class TestBallInnerProduct:
    def test_disc_area(self):
        value = ball_inner_product_numeric((0, 0), (0, 0), 0.5)
        assert rel_err(value, math.pi) <= 1e-13

    def test_cross_term_vanishes(self):
        value = ball_inner_product_numeric((1, 0), (0, 1), 1.0)
        assert abs(value) <= 1e-10

    def test_matches_norm(self):
        for n in [(1, 0), (2, 1), (0, 3)]:
            value = ball_inner_product_numeric(n, n, 1.5)
            assert rel_err(value, ball_norm(n, 1.5)) <= 1e-8

    def test_gram_matches_entries(self):
        indices = [(0, 0), (1, 0), (0, 1), (2, 0)]
        gram = ball_gram_matrix(indices, 0.5)
        for p, n in enumerate(indices):
            for q, m in enumerate(indices):
                direct = ball_inner_product_numeric(n, m, 0.5,
                                                    spec=ball_default_spec(2))
                assert abs(gram[p, q] - direct) <= 1e-12 * max(1.0, abs(direct))


    @pytest.mark.parametrize("r, mu", [(1, 0.5), (1, -0.3), (2, 1.5), (3, 0.5), (3, 0.8)])
    def test_separated_matches_tensor(self, r, mu):
        spec = QuadratureSpec(nodes_per_axis=12, panels=1)
        indices = [n for n in itertools.product(range(4), repeat=r) if sum(n) <= 3]
        sep = ball_gram_matrix(indices, mu, spec)
        dense = ball_gram_matrix(indices, mu, spec, mode="tensor")
        norms = np.sqrt([ball_norm(n, mu) for n in indices])
        assert np.all(np.abs(sep - dense) <= 1e-14 * np.outer(norms, norms))
        for p, q in ((0, 0), (1, 1), (0, len(indices) - 1), (2, 3)):
            n, m = indices[p], indices[q]
            one = ball_inner_product_numeric(n, m, mu, spec)
            one_dense = ball_inner_product_numeric(n, m, mu, spec, mode="tensor")
            assert abs(one - one_dense) <= 1e-14 * norms[p] * norms[q]
            assert one == sep[p, q]

    def test_tensor_mode_grid_limit(self):
        assert 64 ** 4 > _TENSOR_GRID_LIMIT
        with pytest.raises(ValueError):
            ball_inner_product_numeric((0,) * 4, (0,) * 4, 0.5, mode="tensor")
        with pytest.raises(ValueError):
            ball_gram_matrix([(0, 0, 0)], 0.5, QuadratureSpec(256, panels=1), mode="tensor")
        # the separated default reaches the same r at per-axis cost
        value = ball_inner_product_numeric((1, 0, 0, 1), (1, 0, 0, 1), 0.5)
        assert rel_err(value, ball_norm((1, 0, 0, 1), 0.5)) <= 1e-12

    def test_rejects_bad_mode_and_mu(self):
        with pytest.raises(ValueError):
            ball_inner_product_numeric((0, 0), (0, 0), 0.5, mode="dense")
        with pytest.raises(ValueError):
            ball_gram_matrix([(0, 0)], -0.5)


class TestFourierAxisIntegral:
    def test_batched_equals_per_frequency_bitwise(self, rng):
        spec = default_spec(2)
        params = FamilyParams(0.75, 1.25, (2, 1))
        xi = rng.uniform(-3.0, 3.0, size=9)
        for j in (1, 2):
            batched = _fourier_axis_integral(j, params, xi, spec)
            assert batched.shape == xi.shape
            for value, x in zip(batched, xi):
                single = _fourier_axis_integral(j, params, float(x), spec)
                assert isinstance(single, complex)
                assert complex(value) == single


class TestBatchedFourierNumeric:
    @pytest.mark.parametrize("mode, spec", [
        ("separated", None),
        ("tanh", None),
        ("tensor", QuadratureSpec(nodes_per_axis=48, panels=3)),
    ])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_batch_entries_match_per_vector_calls(self, rng, mode, spec, r):
        params = FamilyParams(0.8, 0.6, tuple(int(v) for v in rng.integers(0, 3, size=r)))
        xi = rng.uniform(-3.0, 3.0, size=(6, r))
        xi[3] = xi[0]  # a repeated frequency vector
        xi[4, 0] = xi[1, 0]  # a frequency shared on one axis only
        flat = fourier_numeric(params, xi, spec, mode)
        grid = fourier_numeric(params, xi.reshape(2, 3, r), spec, mode)
        assert flat.shape == (6,) and grid.shape == (2, 3)
        for k in range(6):
            single = fourier_numeric(params, xi[k], spec, mode)
            assert isinstance(single, complex)
            for batched in (flat[k], grid.reshape(-1)[k]):
                assert abs(batched - single) <= 1e-15 * abs(single)

    def test_axis_integrals_on_distinct_frequencies_only(self, monkeypatch):
        from ballfourier import quadrature
        calls = []
        original = quadrature._fourier_axis_integral

        def recording(j, params, xi_j, spec):
            calls.append((j, np.asarray(xi_j).size))
            return original(j, params, xi_j, spec)

        monkeypatch.setattr(quadrature, "_fourier_axis_integral", recording)
        grid = list(itertools.product((-3.0, 0.5, 2.0), repeat=2))
        fourier_numeric(FamilyParams(1.0, 0.5, (1, 2)), grid)
        assert calls == [(1, 3), (2, 3)]

    def test_tanh_axis_integral_batched_equals_per_frequency_bitwise(self, rng):
        from ballfourier.quadrature import _tanh_axis_integral
        params = FamilyParams(0.9, 1.1, (2, 1))
        xi = rng.uniform(-3.0, 3.0, size=5)
        for j in (1, 2):
            batched = _tanh_axis_integral(j, params, xi)
            for value, x in zip(batched, xi):
                assert value == _tanh_axis_integral(j, params, np.float64(x))

    def test_rejects_wrong_vector_length(self):
        with pytest.raises(ValueError):
            fourier_numeric(FamilyParams(1.0, 0.5, (1, 0)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            fourier_numeric(FamilyParams(1.0, 0.5, (1,)), 0.5)


class TestHahnIntegral:
    def test_known_diagonal(self):
        value = hahn_orthogonality_integral(0, 0, 0.5, 0.5)
        assert rel_err(value, 2.0 * math.pi) <= 1e-10
        assert abs(complex(value).imag) <= 1e-12

    def test_small_matrix(self):
        for n in range(3):
            for m in range(n, 3):
                value = hahn_orthogonality_integral(n, m, 1.0, 0.75)
                if n == m:
                    assert rel_err(value, hahn_orthogonality_constant(n, 1.0, 0.75)) <= 1e-6
                else:
                    scale = math.sqrt(hahn_orthogonality_constant(n, 1.0, 0.75)
                                      * hahn_orthogonality_constant(m, 1.0, 0.75))
                    assert abs(value) <= 1e-6 * scale


class TestDBiorthogonality:
    def test_known_diagonal(self):
        value = d_biorthogonality_integral((0,), (0,), 0.5, 0.5)
        assert rel_err(value, 4.0 * math.pi) <= 1e-10

    def test_tensor_mode_agrees(self):
        spec = QuadratureSpec(nodes_per_axis=512, panels=32,
                              truncation_halfwidth=40.0 / 1.75)
        sep = d_biorthogonality_integral((1, 0), (1, 0), 1.0, 0.75)
        tens = d_biorthogonality_integral((1, 0), (1, 0), 1.0, 0.75,
                                          spec=spec, mode="tensor")
        assert rel_err(sep, tens) <= 1e-10

    def test_truncation_range_doubling(self):
        # halving/doubling the truncation window leaves the value unchanged
        base = d_biorthogonality_integral((2,), (2,), 1.0, 0.75)
        wide = d_biorthogonality_integral(
            (2,), (2,), 1.0, 0.75,
            spec=QuadratureSpec(nodes_per_axis=800, panels=50,
                                truncation_halfwidth=2 * 40.0 / 1.75))
        assert rel_err(base, wide) <= 1e-9


class TestParseval:
    def test_r1_base_case(self):
        report = parseval_check((0,), (0,), 0.5, 0.5)
        assert report.passed
        assert rel_err(report.lhs, 4.0 * math.pi) <= 1e-12
        assert rel_err(report.rhs, 4.0 * math.pi) <= 1e-12

    def test_r1_cross_term(self):
        report = parseval_check((1,), (0,), 0.5, 0.5)
        assert report.passed
        assert abs(report.lhs) <= 1e-8
        assert abs(report.rhs) <= 1e-8

    def test_r2_case_and_ball_value(self):
        report = parseval_check((1, 0), (1, 0), 1.0, 0.5, tolerance=1e-4)
        assert report.passed
        assert report.rel_error <= 1e-4
        target = parseval_ball_value((1, 0), (1, 0), 1.0, 0.5)
        assert rel_err(report.lhs, target) <= 1e-8

    def test_x_side_against_dense_tensor(self):
        # the separated x-side sum equals a dense two-dimensional quadrature
        n, m, a1, a2 = (1, 1), (1, 1), 1.0, 0.75
        mu = a1 + a2 - 0.5
        report = parseval_check(n, m, a1, a2)
        spec = QuadratureSpec(nodes_per_axis=384, panels=24)
        x, w = _line_rule(spec)
        grid = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1)
        values = (family_eval(grid, FamilyParams(a1, mu, n))
                  * family_eval(grid, FamilyParams(a2, mu, m)))
        dense = (2.0 * math.pi) ** 2 * float(
            np.sum(values * w[:, None] * w[None, :]))
        assert rel_err(report.lhs, dense) <= 1e-9

    def test_enforces_coupling_validity(self):
        with pytest.raises(ValueError):
            parseval_check((0,), (0,), 0.25, 0.25)


class TestVerificationReport:
    def test_relative_pass(self):
        report = make_report("x", {}, 1.0, 1.0 + 1e-9, 1e-6)
        assert report.passed and report.rel_error <= 1e-6

    def test_absolute_floor_pass(self):
        report = make_report("x", {}, 0.0, 1e-12, 1e-9, abs_floor=1e-10)
        assert report.passed

    def test_failure(self):
        report = make_report("x", {}, 1.0, 2.0, 1e-6)
        assert not report.passed
        assert report.rel_error == pytest.approx(0.5)

    def test_low_confidence_flag(self):
        report = make_report("x", {}, 1.0, 1.0, 1e-6, low_confidence=True)
        assert report.low_confidence

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     complex(1.0, math.nan), complex(math.inf, 0.0)])
    @pytest.mark.parametrize("side", ["lhs", "rhs"])
    def test_non_finite_side_fails(self, bad, side):
        # a huge floor and tolerance must not rescue a non-finite value
        lhs, rhs = (bad, 1.0) if side == "lhs" else (1.0, bad)
        report = make_report("x", {}, lhs, rhs, 1e300, abs_floor=math.inf)
        assert not report.passed
        assert report.low_confidence
        assert math.isnan(report.rel_error)

    def test_both_sides_nan_fail(self):
        report = make_report("x", {}, math.nan, math.nan, 1e-6, abs_floor=1.0)
        assert not report.passed and report.low_confidence
