import itertools
import math

import numpy as np
import pytest

from ballfourier import (FamilyParams, NonFiniteIntegrandError, QuadratureSpec,
                         ball_norm, family_eval, fourier_closed_form,
                         fourier_numeric, hahn_orthogonality_constant,
                         hahn_orthogonality_integral, parseval_check)
from ballfourier.quadrature import (_PHASE_ROW_NODES, _PHASE_ROWS, _TENSOR_GRID_LIMIT,
                                    _fourier_axis_integral, _line_rule, _phase_row,
                                    ball_default_spec, ball_gram_matrix,
                                    ball_inner_product_numeric, d_biorthogonality_gram,
                                    d_biorthogonality_integral, default_spec,
                                    doubled_spec, hahn_default_spec, hahn_gram_matrix,
                                    make_report, parseval_ball_value)
from ballfourier.tanh_family import family_axis_factor
from conftest import rel_err


def _same_bits(a, b) -> bool:
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    return a.shape == b.shape and np.array_equal(np.atleast_1d(a).view(np.int64),
                                                 np.atleast_1d(b).view(np.int64))


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(nodes_per_axis=1)
        with pytest.raises(ValueError):
            QuadratureSpec(truncation_halfwidth=-1.0)
        with pytest.raises(ValueError):
            QuadratureSpec(panels=0)


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


class TestPhaseCache:
    def test_axis_integral_equals_uncached_sum_bitwise(self, rng):
        # the reference is the phase table computed in one expression
        params = FamilyParams(1.25, 0.5, (3, 1))
        xi = np.concatenate([[0.0, -0.0, 3.0], rng.uniform(-3.0, 3.0, size=6)])
        for spec in (default_spec(2), doubled_spec(default_spec(2))):
            x, w = _line_rule(spec)
            for j in (1, 2):
                wphi = w * family_axis_factor(j, params, x)
                reference = np.sum(wphi * np.exp(-1j * xi[..., None] * x), axis=-1)
                assert _same_bits(_fourier_axis_integral(j, params, xi, spec), reference)

    def test_cold_and_warm_cache_bit_identical(self, rng):
        params = FamilyParams(0.75, 1.25, (2, 0, 1))
        xi = rng.uniform(-3.0, 3.0, size=(4, 3))
        xi[1, 2] = 0.0
        _phase_row.cache_clear()
        cold_batch = fourier_numeric(params, xi)
        _phase_row.cache_clear()
        cold_one = fourier_numeric(params, xi[1])
        assert _phase_row.cache_info().currsize == 3
        warm_batch = fourier_numeric(params, xi)
        warm_one = fourier_numeric(params, xi[1])
        assert _phase_row.cache_info().hits >= 3
        assert _same_bits(cold_batch, warm_batch)
        assert isinstance(warm_one, complex)
        assert _same_bits(cold_one, warm_one)

    def test_cached_rows_are_read_only(self):
        row = _phase_row(default_spec(1), 0.5)
        with pytest.raises(ValueError):
            row[0] = 0.0
        assert row is _phase_row(default_spec(1), 0.5)

    def test_cache_stays_within_bound(self):
        # 8 MiB at most: the row count and the node count per row are capped
        assert _PHASE_ROWS * _PHASE_ROW_NODES * 16 <= 8 * 2 ** 20
        params = FamilyParams(1.0, 0.5, (1,))
        spec = QuadratureSpec(nodes_per_axis=256, panels=16)
        _phase_row.cache_clear()
        for chunk in np.linspace(-3.0, 3.0, 10 * _PHASE_ROWS).reshape(10, -1):
            _fourier_axis_integral(1, params, chunk, spec)
        info = _phase_row.cache_info()
        assert info.misses == 10 * _PHASE_ROWS
        assert info.currsize == _PHASE_ROWS
        # a rule over the node cap computes its phases per call, uncached
        big = QuadratureSpec(nodes_per_axis=2 * _PHASE_ROW_NODES, panels=256)
        assert len(_line_rule(big)[0]) > _PHASE_ROW_NODES
        x, w = _line_rule(big)
        value = _fourier_axis_integral(1, params, 0.5, big)
        assert _phase_row.cache_info() == info
        assert value == complex(np.sum(w * family_axis_factor(1, params, x)
                                       * np.exp(-1j * 0.5 * x)))


class TestGramRoutes:
    @pytest.mark.parametrize("a1, a2", [(0.5, 0.5), (1.0, 0.75)])
    def test_hahn_gram_entries_are_pairwise_integrals(self, a1, a2):
        degrees = [0, 1, 2, 3, 4, 2]
        for spec in (hahn_default_spec(), doubled_spec(hahn_default_spec())):
            gram = hahn_gram_matrix(degrees, a1, a2, spec)
            assert gram.shape == (6, 6)
            for (p, n), (q, m) in itertools.product(enumerate(degrees), repeat=2):
                assert _same_bits(gram[p, q], hahn_orthogonality_integral(n, m, a1, a2, spec))
        assert _same_bits(hahn_gram_matrix([3, 1], a1, a2)[0, 1],
                          hahn_orthogonality_integral(3, 1, a1, a2, hahn_default_spec()))

    @pytest.mark.parametrize("a1, a2, r", [(1.0, 0.75, 1), (1.0, 0.75, 2), (0.5, 0.5, 1)])
    def test_d_gram_entries_are_pairwise_integrals(self, a1, a2, r):
        indices = [n for n in itertools.product(range(3), repeat=r) if sum(n) <= 2]
        base = QuadratureSpec(nodes_per_axis=800, panels=50, truncation_halfwidth=40.0 / (a1 + a2))
        for spec in (base, doubled_spec(base)):
            gram = d_biorthogonality_gram(indices, a1, a2, spec)
            assert gram.shape == (len(indices), len(indices))
            for (p, n), (q, m) in itertools.product(enumerate(indices), repeat=2):
                assert _same_bits(gram[p, q], d_biorthogonality_integral(n, m, a1, a2, spec))
        # the default rule, an off-diagonal pair with n != m and a1 != a2
        n, m = indices[1], indices[-1]
        assert _same_bits(d_biorthogonality_gram([n, m], a1, a2)[0, 1],
                          d_biorthogonality_integral(n, m, a1, a2))

    def test_pairings_equal_reference_sums_bitwise(self):
        # the reference evaluates each pair's integrand in one expression
        from ballfourier.classical import continuous_hahn
        from ballfourier.dfamily import d_axis_factor
        from ballfourier.special import log_gamma
        a1, a2 = 1.0, 0.75
        x, w = _line_rule(hahn_default_spec())
        weight = np.exp(2.0 * np.real(log_gamma(a1 + 1j * x))
                        + 2.0 * np.real(log_gamma(a2 + 1j * x)))
        gram = hahn_gram_matrix([1, 3], a1, a2)
        p1, p3 = (continuous_hahn(k, x, (a1, a2, a2, a1)) for k in (1, 3))
        assert _same_bits(gram[0, 1], np.sum(w * (weight * p1 * p3)))
        assert _same_bits(gram[1, 1], np.sum(w * (weight * p3 * p3)))
        n, m = (1, 1), (0, 2)
        x, w = _line_rule(QuadratureSpec(800, 40.0 / (a1 + a2), 50))
        reference = 1.0 + 0.0j
        for j in (1, 2):
            reference *= np.sum(w * d_axis_factor(j, 2, 1j * x, n, a1, a2)
                                * d_axis_factor(j, 2, -1j * x, m, a2, a1))
        assert _same_bits(d_biorthogonality_gram([n, m], a1, a2)[0, 1], reference)

    def test_d_gram_rejects_mixed_lengths(self):
        with pytest.raises(ValueError):
            d_biorthogonality_gram([(0,), (0, 1)], 1.0, 0.75)

    def test_non_finite_hahn_integrand_raises(self):
        # p_100 is not finite on the default rule
        with pytest.raises(NonFiniteIntegrandError):
            hahn_orthogonality_integral(100, 0, 1.0, 0.75)
        with pytest.raises(NonFiniteIntegrandError):
            hahn_gram_matrix([0, 100], 1.0, 0.75)


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
