import itertools
import math
import time
import tracemalloc

import mpmath
import numpy as np
import pytest

from ballfourier import (FamilyParams, NonFiniteIntegrandError, QuadratureSpec,
                         ball_norm, family_eval, fourier_closed_form,
                         fourier_closed_form_table, fourier_numeric,
                         fourier_numeric_table, gegenbauer, hahn_orthogonality_constant,
                         hahn_orthogonality_integral, parseval_sides, tail_sum)
from ballfourier.quadrature import (_fourier_axis_integral, _jacgauss_cached, _line_rule,
                                    ball_default_spec, ball_gram_matrix,
                                    ball_inner_product_numeric,
                                    d_biorthogonality_gram, d_biorthogonality_integral,
                                    doubled_spec, hahn_default_spec, hahn_gram_matrix,
                                    tanh_default_spec)
from ballfourier.tanh_family import (_axis_keys, family_axis_factor, fourier_prefactor,
                                     theta_factor)
from ballfourier.verify import make_report
from conftest import rel_err
from reference_routes import (TENSOR_GRID_LIMIT, ball_gram_tensor, d_biorthogonality_tensor,
                              fourier_numeric_tensor)


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
        # a fractional node or panel count, a nan window, or an infinite one
        # whose 64 panels are not a whole-line layout (a multiple of 246)
        for bad in ({"nodes_per_axis": 100.5}, {"nodes_per_axis": 100.0}, {"panels": 2.5},
                    {"truncation_halfwidth": math.inf}, {"truncation_halfwidth": math.nan}):
            with pytest.raises(ValueError):
                QuadratureSpec(**bad)
        spec = QuadratureSpec(np.int64(256), 20.0, np.int64(16))
        assert len(_line_rule(spec)[0]) == 256

    def test_node_count_is_exact(self):
        # the panels split the node count evenly, at least 2 nodes each;
        # 100 nodes on 64 panels used to build 128
        for nodes, panels in ((100, 64), (64, 64), (3, 2), (10, 4)):
            with pytest.raises(ValueError, match="equal panels"):
                QuadratureSpec(nodes, panels=panels)
        with pytest.raises(ValueError, match="multiple of 246"):
            QuadratureSpec(123 * 16, math.inf, 123)
        for spec in (QuadratureSpec(96, panels=48), QuadratureSpec(2, panels=1),
                     QuadratureSpec(246 * 4, math.inf, 246), doubled_spec(tanh_default_spec())):
            assert len(_line_rule(spec)[0]) == spec.nodes_per_axis


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
        # four draws at r <= 2, then r = 4 on a coarse rule (24^4 points)
        fine, coarse = QuadratureSpec(nodes_per_axis=192, panels=12), QuadratureSpec(24, panels=2)
        for draw in range(5):
            r, spec = (int(rng.integers(1, 3)), fine) if draw < 4 else (4, coarse)
            n = tuple(int(v) for v in rng.integers(0, 3, size=r))
            params = FamilyParams(float(rng.uniform(0.5, 1.5)), 0.75, n)
            xi = rng.uniform(-2, 2, size=r)
            sep = fourier_numeric(params, xi, spec=spec)
            tens = fourier_numeric_tensor(params, xi, spec)
            assert abs(sep - tens) <= 1e-13 * max(abs(sep), 1.0)

    @pytest.mark.parametrize("case", [
        (0.5, 0.5, (0,), 0.0),
        (0.5, 0.5, (0,), 2.0),
        (1.0, 0.8, (1,), 0.7),
        (0.5, 0.8, (2,), 1.3),
        (1.75, 1.25, (3,), -2.4),
    ])
    def test_tanh_mode_matches_direct(self, case):
        # the whole-line (tanh-mapped) and default line rules are
        # independent node sets
        a, mu, n, xi = case
        params = FamilyParams(a, mu, n)
        direct = fourier_numeric(params, [xi])
        substituted = fourier_numeric(params, [xi], tanh_default_spec())
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


class TestWholeLineRule:
    """The tanh-mapped rule on all of R, ``truncation_halfwidth=math.inf``."""

    @pytest.mark.parametrize("a, mu", [(0.5, 0.5), (1.75, 1.25)])
    @pytest.mark.parametrize("n", [(12,), (20,), (30,), (8, 2, 2)])
    def test_high_degree_oracle_at_rounding_level(self, a, mu, n):
        # the default line rule is off by 1.1e-5 (a = mu = 1/2) and 1.1e-2
        # (a = 1.75, mu = 1.25) at n = 30
        params = FamilyParams(a, mu, n)
        xi = [3.0] if len(n) == 1 else [3.0, -1.0, 0.5]
        closed = fourier_closed_form(params, xi)
        base = fourier_numeric(params, xi, tanh_default_spec())
        fine = fourier_numeric(params, xi, doubled_spec(tanh_default_spec()))
        assert abs(base - closed) <= 1e-13 * abs(closed)
        assert abs(base - fine) <= 1e-13 * abs(closed)

    def test_doubling_refines_the_center(self):
        # a refinement that only added tail nodes would leave the center,
        # where the integrand lives, as it was and fake a stable value
        cut = math.atanh(0.5)
        base = _line_rule(tanh_default_spec())[0]
        fine = _line_rule(doubled_spec(tanh_default_spec()))[0]
        assert len(base) == 3936 and len(fine) == 2 * len(base)
        assert np.count_nonzero(np.abs(fine) <= cut) == 2 * np.count_nonzero(np.abs(base) <= cut)
        assert np.max(np.abs(fine)) > np.max(np.abs(base)) > 41.0

    def test_map_values(self):
        # tanh x and sech^2 x are the map's u and 1 - u^2 (recomputing them
        # from x made the oracle 10 times less accurate), which agree with
        # the functions of x to rounding; the weights integrate sech^2 to 2
        for spec in (tanh_default_spec(), doubled_spec(tanh_default_spec())):
            x, w, t, sech2 = _line_rule(spec)
            center = np.abs(t) <= 0.5
            assert np.array_equal(x[center], np.arctanh(t[center]))
            assert np.array_equal(sech2[center], 1.0 - t[center] * t[center])
            assert np.allclose(t, np.tanh(x), rtol=1e-15, atol=0.0)
            assert np.allclose(sech2, 1.0 / np.cosh(x) ** 2, rtol=1e-13, atol=0.0)
            assert abs(np.sum(w * sech2) - 2.0) <= 1e-15
            assert not any(arr.flags.writeable for arr in (x, w, t, sech2))

    def test_ball_routes_refuse_it_before_building_a_rule(self, monkeypatch):
        from ballfourier import quadrature

        def no_rule(*args):
            raise AssertionError("a ball rule was built")

        monkeypatch.setattr(quadrature, "_jacgauss_cached", no_rule)
        with pytest.raises(ValueError, match="whole-line"):
            ball_inner_product_numeric((1, 0), (1, 0), 0.5, tanh_default_spec())
        with pytest.raises(ValueError, match="whole-line"):
            ball_gram_matrix([(0, 0), (1, 0)], 0.5, tanh_default_spec())
        # the dense cross-check shares the oracle's rules and their refusals
        for indices in ([(1, 0), (1, 0)], [(0, 0), (1, 0)]):
            with pytest.raises(ValueError, match="whole-line"):
                ball_gram_tensor(indices, 0.5, tanh_default_spec())


class TestBallNodeBound:
    def test_large_rule_is_refused_before_it_is_built(self, monkeypatch):
        # a 20,000-node Golub-Welsch rule is a 3.2 GB eigenproblem
        from ballfourier import quadrature

        def no_rule(*args):
            raise AssertionError("a ball rule was built")

        monkeypatch.setattr(quadrature, "_jacgauss_cached", no_rule)
        spec = QuadratureSpec(nodes_per_axis=20_000, panels=1)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="nodes per axis"):
            ball_inner_product_numeric((1, 0), (1, 0), 0.5, spec)
        with pytest.raises(ValueError, match="nodes per axis"):
            ball_gram_matrix([(0, 0), (1, 0)], 0.5, spec)
        # the dense cross-check shares the oracle's rules and their refusals
        for indices in ([(1, 0), (1, 0)], [(0, 0), (1, 0)]):
            with pytest.raises(ValueError, match="nodes per axis"):
                ball_gram_tensor(indices, 0.5, spec)
        assert time.perf_counter() - start < 0.1

    def test_largest_rule_is_built(self):
        spec = QuadratureSpec(nodes_per_axis=512, panels=1)
        assert ball_inner_product_numeric((0,), (0,), 0.5, spec) == pytest.approx(2.0, rel=1e-13)


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


    @pytest.mark.parametrize("r, mu", [(1, 0.5), (1, -0.3), (2, 1.5), (3, 0.5), (3, 0.8),
                                       (4, 0.5)])
    def test_separated_matches_tensor(self, r, mu):
        spec = QuadratureSpec(nodes_per_axis=12, panels=1)
        indices = [n for n in itertools.product(range(4), repeat=r) if sum(n) <= 3]
        sep = ball_gram_matrix(indices, mu, spec)
        dense = ball_gram_tensor(indices, mu, spec)
        norms = np.sqrt([ball_norm(n, mu) for n in indices])
        assert np.all(np.abs(sep - dense) <= 1e-14 * np.outer(norms, norms))
        for p, q in ((0, 0), (1, 1), (0, len(indices) - 1), (2, 3)):
            n, m = indices[p], indices[q]
            one = ball_inner_product_numeric(n, m, mu, spec)
            one_dense = ball_gram_tensor([n, m], mu, spec)[0, 1]
            assert abs(one - one_dense) <= 1e-14 * norms[p] * norms[q]
            assert one == sep[p, q]

    def test_tensor_mode_grid_limit(self, monkeypatch):
        # every dense cross-check refuses more than 8e6 points before it
        # forms a grid: here forming one fails the test
        def no_grid(*args, **kwargs):
            raise AssertionError("a dense grid was formed")

        monkeypatch.setattr(np, "meshgrid", no_grid)
        assert ball_default_spec(5).nodes_per_axis ** 5 > TENSOR_GRID_LIMIT
        with pytest.raises(ValueError, match="tensor grid too large"):
            ball_gram_tensor([(0,) * 5, (0,) * 5], 0.5)
        with pytest.raises(ValueError, match="tensor grid too large"):
            ball_gram_tensor([(0, 0, 0)], 0.5, QuadratureSpec(256, panels=1))
        # r = 3 on the default Fourier (1,024-node) and D-pairing (800-node) rules
        assert len(_line_rule(QuadratureSpec())[0]) ** 3 > TENSOR_GRID_LIMIT
        with pytest.raises(ValueError, match="tensor grid too large"):
            fourier_numeric_tensor(FamilyParams(1.0, 0.5, (0, 1, 0)), [0.0, 0.5, 1.0])
        with pytest.raises(ValueError, match="tensor grid too large"):
            d_biorthogonality_tensor((0, 0, 0), (1, 0, 0), 1.0, 0.75)
        # the separated default reaches the same r at per-axis cost
        value = ball_inner_product_numeric((1, 0, 0, 0, 1), (1, 0, 0, 0, 1), 0.5)
        assert rel_err(value, ball_norm((1, 0, 0, 0, 1), 0.5)) <= 1e-12

    def test_rejects_bad_mu(self):
        with pytest.raises(ValueError):
            ball_gram_matrix([(0, 0)], -0.5)


# r = 3 dense calls on grids of 96^3 (Fourier, ball) and 48^3 (D family)
# points, after their separated counterparts: (oracle, dense, arguments)
_DENSE_CALLS = {
    "fourier": (fourier_numeric, fourier_numeric_tensor, (
        FamilyParams(1.0, 0.5, (1, 0, 1)), [0.5, -1.0, 2.0],
        QuadratureSpec(96, panels=6, truncation_halfwidth=14.0))),
    "ball": (ball_gram_matrix, ball_gram_tensor, (
        [(0, 0, 0), (1, 0, 0), (0, 1, 1)], 0.5, QuadratureSpec(96, panels=1))),
    "d-family": (d_biorthogonality_integral, d_biorthogonality_tensor, (
        (1, 0, 0), (1, 0, 0), 1.0, 0.75,
        QuadratureSpec(48, panels=3, truncation_halfwidth=40.0 / 1.75))),
}


class TestDenseTensorSum:
    @pytest.mark.parametrize("name", sorted(_DENSE_CALLS))
    def test_peak_memory_stays_at_a_slab(self, name):
        # forming the whole grid peaked at 42.6 (Fourier), 106 (ball) and
        # 16.3 MB (D family) traced; one slab at a time stays near 3-6 MB
        oracle, dense, args = _DENSE_CALLS[name]
        oracle(*args)  # builds the rule
        tracemalloc.start()
        try:
            dense(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6

    def test_non_finite_integrand_raises(self):
        # degree 600 at mu = 600 is not finite on this rule; the separated
        # oracle returns nan there, and make_report fails a non-finite side;
        # the kernel's overflow warnings are silenced, as the CLI does
        with np.errstate(all="ignore"), pytest.raises(NonFiniteIntegrandError):
            fourier_numeric_tensor(FamilyParams(0.5, 600.0, (600,)), [0.5],
                                   QuadratureSpec(96, panels=6))


class TestGaussJacobiRule:
    def test_chebyshev_weight(self):
        # alpha + beta = -1, where the general recurrence coefficient is 0/0
        nodes, weights = _jacgauss_cached(2, -0.5, -0.5)
        assert np.allclose(nodes, [-math.sqrt(0.5), math.sqrt(0.5)], rtol=0.0, atol=1e-15)
        assert np.allclose(weights, math.pi / 2.0, rtol=1e-15, atol=0.0)

    def test_moments_at_alpha_plus_beta_minus_one(self):
        # a 3-node rule integrates x^k, k <= 5, exactly against
        # (1 - x)^alpha (1 + x)^beta; with x = 2u - 1 each moment is a sum of
        # beta functions
        alpha, beta = -0.25, -0.75
        nodes, weights = _jacgauss_cached(3, alpha, beta)
        with mpmath.workdps(30):
            a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
            moments = [float(2 ** (a + b + 1) * mpmath.fsum(
                mpmath.binomial(k, i) * 2 ** i * (-1) ** (k - i) * mpmath.beta(b + i + 1, a + 1)
                for i in range(k + 1))) for k in range(6)]
        for k, exact in enumerate(moments):
            assert abs(np.sum(weights * nodes ** k) - exact) <= 1e-14 * moments[0]


class TestFourierAxisIntegral:
    def test_batched_equals_per_frequency_bitwise(self, rng):
        spec = QuadratureSpec()
        params = FamilyParams(0.75, 1.25, (2, 1))
        xi = rng.uniform(-3.0, 3.0, size=9)
        phases = np.exp(-1j * xi[:, None] * _line_rule(spec)[0])
        for key in _axis_keys(params.n):
            batched = _fourier_axis_integral(key, 2, 0.75, 1.25, phases, spec)
            assert batched.shape == xi.shape
            for value, row in zip(batched, phases):
                assert value == _fourier_axis_integral(key, 2, 0.75, 1.25, row, spec)


class TestPhaseCache:
    """The phase rows exp(-i xi x) are formed per call; no cache keeps them."""

    def test_axis_integral_equals_uncached_sum_bitwise(self, rng):
        # the reference is the phase table computed in one expression
        params = FamilyParams(1.25, 0.5, (3, 1))
        xi = np.concatenate([[0.0, -0.0, 3.0], rng.uniform(-3.0, 3.0, size=6)])
        vectors = np.stack([xi, xi[::-1]], axis=-1)
        big = QuadratureSpec(nodes_per_axis=8192, panels=256)
        assert len(_line_rule(big)[0]) > 4096
        for spec in (QuadratureSpec(), doubled_spec(QuadratureSpec()), big):
            x, w = _line_rule(spec)[:2]
            product = np.ones(len(xi), dtype=np.complex128)
            for key in _axis_keys(params.n):
                j = key[0]
                phases = np.exp(-1j * vectors[:, j - 1, None] * x)
                reference = np.sum((w * family_axis_factor(j, params, x)) * phases, axis=-1)
                assert _same_bits(_fourier_axis_integral(key, 2, 1.25, 0.5, phases, spec),
                                  reference)
                product = product * reference
            # the separated mode forms its own phase rows: the same bits
            assert _same_bits(fourier_numeric(params, vectors, spec), product)
            assert _same_bits(fourier_numeric(params, vectors[4], spec), product[4])

    def test_tanh_mode_equals_uncached_sum_bitwise(self, rng):
        # the reference writes each axis integrand out in one expression, on
        # the whole-line rule's nodes x = artanh u, weights w_u / (1 - u^2)
        # and the map's u and 1 - u^2
        params = FamilyParams(0.9, 1.1, (2, 1))
        vectors = rng.uniform(-3.0, 3.0, size=(7, 2))
        vectors[0] = 0.0
        for spec in (tanh_default_spec(), doubled_spec(tanh_default_spec())):
            xmap, w, u, om2 = _line_rule(spec)
            product = np.ones(len(vectors), dtype=np.complex128)
            for j in (1, 2):
                m = tail_sum(params.n, j + 1)
                factor = (om2 ** (params.a + (2 - j) / 4.0 + m / 2.0)
                          * gegenbauer(params.n[j - 1], params.mu + m + (2 - j) / 2.0, u))
                product = product * np.sum((w * factor)
                                           * np.exp(-1j * vectors[:, j - 1, None] * xmap),
                                           axis=-1)
            assert _same_bits(fourier_numeric(params, vectors, spec), product)
            assert _same_bits(fourier_numeric(params, vectors[3], spec), product[3])


class TestProcessState:
    def test_rule_builders_are_the_only_caches(self):
        # the benchmark's trace sums cache_info() over exactly these builders
        from ballfourier import quadrature
        cached = {name for name, obj in vars(quadrature).items()
                  if hasattr(obj, "cache_info") and obj.__module__ == quadrature.__name__}
        assert cached == {"_leggauss_cached", "_jacgauss_cached", "_composite_rule",
                          "_tanh_rule"}


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
        x, w = _line_rule(hahn_default_spec())[:2]
        weight = np.exp(2.0 * np.real(log_gamma(a1 + 1j * x))
                        + 2.0 * np.real(log_gamma(a2 + 1j * x)))
        gram = hahn_gram_matrix([1, 3], a1, a2)
        p1, p3 = (continuous_hahn(k, x, (a1, a2, a2, a1)) for k in (1, 3))
        assert _same_bits(gram[0, 1], np.sum(w * (weight * p1 * p3)))
        assert _same_bits(gram[1, 1], np.sum(w * (weight * p3 * p3)))
        n, m = (1, 1), (0, 2)
        x, w = _line_rule(QuadratureSpec(800, 40.0 / (a1 + a2), 50))[:2]
        reference = 1.0 + 0.0j
        for j in (1, 2):
            reference *= np.sum(w * d_axis_factor(j, 2, 1j * x, n, a1, a2)
                                * d_axis_factor(j, 2, -1j * x, m, a2, a1))
        assert _same_bits(d_biorthogonality_gram([n, m], a1, a2)[0, 1], reference)

    def test_d_gram_rejects_mixed_lengths(self):
        with pytest.raises(ValueError):
            d_biorthogonality_gram([(0,), (0, 1)], 1.0, 0.75)

    def test_empty_index_lists_rejected(self):
        # an empty list of multi-indices has no dimension r
        with pytest.raises(ValueError, match="empty list"):
            ball_gram_matrix([], 0.5)
        with pytest.raises(ValueError, match="empty list"):
            d_biorthogonality_gram([], 1.0, 0.75)

    def test_hahn_gram_of_no_degrees_is_empty(self):
        # degrees, not multi-indices: no r to infer, so the matrix is (0, 0)
        assert hahn_gram_matrix([], 1.0, 0.75).shape == (0, 0)

    def test_non_finite_hahn_integrand_raises(self):
        # p_100 is not finite on the default rule
        with pytest.raises(NonFiniteIntegrandError):
            hahn_orthogonality_integral(100, 0, 1.0, 0.75)
        with pytest.raises(NonFiniteIntegrandError):
            hahn_gram_matrix([0, 100], 1.0, 0.75)


class TestBatchedFourierNumeric:
    @pytest.mark.parametrize("route, spec", [
        pytest.param(fourier_numeric, None, id="separated-None"),
        pytest.param(fourier_numeric, tanh_default_spec(), id="tanh"),
        pytest.param(fourier_numeric_tensor, QuadratureSpec(nodes_per_axis=48, panels=3),
                     id="tensor-spec2"),
    ])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_batch_entries_match_per_vector_calls(self, rng, route, spec, r):
        params = FamilyParams(0.8, 0.6, tuple(int(v) for v in rng.integers(0, 3, size=r)))
        # 16 vectors: a one-vector call that leaves the batch's array loops
        # differs in the last bit on only a few percent of draws
        xi = rng.uniform(-3.0, 3.0, size=(16, r))
        xi[3] = xi[0]  # a repeated frequency vector
        xi[4, 0] = xi[1, 0]  # a frequency shared on one axis only
        flat = route(params, xi, spec)
        grid = route(params, xi.reshape(2, 8, r), spec)
        assert flat.shape == (16,) and grid.shape == (2, 8)
        for k in range(16):
            single = route(params, xi[k], spec)
            assert isinstance(single, complex)
            for batched in (flat[k], grid.reshape(-1)[k]):
                assert _same_bits(batched, single)

    def test_axis_integrals_on_distinct_frequencies_only(self, monkeypatch):
        from ballfourier import quadrature
        calls = []
        original = quadrature._fourier_axis_integral

        def recording(key, r, a, mu, phases, spec):
            calls.append((key[0], len(phases)))
            return original(key, r, a, mu, phases, spec)

        monkeypatch.setattr(quadrature, "_fourier_axis_integral", recording)
        grid = list(itertools.product((-3.0, 0.5, 2.0), repeat=2))
        fourier_numeric(FamilyParams(1.0, 0.5, (1, 2)), grid)
        assert calls == [(1, 3), (2, 3)]

    def test_tanh_axis_integral_batched_equals_per_frequency_bitwise(self, rng):
        # the axis integral on the whole-line rule
        spec = tanh_default_spec()
        params = FamilyParams(0.9, 1.1, (2, 1))
        xi = rng.uniform(-3.0, 3.0, size=5)
        phases = np.exp(-1j * xi[:, None] * _line_rule(spec)[0])
        for key in _axis_keys(params.n):
            batched = _fourier_axis_integral(key, 2, 0.9, 1.1, phases, spec)
            assert batched.shape == xi.shape
            for value, row in zip(batched, phases):
                assert value == _fourier_axis_integral(key, 2, 0.9, 1.1, row, spec)

    def test_rejects_wrong_vector_length(self):
        with pytest.raises(ValueError):
            fourier_numeric(FamilyParams(1.0, 0.5, (1, 0)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            fourier_numeric(FamilyParams(1.0, 0.5, (1,)), 0.5)


class TestFourierTables:
    """One row per multi-index, each per-axis factor once per axis key."""

    # indices sharing axis keys (j, n_j, |n^{j+1}|), with one index repeated
    INDICES = {1: [(0,), (2,), (1,), (2,)],
               2: [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (1, 0)],
               3: [(0, 0, 0), (1, 0, 1), (0, 1, 1), (2, 0, 0), (0, 0, 2), (1, 1, 0),
                   (1, 0, 1)]}

    @staticmethod
    def _frequencies(rng, r):
        grid = rng.uniform(-3.0, 3.0, size=(2, 3, r))
        grid[1, 2] = grid[0, 0]  # a repeated frequency vector
        grid[0, 1, 0] = grid[1, 1, 0]  # a frequency shared on one axis only
        return rng.uniform(-3.0, 3.0, size=r), grid

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_rows_are_the_per_index_calls(self, rng, r):
        a, mu = 0.9, 1.1
        indices = self.INDICES[r]
        for xi in self._frequencies(rng, r):
            shape = (len(indices),) + xi.shape[:-1]
            closed = fourier_closed_form_table(indices, a, mu, xi)
            assert closed.shape == shape
            for row, n in zip(closed, indices):
                assert _same_bits(row, fourier_closed_form(FamilyParams(a, mu, n), xi))
            for spec in (QuadratureSpec(), doubled_spec(QuadratureSpec()), tanh_default_spec()):
                numeric = fourier_numeric_table(indices, a, mu, xi, spec)
                assert numeric.shape == shape
                for row, n in zip(numeric, indices):
                    assert _same_bits(row, fourier_numeric(FamilyParams(a, mu, n), xi, spec))

    @pytest.mark.parametrize("r", [2, 3])
    def test_rows_are_the_per_axis_products(self, rng, r):
        # reference: the per-index products written out, axis by axis
        a, mu = 1.2, 0.7
        indices = self.INDICES[r]
        _, xi = self._frequencies(rng, r)
        spec = QuadratureSpec()
        closed = fourier_closed_form_table(indices, a, mu, xi)
        numeric = fourier_numeric_table(indices, a, mu, xi, spec)
        for p, n in enumerate(indices):
            params = FamilyParams(a, mu, n)
            value = complex(fourier_prefactor(params))
            oracle = np.ones(xi.shape[:-1], dtype=np.complex128)
            for key in _axis_keys(n):
                j = key[0]
                value = value * theta_factor(j, r, params, xi[..., j - 1])
                distinct, inverse = np.unique(xi[..., j - 1], return_inverse=True)
                phases = np.exp(-1j * distinct[:, None] * _line_rule(spec)[0])
                axis = _fourier_axis_integral(key, r, a, mu, phases, spec)
                oracle = oracle * axis[inverse.reshape(oracle.shape)]
            assert _same_bits(closed[p], value)
            assert _same_bits(numeric[p], oracle)

    def test_one_factor_per_axis_key(self, monkeypatch):
        from ballfourier import quadrature, tanh_family
        axis_calls, ladder_calls = [], []
        axis_integral, ladder = quadrature._fourier_axis_integral, tanh_family._axis_ladder

        def recording_axis(key, r, a, mu, phases, spec):
            axis_calls.append((*key, np.shape(phases)[:-1]))
            return axis_integral(key, r, a, mu, phases, spec)

        def recording_ladder(j, r, m, a, mu, z, degrees):
            ladder_calls.append((j, m, tuple(degrees), np.shape(z)))
            return ladder(j, r, m, a, mu, z, degrees)

        monkeypatch.setattr(quadrature, "_fourier_axis_integral", recording_axis)
        monkeypatch.setattr(tanh_family, "_axis_ladder", recording_ladder)
        indices = self.INDICES[3]
        grid = np.array(list(itertools.product((-3.0, 2.0), repeat=3)))
        fourier_numeric_table(indices, 1.0, 0.5, grid)
        fourier_closed_form_table(indices, 1.0, 0.5, grid)
        keys = {(j, n[j - 1], tail_sum(n, j + 1)) for n in indices for j in (1, 2, 3)}
        assert len(keys) < 3 * len(indices)
        # the oracle integrates each key once, on the axis's distinct frequencies
        assert sorted(call[:3] for call in axis_calls) == sorted(keys)
        assert {call[3] for call in axis_calls} == {(2,)}
        # the closed form runs one 3F2 ladder per axis tail (j, m) for all
        # of its degrees, also on the axis's distinct frequencies
        tails = {}
        for j, nj, m in keys:
            tails.setdefault((j, m), set()).add(nj)
        assert len(tails) < len(keys)
        assert sorted(call[:2] for call in ladder_calls) == sorted(tails)
        assert all(set(degrees) == tails[j, m] for j, m, degrees, _ in ladder_calls)
        assert {call[3] for call in ladder_calls} == {(2,)}

    def test_frequencies_are_checked_once(self, monkeypatch):
        # the oracle hands its checked array to the frequency table, as the
        # closed form does, so each route validates xi once per call
        from ballfourier import quadrature, tanh_family
        calls = []
        check = tanh_family._frequency_vectors

        def recording(xi, r):
            calls.append(r)
            return check(xi, r)

        monkeypatch.setattr(quadrature, "_frequency_vectors", recording)
        monkeypatch.setattr(tanh_family, "_frequency_vectors", recording)
        params, xi = FamilyParams(1.0, 0.5, (1, 2)), np.zeros((4, 2))
        for route in (lambda: fourier_numeric(params, xi),
                      lambda: fourier_numeric_table([(1, 2), (0, 1)], 1.0, 0.5, xi),
                      lambda: fourier_closed_form(params, xi),
                      lambda: fourier_closed_form_table([(1, 2), (0, 1)], 1.0, 0.5, xi)):
            calls.clear()
            route()
            assert calls == [2]

    @pytest.mark.parametrize("table", [fourier_closed_form_table, fourier_numeric_table])
    def test_rejects_bad_input(self, table):
        with pytest.raises(ValueError, match="empty list"):
            table([], 1.0, 0.5, [0.1])
        with pytest.raises(ValueError):
            table([(0,), (0, 1)], 1.0, 0.5, [0.1, 0.2])  # mixed index lengths
        for a, mu in ((0.0, 0.5), (-1.0, 0.5), (1.0, -0.5), (1.0, 0.0)):
            with pytest.raises(ValueError):
                table([(1,)], a, mu, [0.1])
        for xi in ([0.1], 0.1, np.zeros((3, 3))):
            with pytest.raises(ValueError):
                table([(1, 0)], 1.0, 0.5, xi)  # wrong frequency vector length

    def test_tensor_mode_is_per_index_only(self):
        # no oracle route has a mode parameter: the dense tensor sums are
        # the tests' reference routes
        calls = [(fourier_numeric_table, ([(1,)], 1.0, 0.5, [0.1])),
                 (fourier_numeric, (FamilyParams(1.0, 0.5, (1,)), [0.1])),
                 (ball_inner_product_numeric, ((1,), (1,), 0.5)),
                 (ball_gram_matrix, ([(1,)], 0.5)),
                 (d_biorthogonality_integral, ((1,), (1,), 1.0, 0.75))]
        for route, args in calls:
            with pytest.raises(TypeError):
                route(*args, mode="tensor")

    def test_single_vector_calls_stay_complex_scalars(self):
        params = FamilyParams(1.0, 0.5, (1, 2))
        for spec in (None, tanh_default_spec()):
            assert isinstance(fourier_numeric(params, [0.5, -1.0], spec), complex)
        assert isinstance(fourier_closed_form(params, [0.5, -1.0]), complex)
        assert fourier_closed_form_table([(1, 2)], 1.0, 0.5, [0.5, -1.0]).shape == (1,)


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
        tens = d_biorthogonality_tensor((1, 0), (1, 0), 1.0, 0.75, spec)
        assert rel_err(sep, tens) <= 1e-10
        # r = 4 on a coarse rule (16^4 points): both routes sum the same grid
        coarse = QuadratureSpec(nodes_per_axis=16, panels=2, truncation_halfwidth=40.0 / 1.75)
        n = (1, 0, 0, 1)
        sep = d_biorthogonality_integral(n, n, 1.0, 0.75, spec=coarse)
        tens = d_biorthogonality_tensor(n, n, 1.0, 0.75, coarse)
        assert rel_err(sep, tens) <= 1e-13

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
        lhs, rhs = parseval_sides((0,), (0,), 0.5, 0.5)
        assert rel_err(lhs, rhs) <= 1e-6
        assert rel_err(lhs, 4.0 * math.pi) <= 1e-12
        assert rel_err(rhs, 4.0 * math.pi) <= 1e-12

    def test_r1_cross_term(self):
        lhs, rhs = parseval_sides((1,), (0,), 0.5, 0.5)
        assert abs(lhs - rhs) <= 1e-8
        assert abs(lhs) <= 1e-8
        assert abs(rhs) <= 1e-8

    def test_r2_case_and_ball_value(self):
        lhs, rhs = parseval_sides((1, 0), (1, 0), 1.0, 0.5)
        assert rel_err(lhs, rhs) <= 1e-4
        target = (2.0 * math.pi) ** 2 * ball_norm((1, 0), 1.0 + 0.5 - 0.5)
        assert rel_err(lhs, target) <= 1e-8

    def test_x_side_against_dense_tensor(self):
        # the separated x-side sum equals a dense two-dimensional quadrature
        n, m, a1, a2 = (1, 1), (1, 1), 1.0, 0.75
        mu = a1 + a2 - 0.5
        lhs, _ = parseval_sides(n, m, a1, a2)
        spec = QuadratureSpec(nodes_per_axis=384, panels=24)
        x, w = _line_rule(spec)[:2]
        grid = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1)
        values = (family_eval(grid, FamilyParams(a1, mu, n))
                  * family_eval(grid, FamilyParams(a2, mu, m)))
        dense = (2.0 * math.pi) ** 2 * float(
            np.sum(values * w[:, None] * w[None, :]))
        assert rel_err(lhs, dense) <= 1e-9

    def test_enforces_coupling_validity(self):
        with pytest.raises(ValueError):
            parseval_sides((0,), (0,), 0.25, 0.25)

    @pytest.mark.parametrize("n, m", [((2,), (1,)), ((1, 2), (0, 2)), ((1, 0, 2), (0, 2, 1))])
    def test_sides_equal_per_axis_sums_bitwise(self, n, m):
        # the reference writes each side out axis by axis from the public
        # per-axis factors, the head first: 1 on the x side, the product of
        # the two prefactors on the xi side
        a1, a2 = 1.1, 0.65
        r = len(n)
        fp, gp = FamilyParams(a1, a1 + a2 - 0.5, n), FamilyParams(a2, a1 + a2 - 0.5, m)
        for spec in (QuadratureSpec(), doubled_spec(QuadratureSpec())):
            x, w = _line_rule(spec)[:2]
            x_side = 1.0
            xi_side = complex(fourier_prefactor(fp)) * complex(fourier_prefactor(gp))
            for j in range(1, r + 1):
                x_side *= np.sum(w * family_axis_factor(j, fp, x) * family_axis_factor(j, gp, x))
                xi_side *= np.sum(w * theta_factor(j, r, fp, x)
                                  * np.conj(theta_factor(j, r, gp, x)))
            lhs, rhs = parseval_sides(n, m, a1, a2, spec)
            assert type(lhs) is complex and type(rhs) is complex
            assert _same_bits(lhs, (2.0 * math.pi) ** r * x_side)
            assert _same_bits(rhs, xi_side)


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
