import math
from fractions import Fraction

import numpy as np
import pytest

from ballfourier import (FamilyParams, ball_basis_eval, family_eval,
                         fourier_closed_form, fourier_via_recursion, gegenbauer,
                         tail_sum, theta_factor, theta_factor_hahn)
from ballfourier.ball import _axis_parameters
from ballfourier.special import beta_conjugate
from ballfourier.quadrature import fourier_numeric
from ballfourier.tanh_family import (_axis_ladder, family_axis_factor,
                                     fourier_closed_form_table, fourier_prefactor)
from ballfourier.verify import fourier_value_scale
from conftest import rel_err
from reference_routes import (family_eval_peel_first, family_eval_peel_last, hyp3f2_unit,
                              pochhammer, tanh_ball_map)

# frozen direct arithmetic: tanh(1), tanh(1)*sech(1)
UPSILON_11 = (0.7615941559557649, 0.49355434756457306)


def random_params(rng, r, max_total=4, mu_range=(-0.4, 2.0)):
    n = tuple(int(v) for v in rng.multinomial(int(rng.integers(0, max_total + 1)), [1.0 / r] * r))
    a = float(rng.uniform(0.3, 2.0))
    mu = float(rng.uniform(*mu_range))
    if abs(mu) < 0.05:
        mu = 0.35
    return FamilyParams(a, mu, n)


class TestFamilyParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            FamilyParams(0.0, 0.5, (1,))
        with pytest.raises(ValueError):
            FamilyParams(1.0, 0.0, (1,))
        with pytest.raises(ValueError):
            FamilyParams(1.0, -0.6, (1,))
        with pytest.raises(ValueError):
            FamilyParams(1.0, 0.5, (1, -2))


class TestTanhBallMap:
    def test_origin(self):
        assert np.allclose(tanh_ball_map(np.zeros(3)), np.zeros(3), atol=0)

    def test_r1_definition(self):
        assert tanh_ball_map(np.array([1.0]))[0] == pytest.approx(math.tanh(1.0), rel=1e-15)

    def test_r2_frozen_values(self):
        v = tanh_ball_map(np.array([1.0, 1.0]))
        assert v[0] == pytest.approx(UPSILON_11[0], rel=1e-15)
        assert v[1] == pytest.approx(UPSILON_11[1], rel=1e-15)
        assert np.linalg.norm(v) < 1.0

    def test_stays_inside_ball(self, rng):
        for _ in range(100):
            r = int(rng.integers(1, 5))
            x = rng.uniform(-30, 30, size=r)
            assert np.linalg.norm(tanh_ball_map(x)) <= 1.0


class TestFamilyEval:
    def test_value_at_origin(self):
        for r in (1, 2, 3):
            params = FamilyParams(0.8, 0.6, (0,) * r)
            assert family_eval(np.zeros(r), params) == pytest.approx(1.0, rel=1e-15)

    def test_r1_closed_form(self, rng):
        for _ in range(25):
            n = int(rng.integers(0, 5))
            a, mu = rng.uniform(0.3, 2.0), rng.uniform(0.2, 2.0)
            x = rng.uniform(-3, 3)
            params = FamilyParams(a, mu, (n,))
            expect = (1.0 - math.tanh(x) ** 2) ** a * gegenbauer(n, mu, math.tanh(x))
            assert rel_err(family_eval(np.array([x]), params), expect) <= 1e-13

    def test_r2_peel_first_display(self):
        # head factor (1 - tanh^2 x1)^(a + 1/4) C_1^(mu + 1/2)(tanh x1) times
        # the one-dimensional member at x2
        a, mu = 1.0, 0.5
        x = np.array([0.3, -0.2])
        params = FamilyParams(a, mu, (1, 0))
        t1 = math.tanh(x[0])
        head = (1.0 - t1 * t1) ** (a + 0.25) * gegenbauer(1, mu + 0.5, t1)
        tail = family_eval(x[1:], FamilyParams(a, mu, (0,)))
        assert rel_err(family_eval(x, params), head * tail) <= 1e-13

    def test_three_evaluation_paths_agree(self, rng):
        for _ in range(100):
            r = int(rng.integers(2, 4))
            params = random_params(rng, r)
            x = rng.uniform(-2.5, 2.5, size=r)
            reference = family_eval(x, params)
            scale = max(abs(reference), 1e-14)
            # the paper's definition: sech powers times the ball basis at the
            # tanh-mapped point
            sech2 = 1.0 / np.cosh(x) ** 2
            powers = params.a + (r - 1 - np.arange(r)) / 4.0
            definition = (np.prod(sech2 ** powers)
                          * ball_basis_eval(params.n, params.mu, tanh_ball_map(x)))
            assert abs(definition - reference) / scale <= 1e-12
            assert abs(family_eval_peel_first(x, params) - reference) / scale <= 1e-12
            assert abs(family_eval_peel_last(x, params) - reference) / scale <= 1e-12

    @pytest.mark.parametrize("n, rest", [((0, 3), (0.3,)), ((2, 3, 4), (0.3, -0.7))])
    def test_far_from_the_origin_matches_mpmath(self, n, rest):
        # tanh x_1 -> 1 there: the ball basis at the mapped point cancels in
        # s^2 = 1 - |v_{<j}|^2 (wrong in every digit at x_1 = 20), the axis
        # product does not
        mp = pytest.importorskip("mpmath")
        a, mu = 0.9, 1.2
        params = FamilyParams(a, mu, n)
        r = len(n)
        for x1 in (5.0, 8.0, 12.0, 20.0, -5.0, -8.0, -12.0, -20.0):
            x = (x1,) + rest
            with mp.workdps(40):
                # the definition at 40 digits: sech powers times the ball
                # basis at the tanh-mapped point
                xm = [mp.mpf(v) for v in x]
                value, carry, norm2 = mp.mpf(1), mp.mpf(1), mp.mpf(0)
                for j in range(r):
                    m = sum(n[j + 1:])
                    value *= mp.sech(xm[j]) ** (2 * a + mp.mpf(r - 1 - j) / 2)
                    v = mp.tanh(xm[j]) * carry
                    carry *= mp.sech(xm[j])
                    s = mp.sqrt(1 - norm2)
                    value *= s ** n[j] * mp.gegenbauer(n[j], mu + m + mp.mpf(r - 1 - j) / 2, v / s)
                    norm2 += v * v
                expect = float(value)
            assert rel_err(family_eval(np.array(x), params), expect) <= 1e-12, x

    def test_single_point_is_its_batch_entry(self):
        # one point runs the array loops of a batch, so numpy's power takes
        # the same shortcuts (exponents 2 and 1/2 at a = 2, 1/4 and 1/2)
        rng = np.random.default_rng(2025)
        for r in (1, 2, 3):
            for a in (0.25, 0.5, 2.0, float(rng.uniform(0.3, 2.0))):
                n = tuple(int(v) for v in rng.integers(0, 9, r))
                params = FamilyParams(a, float(rng.uniform(0.2, 2.0)), n)
                x = rng.normal(scale=1.5, size=(300, r))
                batch = family_eval(x, params)
                for point, entry in zip(x, batch):
                    single = family_eval(point, params)
                    assert np.ndim(single) == 0
                    assert single.tobytes() == entry.tobytes(), (r, a, n, point)

    def test_axis_factorization(self, rng):
        for _ in range(50):
            r = int(rng.integers(1, 4))
            params = random_params(rng, r)
            x = rng.uniform(-2.0, 2.0, size=r)
            product = np.prod([family_axis_factor(j, params, x[j - 1])
                               for j in range(1, r + 1)])
            assert rel_err(product, family_eval(x, params)) <= 1e-12


class TestAxisParameters:
    # every field of the one per-axis map, exactly: at dyadic (a, mu) each
    # formula is exact in double, so the floats must equal the rationals
    @pytest.mark.parametrize("a, mu", [(0.25, 0.5), (0.5, -0.375), (1.125, 2.75),
                                       (3.0, 0.0625)])
    def test_each_field_is_the_papers_formula(self, a, mu):
        fa, fmu = Fraction(a), Fraction(mu)
        for r in range(1, 6):
            for j in range(1, r + 1):
                for m in range(13):
                    q, p, lam, s, lower1, lower2 = map(Fraction,
                                                       _axis_parameters(j, r, m, a, mu))
                    assert q == Fraction(r - j, 4)
                    assert p == fa + Fraction(m, 2) + Fraction(r - j, 4)
                    assert lam == fmu + m + Fraction(r - j, 2)
                    assert s == 2 * lam + 1
                    assert lower1 == lam + Fraction(1, 2)
                    assert lower2 == 2 * fa + m + Fraction(r - j, 2)


class TestAxisSeries:
    # the per-axis 3F2 of one member: the one-degree case of _axis_ladder
    def test_matches_the_spec_route(self, rng):
        # the value is the one-degree ladder at s = 2(m + mu + (r - j)/2) + 1
        # (the degree recurrence, s > 0), which is upper2 - n_j + 1 up to
        # the rounding of upper2; at these degrees (<= 6) it agrees with the
        # forward series of the 3F2 written out as a spec object
        from ballfourier.hypergeometric import (HypergeometricSpec, hyp3f2_ladder,
                                                pfq_diagnostics)
        for _ in range(40):
            r = int(rng.integers(1, 4))
            params = random_params(rng, r, max_total=6)
            j = int(rng.integers(1, r + 1))
            z = 1j * float(rng.uniform(-3, 3))
            m, nj = tail_sum(params.n, j + 1), params.n[j - 1]
            _, ap, am, (value,) = _axis_ladder(j, r, m, params.a, params.mu, z, (nj,))
            q, _, _, s, lower1, lower2 = _axis_parameters(j, r, m, params.a, params.mu)
            ap2, am2 = params.a + (m + z) / 2.0 + q, params.a + (m - z) / 2.0 + q
            upper2 = nj + 2.0 * (m + params.mu + (r - j) / 2.0)
            spec = HypergeometricSpec((-float(nj), upper2, ap2), (lower1, lower2), 1.0, nj)
            assert (ap, am) == (ap2, am2)
            assert s == 2.0 * (m + params.mu + (r - j) / 2.0) + 1.0
            assert value == hyp3f2_ladder((nj,), s, ap2, lower1, lower2)[0]
            assert rel_err(value, hyp3f2_unit(nj, upper2, ap2, lower1, lower2)) <= 1e-14
            assert rel_err(value, pfq_diagnostics(spec)[0]) <= 1e-9

    def test_theta_and_d_factors_share_it(self, rng):
        from ballfourier.dfamily import d_axis_factor
        from ballfourier.special import gamma_pair
        params = random_params(rng, 3, max_total=5)
        xi = rng.uniform(-3, 3, size=7)
        x = rng.uniform(-2, 2, size=7)
        for j in (1, 2, 3):
            m, nj = tail_sum(params.n, j + 1), (params.n[j - 1],)
            _, ap, _, (series,) = _axis_ladder(j, 3, m, params.a, params.mu, 1j * xi, nj)
            assert np.array_equal(theta_factor(j, 3, params, xi),
                                  beta_conjugate(ap.real, ap.imag) * series)
            _, gp, gm, (series,) = _axis_ladder(j, 3, m, 0.7, 0.7 + 0.9 - 0.5, x, nj)
            assert np.array_equal(d_axis_factor(j, 3, x, params.n, 0.7, 0.9),
                                  gamma_pair(gm, gp) * series)


class TestThetaFactor:
    def test_zero_degree_zero_frequency(self):
        params = FamilyParams(0.7, 0.9, (0, 0))
        value = theta_factor(2, 2, params, 0.0)
        assert rel_err(value, beta_conjugate(0.7, 0.0)) <= 1e-13

    def test_r1_display(self, rng):
        # Theta_1^1 = 3F2(-n, n+2 mu, a+i xi/2; 2a, mu+1/2 | 1) B(a+i xi/2, a-i xi/2)
        # near zeros of the 3F2 the comparison is absolute on the beta scale
        for _ in range(30):
            n = int(rng.integers(0, 7))
            a, mu = rng.uniform(0.3, 2.0), rng.uniform(0.2, 2.0)
            xi = rng.uniform(-3, 3)
            params = FamilyParams(a, mu, (n,))
            bfac = beta_conjugate(a, 0.5 * xi)
            expect = hyp3f2_unit(n, n + 2 * mu, a + 0.5j * xi, 2 * a, mu + 0.5) * bfac
            got = theta_factor(1, 1, params, xi)
            assert abs(got - expect) <= 1e-11 * max(abs(got), abs(expect), abs(bfac))

    def test_conjugation_in_frequency(self, rng):
        for _ in range(40):
            r = int(rng.integers(1, 4))
            params = random_params(rng, r)
            j = int(rng.integers(1, r + 1))
            xi = rng.uniform(-3, 3)
            lhs = np.conj(theta_factor(j, r, params, xi))
            rhs = theta_factor(j, r, params, -xi)
            assert rel_err(lhs, rhs) <= 1e-13

    def test_hahn_form_agrees(self, rng):
        for _ in range(200):
            r = int(rng.integers(1, 4))
            n = tuple(int(v) for v in rng.multinomial(int(rng.integers(0, 7)), [1.0 / r] * r))
            params = FamilyParams(float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.2, 2.0)), n)
            j = int(rng.integers(1, r + 1))
            xi = float(rng.uniform(-3, 3))
            lhs = theta_factor(j, r, params, xi)
            rhs = theta_factor_hahn(j, r, params, xi)
            # the beta argument a + (m + i xi)/2 + (r - j)/4
            ap = params.a + (tail_sum(params.n, j + 1) + 1j * xi) / 2.0 + (r - j) / 4.0
            bscale = abs(beta_conjugate(ap.real, ap.imag))
            assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), abs(rhs), bscale)

    def test_hahn_form_with_negative_hahn_parameter(self):
        # a > mu + 1/2 drives the second Hahn parameter's real part negative
        params = FamilyParams(1.75, 0.5, (3,))
        lhs = theta_factor(1, 1, params, 0.7)
        rhs = theta_factor_hahn(1, 1, params, 0.7)
        assert rel_err(lhs, rhs) <= 1e-12

    def test_vectorized_frequency(self, rng):
        params = random_params(rng, 2)
        xi = rng.uniform(-3, 3, size=11)
        batch = theta_factor(1, 2, params, xi)
        for x, value in zip(xi, batch):
            assert rel_err(theta_factor(1, 2, params, float(x)), value) <= 1e-14


class TestFourierClosedForm:
    def test_sech_integral(self):
        params = FamilyParams(0.5, 0.5, (0,))
        assert rel_err(fourier_closed_form(params, [0.0]), math.pi) <= 1e-12

    def test_r1_display_with_prefactor(self, rng):
        for _ in range(20):
            n = int(rng.integers(0, 6))
            a, mu = rng.uniform(0.3, 2.0), rng.uniform(0.2, 2.0)
            xi = rng.uniform(-3, 3)
            params = FamilyParams(a, mu, (n,))
            expect = (2.0 ** (2 * a - 1) * pochhammer(2 * mu, n) / math.factorial(n)
                      * theta_factor(1, 1, params, xi))
            assert rel_err(fourier_closed_form(params, [xi]), expect) <= 1e-13

    def test_r2_display(self, rng):
        # 2^(n2 + 4a - 3/2) (2 mu)_{n2} (2(n2 + mu + 1/2))_{n1} / (n1! n2!)
        for _ in range(20):
            n1, n2 = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            a, mu = rng.uniform(0.3, 2.0), rng.uniform(0.2, 2.0)
            xi = rng.uniform(-3, 3, size=2)
            params = FamilyParams(a, mu, (n1, n2))
            prefactor = (2.0 ** (n2 + 4 * a - 1.5) * pochhammer(2 * mu, n2)
                         * pochhammer(2 * (n2 + mu + 0.5), n1)
                         / (math.factorial(n1) * math.factorial(n2)))
            expect = (prefactor * theta_factor(1, 2, params, xi[0])
                      * theta_factor(2, 2, params, xi[1]))
            assert rel_err(fourier_closed_form(params, xi), expect) <= 1e-13

    def test_recursions_match_closed_form(self, rng):
        for _ in range(150):
            r = int(rng.integers(1, 4))
            params = random_params(rng, r)
            xi = rng.uniform(-3, 3, size=r)
            closed = fourier_closed_form(params, xi)
            scale = max(abs(closed), 1e-13)
            for mode in ("peel_first", "peel_last"):
                other = fourier_via_recursion(params, xi, mode)
                assert abs(closed - other) / scale <= 1e-11
        # the recursions take one frequency vector, not a grid of them
        with pytest.raises(ValueError,
                           match=r"one frequency vector of shape \(2,\), not \(4, 2\)"):
            fourier_via_recursion(FamilyParams(1.0, 0.5, (1, 2)), np.zeros((4, 2)))

    def test_r2_peel_first_intermediate(self, rng):
        # first peel of the bivariate case: explicit head factor times the
        # one-dimensional transform of the tail member
        for _ in range(15):
            n1, n2 = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            a, mu = rng.uniform(0.3, 2.0), rng.uniform(0.2, 2.0)
            xi = rng.uniform(-3, 3, size=2)
            params = FamilyParams(a, mu, (n1, n2))
            head = (2.0 ** (n2 + 2 * a - 0.5)
                    * pochhammer(2 * (n2 + mu + 0.5), n1) / math.factorial(n1)
                    * beta_conjugate(a + n2 / 2 + 0.25, xi[0] / 2)
                    * hyp3f2_unit(n1, n1 + 2 * (n2 + mu + 0.5),
                                  a + (n2 + 1j * xi[0]) / 2 + 0.25,
                                  n2 + 2 * a + 0.5, n2 + mu + 1.0))
            tail = fourier_closed_form(FamilyParams(a, mu, (n2,)), [xi[1]])
            value = fourier_via_recursion(params, xi, "peel_first")
            assert rel_err(value, head * tail) <= 1e-12

    def test_r1_modes_identical(self, rng):
        params = random_params(rng, 1)
        xi = np.array([1.3])
        assert (fourier_via_recursion(params, xi, "peel_first")
                == fourier_via_recursion(params, xi, "peel_last"))

    def test_hermitian_symmetry(self, rng):
        for _ in range(40):
            r = int(rng.integers(1, 4))
            params = random_params(rng, r)
            xi = rng.uniform(-3, 3, size=r)
            lhs = fourier_closed_form(params, -xi)
            rhs = np.conj(fourier_closed_form(params, xi))
            assert rel_err(lhs, rhs) <= 1e-12

    def test_even_members_are_even_per_coordinate(self, rng):
        for _ in range(20):
            r = int(rng.integers(1, 4))
            n = tuple(2 * int(v) for v in rng.integers(0, 3, size=r))
            params = FamilyParams(float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.2, 2.0)), n)
            x = rng.uniform(-2, 2, size=r)
            base = family_eval(x, params)
            for j in range(r):
                flipped = x.copy()
                flipped[j] = -flipped[j]
                assert rel_err(family_eval(flipped, params), base) <= 1e-12

    def test_even_members_have_real_transform(self, rng):
        for _ in range(20):
            r = int(rng.integers(1, 4))
            n = tuple(2 * int(v) for v in rng.integers(0, 2, size=r))
            params = FamilyParams(float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.2, 2.0)), n)
            xi = rng.uniform(-3, 3, size=r)
            value = fourier_closed_form(params, xi)
            assert abs(value.imag) <= 1e-10 * max(abs(value), 1e-30)

    def test_scale_guard(self):
        params = FamilyParams(200.0, 0.5, (0, 0, 0))
        with pytest.raises(OverflowError):
            fourier_prefactor(params)

    def test_scale_up_to_the_double_range(self):
        # the power of two is 2^(2a - 1) at r = 1, finite up to a = 512;
        # the transform at 0 is the integral of sech^(2a), B(a, 1/2)
        mp = pytest.importorskip("mpmath")
        value = fourier_closed_form(FamilyParams(512.0, 0.5, (0,)), [0.0])
        with mp.workdps(30):
            exact = float(mp.beta(512, mp.mpf(1) / 2))
        assert rel_err(value, exact) <= 1e-11
        with pytest.raises(OverflowError):
            fourier_prefactor(FamilyParams(513.0, 0.5, (0,)))

    def test_frequency_length_checked(self):
        params = FamilyParams(1.0, 0.5, (1, 0))
        with pytest.raises(ValueError):
            fourier_closed_form(params, [0.1])

    def test_bad_last_axis_raises(self):
        params = FamilyParams(1.0, 0.5, (1, 0))
        for xi in (0.1, np.zeros((4, 3)), np.zeros((2, 3, 1))):
            with pytest.raises(ValueError):
                fourier_closed_form(params, xi)


class TestBatchedClosedForm:
    """Grids of frequency vectors, shape (..., r), through one call."""

    def _check_grid(self, params, grid):
        batched = fourier_closed_form(params, grid)
        assert batched.shape == grid.shape[:-1]
        for index in np.ndindex(grid.shape[:-1]):
            single = fourier_closed_form(params, grid[index])
            assert np.ndim(single) == 0
            scale = fourier_value_scale(params, grid[index])
            assert abs(batched[index] - single) <= 1e-12 * scale

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_flat_grid(self, rng, r):
        for _ in range(4):
            n = tuple(int(v) for v in rng.integers(0, 3, size=r))
            params = FamilyParams(rng.uniform(0.3, 2.0), rng.uniform(0.2, 2.0), n)
            self._check_grid(params, rng.uniform(-3.0, 3.0, size=(7, r)))

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_two_batch_axes(self, rng, r):
        n = tuple(int(v) for v in rng.integers(0, 3, size=r))
        params = FamilyParams(rng.uniform(0.3, 2.0), rng.uniform(0.2, 2.0), n)
        self._check_grid(params, rng.uniform(-3.0, 3.0, size=(3, 4, r)))

    def test_single_vector_is_complex_scalar(self):
        value = fourier_closed_form(FamilyParams(1.0, 0.5, (1, 2)), [0.5, -1.0])
        assert isinstance(value, complex)


def _mp_fourier_at(n, a, mu, xi, dps):
    """(value, lost): the paper's closed form at ``dps`` digits, the product
    over axes j of
    2^(m + 2a + (k-2)/2) (2 lam)_{n_j} / n_j! B(b + i xi_j/2, b - i xi_j/2)
    3F2(-n_j, n_j + 2 lam, b + i xi_j/2; m + 2a + k/2, m + mu + (k+1)/2; 1),
    with m = |n^{j+1}|, k = r - j, lam = m + mu + k/2 and b = a + m/2 + k/4,
    and the digits its sums cancel away: the largest log10 over the axes of
    the 3F2's largest term over its value.  The terminating 3F2 is summed
    term by term."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        a, mu = mp.mpf(a), mp.mpf(mu)
        value = mp.mpc(1)
        lost = 0.0
        r = len(n)
        for j in range(r):
            nj, m, k = n[j], sum(n[j + 1:]), r - 1 - j
            lam = m + mu + mp.mpf(k) / 2
            b = a + mp.mpf(m) / 2 + mp.mpf(k) / 4
            plus, minus = b + 0.5j * mp.mpf(xi[j]), b - 0.5j * mp.mpf(xi[j])
            upper = (-nj, nj + 2 * lam, plus)
            lower = (m + 2 * a + mp.mpf(k) / 2, m + mu + mp.mpf(k + 1) / 2)
            term = series = mp.mpc(1)
            peak = mp.mpf(1)
            for i in range(nj):
                term *= ((upper[0] + i) * (upper[1] + i) * (upper[2] + i)
                         / ((lower[0] + i) * (lower[1] + i) * (i + 1)))
                series += term
                peak = max(peak, abs(term))
            if series:
                lost = max(lost, float(mp.log10(peak / abs(series))))
            value *= (mp.power(2, m + 2 * a + mp.mpf(k - 2) / 2) * mp.rf(2 * lam, nj)
                      / mp.factorial(nj) * mp.gamma(plus) * mp.gamma(minus)
                      / mp.gamma(2 * b) * series)
        return value, lost


def _mp_fourier_digits(n, a, mu, xi):
    """(value, dps): the closed form at a working precision of 30 digits
    more than its 3F2 sums cancel away, raised until 20 more digits move
    the value by at most 1e-25 relative."""
    dps = 30
    while True:
        value, lost = _mp_fourier_at(n, a, mu, xi, dps)
        if dps >= lost + 30:
            finer = _mp_fourier_at(n, a, mu, xi, dps + 20)[0]
            if abs(finer - value) <= 1e-25 * abs(finer):
                return value, dps
        dps = max(dps + 20, math.ceil(lost) + 40)


def _mp_fourier(n, a, mu, xi):
    """The paper's closed form to double precision (:func:`_mp_fourier_digits`)."""
    return complex(_mp_fourier_digits(n, a, mu, xi)[0])


class TestLargeFrequencies:
    """The closed form far past the |xi| <= 3 of the suites, down to values
    near 1e-270, against the mpmath formula."""

    @pytest.mark.parametrize("a, mu", [(1.0, 0.5), (0.5, 0.5), (1.75, 1.25)])
    def test_matches_mpmath(self, a, mu):
        rng = np.random.default_rng(7)
        worst = 0.0
        for n in [(0,), (4,), (12,), (30,), (3, 2, 1), (10, 10, 10)]:
            for case, size in enumerate((20.0, 80.0, 200.0, 400.0)):
                # one large component, on a different axis each time; the
                # others in [-1, 0.5]; |xi| = size
                xi = rng.uniform(-1.0, 0.5, size=len(n))
                axis = case % len(n)
                xi[axis] = 0.0
                xi[axis] = (-1) ** case * math.sqrt(size ** 2 - float(xi @ xi))
                got = fourier_closed_form(FamilyParams(a, mu, n), xi)
                assert got != 0
                worst = max(worst, rel_err(got, _mp_fourier(n, a, mu, xi)))
        assert worst <= 1e-12


class TestHighDegree:
    """The closed form past the suites' degrees, where the 3F2 sums cancel
    more digits than 50 hold (at (120,), xi = 20, a 50-digit sum gives
    -4.8e29 + 2.4e29i for a value of 0.01368)."""

    @pytest.mark.parametrize("n, xi", [((120,), 20.0), ((150,), 3.0)])
    def test_matches_mpmath(self, n, xi):
        got = fourier_closed_form(FamilyParams(0.5, 0.5, n), [xi])
        assert rel_err(got, _mp_fourier(n, 0.5, 0.5, [xi])) <= 1e-12

    @pytest.mark.parametrize("n, xi", [((120,), 20.0), ((150,), 3.0)])
    def test_reference_precision_is_enough(self, n, xi):
        value, dps = _mp_fourier_digits(n, 0.5, 0.5, [xi])
        finer = _mp_fourier_at(n, 0.5, 0.5, [xi], dps + 50)[0]
        assert abs(finer - value) <= 1e-25 * abs(finer)
        coarse = _mp_fourier_at(n, 0.5, 0.5, [xi], 50)[0]
        assert abs(coarse - value) > abs(value)


# the real-argument routes, each with the name of its real argument, called
# on one value z at n = (2,), (a, mu) = (1/2, 1/2); the tests' tanh_ball_map
# keeps the refusal it had in the library
_DEGREE_TWO = FamilyParams(0.5, 0.5, (2,))
_REAL_ROUTES = {
    "fourier_closed_form": (lambda z: fourier_closed_form(_DEGREE_TWO, [z]), "xi"),
    "fourier_closed_form_table": (lambda z: fourier_closed_form_table([(2,)], 0.5, 0.5, [[z]]),
                                  "xi"),
    "fourier_numeric separated": (lambda z: fourier_numeric(_DEGREE_TWO, [z]), "xi"),
    "fourier_via_recursion": (lambda z: fourier_via_recursion(_DEGREE_TWO, [z]), "xi"),
    "theta_factor array": (lambda z: theta_factor(1, 1, _DEGREE_TWO, np.array([z])), "xi"),
    "theta_factor number": (lambda z: theta_factor(1, 1, _DEGREE_TWO, z), "xi"),
    "theta_factor_hahn": (lambda z: theta_factor_hahn(1, 1, _DEGREE_TWO, z), "xi"),
    "family_eval": (lambda z: family_eval([z], _DEGREE_TWO), "x"),
    "family_axis_factor": (lambda z: family_axis_factor(1, _DEGREE_TWO, z), "x"),
    "ball_basis_eval": (lambda z: ball_basis_eval((2,), 0.5, [z / 4.0]), "x"),
    "tanh_ball_map": (lambda z: tanh_ball_map([z]), "x"),
}


class TestRealInput:
    # a real-argument route refuses complex input instead of dropping its
    # imaginary part
    @pytest.mark.parametrize("route", _REAL_ROUTES)
    def test_complex_input_is_refused(self, route):
        call, name = _REAL_ROUTES[route]
        with pytest.raises(ValueError, match=f"^{name} must be real"):
            call(1.0 + 2.0j)
        # a complex dtype is refused even with a zero imaginary part
        with pytest.raises(ValueError, match=f"^{name} must be real"):
            call(np.complex128(1.0))
        assert np.all(np.isfinite(call(1.0)))



# the routes that take an axis index j, each called at n = (2,), r = 1
_AXIS_ROUTES = {
    "theta_factor": lambda j: theta_factor(j, 1, _DEGREE_TWO, 0.3),
    "theta_factor_hahn": lambda j: theta_factor_hahn(j, 1, _DEGREE_TWO, 0.3),
    "family_axis_factor": lambda j: family_axis_factor(j, _DEGREE_TWO, 0.3),
    "d_axis_factor": lambda j: __import__("ballfourier").dfamily.d_axis_factor(
        j, 1, 0.3 + 0.5j, (2,), 0.7, 0.9),
}


class TestAxisIndex:
    # tanh_family._axis_tail is the one home of the axis rule: a
    # non-integral j is refused with ValueError, where it used to leak a
    # TypeError from slicing the multi-index
    @pytest.mark.parametrize("route", _AXIS_ROUTES)
    @pytest.mark.parametrize("j", [1.0, 1.5])
    def test_non_integral_index_is_refused(self, route, j):
        with pytest.raises(ValueError, match="^axis index must be an integer"):
            _AXIS_ROUTES[route](j)

    @pytest.mark.parametrize("route", _AXIS_ROUTES)
    def test_integers_pass_and_the_range_is_checked(self, route):
        call = _AXIS_ROUTES[route]
        value = call(1)
        for j in (np.int64(1), np.uint8(1), True):
            assert call(j) == value
        for j in (0, 2, np.int64(-1), False):
            with pytest.raises(ValueError, match="^axis index out of range$"):
                call(j)
