import inspect
import math
from fractions import Fraction

import numpy as np
import pytest

from ballfourier import (DomainError, ball, ball_basis_eval, ball_norm,
                         ball_operator_residual, ball_polynomial, ball_space_dim,
                         gegenbauer, gegenbauer_norm, tail_sum, validate_multi_index)
from ballfourier.ball import _polynomial_value
from ballfourier.quadrature import ball_inner_product_numeric
from ballfourier.special import log_gamma, pochhammer
from ballfourier.verify import SplitMix64, _random_multi_index
from conftest import rel_err


class TestMultiIndex:
    def test_tail_sums(self):
        n = (3, 1, 2)
        assert tail_sum(n, 1) == 6
        assert tail_sum(n, 2) == 3
        assert tail_sum(n, 3) == 2
        assert tail_sum(n, 4) == 0

    def test_validation(self):
        assert validate_multi_index([2, 0, 1]) == (2, 0, 1)
        with pytest.raises(ValueError):
            validate_multi_index([])
        with pytest.raises(ValueError):
            validate_multi_index([1, -1])
        with pytest.raises(ValueError):
            validate_multi_index([1.5, 0])


class TestSpaceDim:
    def test_degree_zero(self):
        for r in range(1, 5):
            assert ball_space_dim(0, r) == 1

    def test_small_cases(self):
        assert ball_space_dim(3, 2) == 4
        assert ball_space_dim(2, 3) == 6

    def test_counts_multi_indices(self):
        import itertools
        for r in range(1, 5):
            for degree in range(7):
                count = sum(1 for combo in itertools.product(range(degree + 1), repeat=r)
                            if sum(combo) == degree)
                assert count == ball_space_dim(degree, r)


class TestBasisEval:
    def test_constant_member(self, rng):
        for r in (1, 2, 3):
            x = rng.uniform(-0.4, 0.4, size=r)
            assert ball_basis_eval((0,) * r, 0.8, x) == 1.0

    def test_r1_is_gegenbauer(self, rng):
        for n in range(7):
            mu = 0.7
            x = rng.uniform(-0.99, 0.99)
            assert rel_err(ball_basis_eval((n,), mu, [x]), gegenbauer(n, mu, x)) <= 1e-14

    def test_first_degree_disc_member(self):
        # reduces to 2 mu x2 independently of x1
        assert ball_basis_eval((0, 1), 1.0, np.array([0.3, 0.4])) == pytest.approx(0.8, rel=1e-14)

    def test_against_hand_expansion(self, rng):
        mu = 0.6
        for _ in range(20):
            x = rng.uniform(-0.6, 0.6, size=2)
            expect = 2.0 * mu * x[1]
            assert rel_err(ball_basis_eval((0, 1), mu, x), expect) <= 1e-13

    def test_batched_matches_scalar(self, rng):
        # a single point runs on Python floats, a batch on arrays: same bits
        for r in range(1, 7):
            for _ in range(4):
                n = tuple(int(v) for v in rng.integers(0, 5, size=r))
                mu = rng.uniform(-0.4, 2.0)
                pts = rng.uniform(-1.0, 1.0, size=(40, r))
                pts /= np.maximum(1.0, np.linalg.norm(pts, axis=1))[:, None]
                batch = ball_basis_eval(n, mu, pts)
                for pt, value in zip(pts, batch):
                    assert ball_basis_eval(n, mu, pt).tobytes() == value.tobytes()

    @pytest.mark.parametrize("n, x", [
        ((0, 1), (math.sqrt(1.0 - 1e-15), 3e-8)),    # exact value 3e-8 at mu = 1/2
        ((0, 2), (math.sqrt(1.0 - 4e-15), 5e-8)),    # 1.75e-15
        ((0, 0, 1), (0.6, 0.8, 1e-7)),               # 1e-7; ||x|| - 1 = 4.9e-15
    ])
    def test_near_the_boundary_is_the_polynomial(self, n, x):
        # inside the ball (or the 1e-12 slack) but within 1e-14 of a zero
        # radius; worst relative error over these mu is 8.8e-15, the bound has
        # about 1e3 of headroom
        for mu in (-0.3, 0.25, 0.5, 0.75, 1.3, 2.5):
            exact = _polynomial_value(ball_polynomial(n, mu), x)
            assert exact != 0.0
            assert rel_err(ball_basis_eval(n, mu, np.array(x)), exact) <= 1e-11

    def test_zero_index_shapes(self):
        batch = ball_basis_eval((0, 0), 0.7, np.zeros((4, 3, 2)))
        assert batch.shape == (4, 3) and batch.dtype == np.float64 and np.all(batch == 1.0)
        assert type(ball_basis_eval((0, 0), 0.7, [0.1, 0.2])) is np.float64
        assert type(ball_basis_eval((2, 1), 0.7, [0.1, 0.2])) is np.float64

    def test_outside_ball_raises(self):
        with pytest.raises(DomainError):
            ball_basis_eval((1, 0), 0.5, np.array([0.9, 0.9]))

    def test_boundary_convention(self):
        # exact boundary point: positive-degree factors vanish, zero-degree are 1
        assert ball_basis_eval((0, 1), 0.5, np.array([1.0, 0.0])) == 0.0
        assert ball_basis_eval((0, 0), 0.5, np.array([1.0, 0.0])) == 1.0

    def test_boundary_factor_decay(self):
        # odd-degree factor forces |P| -> 0 as the earlier radius fills up
        x1 = math.sqrt(1.0 - 1e-14)
        x2 = 0.9 * math.sqrt(1e-14)
        value = ball_basis_eval((0, 1), 0.8, np.array([x1, x2]))
        assert abs(value) <= 1e-6

    def test_rejects_bad_mu(self):
        with pytest.raises(ValueError):
            ball_basis_eval((1,), 0.0, [0.3])
        with pytest.raises(ValueError):
            ball_basis_eval((1,), -0.7, [0.3])


class TestBallNorm:
    def test_interval_length(self):
        assert ball_norm((0,), 0.5) == pytest.approx(2.0, rel=1e-14)

    def test_disc_area(self):
        assert ball_norm((0, 0), 0.5) == pytest.approx(math.pi, rel=1e-14)

    def test_r1_reduces_to_gegenbauer_norm(self):
        for mu in (-0.3, 0.5, 1.5):
            for n in range(8):
                assert rel_err(ball_norm((n,), mu), gegenbauer_norm(n, mu)) <= 1e-13

    @pytest.mark.parametrize("mu", [0.5, 1.5])
    def test_matches_quadrature_r2(self, mu):
        for n in [(0, 0), (1, 0), (0, 2), (2, 1), (1, 2)]:
            numeric = ball_inner_product_numeric(n, n, mu)
            assert rel_err(numeric, ball_norm(n, mu)) <= 1e-12

    def test_matches_quadrature_r3(self):
        for n in [(0, 0, 0), (1, 1, 0), (0, 1, 2)]:
            numeric = ball_inner_product_numeric(n, n, 0.75)
            assert rel_err(numeric, ball_norm(n, 0.75)) <= 1e-12

    @staticmethod
    def _unchecked_norm(n, mu):
        # the norm formula with no range check, in the same operation order
        r, nn = len(n), sum(n)
        log_part = (0.5 * r * math.log(math.pi) + log_gamma(mu + 0.5)
                    - log_gamma(mu + 0.5 * (r + 1) + nn))
        value = float(np.exp(log_part)) * pochhammer(mu + 0.5 * r, nn)
        for j in range(1, r + 1):
            nj, tj, tj1 = n[j - 1], tail_sum(n, j), tail_sum(n, j + 1)
            value *= (pochhammer(mu + 0.5 * (r - j), tj)
                      * pochhammer(2.0 * mu + 2.0 * tj1 + r - j, nj)
                      / (math.factorial(nj) * pochhammer(mu + 0.5 * (r - j + 1), tj)))
        return value

    @pytest.mark.parametrize("mu", [0.5, 1.0, 3.0])
    def test_high_degree_is_finite_or_raises(self, mu):
        # past its range the norm raises instead of returning nan or inf;
        # a value it does return is the unchecked formula's, bit for bit
        raised = 0
        for degree in range(90, 151):
            for n in [(degree,), (degree - 1, 1), (0, degree), (1, degree - 2, 1)]:
                try:
                    value = ball_norm(n, mu)
                except OverflowError:
                    raised += 1
                    continue
                assert math.isfinite(value) and value > 0.0, n
                assert value.hex() == self._unchecked_norm(n, mu).hex(), n
        assert 0 < raised < 4 * 61

    @pytest.mark.parametrize("n, mu", [((99,), 0.5), ((98,), 1.0), ((97,), 3.0)])
    def test_former_nan_cases_raise(self, n, mu):
        with pytest.raises(OverflowError):
            ball_norm(n, mu)


class TestOperatorResidual:
    EIGEN_INDICES = [(2, 1, 0), (4, 4, 4), (6, 3, 3), (2, 2, 2, 2, 2, 2), (0, 0, 12),
                     (0, 0, 0, 0, 0, 12)]
    # dyadic, non-dyadic, large, negative and an arbitrary float mu
    MUS = [0.75, 1.0 / 3.0, 1.5, -0.25, 0.7312]

    def test_constant_is_exact_eigenfunction(self):
        assert ball_operator_residual((0, 0), 0.8) == 0.0

    def test_multilinear_members_are_exact(self):
        assert ball_operator_residual((1, 1), 0.5) == 0.0

    @pytest.mark.parametrize("mu", MUS)
    @pytest.mark.parametrize("n", EIGEN_INDICES)
    def test_residual_is_exactly_zero(self, n, mu):
        assert ball_operator_residual(n, mu) == 0.0

    def test_takes_the_member_only(self):
        assert list(inspect.signature(ball_operator_residual).parameters) == ["n", "mu"]
        with pytest.raises(ValueError):
            ball_operator_residual((1,), 0.0)
        with pytest.raises(ValueError):
            ball_operator_residual((1, -1), 0.5)

    def test_non_eigenfunction_is_caught(self, monkeypatch):
        # the member of another mu, and a sum of members of two degrees
        other = ball_polynomial((2, 1, 0), 1.25)
        mixed = dict(ball_polynomial((0, 0, 0), 0.75))
        for alpha, c in ball_polynomial((2, 1, 0), 0.75).items():
            mixed[alpha] = mixed.get(alpha, 0) + c
        for poly in (other, mixed):
            monkeypatch.setattr(ball, "ball_polynomial", lambda n, mu: poly)
            assert ball_operator_residual((2, 1, 0), 0.75) > 0.1

    def test_eigenvalue_of_the_next_degree_is_caught(self, monkeypatch):
        # P_m of degree |n| + 1 paired with the eigenvalue of degree |n|
        for n, m in [((0,), (1,)), ((2, 1, 0), (2, 1, 1)), ((0, 0, 12), (0, 1, 12))]:
            poly = ball_polynomial(m, 0.75)
            monkeypatch.setattr(ball, "ball_polynomial", lambda n, mu: poly)
            assert ball_operator_residual(n, 0.75) > 0.1


class TestBallPolynomial:
    def test_coefficients_are_exact_rationals(self):
        poly = ball_polynomial((2, 0, 3), 1.0 / 3.0)
        assert poly and all(type(c) is Fraction and c != 0 for c in poly.values())
        assert all(len(alpha) == 3 for alpha in poly)

    def test_first_degree_disc_member(self):
        # 2 mu x2, independently of x1
        assert ball_polynomial((0, 1), 0.75) == {(0, 1): Fraction(3, 2)}

    def test_r1_is_the_gegenbauer_sum(self):
        # C_2^lambda(t) = 2 lambda (lambda + 1) t^2 - lambda
        lam = Fraction(0.7)
        assert ball_polynomial((2,), 0.7) == {(2,): 2 * lam * (lam + 1), (0,): -lam}

    def test_batch_evaluator_agrees(self):
        # worst relative error over these seeds 0-9 is 1.1e-14; the bound
        # has about 1e3 of headroom
        worst = 0.0
        for seed in range(10):
            draw = SplitMix64(seed)
            for _ in range(6):
                r = draw.integer(1, 6)
                n = _random_multi_index(draw, r, 12)
                mu = draw.uniform(-0.4, 2.0)
                points = np.array([[draw.uniform(-0.4, 0.4) for _ in range(r)]
                                   for _ in range(4)])
                poly = ball_polynomial(n, mu)
                for point, value in zip(points, ball_basis_eval(n, mu, points)):
                    worst = max(worst, rel_err(value, _polynomial_value(poly, point)))
        assert worst <= 1e-11
