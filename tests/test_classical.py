import hashlib
import math
import time
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from ballfourier import (DParams, continuous_hahn, d_family_eval, gegenbauer, gegenbauer_norm,
                         hahn_orthogonality_constant, jacobi)
from ballfourier.classical import continuous_hahn_rows
from ballfourier.dfamily import d_axis_factor, d_orthogonality_constant
from ballfourier.quadrature import _jacgauss_cached
from ballfourier.special import beta_conjugate, log_gamma
from conftest import rel_err
from reference_routes import gegenbauer_series, pochhammer

# independent direct-summation oracle (mpmath, dps=50): p_2(0.3; 1, 1/2, 1/2, 1)
HAHN_P2_EXAMPLE = -0.35


def hahn_direct_sum(n, x, a, b, c, d):
    """Term-by-term evaluation of the defining sum, independent of the
    library's compensated series engine."""
    def poch(base, k):
        out = 1.0 + 0j
        for i in range(k):
            out *= base + i
        return out

    pref = (1j ** n) * poch(a + c, n) * poch(a + d, n) / math.factorial(n)
    total = 0.0 + 0j
    for k in range(n + 1):
        total += (poch(-n, k) * poch(n + a + b + c + d - 1, k) * poch(a + 1j * x, k)
                  / (poch(a + c, k) * poch(a + d, k) * math.factorial(k)))
    return pref * total


class TestJacobi:
    def test_degree_zero(self):
        assert jacobi(0, 0.3, 0.7, 0.2) == 1.0

    def test_degree_one_hand_expansion(self):
        # (alpha+1) + (alpha+beta+2)(x-1)/2 at alpha=1, beta=2, x=0
        assert jacobi(1, 1.0, 2.0, 0.0) == pytest.approx(-0.5, rel=1e-14)

    def test_value_at_one_is_binomial(self):
        # only the k=n term survives at x=1: C(n+alpha, n)
        assert jacobi(3, 0.5, 0.25, 1.0) == pytest.approx(2.1875, rel=1e-13)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            jacobi(2, -1.5, 0.0, 0.1)

    @staticmethod
    def _rational_sum(n, alpha, beta, x):
        """The binomial sum in exact rationals, one Fraction per operation."""
        xf, af, bf = Fraction(x), Fraction(alpha), Fraction(beta)
        total = Fraction(0)
        for k in range(n + 1):
            coeff = Fraction(1)
            for i in range(k):
                coeff *= n + af - i
            for i in range(n - k):
                coeff *= n + bf - i
            coeff /= math.factorial(k) * math.factorial(n - k)
            total += coeff * (xf + 1) ** k * (xf - 1) ** (n - k)
        return float(total / 2 ** n)

    def test_bit_identical_to_the_rational_sum(self, rng):
        # both sums are exact, so the rounded results agree bit for bit,
        # also on subnormal and long-fraction inputs
        cases = [(12, 3e-310, -1 + 2.0 ** -52, 5e-324), (9, 1e-300, 2.5, 2.0 ** -1000),
                 (7, 0.0, 0.0, 1.0), (5, -0.99, 4.0, -1.0), (0, 0.3, 0.2, 0.1)]
        for _ in range(60):
            cases.append((int(rng.integers(0, 25)), *(float(v) for v in rng.uniform(-0.999, 4, 2)),
                          float(rng.uniform(-1.5, 1.5))))
        for n, alpha, beta_, x in cases:
            assert jacobi(n, alpha, beta_, x).hex() == self._rational_sum(n, alpha, beta_, x).hex()

    def test_degree_80_wall_time(self):
        # subnormal and long-fraction inputs are the worst case for the
        # exact sum (on a 2-core Xeon the rational form took 6.7 s, the
        # integer one 0.2 s)
        start = time.perf_counter()
        value = jacobi(80, 3e-310, -1 + 2.0 ** -52, 5e-324)
        assert time.perf_counter() - start < 2.0
        assert math.isfinite(value)


class TestGegenbauer:
    def test_degree_zero(self):
        assert gegenbauer(0, 0.7, 0.35) == 1.0

    def test_degree_one(self):
        assert gegenbauer(1, 1.5, 0.4) == pytest.approx(1.2, rel=1e-14)

    def test_degree_two_zero_crossing(self):
        # C_2^(1)(x) = 4 x^2 - 1 vanishes at 1/2
        assert abs(gegenbauer(2, 1.0, 0.5)) <= 1e-14

    def test_jacobi_relation(self, rng):
        # near polynomial zeros pointwise relative error is ill-defined, so
        # the comparison switches to absolute error on the polynomial scale
        for lam in (0.3, 1.0, 2.5):
            for n in range(11):
                ratio = pochhammer(2.0 * lam, n) / pochhammer(lam + 0.5, n)
                xs = rng.uniform(-1, 1, size=10)
                lhs = np.array([gegenbauer(n, lam, x) for x in xs])
                rhs = np.array([ratio * jacobi(n, lam - 0.5, lam - 0.5, x) for x in xs])
                scale = max(np.max(np.abs(lhs)), 1.0)
                for lv, rv in zip(lhs, rhs):
                    if abs(lv) >= 1e-3 * scale:
                        assert rel_err(lv, rv) <= 1e-12
                    else:
                        assert abs(lv - rv) <= 1e-12 * scale

    def test_parity(self, rng):
        for n in range(11):
            for lam in (0.3, 1.0, 2.5):
                x = rng.uniform(0.05, 1.0)
                lhs = gegenbauer(n, lam, -x)
                rhs = (-1.0) ** n * gegenbauer(n, lam, x)
                assert rel_err(lhs, rhs) <= 1e-13

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            gegenbauer(2, 0.0, 0.5)
        with pytest.raises(ValueError):
            gegenbauer(2, -0.6, 0.5)

    def test_series_form_matches_recurrence(self, rng):
        # the definitional terminating-2F1 sum agrees with the production
        # recurrence up to its own cancellation loss (~1e-10 by n = 10)
        for _ in range(200):
            n = int(rng.integers(0, 11))
            lam = float(rng.choice([-0.3, 0.3, 1.0, 2.5]))
            x = rng.uniform(-1, 1)
            lhs = gegenbauer(n, lam, x)
            rhs = gegenbauer_series(n, lam, x)
            scale = max(abs(gegenbauer(n, lam, 1.0)), 1.0)
            assert abs(lhs - rhs) <= 5e-10 * max(abs(lhs), scale)

    def test_series_form_complex_argument(self, rng):
        for _ in range(50):
            n = int(rng.integers(0, 8))
            lam = float(rng.choice([0.3, 1.0, 2.5]))
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            assert rel_err(gegenbauer(n, lam, z), gegenbauer_series(n, lam, z)) <= 1e-10


class TestGegenbauerNorm:
    def test_constant_weight_case(self):
        # lambda = 1/2 is the Legendre weight; the n=0 norm is the interval length
        assert gegenbauer_norm(0, 0.5) == pytest.approx(2.0, rel=1e-14)

    def test_degree_one_unit_lambda(self):
        # oracle: int (1-x^2)^{1/2} (2x)^2 dx = pi/2
        assert gegenbauer_norm(1, 1.0) == pytest.approx(math.pi / 2.0, rel=1e-13)

    @pytest.mark.parametrize("lam", [-0.3, 0.3, 1.0, 2.5])
    def test_matches_quadrature(self, lam):
        nodes, weights = _jacgauss_cached(200, lam - 0.5, lam - 0.5)
        for n in range(7):
            values = gegenbauer(n, lam, nodes)
            integral = float(np.sum(weights * values * values))
            assert rel_err(integral, gegenbauer_norm(n, lam)) <= 1e-10

    @pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
    def test_high_degree_is_finite_or_raises(self, lam):
        # n! (n + lambda) leaves double range one degree before n! does, which
        # once gave 0.0 at n = 170 (true value 2/341 at lambda = 1/2); every
        # value returned is finite, nonzero and the one-expression quotient
        log_part = log_gamma(lam + 0.5) + log_gamma(0.5) - log_gamma(lam + 1.0)
        returned = 0
        for n in range(160, 201):
            try:
                value = gegenbauer_norm(n, lam)
            except OverflowError:
                continue
            returned += 1
            assert math.isfinite(value) and value != 0.0, n
            expect = float(np.exp(log_part) * lam * pochhammer(2.0 * lam, n)
                           / (math.factorial(n) * (n + lam)))
            assert value.hex() == expect.hex(), n
        assert returned >= 6
        with pytest.raises(OverflowError):
            gegenbauer_norm(170, lam)


class TestContinuousHahn:
    def test_degree_zero(self):
        assert continuous_hahn(0, 0.4, (1.0, 2.0, 3.0, 4.0)) == 1.0 + 0j

    def test_degree_one_display(self):
        # i [ (a+c)(a+d) - (a+b+c+d)(a+ix) ]; zero at a=b=c=d=1, x=0
        assert abs(continuous_hahn(1, 0.0, (1.0, 1.0, 1.0, 1.0))) <= 1e-15

    def test_degree_one_general(self, rng):
        for _ in range(25):
            a, b, c, d = (complex(rng.uniform(0.2, 2), rng.uniform(-1, 1)) for _ in range(4))
            x = rng.uniform(-2, 2)
            expect = 1j * ((a + c) * (a + d) - (a + b + c + d) * (a + 1j * x))
            assert rel_err(continuous_hahn(1, x, (a, b, c, d)), expect) <= 1e-13

    def test_degree_two_against_direct_sum(self):
        value = continuous_hahn(2, 0.3, (1.0, 0.5, 0.5, 1.0))
        assert rel_err(value, HAHN_P2_EXAMPLE) <= 1e-13
        assert rel_err(value, hahn_direct_sum(2, 0.3, 1.0, 0.5, 0.5, 1.0)) <= 1e-13
        # b and c a conjugate pair
        params = (1.0, 0.5 + 0.2j, 0.5 - 0.2j, 1.0)
        assert rel_err(continuous_hahn(2, 0.1, params), hahn_direct_sum(2, 0.1, *params)) <= 1e-13

    def test_random_against_direct_sum(self, rng):
        for _ in range(40):
            n = int(rng.integers(0, 7))
            a, b, c, d = (complex(rng.uniform(0.2, 2), rng.uniform(-0.5, 0.5))
                          for _ in range(4))
            x = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
            assert rel_err(continuous_hahn(n, x, (a, b, c, d)),
                           hahn_direct_sum(n, x, a, b, c, d)) <= 1e-12

    def test_swap_cd_symmetry(self, rng):
        # the definition is invariant under c <-> d; this is what makes the two
        # parameter orderings in the Hahn-form identities coincide
        for _ in range(25):
            n = int(rng.integers(0, 6))
            a, b, c, d = (complex(rng.uniform(0.2, 2), rng.uniform(-1, 1)) for _ in range(4))
            x = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
            lhs = continuous_hahn(n, x, (a, b, c, d))
            rhs = continuous_hahn(n, x, (a, b, d, c))
            assert rel_err(lhs, rhs) <= 1e-12

    def test_conjugate_pattern_is_real_on_real_axis(self, rng):
        # (a, b, b, a) with real a, b > 0: values at real x are real
        for n in range(7):
            a, b = rng.uniform(0.2, 2.0, size=2)
            x = rng.uniform(-3.0, 3.0)
            value = continuous_hahn(n, x, (a, b, b, a))
            assert abs(value.imag) <= 1e-12 * max(abs(value), 1.0)

    def test_evaluation_allows_nonpositive_real_parts(self):
        # the theta-factor Hahn form needs e.g. mu - a + 1/2 < 0
        value = continuous_hahn(3, 0.7, (1.75, -0.75, -0.75, 1.75))
        assert np.isfinite(value.real) and np.isfinite(value.imag)


class TestHahnOrthogonalityConstant:
    def test_half_half(self):
        # cross-check: int pi^2 sech^2(pi x) dx = 2 pi
        assert hahn_orthogonality_constant(0, 0.5, 0.5) == pytest.approx(2 * math.pi, rel=1e-13)

    def test_unit_params(self):
        assert hahn_orthogonality_constant(0, 1.0, 1.0) == pytest.approx(math.pi / 3.0, rel=1e-13)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            hahn_orthogonality_constant(1, 0.0, 1.0)

    def test_last_degree_in_range(self):
        # pi (n!)^2 / (n + 1/2) at a1 = a2 = 1/2: 2.83e306 at n = 98, where
        # the log-space assembly is measured 2.5e-13 off
        with mpmath.workdps(30):
            exact = mpmath.pi * mpmath.factorial(98) ** 2 / mpmath.mpf(98.5)
        assert rel_err(hahn_orthogonality_constant(98, 0.5, 0.5), float(exact)) <= 1e-10

    @pytest.mark.parametrize("n", [99, 100])
    def test_past_double_range_raises(self, n):
        # the true values are 2.75e310 and 2.72e314; no inf, no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                hahn_orthogonality_constant(n, 0.5, 0.5)

    def test_beta_factor_consistency(self):
        # same quantity expressed through beta: B(1/2, 1/2) = pi
        assert rel_err(beta_conjugate(0.5, 0.0), math.pi) <= 1e-13


# SHA-256 prefix of gegenbauer's output bits over a seeded sweep, n = 0..40:
# real and complex batches and 0-d real and complex calls.  The recurrence is
# shared with the ball basis, so this pins that the scaled form leaves
# gegenbauer's bits alone.  Rounding may differ on another numpy, so it is
# checked only on the numpy it was recorded with
_RECORDED_NUMPY = "2.4."
_GEGENBAUER_SHA256 = "74f8428fe145b803"


class TestRecordedBits:
    @pytest.mark.skipif(not np.__version__.startswith(_RECORDED_NUMPY),
                        reason=f"digest recorded with numpy {_RECORDED_NUMPY}x, "
                               f"this is numpy {np.__version__}")
    def test_gegenbauer_sweep_digest(self):
        rng = np.random.default_rng(22)
        digest = hashlib.sha256()
        for n in range(41):
            lam = rng.uniform(-0.4, 5.0)
            real = rng.uniform(-1.2, 1.2, size=64)
            cplx = real + 1j * rng.uniform(-1.0, 1.0, size=64)
            values = [gegenbauer(n, lam, real), gegenbauer(n, lam, cplx)]
            values += [gegenbauer(n, lam, float(t)) for t in real[:8]]
            values += [gegenbauer(n, lam, complex(z)) for z in cplx[:8]]
            for value in values:
                digest.update(np.asarray(value).tobytes())
        assert digest.hexdigest()[:16] == _GEGENBAUER_SHA256


_HAHN = (0.3, 0.61, 0.7, 0.8)
_D_PARAMS = DParams(0.7, 0.9, (2, 1))


class TestSinglePrecisionInput:
    # products with Python floats keep a float16, float32 or complex64
    # array in its own precision, so each route converts x to double once,
    # where it enters
    @pytest.mark.parametrize("route, x", [
        pytest.param(lambda x: gegenbauer(2, 0.7, x), np.float32(0.3), id="gegenbauer-f32"),
        pytest.param(lambda x: gegenbauer(2, 0.7, x), np.float16(0.3), id="gegenbauer-f16"),
        pytest.param(lambda x: gegenbauer(3, 0.7, x), np.complex64(0.3 + 0.2j),
                     id="gegenbauer-c64"),
        pytest.param(lambda x: gegenbauer(5, 0.7, x), np.float32([0.3, -0.7]),
                     id="gegenbauer-f32-batch"),
        pytest.param(lambda x: gegenbauer(5, 0.7, x), np.complex64([0.3 + 0.2j, -0.7j]),
                     id="gegenbauer-c64-batch"),
        pytest.param(lambda x: continuous_hahn(4, x, _HAHN), np.float32([0.3, 1.7]),
                     id="continuous_hahn-f32"),
        pytest.param(lambda x: continuous_hahn_rows((1, 4), x, _HAHN)[1], np.float32(0.3),
                     id="continuous_hahn_rows-f32"),
        pytest.param(lambda x: d_family_eval(x, _D_PARAMS),
                     np.complex64([[0.3 + 0.2j, -0.4 + 1j], [1.1 - 0.3j, 0.2 + 0.1j]]),
                     id="d_family_eval-c64-batch"),
        pytest.param(lambda x: d_family_eval(x, _D_PARAMS), np.float32([[0.3, -0.4], [1.1, 0.2]]),
                     id="d_family_eval-f32-batch"),
        pytest.param(lambda x: d_axis_factor(1, 2, x, (2, 1), 0.7, 0.9), np.float32([0.3, 1.7]),
                     id="d_axis_factor-f32"),
        # the parameters, not x, of the D-family constant
        pytest.param(lambda a1: d_orthogonality_constant((1, 0, 2), a1, 0.8), np.float32(0.6),
                     id="d_orthogonality_constant-f32"),
        pytest.param(lambda a1: d_orthogonality_constant((3,), a1, 0.8), np.float16(0.6),
                     id="d_orthogonality_constant-f16"),
    ])
    def test_gives_the_value_of_its_double_input(self, route, x):
        value, double = route(x), route(x.astype(np.result_type(x, np.float64)))
        assert type(value) is type(double)
        assert np.asarray(value).dtype == np.asarray(double).dtype
        assert np.asarray(value).tobytes() == np.asarray(double).tobytes()
