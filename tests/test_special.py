import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballfourier import PoleError, gamma, log_gamma
from ballfourier.special import beta_conjugate, gamma_pair
from conftest import rel_err, ulp_diff
from reference_routes import pochhammer

# frozen from the 50-digit Stirling/reflection oracle (mpmath, dps=50)
GAMMA_1_PLUS_I = complex(0.49801566811835604271369111746219809195087853682,
                         -0.15494982830181068512495513048388660520897386623)


def _random_z_away_from_poles(rng, count, radius=10.0, margin=0.1):
    out = []
    while len(out) < count:
        z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        near_axis = abs(z.imag) < margin
        near_int = abs(z.real - round(z.real)) < margin
        if near_axis and near_int and z.real < 0.6:
            continue
        if near_axis and near_int and abs(1.0 - z.real) < margin:
            continue  # keep 1 - z away from poles too
        out.append(z)
    return out


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(3.7, 0) == 1.0
        assert pochhammer(2 + 1j, 0) == 1.0 + 0j
        assert pochhammer(-5, 0) == 1

    def test_integer_case(self):
        assert pochhammer(3, 4) == 360

    def test_half_case(self):
        assert pochhammer(0.5, 2) == pytest.approx(0.75, rel=1e-15)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            pochhammer(1.0, -1)

    @pytest.mark.parametrize("base", [1e200, complex(1e200, 1.0), np.float64(1e200),
                                      np.array([1.0, 1e200]), 10 ** 200])
    def test_overflow_raises(self, base):
        # Python int products grow exactly until their conversion overflows
        with np.errstate(over="ignore"), pytest.raises(OverflowError):
            pochhammer(base, 2)

    def test_finite_products_pass(self):
        assert pochhammer(10 ** 100, 2) == 10 ** 100 * (10 ** 100 + 1)
        assert pochhammer(np.float64(1e150), 2) == np.float64(1e150) * np.float64(1e150 + 1)
        assert pochhammer(np.array([1.0, 2.0]), 3).tolist() == [6.0, 24.0]

    def test_numpy_integer_base_does_not_wrap(self):
        # in int64 the products of 30 factors wrapped around silently
        values = pochhammer(np.array([2, 3]), 30)
        assert values.dtype == np.float64
        for value, base in zip(values, (2, 3)):
            exact = math.factorial(base + 29) // math.factorial(base - 1)
            assert rel_err(value, exact) <= 1e-14
        assert pochhammer(np.int64(2), 30) == values[0]
        assert pochhammer(np.bool_(True), 3) == 6.0

    @pytest.mark.parametrize("base", [np.float32(1.7), np.float16(1.7), np.complex64(1.7 + 0.3j),
                                      np.array([0.3, 1.7], dtype=np.float32),
                                      np.array(2.5, dtype=np.float16)])
    def test_sub_double_base_gives_the_bits_of_its_double(self, base):
        value = pochhammer(base, 5)
        double = pochhammer(base.astype(np.result_type(base, np.float64)), 5)
        assert np.asarray(value).dtype == np.result_type(base, np.float64)
        assert np.array_equal(value, double)

    def test_half_precision_base_past_its_range(self):
        # 300 * 301 = 90,300 is past float16's 65,504 but fits a double
        assert pochhammer(np.float16(300), 2) == 90300.0

    @given(st.integers(min_value=-30, max_value=30),
           st.integers(min_value=0, max_value=8),
           st.integers(min_value=0, max_value=8))
    def test_addition_law_exact_integers(self, base, m, n):
        assert pochhammer(base, m + n) == pochhammer(base, m) * pochhammer(base + m, n)

    @given(st.floats(min_value=-20, max_value=20, allow_nan=False),
           st.floats(min_value=-5, max_value=5, allow_nan=False),
           st.integers(min_value=0, max_value=6),
           st.integers(min_value=0, max_value=6))
    @settings(max_examples=200)
    def test_addition_law_complex(self, re, im, m, n):
        base = complex(re, im)
        lhs = pochhammer(base, m + n)
        rhs = pochhammer(base, m) * pochhammer(base + m, n)
        assert rel_err(lhs, rhs) <= 1e-13


class TestLogGamma:
    def test_at_one(self):
        assert abs(log_gamma(1.0)) <= 1e-15

    def test_at_five(self):
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)

    def test_at_half(self):
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-13)

    def test_real_positive_is_real(self):
        assert isinstance(log_gamma(2.5), (float, np.floating))

    def test_pole_raises(self):
        for z in (0.0, -1.0, -2, complex(-3.0, 0.0)):
            with pytest.raises(PoleError):
                log_gamma(z)

    def test_matches_high_precision_oracle(self, rng):
        # oracle values recomputed live; mpmath is a test-only dependency
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        for z in _random_z_away_from_poles(rng, 50):
            ref = complex(mp.loggamma(mp.mpc(z.real, z.imag)))
            assert rel_err(log_gamma(z), ref) <= 1e-13

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x", [5e-324, 1e-320, 1e-310, 2e-308, 2.2250738585072014e-308])
    def test_subnormal_and_tiny_arguments_match_mpmath(self, x):
        # log Gamma(x) = -log x - euler x + ..., finite down to the least subnormal
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        ref = float(mp.loggamma(mp.mpf(x)))
        assert rel_err(log_gamma(x), ref) <= 1e-15
        assert rel_err(log_gamma(np.array([x, 0.3]))[0], ref) <= 1e-15
        assert rel_err(log_gamma(complex(x, 0.0)), ref) <= 1e-15

    def test_non_finite_input_returns_non_finite(self):
        # the shift recurrence toward Re z >= 1/2 never moves Re z = -inf
        with np.errstate(invalid="ignore", divide="ignore"):
            assert not np.isfinite(log_gamma(complex(-np.inf, 1.0)))
            values = log_gamma(np.array([complex(-np.inf, 1.0), complex(np.nan, 1.0),
                                         -2.5 + 0.1j, complex(1.0, np.inf)]))
        assert not np.any(np.isfinite(values[[0, 1, 3]]))
        assert values[2] == log_gamma(-2.5 + 0.1j)

    def test_left_half_plane_matches_mpmath(self):
        # far left of the shift recurrence's reach: the reflection formula
        # with the principal-branch correction, on and off the real axis and
        # past the |Im z| where sin(pi z) overflows
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        reals = (-16.5, -17.25, -19.75, -50.5, -101.3, -1000.25, -12345.6789,
                 -2e5 + 0.5, -2e5 - 0.3)
        imags = (0.0, 0.1, -0.1, 1.0, -3.0, 7.5, -20.1, 25.0, -40.0, 300.0)
        for x in reals:
            for y in imags:
                ref = complex(mp.loggamma(mp.mpc(x, y)))
                assert rel_err(log_gamma(complex(x, y)), ref) <= 1e-14, (x, y)
            ref = complex(mp.loggamma(mp.mpf(x)))
            assert rel_err(log_gamma(x), ref) <= 1e-14, x

    def test_left_half_plane_keeps_conjugate_symmetry(self):
        for z in (-20.5 + 0.0j, -333.7 + 2.5j, -2e5 + 0.5 + 0.1j):
            assert log_gamma(z.conjugate()) == np.conj(log_gamma(z))

    def test_signed_zero_imaginary_part_picks_its_side_of_the_cut(self):
        # on the cut the sign of a zero imaginary part selects the one-sided
        # limit, in the shift range and in the reflection range alike
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        reals = (-0.5, -2.5, -7.25, -15.5, -20.25)
        for x in reals:
            for side in (1.0, -1.0):
                ref = complex(mp.loggamma(mp.mpc(x, side * mp.mpf("1e-40"))))
                z = complex(x, math.copysign(0.0, side))
                assert rel_err(log_gamma(z), ref) <= 1e-14, (x, side)
                batch = log_gamma(np.array([z, 3.0 + 1.0j]))
                assert rel_err(batch[0], ref) <= 1e-14, (x, side)

    def test_cost_does_not_grow_with_distance_left(self):
        # the recurrence alone took seconds at Re z = -2e5
        start = time.perf_counter()
        for x in (-2e3, -2e5):
            assert np.isfinite(log_gamma(complex(x + 0.5, 0.1)))
        assert time.perf_counter() - start < 0.5


class TestGamma:
    def test_trivial_values(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert gamma(5.0) == pytest.approx(24.0, rel=1e-13)

    def test_real_input_gives_exactly_real_output(self):
        value = gamma(3.7)
        assert isinstance(value, (float, np.floating))
        value = gamma(-2.5)
        assert isinstance(value, (float, np.floating))

    def test_frozen_complex_value(self):
        assert rel_err(gamma(1 + 1j), GAMMA_1_PLUS_I) <= 1e-13

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            gamma(0)
        with pytest.raises(PoleError):
            gamma(np.array([1.0, -4.0]))

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            gamma(200.0)
        with pytest.raises(OverflowError):
            gamma(200.0 + 0j)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("z", [1e-310, 5e-324, -1e-310, -5e-324])
    def test_overflow_near_zero_raises(self, z):
        # 1/z passes double range below about 5.6e-309
        with pytest.raises(OverflowError):
            gamma(z)
        with pytest.raises(OverflowError):
            gamma(np.array([1.5, z]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("z", [-171.5, -172.3, -180.25, -200.5, -250.7, 1e-300, -3e-308])
    def test_ends_of_double_range_match_mpmath(self, z):
        # Gamma(1 - z) past double range: the reflection quotient is
        # subnormal or underflows to a signed zero, without a warning
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        ref = float(mp.gamma(mp.mpf(z)))
        value = gamma(z)
        assert math.copysign(1.0, value) == math.copysign(1.0, ref)
        assert abs(value - ref) <= 1e-13 * abs(ref) + 2.0 * 5e-324, (value, ref)
        assert gamma(np.array([z]))[0] == value

    def test_reflection_identity(self, rng):
        for z in _random_z_away_from_poles(rng, 1000):
            value = gamma(z) * gamma(1.0 - z) * np.sin(np.pi * z) / np.pi
            assert rel_err(value, 1.0) <= 1e-12

    def test_recurrence(self, rng):
        for z in _random_z_away_from_poles(rng, 1000):
            assert rel_err(gamma(z + 1.0), z * gamma(z)) <= 1e-13

    def test_conjugate_symmetry(self, rng):
        for z in _random_z_away_from_poles(rng, 300):
            lhs = gamma(np.conj(z))
            rhs = np.conj(gamma(z))
            assert ulp_diff(lhs.real, rhs.real) <= 4
            assert ulp_diff(lhs.imag, rhs.imag) <= 4

    def test_gamma_pair_positive(self, rng):
        for _ in range(200):
            a = rng.uniform(0.05, 5.0)
            x = rng.uniform(-5.0, 5.0)
            value = gamma(complex(a, x)) * gamma(complex(a, -x))
            assert value.real > 0
            assert abs(value.imag) <= 1e-14 * abs(value)

    def test_vectorized_matches_scalar(self, rng):
        # scalar and SIMD array paths may differ in the last ulp
        zs = np.array(_random_z_away_from_poles(rng, 32))
        batch = gamma(zs)
        for z, value in zip(zs, batch):
            assert rel_err(gamma(complex(z)), complex(value)) <= 1e-14


class TestBeta:
    def test_trivial(self):
        assert beta_conjugate(1.0, 0.0) == pytest.approx(1.0, rel=1e-14)
        assert beta_conjugate(2.0, 0.0) == pytest.approx(1.0 / 6.0, rel=1e-13)

    def test_symmetric_complex_pair(self):
        # B(a + i xi/2, a - i xi/2) at a = 1/2, xi = 0
        assert rel_err(beta_conjugate(0.5, 0.0), math.pi) <= 1e-13

    def test_pole_propagates(self):
        with pytest.raises(PoleError):
            beta_conjugate(0.0, 0.0)
        with pytest.raises(PoleError):
            beta_conjugate(0.0, 1.5)  # a + b = 0

    def test_against_gamma_ratio(self, rng):
        for _ in range(50):
            z = complex(rng.uniform(0.2, 4.0), rng.uniform(-2, 2))
            ref = gamma(z) * gamma(z.conjugate()) / gamma(2.0 * z.real)
            assert rel_err(beta_conjugate(z.real, z.imag), ref) <= 1e-12

    def test_conjugate_pair_matches_log_beta(self, rng):
        # log B(z, conj z) = log Gamma(z) + log Gamma(conj z) - log Gamma(2 Re z)
        for _ in range(200):
            z = complex(rng.uniform(0.2, 4.0), rng.uniform(-6.0, 6.0))
            ref = np.exp(log_gamma(z) + log_gamma(z.conjugate()) - log_gamma(2.0 * z.real))
            value = beta_conjugate(z.real, z.imag)
            assert isinstance(value, (float, np.floating))
            assert rel_err(value, ref) <= 1e-14

    def test_conjugate_pair_matches_mpmath(self, rng):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        zs = rng.uniform(0.2, 4.0, 50) + 1j * rng.uniform(-6.0, 6.0, 50)
        values = beta_conjugate(zs.real, zs.imag)
        for z, value in zip(zs, values):
            ref = mp.beta(mp.mpc(z.real, z.imag), mp.mpc(z.real, -z.imag))
            assert rel_err(value, complex(ref)) <= 1e-13

    def test_conjugate_pair_pole_raises(self):
        with pytest.raises(PoleError):
            beta_conjugate(-1.0, 0.0)

    def test_nonpositive_real_part_gives_real_output(self):
        # B(z, conj z) is real, negative where Gamma(2 Re z) is
        value = beta_conjugate(np.array([1.5, -0.75]), np.array([0.3, 0.3]))
        assert value.dtype == np.float64
        assert isinstance(beta_conjugate(-0.2, 1.0), np.float64)

    def test_nonpositive_real_part_matches_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        x = np.array([1.5, -0.75, -0.2, -1.3, -2.6, -3.9, -0.45])
        y = np.array([0.3, 0.3, 1.0, 0.4, 2.0, 0.1, 5.0])
        values = beta_conjugate(x, y)
        assert values.dtype == np.float64
        for xv, yv, value in zip(x, y, values):
            ref = mp.beta(mp.mpc(xv, yv), mp.mpc(xv, -yv))
            assert abs(ref.imag) <= 1e-40 * abs(ref.real)
            assert rel_err(value, float(ref.real)) <= 1e-13, (xv, yv)
        assert np.sum(values < 0.0) == 3

    @pytest.mark.parametrize("x, y", [(-1.0, 0.0), (-0.5, 0.0), (-0.5, 0.7), (-2.0, 1.0)])
    def test_nonpositive_real_part_poles_raise(self, x, y):
        # a pole of Gamma(z) or of Gamma(2 Re z)
        with pytest.raises(PoleError):
            beta_conjugate(np.array([1.5, x]), np.array([0.3, y]))

    def test_log_space_survives_large_arguments(self):
        # direct Gamma(400.5 + 80.25i) overflows double range; the log-space
        # route must not; oracle value from mpmath (dps=50)
        value = beta_conjugate(400.5, 80.25)
        assert np.isfinite(value)
        assert rel_err(value, 1.5044383137785506e-249) <= 1e-12

    def test_one_scalar_real_part_for_many_imaginary_parts(self, rng):
        y = rng.uniform(-6.0, 6.0, 40)
        batch = beta_conjugate(1.375, y)
        assert batch.shape == y.shape
        assert np.array_equal(batch, beta_conjugate(np.full(40, 1.375), y))


def _seeded_complex_points(count=300, seed=7):
    """Re z in [-40, 40], |Im z| <= 60; a third of them on or next to the
    real axis, with both signs of zero, kept off the poles."""
    rng = np.random.default_rng(seed)
    z = rng.uniform(-40.0, 40.0, count) + 1j * rng.uniform(-60.0, 60.0, count)
    axis = np.arange(0, count, 3)
    z[axis] = np.floor(z[axis].real) + rng.uniform(0.05, 0.95, axis.size) + 0j
    z[axis[::2]] = np.conj(z[axis[::2]])
    return z


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestScalarIsBatchOfOne:
    """A 0-d call runs the batch kernel on Python numbers: every entry of a
    batch is bit-identical to the 0-d call on that entry."""

    def test_log_gamma(self):
        z = _seeded_complex_points()
        batch = log_gamma(z)
        for i, value in enumerate(z):
            assert _same_bits(log_gamma(value), batch[i]), value

    def test_gamma(self):
        z = _seeded_complex_points()
        batch = gamma(z)
        for i, value in enumerate(z):
            assert _same_bits(gamma(value), batch[i]), value

    def test_beta_conjugate(self):
        # real parts mirrored to x > 0, where the callers use it and the
        # batch stays real (Gamma(2x) < 0 somewhere would make it complex)
        z = _seeded_complex_points()
        z = np.abs(z.real) + 1j * z.imag
        batch = beta_conjugate(z.real, z.imag)
        for i, value in enumerate(z):
            assert _same_bits(beta_conjugate(value.real, value.imag), batch[i]), value

    def test_gamma_pair(self):
        z = _seeded_complex_points()
        w = z[::-1] / 2.0
        batch = gamma_pair(z, w)
        for i in range(z.size):
            assert _same_bits(gamma_pair(z[i], w[i]), batch[i]), (z[i], w[i])


class TestComplexLogGammaRange:
    """The real-plane kernel against 50-digit mpmath at the edges of its
    range: huge, subnormal and signed-zero imaginary parts, poles inside a
    batch, and non-finite entries."""

    @pytest.mark.parametrize("z", [1e200 + 1e200j, 3.0 + 1e250j, 3.0 + 1e160j,
                                   3.0 - 1e250j, 1e300 + 0.5j])
    def test_huge_arguments_without_warning(self, z):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        ref = complex(mp.loggamma(mp.mpc(z.real, z.imag)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = log_gamma(z)
            batch = log_gamma(np.array([z, 2.5 + 1.0j]))
        assert rel_err(value, ref) <= 1e-15
        assert _same_bits(batch[0], value)

    def test_subnormal_imaginary_part(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        z = complex(0.7, 1e-310)
        ref = complex(mp.loggamma(mp.mpc(z.real, mp.mpf(z.imag))))
        value = log_gamma(z)
        assert rel_err(value, ref) <= 1e-15
        # the imaginary part psi(0.7) * 1e-310 keeps its sign and leading digits
        assert abs(value.imag - ref.imag) <= 1e-6 * abs(ref.imag)

    @pytest.mark.parametrize("x", [-2.5, -17.5])
    def test_signed_zeros_keep_conjugate_symmetry(self, x):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        upper, lower = complex(x, 0.0), complex(x, -0.0)
        batch = log_gamma(np.array([upper, lower, 1.5 + 2.0j]))
        for value in (log_gamma(upper), batch[0]):
            assert log_gamma(lower) == np.conj(value)
            assert batch[1] == np.conj(value)
        for z, side in ((upper, 1), (lower, -1)):
            ref = complex(mp.loggamma(mp.mpc(x, side * mp.mpf("1e-40"))))
            assert rel_err(log_gamma(z), ref) <= 1e-14

    @pytest.mark.parametrize("poles", [(-3.0,), (-20.0,), (-3.0, -20.0)])
    def test_poles_inside_a_batch_raise(self, poles):
        z = np.array([1.5 + 0.5j, -3.5 + 0.0j, -20.5 - 0.0j, 7.0 + 2.0j, *poles])
        with pytest.raises(PoleError):
            log_gamma(z)
        with pytest.raises(PoleError):
            gamma(z)
        with pytest.raises(PoleError):
            beta_conjugate(z.real, z.imag)

    def test_non_finite_entries_come_back_non_finite(self):
        bad = [complex(np.nan, 0.0), complex(np.inf, 0.0), complex(-np.inf, 2.0),
               complex(0.5, np.inf), complex(-3.5, -np.inf), complex(3.0, np.nan),
               complex(-30.0, np.nan), complex(np.nan, np.nan)]
        good = np.array([2.5 + 1.0j, -4.25 + 0.5j, -25.5 + 3.0j])
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            values = log_gamma(np.array(bad + list(good)))
            for z in bad:
                assert not np.isfinite(log_gamma(z)), z
        assert not np.any(np.isfinite(values[:len(bad)]))
        assert _same_bits(values[len(bad):], log_gamma(good))


class TestAccuracyAgainstMpmath:
    """Bounds of the complex kernel on Re z in [-40, 40], |Im z| <= 60 and
    next to the real axis in [0.5, 3]."""

    @staticmethod
    def _draws(count=600, near_axis=100):
        rng = np.random.default_rng(11)
        wide = rng.uniform(-40.0, 40.0, count) + 1j * rng.uniform(-60.0, 60.0, count)
        axis = rng.uniform(0.5, 3.0, near_axis) + 1j * rng.uniform(-1e-3, 1e-3, near_axis)
        return np.concatenate([wide, axis])

    def test_log_gamma(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        z = self._draws()
        values = log_gamma(z)
        for value, point in zip(values, z):
            ref = complex(mp.loggamma(mp.mpc(point.real, point.imag)))
            assert abs(value - ref) / max(abs(ref), 1.0) <= 2e-15, point

    def test_gamma(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        z = self._draws()
        z = z[np.abs(z) < 30.0]
        values = gamma(z)
        for value, point in zip(values, z):
            ref = complex(mp.gamma(mp.mpc(point.real, point.imag)))
            assert rel_err(value, ref) <= 3e-14, point
