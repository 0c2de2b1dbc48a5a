import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballfourier import (PoleError, beta, gamma, generalized_binomial, log_beta,
                         log_gamma, pochhammer)
from ballfourier.special import beta_conjugate
from conftest import rel_err, ulp_diff

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
        assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert beta(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-13)

    def test_symmetric_complex_pair(self):
        # B(a + i xi/2, a - i xi/2) at a = 1/2, xi = 0
        assert rel_err(beta(0.5 + 0j, 0.5 - 0j), math.pi) <= 1e-13

    def test_pole_propagates(self):
        with pytest.raises(PoleError):
            beta(0.0, 1.0)
        with pytest.raises(PoleError):
            beta(1.5, -1.5)  # a + b = 0

    def test_against_gamma_ratio(self, rng):
        for _ in range(50):
            a = complex(rng.uniform(0.2, 4.0), rng.uniform(-2, 2))
            b = complex(rng.uniform(0.2, 4.0), rng.uniform(-2, 2))
            assert rel_err(beta(a, b), gamma(a) * gamma(b) / gamma(a + b)) <= 1e-12

    def test_conjugate_pair_matches_log_beta(self, rng):
        for _ in range(200):
            z = complex(rng.uniform(0.2, 4.0), rng.uniform(-6.0, 6.0))
            ref = np.exp(log_beta(z, z.conjugate()))
            value = beta_conjugate(z)
            assert isinstance(value, (float, np.floating))
            assert rel_err(value, ref) <= 1e-14

    def test_conjugate_pair_matches_mpmath(self, rng):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        zs = rng.uniform(0.2, 4.0, 50) + 1j * rng.uniform(-6.0, 6.0, 50)
        values = beta_conjugate(zs)
        for z, value in zip(zs, values):
            ref = mp.beta(mp.mpc(z.real, z.imag), mp.mpc(z.real, -z.imag))
            assert rel_err(value, complex(ref)) <= 1e-13

    def test_conjugate_pair_pole_raises(self):
        with pytest.raises(PoleError):
            beta_conjugate(-1.0 + 0j)

    def test_log_space_survives_large_arguments(self):
        # direct Gamma(400.5) overflows double range; the log-space route
        # must not; oracle value from mpmath (dps=50)
        value = beta(400.5, 321.5)
        assert np.isfinite(value)
        assert rel_err(value, 6.467799744599955e-217) <= 1e-12


class TestGeneralizedBinomial:
    def test_zero_index(self):
        assert generalized_binomial(3.3, 0) == 1.0

    def test_integer(self):
        assert generalized_binomial(4.0, 2) == pytest.approx(6.0, rel=1e-15)

    def test_fractional(self):
        assert generalized_binomial(2.5, 2) == pytest.approx(1.875, rel=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            generalized_binomial(1.0, -2)
