import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballfourier import DenominatorPoleError, HypergeometricSpec
from ballfourier.hypergeometric import _terminating_sum, pfq_diagnostics
from conftest import rel_err
from reference_routes import hyp3f2_unit

# independent term-by-term oracle (exact rationals): 1 - 12/5 + 10/7 = 1/35
F32_EXAMPLE = 1.0 / 35.0


class TestSpecValidation:
    def test_requires_terminating_numerator(self):
        with pytest.raises(ValueError):
            HypergeometricSpec((1.0, 2.0), (3.0,), 1.0, 2)

    def test_rejects_denominator_pole(self):
        with pytest.raises(DenominatorPoleError):
            HypergeometricSpec((-3.0, 1.0), (-1.0,), 1.0, 3)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            HypergeometricSpec((1.0,), (2.0,), 1.0, -1)

    def test_accepts_safe_negative_denominator(self):
        # -3.5 is not an integer; never vanishes
        HypergeometricSpec((-2.0, 1.0), (-3.5,), 1.0, 2)

    def test_accepts_denominator_of_minus_the_order(self):
        # (-3)_k has the factors -3, ..., k - 4, none of them 0 for k <= 3,
        # so the sum to order 3 has no pole; mpmath's 2F1 gives 319/128
        spec = HypergeometricSpec((-3.0, 1.5), (-3.0,), 0.5, 3)
        value, _ = _terminating_sum([-3.0, 1.5], [-3.0], 0.5, 3)
        assert value[()] == 2.4921875
        assert pfq_diagnostics(spec)[0] == value[()]


class TestTerminatingSums:
    def test_order_zero_is_one(self):
        spec = HypergeometricSpec((-0.0, 4.0), (2.0,), 0.3, 0)
        assert pfq_diagnostics(spec)[0] == 1.0

    def test_two_term_2f1(self):
        spec = HypergeometricSpec((-1.0, 2.0), (3.0,), 0.5, 1)
        assert pfq_diagnostics(spec)[0] == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_3f2_against_rational_oracle(self):
        spec = HypergeometricSpec((-2.0, 4.0, 1.5), (2.0, 2.5), 1.0, 2)
        assert pfq_diagnostics(spec)[0] == pytest.approx(F32_EXAMPLE, rel=1e-14)

    def test_denominator_pole_during_sum(self):
        with pytest.raises(DenominatorPoleError):
            _terminating_sum([-4.0, 1.0], [-2.0], 1.0, 4)

    def test_extra_terms_are_exact_zeros(self):
        value3, _ = _terminating_sum([-3.0, 1.7, 2.4], [0.9, 1.1], 0.8, 3)
        value8, _ = _terminating_sum([-3.0, 1.7, 2.4], [0.9, 1.1], 0.8, 8)
        assert value3[()] == value8[()]

    def test_vectorized_argument(self, rng):
        z = rng.uniform(-1, 1, size=17)
        batch, _ = _terminating_sum([-3.0, 2.2], [1.3], z, 3)
        for zk, value in zip(z, batch):
            single, _ = _terminating_sum([-3.0, 2.2], [1.3], float(zk), 3)
            assert complex(single[()]) == complex(value)


class TestHyp3f2Unit:
    def test_order_zero(self):
        assert hyp3f2_unit(0, 2.3, 4.5 + 1j, 1.1, 0.7) == 1.0

    def test_two_term_value(self):
        # 1 - (2 mu + 1) a / (l1 l2) at mu=0.5, a=1, l1=2, l2=1
        assert hyp3f2_unit(1, 2.0, 1.0, 2.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_cross_checks_pfq(self, rng):
        # s = upper2 - (n - 1): Re s <= 0 takes the forward series, bit for
        # bit the spec route on the upper parameter s + (n - 1) it forms
        # from s (which may differ from upper2 in the last bit); Re s > 0
        # the degree recurrence, which at degree <= 6 agrees with the
        # forward series to 1e-9 relative
        routes = set()
        for n in range(1, 7):
            for _ in range(20):
                u2 = complex(rng.uniform(-4, 8), rng.uniform(-2, 2))
                u3 = complex(rng.uniform(-3, 3), rng.uniform(-2, 2))
                l1 = complex(rng.uniform(0.5, 3), rng.uniform(-2, 2))
                l2 = complex(rng.uniform(0.5, 3), rng.uniform(-2, 2))
                direct = complex(hyp3f2_unit(n, u2, u3, l1, l2))
                s = u2 - (n - 1.0)
                spec = HypergeometricSpec((-float(n), s + (n - 1.0), u3), (l1, l2), 1.0, n)
                forward = complex(pfq_diagnostics(spec)[0])
                if s.real <= 0:
                    routes.add("forward")
                    assert direct == forward
                else:
                    routes.add("recurrence")
                    assert rel_err(direct, forward) <= 1e-9, (n, u2, u3, l1, l2)
        assert routes == {"forward", "recurrence"}

    @given(st.integers(min_value=0, max_value=8),
           st.floats(min_value=-3, max_value=3, allow_nan=False),
           st.floats(min_value=-2, max_value=2, allow_nan=False),
           st.floats(min_value=0.4, max_value=3, allow_nan=False),
           st.floats(min_value=0.4, max_value=3, allow_nan=False))
    @settings(max_examples=150)
    def test_conjugation_symmetry(self, n, u2re, u3im, l1, l2):
        u3 = complex(0.8, u3im)
        value = hyp3f2_unit(n, u2re, u3, l1, l2)
        conj_value = hyp3f2_unit(n, u2re, np.conj(u3), l1, l2)
        assert rel_err(np.conj(value), conj_value) <= 1e-13


class TestDiagnostics:
    def test_peak_partial_reported(self):
        spec = HypergeometricSpec((-2.0, 4.0, 1.5), (2.0, 2.5), 1.0, 2)
        value, peak = pfq_diagnostics(spec)
        assert value == pytest.approx(F32_EXAMPLE, rel=1e-14)
        # partial sums pass through 1 and 1 - 2.4 = -1.4
        assert peak == pytest.approx(1.4, rel=1e-12)

    def test_cancellation_case_is_detectable(self):
        # 2F1(-1, 2; 3; 1.5) = 1 - 2*1.5/3 = 0 exactly: the value collapses
        # while the partial sums stay O(1), which is what the verification
        # layer's low-confidence flag keys on
        spec = HypergeometricSpec((-1.0, 2.0), (3.0,), 1.5, 1)
        value, peak = pfq_diagnostics(spec)
        assert abs(value) <= 1e-15
        assert peak == pytest.approx(1.0)
        assert abs(value) < 1e-10 * peak
