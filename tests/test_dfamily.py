import math

import numpy as np
import pytest

from ballfourier import (DParams, ball_norm, continuous_hahn, d_family_eval,
                         d_family_eval_hahn, d_orthogonality_constant, gamma,
                         hyp3f2_unit, pochhammer)
from ballfourier import verify
from ballfourier.quadrature import d_biorthogonality_gram
from conftest import rel_err


def reference_constant_r1(n, a1, a2):
    """The one-dimensional orthogonality constant display, coded verbatim."""
    s = a1 + a2
    return (2.0 * math.pi * math.factorial(n) * gamma(2 * a1) * gamma(2 * a2)
            * gamma(s) ** 2 / ((n + s - 0.5) * gamma(2 * s + n - 1)))


def reference_constant_r2(n1, n2, a1, a2):
    """The two-dimensional orthogonality constant display, coded verbatim."""
    s = a1 + a2
    h = ball_norm((n1, n2), s - 0.5)
    return (gamma(2 * a1) * gamma(2 * a2) * gamma(2 * a1 + n2 + 0.5)
            * gamma(2 * a2 + n2 + 0.5) * 4 * math.pi ** 2
            * math.factorial(n1) ** 2 * math.factorial(n2) ** 2
            / (2.0 ** (2 * n2 + 4 * a1 + 4 * a2 - 3)
               * pochhammer(2 * (n2 + s), n1) ** 2
               * pochhammer(2 * s - 1, n2) ** 2) * h)


def random_dparams(rng, r, max_total=5):
    n = tuple(int(v) for v in rng.multinomial(int(rng.integers(0, max_total + 1)), [1.0 / r] * r))
    a1 = float(rng.uniform(0.3, 1.8))
    a2 = float(rng.uniform(0.3, 1.8))
    if abs(a1 + a2 - 0.5) < 0.05:
        a1 += 0.2
    return DParams(a1, a2, n)


class TestDParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            DParams(0.0, 1.0, (0,))
        with pytest.raises(ValueError):
            DParams(1.0, -0.1, (0,))
        with pytest.raises(ValueError):
            DParams(0.25, 0.25, (0,))  # coupled weight degenerates

    def test_coupled_mu(self):
        assert DParams(1.0, 0.75, (0, 0)).mu == pytest.approx(1.25)


class TestEvaluation:
    def test_r1_zero_degree_is_gamma_pair(self, rng):
        for _ in range(20):
            a1, a2 = rng.uniform(0.3, 2.0, size=2)
            x = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
            params = DParams(a1, a2, (0,))
            expect = gamma(a1 - x / 2.0) * gamma(a1 + x / 2.0)
            assert rel_err(d_family_eval(np.array([x]), params), expect) <= 1e-13

    def test_r1_zero_degree_at_origin(self):
        params = DParams(1.0, 0.6, (0,))
        assert rel_err(d_family_eval(np.array([0.0 + 0j]), params), 1.0) <= 1e-14

    def test_hahn_form_agrees(self, rng):
        for _ in range(200):
            r = int(rng.integers(1, 4))
            params = random_dparams(rng, r)
            x = rng.uniform(-3, 3, size=r) + 1j * rng.uniform(-1, 1, size=r)
            lhs = d_family_eval(x, params)
            rhs = d_family_eval_hahn(x, params)
            assert rel_err(lhs, rhs) <= 1e-11

    def test_r1_hahn_display(self, rng):
        # n! i^{-n} / ((2 a1)_n (a1+a2)_n) Gamma-pair p_n(-ix/2; a1, a2, a2, a1)
        for _ in range(30):
            n = int(rng.integers(0, 6))
            a1, a2 = rng.uniform(0.3, 2.0, size=2)
            x = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
            params = DParams(a1, a2, (n,))
            expect = (math.factorial(n) * (1j) ** (-n)
                      / (pochhammer(complex(2 * a1), n) * pochhammer(complex(a1 + a2), n))
                      * gamma(a1 - x / 2.0) * gamma(a1 + x / 2.0)
                      * continuous_hahn(n, -0.5j * x, (a1, a2, a2, a1)))
            assert rel_err(d_family_eval(np.array([x]), params), expect) <= 1e-12

    def test_r2_explicit_display(self, rng):
        # two gamma pairs and two 3F2 factors, coded verbatim from the
        # bivariate specialization
        for _ in range(30):
            n1, n2 = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            a1, a2 = rng.uniform(0.3, 2.0, size=2)
            s = a1 + a2
            x = rng.uniform(-3, 3, size=2) + 1j * rng.uniform(-1, 1, size=2)
            params = DParams(a1, a2, (n1, n2))
            expect = (hyp3f2_unit(n1, n1 + 2 * (n2 + s), a1 + x[0] / 2 + n2 / 2 + 0.25,
                                  n2 + 2 * a1 + 0.5, n2 + s + 0.5)
                      * hyp3f2_unit(n2, n2 + 2 * s - 1, a1 + x[1] / 2, 2 * a1, s)
                      * gamma(a1 + (n2 + x[0]) / 2 + 0.25) * gamma(a1 + (n2 - x[0]) / 2 + 0.25)
                      * gamma(a1 - x[1] / 2) * gamma(a1 + x[1] / 2))
            assert rel_err(d_family_eval(x, params), expect) <= 1e-12

    def test_r2_hahn_display_alternate_ordering(self, rng):
        # the bivariate display orders the first Hahn quadruple (A1, A2, A1, A2);
        # the swap symmetry of the definition makes it equal to (A1, A2, A2, A1)
        for _ in range(20):
            n1, n2 = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            a1, a2 = rng.uniform(0.3, 2.0, size=2)
            s = a1 + a2
            x = rng.uniform(-2, 2, size=2) + 0j
            params = DParams(a1, a2, (n1, n2))
            b1 = a1 + n2 / 2 + 0.25
            b2 = a2 + n2 / 2 + 0.25
            expect = (math.factorial(n1) * math.factorial(n2) * (1j) ** (-n1 - n2)
                      / (pochhammer(complex(2 * a1), n2) * pochhammer(complex(s), n2)
                         * pochhammer(complex(n2 + 2 * a1 + 0.5), n1)
                         * pochhammer(complex(n2 + s + 0.5), n1))
                      * continuous_hahn(n1, -0.5j * x[0], (b1, b2, b1, b2))
                      * continuous_hahn(n2, -0.5j * x[1], (a1, a2, a2, a1))
                      * gamma(a1 + (n2 + x[0]) / 2 + 0.25) * gamma(a1 + (n2 - x[0]) / 2 + 0.25)
                      * gamma(a1 - x[1] / 2) * gamma(a1 + x[1] / 2))
            assert rel_err(d_family_eval(x, params), expect) <= 1e-12

    def test_diagonal_pairing_integrand_real_nonnegative(self, rng):
        for r in (1, 2):
            params = random_dparams(rng, r, max_total=3)
            swapped = DParams(params.a2, params.a1, params.n)
            x = rng.uniform(-5, 5, size=(50, r))
            fn = d_family_eval(1j * x, params)
            fm = d_family_eval(-1j * x, swapped)
            product = fn * fm
            assert np.all(np.abs(product.imag) <= 1e-10 * np.maximum(np.abs(product), 1e-30))
            assert np.all(product.real >= -1e-10 * np.abs(product))


class TestOrthogonalityConstant:
    def test_half_half_value(self):
        assert rel_err(d_orthogonality_constant((0,), 0.5, 0.5), 4 * math.pi) <= 1e-12

    def test_r1_display(self):
        for n in range(5):
            for a1, a2 in ((0.5, 0.5), (1.0, 0.75), (1.3, 0.6)):
                assert rel_err(d_orthogonality_constant((n,), a1, a2),
                               reference_constant_r1(n, a1, a2)) <= 1e-12

    def test_r2_display(self):
        for n1 in range(4):
            for n2 in range(4):
                for a1, a2 in ((0.5, 0.5), (1.0, 0.75), (1.3, 0.6)):
                    assert rel_err(d_orthogonality_constant((n1, n2), a1, a2),
                                   reference_constant_r2(n1, n2, a1, a2)) <= 1e-12

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            d_orthogonality_constant((0,), -1.0, 1.0)


class TestConstantPastTwoAxes:
    """Past r = 2 the per-axis 2^-(r - j) of the duplication formula shows;
    without it the constant is 2^((r - 1)(r - 2)/2) times too large."""

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_against_the_d_integral_and_the_parseval_xi_side(self, r):
        # worst relative errors over these cases: 4.2e-15 (D integral) and
        # 5.7e-15 (xi side); the bound has about 1e3 of headroom
        indices = [(0,) * r, (1,) + (0,) * (r - 1), (0,) * (r - 1) + (2,)]
        for a1, a2 in ((1.1, 0.6), (0.7, 1.3)):
            gram = d_biorthogonality_gram(indices, a1, a2)
            for k, n in enumerate(indices):
                assert rel_err(gram[k, k], d_orthogonality_constant(n, a1, a2)) <= 5e-12
        for n in indices:
            reports = verify._parseval_case(n, n, 1.0, 0.75, 5e-12, 5e-12)
            assert [rep.identity_name for rep in reports if rep.passed] == [
                "parseval", "parseval-ball-value", "parseval-pair-constant"]
