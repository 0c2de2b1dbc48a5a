"""The continuous-Hahn degree recurrence behind ``hyp3f2_unit``.

F_n = 3F2(-n, n+s-1, u; l1, l2; 1) runs the three-term recurrence in n when
Re s > 0 and the forward series otherwise.  The recurrence is checked
against mpmath at 50 digits with a relative bound (not one relative to a
cancellation scale) at degrees 10, 20 and 40, directly and through the
theta and gamma-pair factors; at these degrees the forward series is off by
1e-6 to 1e17.  The references write the per-axis 3F2 parameters out from
the paper's formulas and share no code with the factors they check.  The
degenerate s = 0, -1, -3 keep the forward series, and the forward series
at non-integer s in (-6, 0) is checked against mpmath at degrees 1..12.
"""

import numpy as np
import pytest

from ballfourier import DenominatorPoleError, FamilyParams, theta_factor
from ballfourier.dfamily import d_axis_factor
from ballfourier.hypergeometric import _terminating_sum, hyp3f2_ladder
from conftest import rel_err
from reference_routes import hyp3f2_unit

mp = pytest.importorskip("mpmath")

DEGREES = (10, 20, 40)
# relative error against mpmath; measured at most 2e-13 on these draws
REL_BOUND = 1e-12


def _mpc(z):
    z = complex(z)
    return mp.mpc(z.real, z.imag)


def _ref_3f2(n, upper2, upper3, lower1, lower2):
    with mp.workdps(50):
        return mp.hyp3f2(-n, _mpc(upper2), _mpc(upper3), _mpc(lower1), _mpc(lower2), 1)


def _ref_axis(j, r, n, a, mu, z):
    """(upper2, arg, lower1, lower2) of the axis-j 3F2 in 50-digit
    arithmetic, from the paper's formulas with m = |n^{j+1}|:
    s = 2(m + mu + (r - j)/2) + 1, l1 = m + mu + (r - j + 1)/2,
    l2 = m + 2a + (r - j)/2, arg = a + (m + z)/2 + (r - j)/4, and
    upper2 = n_j + s - 1."""
    m, k = sum(n[j:]), mp.mpf(r - j)
    a, mu = mp.mpf(a), mp.mpf(mu)
    s = 2 * (m + mu + k / 2) + 1
    return (n[j - 1] + s - 1, a + (m + _mpc(z)) / 2 + k / 4,
            m + mu + (k + 1) / 2, m + 2 * a + k / 2)


def _ref_theta(j, r, params, xi):
    with mp.workdps(50):
        upper2, ap, lower1, lower2 = _ref_axis(j, r, params.n, params.a, params.mu, 1j * xi)
        beta = mp.beta(ap, mp.conj(ap))
        return complex(beta * mp.hyp3f2(-params.n[j - 1], upper2, ap, lower1, lower2, 1))


def _axis_index(rng, r, j, nj):
    n = [int(v) for v in rng.integers(0, 3, size=r)]
    n[j - 1] = nj
    return tuple(n)


@pytest.mark.parametrize("n", DEGREES)
def test_hyp3f2_unit_matches_mpmath(rng, n):
    # complex s with Re s > 0, complex u and lower parameters
    for _ in range(12):
        s = complex(rng.uniform(0.002, 4.0), rng.uniform(-2.0, 2.0))
        u = complex(rng.uniform(-2.0, 3.0), rng.uniform(-15.0, 15.0))
        l1 = complex(rng.uniform(0.3, 3.0), rng.uniform(-1.0, 1.0))
        l2 = complex(rng.uniform(0.3, 3.0), rng.uniform(-1.0, 1.0))
        value = hyp3f2_unit(n, n + s - 1.0, u, l1, l2)
        ref = complex(_ref_3f2(n, n + s - 1.0, u, l1, l2))
        assert rel_err(value, ref) <= REL_BOUND, (s, u, l1, l2)


@pytest.mark.parametrize("n", DEGREES)
def test_theta_factor_matches_mpmath(rng, n):
    for _ in range(10):
        r = int(rng.integers(1, 4))
        j = int(rng.integers(1, r + 1))
        params = FamilyParams(float(rng.uniform(0.2, 3.0)), float(rng.uniform(-0.45, 3.0)),
                              _axis_index(rng, r, j, n))
        xi = float(rng.uniform(-20.0, 20.0))
        assert rel_err(theta_factor(j, r, params, xi),
                       _ref_theta(j, r, params, xi)) <= REL_BOUND, (params, j, xi)


@pytest.mark.parametrize("n", DEGREES)
def test_d_axis_factor_matches_mpmath_at_complex_x(rng, n):
    for _ in range(10):
        r = int(rng.integers(1, 4))
        j = int(rng.integers(1, r + 1))
        index = _axis_index(rng, r, j, n)
        a1, a2 = (float(v) for v in rng.uniform(0.2, 2.0, size=2))
        x = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        with mp.workdps(50):
            # the gamma-pair axis: a = a1, mu = a1 + a2 - 1/2, z = x
            upper2, gp, lower1, lower2 = _ref_axis(j, r, index, a1,
                                                   mp.mpf(a1) + mp.mpf(a2) - 0.5, x)
            gm = gp - _mpc(x)
            ref = complex(mp.gamma(gp) * mp.gamma(gm)
                          * mp.hyp3f2(-n, upper2, gp, lower1, lower2, 1))
        value = d_axis_factor(j, r, np.asarray(x), index, a1, a2)
        assert rel_err(value, ref) <= REL_BOUND, (index, j, a1, a2, x)


@pytest.mark.parametrize("n", DEGREES)
@pytest.mark.parametrize("mu", [-0.499, -0.49, -0.45])
def test_mu_near_minus_half(n, mu):
    # r = 1 puts s = 2 mu + 1 at 0.002, 0.02 and 0.1
    params = FamilyParams(1.3, mu, (n,))
    for xi in (-17.0, -3.3, 0.0, 0.7, 12.5):
        assert rel_err(theta_factor(1, 1, params, xi),
                       _ref_theta(1, 1, params, xi)) <= REL_BOUND, xi


@pytest.mark.parametrize("s", [0.0, -1.0, -3.0])
@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_degenerate_s_keeps_the_forward_series(rng, s, n):
    # the recurrence would divide by zero here (A_0 = -l1 l2 / s, or
    # k + s - 1 = 0); the forward series is exact arithmetic on its terms
    u = rng.uniform(0.3, 3.0, 5) + 1j * rng.uniform(-4.0, 4.0, 5)
    for upper3 in (u, complex(u[0])):
        value = hyp3f2_unit(n, n + s - 1.0, upper3, 1.7, 2.25)
        forward, _ = _terminating_sum([-float(n), n + s - 1.0, upper3], [1.7, 2.25], 1.0, n)
        assert np.asarray(value).tobytes() == np.asarray(forward[()]).tobytes()


def test_low_degrees_agree_with_the_forward_series(rng):
    # where the forward series is still accurate (degree <= 6) the two
    # routes agree to roundoff
    for n in range(1, 7):
        for _ in range(10):
            s = float(rng.uniform(0.05, 5.0))
            u = complex(rng.uniform(0.2, 3.0), rng.uniform(-5.0, 5.0))
            l1, l2 = (float(v) for v in rng.uniform(0.3, 3.0, size=2))
            forward, _ = _terminating_sum([-float(n), n + s - 1.0, u], [l1, l2], 1.0, n)
            assert rel_err(hyp3f2_unit(n, n + s - 1.0, u, l1, l2), forward[()]) <= 1e-9


def test_lower_parameter_poles_match_the_forward_series():
    # l1 + k = 0 with k < n is a pole on both routes; k = n is not
    with pytest.raises(DenominatorPoleError):
        hyp3f2_unit(5, 6.5, 0.3 + 1j, -2.0, 1.5)
    with pytest.raises(DenominatorPoleError):
        hyp3f2_unit(5, 6.5, np.array([0.3 + 1j, 1.0]), 1.5, -4.0)
    value = hyp3f2_unit(2, 3.5, 0.3 + 1j, -2.0, 1.5)
    forward, _ = _terminating_sum([-2.0, 3.5, 0.3 + 1j], [-2.0, 1.5], 1.0, 2)
    assert rel_err(value, forward[()]) <= 1e-14


# relative error of the forward series at Re s <= 0 against mpmath, per
# degree: about 1e2 times the worst measured over 1,100 seeded draws per
# degree of the draws below (8.9e-16, 1.3e-15, 1.4e-14, 8.7e-14, 2.0e-12,
# 8.4e-12, 3.5e-11, 8.6e-10, 1.1e-8, 4.5e-8, 1.1e-6, 8.9e-6 at n = 1..12)
FALLBACK_BOUNDS = {1: 1e-13, 2: 1e-13, 3: 1e-12, 4: 1e-11, 5: 2e-10, 6: 1e-9, 7: 4e-9,
                   8: 1e-7, 9: 1e-6, 10: 5e-6, 11: 1e-4, 12: 1e-3}


@pytest.mark.parametrize("n", sorted(FALLBACK_BOUNDS))
def test_forward_fallback_matches_mpmath(rng, n):
    # non-integer s in (-6, 0), where no recurrence runs; the ladder is
    # checked at its own s, hyp3f2_unit at its own upper2 = n + s - 1
    for _ in range(20):
        s = float(rng.uniform(-6.0, 0.0))
        u = complex(rng.uniform(-2.0, 3.0), rng.uniform(-15.0, 15.0))
        l1 = complex(rng.uniform(0.3, 3.0), rng.uniform(-1.0, 1.0))
        l2 = complex(rng.uniform(0.3, 3.0), rng.uniform(-1.0, 1.0))
        with mp.workdps(50):
            ref = complex(mp.hyp3f2(-n, n + mp.mpf(s) - 1, _mpc(u), _mpc(l1), _mpc(l2), 1))
        assert rel_err(hyp3f2_ladder((n,), s, u, l1, l2)[0], ref) <= FALLBACK_BOUNDS[n], s
        upper2 = n + s - 1.0
        assert rel_err(hyp3f2_unit(n, upper2, u, l1, l2),
                       _ref_3f2(n, upper2, u, l1, l2)) <= FALLBACK_BOUNDS[n], s
