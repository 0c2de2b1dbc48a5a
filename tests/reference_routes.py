"""Independent cross-check routes that only the tests run.

Each is a second derivation of a quantity the library computes by one
production route: the Gegenbauer polynomial as its definitional terminating
2F1, the tanh family by peeling x_1 recursively, and the gamma-pair family
through continuous Hahn polynomials.  The tests compare them with the
production routes; nothing in the package imports them.
"""

import math

import numpy as np

from ballfourier import FamilyParams, continuous_hahn, gamma, gegenbauer, pochhammer, tail_sum
from ballfourier.classical import _check_degree, _check_gegenbauer_lambda
from ballfourier.hypergeometric import _terminating_sum
from ballfourier.tanh_family import _axis_tail


def gegenbauer_series(n: int, lam: float, x):
    """C_n^(lambda)(x) through the terminating 2F1 sum (definitional form).

    Its alternating sum loses up to ~1e-10 relative accuracy by n = 10,
    which is why :func:`ballfourier.gegenbauer` runs the recurrence.
    """
    n = _check_degree(n)
    lam = _check_gegenbauer_lambda(lam)
    prefactor = pochhammer(2.0 * lam, n) / math.factorial(n)
    arr = np.asarray(x)
    if not np.iscomplexobj(arr):
        # parity reduction keeps the 2F1 argument in [0, 1/2]
        sign = np.where(arr < 0.0, (-1.0) ** n, 1.0)
        z = (1.0 - np.abs(arr)) / 2.0
        value, _ = _terminating_sum([-float(n), n + 2.0 * lam], [lam + 0.5], z, n)
        return prefactor * (sign * value)[()]
    z = (1.0 - arr) / 2.0
    value, _ = _terminating_sum([-float(n), n + 2.0 * lam], [lam + 0.5], z, n)
    return prefactor * value[()]


def family_eval_peel_first(x, params: FamilyParams):
    """Same value as :func:`ballfourier.family_eval`, built by peeling x_1
    recursively."""
    x = np.asarray(x, dtype=np.float64)
    r = params.r
    m = tail_sum(params.n, 2)
    sech2 = 1.0 / np.cosh(x[..., 0]) ** 2
    head = (sech2 ** (params.a + m / 2.0 + (r - 1) / 4.0)
            * gegenbauer(params.n[0], m + params.mu + (r - 1) / 2.0, np.tanh(x[..., 0])))
    if r == 1:
        return head
    rest = FamilyParams(params.a, params.mu, params.n[1:])
    return head * family_eval_peel_first(x[..., 1:], rest)


def d_axis_factor_hahn(j: int, r: int, x_j, n, a1: float, a2: float):
    """Axis-j factor of the gamma-pair family in continuous-Hahn form; must
    equal :func:`ballfourier.dfamily.d_axis_factor`.  Its parameters are
    written out from the paper's formulas, with mu = a1 + a2 - 1/2:
    q = (r - j)/4, the gamma arguments a1 + (m +- x_j)/2 + q and the
    Pochhammer bases m + mu + (r - j + 1)/2 and 2 a1 + m + (r - j)/2."""
    nj = n[j - 1]
    m = _axis_tail(j, r, n)
    q = (r - j) / 4.0
    gplus = a1 + (m + np.asarray(x_j)) / 2.0 + q
    gminus = a1 + (m - np.asarray(x_j)) / 2.0 + q
    lower1 = m + a1 + a2 - 0.5 + (r - j + 1) / 2.0
    lower2 = 2.0 * a1 + m + (r - j) / 2.0
    big_a1 = a1 + m / 2.0 + q
    big_a2 = a2 + m / 2.0 + q
    prefactor = (math.factorial(nj) * (1j ** (-nj))
                 / (pochhammer(complex(lower2), nj) * pochhammer(complex(lower1), nj)))
    hahn = continuous_hahn(nj, -0.5j * np.asarray(x_j),
                           (big_a1, big_a2, big_a2, big_a1))
    return prefactor * gamma(gminus) * gamma(gplus) * hahn


def d_family_eval_hahn(x, params):
    """Hahn-form evaluation of :func:`ballfourier.d_family_eval`: the product
    of the :func:`d_axis_factor_hahn` values over the columns x[..., j]."""
    x = np.asarray(x)
    value = d_axis_factor_hahn(1, params.r, x[..., 0], params.n, params.a1, params.a2)
    for j in range(2, params.r + 1):
        value = value * d_axis_factor_hahn(j, params.r, x[..., j - 1], params.n,
                                           params.a1, params.a2)
    return value
