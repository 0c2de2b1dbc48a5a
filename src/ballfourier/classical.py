"""Classical univariate families: Jacobi, Gegenbauer, continuous Hahn.

Normalizations match the hypergeometric representations used throughout the
library.  The Gegenbauer evaluation route is the three-term recurrence in
the degree; :func:`ball.ball_basis_eval` runs it with the degree k - 2 term
scaled by s^2.  The explicit Jacobi sum exists as an independent
cross-check path only.  The continuous Hahn polynomials of
several degrees come from one 3F2 degree ladder
(:func:`continuous_hahn_rows`); a single degree is its one-degree case.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import _check_decay, _check_jacobi_exponents, _check_order, _check_weight
from .hypergeometric import hyp3f2_ladder
from .special import _LOG_DBL_MAX, _blockwise, log_gamma, pochhammer

__all__ = [
    "jacobi",
    "gegenbauer",
    "gegenbauer_norm",
    "continuous_hahn",
    "continuous_hahn_rows",
    "hahn_orthogonality_constant",
]


def _dyadic(values) -> tuple[list[int], int]:
    """Integers N_i and one exponent e with values[i] = N_i / 2**e exactly
    (every finite float is a dyadic rational)."""
    ratios = [float(v).as_integer_ratio() for v in values]
    e = max(den.bit_length() - 1 for _, den in ratios)
    return [num << (e - den.bit_length() + 1) for num, den in ratios], e


def jacobi(n: int, alpha: float, beta: float, x: float) -> float:
    """Jacobi polynomial P_n^(alpha,beta)(x) by the explicit binomial sum.

    Cross-check path only, so it favours exactness over speed: the sum is
    evaluated exactly over the float-rounded inputs and rounded once at the
    end.  The alternating binomial terms cancel by several orders of
    magnitude at moderate degree, which a plain float loop cannot survive at
    the tolerances the identity tests use.  With alpha = A/2^e,
    beta = B/2^e and x = X/2^e over one power of two,
    2^(2en+n) n! P_n = sum_k C(n,k) prod_{i<k}((n-i)2^e + A)
    prod_{i<n-k}((n-i)2^e + B) (X + 2^e)^k (X - 2^e)^(n-k) is an integer,
    so the sum runs in Python integers with no gcd per operation.
    """
    n = _check_order(n, "degree")
    _check_jacobi_exponents(alpha, beta)
    (a, b, xx), e = _dyadic((alpha, beta, x))
    one = 1 << e
    # prefix products over i < k of ((n-i)2^e + A)(X + 2^e) and of
    # ((n-i)2^e + B)(X - 2^e): one large product per term of the sum
    head, tail = [1], [1]
    for i in range(n):
        head.append(head[-1] * ((((n - i) << e) + a) * (xx + one)))
        tail.append(tail[-1] * ((((n - i) << e) + b) * (xx - one)))
    total = sum(math.comb(n, k) * head[k] * tail[n - k] for k in range(n + 1))
    return total / (math.factorial(n) << (2 * e * n + n))


def gegenbauer(n: int, lam: float, x):
    """Gegenbauer polynomial C_n^(lambda)(x).

    ``x`` may be real, complex, or an array of either.  Evaluation runs the
    standard three-term recurrence in the degree, which is stable on and
    near [-1, 1] and keeps the parity identity C_n(-x) = (-1)^n C_n(x)
    exact in floating point.  The definitional terminating-2F1 sum
    alternates and loses up to ~1e-10 relative accuracy by n = 10, so it
    serves only as the tests' cross-check.  A batch runs per block
    (:func:`special._blockwise`).
    """
    n = _check_order(n, "degree")
    lam = _check_weight(lam, "lambda")
    arr = np.asarray(x)
    dtype = np.result_type(arr.dtype, np.float64)
    if n == 0:
        return np.ones(arr.shape, dtype=dtype)[()]
    if arr.ndim == 0 and arr.dtype == np.float64:
        # a 0-d real call runs the recurrence on a Python float; its real
        # operations are unfused in numpy's array loops too, so the value
        # keeps its batch entry's bits.  A complex 0-d x stays on arrays
        t = arr.item()
        return dtype.type(_gegenbauer_recurrence(n, lam, t, 1.0, 2.0 * lam * t))

    def recurrence(x):
        return (_gegenbauer_recurrence(n, lam, x, np.ones(x.shape, dtype=dtype),
                                       (2.0 * lam * x).astype(dtype, copy=False)),)

    if arr.ndim == 0:
        return recurrence(arr)[0][()]
    return _blockwise(recurrence, arr)[0]


def _gegenbauer_recurrence(n: int, lam: float, x, prev, curr, s2=1.0):
    """s^n C_n^(lambda)(x / s), n >= 1, from the value at degree 0
    (``prev``) and 1 (``curr``) by the three-term recurrence in the degree
    with its degree k - 2 term scaled by ``s2`` = s^2: a polynomial in x and
    s^2, with no square root or division by s.  The default s2 = 1.0 gives
    C_n^(lambda)(x) with the bits of the unscaled recurrence, since a product
    by 1.0 is exact.  ``x`` and ``s2`` are arrays or Python floats; the same
    statements run on both."""
    for k in range(2, n + 1):
        prev, curr = curr, (2.0 * (k - 1.0 + lam) * x * curr
                            - (k - 2.0 + 2.0 * lam) * s2 * prev) / k
    return curr


def gegenbauer_norm(n: int, lam: float) -> float:
    """Squared L2 norm of C_n^(lambda) under the weight (1-x^2)^(lambda-1/2).

    Assembled in log space; Gamma(lambda) is rewritten as
    Gamma(lambda+1)/lambda so that negative lambda in (-1/2, 0) stays on
    positive gamma arguments (the signs of lambda and (2 lambda)_n cancel).
    A numerator or denominator that leaves double range raises
    OverflowError, as :func:`ball.ball_norm` does; for lambda in [1/2, 3]
    that happens from n = 167-170 on.
    """
    n = _check_order(n, "degree")
    lam = _check_weight(lam, "lambda")
    log_part = log_gamma(lam + 0.5) + log_gamma(0.5) - log_gamma(lam + 1.0)
    upper = float(np.exp(log_part)) * lam * pochhammer(2.0 * lam, n)
    lower = math.factorial(n) * (n + lam)
    if not (math.isfinite(upper) and math.isfinite(lower)):
        raise OverflowError("Gegenbauer norm product exceeds double range")
    return upper / lower


def continuous_hahn_rows(degrees, x, params):
    """Continuous Hahn polynomials p_n(x; a, b, c, d) for every n in
    ``degrees``, from one call of :func:`hyp3f2_ladder` (s = a + b + c + d
    does not depend on n), which also makes the route choice and the pole
    check.  Each entry is :func:`continuous_hahn` of its degree, bit for bit."""
    degrees = [_check_order(n, "degree") for n in degrees]
    a, b, c, d = map(complex, params)
    series = hyp3f2_ladder(degrees, a + b + c + d, a + 1j * np.asarray(x), a + c, a + d)
    return [(1j ** n) * pochhammer(a + c, n) * pochhammer(a + d, n) / math.factorial(n) * value
            for n, value in zip(degrees, series)]


def continuous_hahn(n: int, x, params):
    """Continuous Hahn polynomial p_n(x; a, b, c, d).

    ``params`` is a 4-sequence (a, b, c, d).
    ``x`` may be complex or an array.  The definition is symmetric under
    swapping c and d: both orderings that appear in the Hahn-form identities
    evaluate identically.  The one-degree case of
    :func:`continuous_hahn_rows`.
    """
    return continuous_hahn_rows((n,), x, params)[0]


def hahn_orthogonality_constant(n: int, a1: float, a2: float) -> float:
    """Orthogonality normalization of p_n(x; a1, a2, a2, a1) on the real line
    under the gamma-product weight, for real a1, a2 > 0.  A value past double
    range raises OverflowError, as :func:`gegenbauer_norm` does; at
    a1 = a2 = 1/2 that happens from n = 99 on."""
    n = _check_order(n, "degree")
    _check_decay(a1, "a1")
    _check_decay(a2, "a2")
    s = a1 + a2
    log_val = (math.log(math.pi)
               + log_gamma(2.0 * a1 + n) + log_gamma(2.0 * a2 + n)
               + 2.0 * log_gamma(s + n)
               - log_gamma(n + 1.0) - math.log(n + s - 0.5)
               - log_gamma(2.0 * s + n - 1.0))
    if log_val > _LOG_DBL_MAX:
        raise OverflowError("Hahn orthogonality constant exceeds double range")
    return float(np.exp(log_val))
