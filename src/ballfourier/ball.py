"""Orthogonal polynomial basis on the unit ball.

The basis is the nested Gegenbauer product: factor j rescales coordinate
x_j by the radius s left over from the first j-1 coordinates.  Only even
powers of s occur, so :func:`ball_basis_eval` runs the Gegenbauer
recurrence in x_j with s^2 in place of the radius: a polynomial in x on the
whole closed ball.  Points are numpy arrays whose last axis has length r;
evaluation broadcasts over any leading batch axes.  :func:`ball_polynomial`
builds a member in rationals, on which :func:`ball_operator_residual`
checks the eigenvalue equation exactly.
"""

from __future__ import annotations

import math
from collections import defaultdict
from functools import partial

import numpy as np

from .classical import _gegenbauer_recurrence
from .errors import DomainError, _check_vectors, _check_weight
from .special import _blockwise, _real_array, log_gamma, pochhammer

__all__ = ["tail_sum", "validate_multi_index", "ball_basis_eval", "ball_norm",
           "ball_polynomial", "ball_operator_residual"]

# ||x|| may exceed 1 by this much before a point is rejected (roundoff slack).
_NORM_SLACK = 1e-12


def validate_multi_index(n) -> tuple[int, ...]:
    """Coerce to a tuple of nonnegative ints (one entry per coordinate)."""
    entries = tuple(int(v) for v in n)
    if len(entries) == 0:
        raise ValueError("multi-index must have at least one entry")
    if any(v < 0 or v != w for v, w in zip(entries, n)):
        raise ValueError("multi-index entries must be nonnegative integers")
    return entries


def _index_list(indices) -> list[tuple[int, ...]]:
    """Validate a non-empty list of multi-indices of one common length r."""
    indices = [validate_multi_index(ix) for ix in indices]
    if not indices:
        raise ValueError("an empty list has no dimension r")
    if any(len(ix) != len(indices[0]) for ix in indices):
        raise ValueError("all multi-indices must have equal length")
    return indices


def tail_sum(n, j: int) -> int:
    """|n^j| = n_j + ... + n_r for 1-based j; j = r+1 gives 0."""
    return int(sum(n[j - 1:]))


def _axis_lambda(j: int, r: int, m: int, mu: float) -> float:
    """lambda_j = mu + m + (r - j)/2, the Gegenbauer parameter of axis j at
    tail m = |n^{j+1}|, of the ball basis and of the tanh family alike."""
    return mu + m + (r - j) / 2.0


def _axis_parameters(j: int, r: int, m: int, a: float, mu: float):
    """(q, p, lambda, s, lower1, lower2) of axis j at tail m = |n^{j+1}| of
    the tanh family (a, mu), or of the gamma-pair family (a1, mu =
    a1 + a2 - 1/2): q = (r - j)/4, the sech^2 power p = a + m/2 + q, and the
    3F2(-n_j, n_j + s - 1, a + (m + z)/2 + q; lower1, lower2; 1) parameters
    s = 2 lambda + 1, lower1 = lambda + 1/2, lower2 = 2a + m + (r - j)/2.
    It sits below every family in the import graph, so all read this map."""
    q = (r - j) / 4.0
    lam = _axis_lambda(j, r, m, mu)
    return (q, a + m / 2.0 + q, lam, 2.0 * lam + 1.0, m + mu + (r - j + 1) / 2.0,
            m + 2.0 * a + (r - j) / 2.0)


def ball_basis_eval(n, mu: float, x):
    """Evaluate the ball basis polynomial indexed by ``n`` at point(s) ``x``.

    ``x`` has shape (..., r).  Axis j contributes s^{n_j} C_{n_j}^{lambda_j}
    (x_j / s), s^2 = 1 - |x_{<j}|^2, from the Gegenbauer recurrence with its
    degree k - 2 term scaled by s^2: a polynomial in x and s^2, right up to
    the sphere.  The columns x[..., j] run per block
    (:func:`special._blockwise`); a single point (shape (r,)) runs on
    Python floats and keeps its batch entry's bits.  Points with
    ||x|| > 1 + 1e-12 raise :class:`DomainError`.
    """
    n = validate_multi_index(n)
    mu = _check_weight(mu, "mu")
    r = len(n)
    x = _check_vectors(_real_array(x, "x"), r, "x")
    return _blockwise(partial(_ball_block, n, mu), *(x[..., j] for j in range(r)))[0]


def _ball_block(n, mu: float, *coords):
    """:func:`ball_basis_eval` of one block of points, from their
    coordinates: arrays or, for a single point, Python floats."""
    # |x|^2 summed in axis order, as np.sum over the last axis does
    norm2 = coords[0] * coords[0]
    for xj in coords[1:]:
        norm2 = norm2 + xj * xj
    if np.any(np.sqrt(norm2) > 1.0 + _NORM_SLACK):
        raise DomainError("point lies outside the closed unit ball")
    r = len(n)
    value = s2 = 1.0
    for j, (nj, xj) in enumerate(zip(n, coords), start=1):
        if nj:
            lam = _axis_lambda(j, r, tail_sum(n, j + 1), mu)
            value = value * _gegenbauer_recurrence(nj, lam, xj, 1.0, 2.0 * lam * xj, s2)
        s2 = s2 - xj * xj
    if isinstance(value, np.ndarray):
        return (value,)
    return (np.float64(value) if isinstance(coords[0], float) else np.full(coords[0].shape, value),)


def ball_norm(n, mu: float) -> float:
    """Squared L2 norm of the basis polynomial under the ball weight.

    Gamma factors are combined in log space; the Pochhammer products are
    formed directly (their bases may be negative for mu in (-1/2, 0), and the
    signs cancel against each other).  A product that leaves double range
    raises OverflowError, as :func:`special.pochhammer` does; for mu in
    [1/2, 3] and r <= 3 that happens from total degree 95-99 on.
    """
    n = validate_multi_index(n)
    mu = _check_weight(mu, "mu")
    r = len(n)
    nn = sum(n)
    log_part = (0.5 * r * math.log(math.pi) + log_gamma(mu + 0.5)
                - log_gamma(mu + 0.5 * (r + 1) + nn))
    value = float(np.exp(log_part)) * pochhammer(mu + 0.5 * r, nn)
    for j in range(1, r + 1):
        nj = n[j - 1]
        tj = tail_sum(n, j)
        tj1 = tail_sum(n, j + 1)
        upper = pochhammer(mu + 0.5 * (r - j), tj) * pochhammer(2.0 * mu + 2.0 * tj1 + r - j, nj)
        lower = math.factorial(nj) * pochhammer(mu + 0.5 * (r - j + 1), tj)
        if not (math.isfinite(upper) and math.isfinite(lower)):
            raise OverflowError("ball norm product exceeds double range")
        value *= upper / lower
    if not math.isfinite(value):
        raise OverflowError("ball norm exceeds double range")
    return float(value)


def ball_polynomial(n, mu: float) -> dict:
    """The basis polynomial ``n`` as ``{exponents: Fraction}``, exact (a float
    mu is a dyadic rational).  Axis j contributes s^{n_j} C_{n_j}^{lambda_j}
    (x_j / s), s^2 = 1 - |x_{<j}|^2, from C_n^lambda(t) = sum_k (-1)^k
    (lambda)_{n-k} (2t)^{n-2k} / (k! (n-2k)!): only even powers of s occur."""
    from fractions import Fraction

    n = validate_multi_index(n)
    mu, r = Fraction(_check_weight(mu, "mu")), len(n)
    poly = {(0,) * r: Fraction(1)}
    for j in range(1, r + 1):
        nj, lam = n[j - 1], mu + tail_sum(n, j + 1) + Fraction(r - j, 2)
        product, power = defaultdict(int), poly  # power = poly * s^(2k)
        for k in range(nj // 2 + 1):
            coeff = Fraction((-1) ** k * 2 ** (nj - 2 * k),
                             math.factorial(k) * math.factorial(nj - 2 * k))
            coeff *= math.prod(lam + i for i in range(nj - k))
            following = defaultdict(int, power)
            for alpha, c in power.items():
                product[_shift(alpha, j - 1, nj - 2 * k)] += coeff * c
                for i in range(j - 1):
                    following[_shift(alpha, i, 2)] -= c
            power = following
        poly = {alpha: c for alpha, c in product.items() if c}
    return poly


def _shift(alpha, i: int, k: int) -> tuple[int, ...]:
    """The exponents of x^alpha times x_i^k (0-based i)."""
    return alpha[:i] + (alpha[i] + k,) + alpha[i + 1:]


def ball_operator_residual(n, mu: float) -> float:
    """Largest |coefficient| of L P + (|n| + r)(|n| + 2 mu - 1) P for the
    member P = :func:`ball_polynomial`, exactly 0 for an eigenfunction.  L is
    applied as displayed, monomial by monomial, in rational arithmetic: a
    Laplacian minus the divergence of x_j (2 mu - 1 + x . grad)."""
    from fractions import Fraction

    n = validate_multi_index(n)
    r, nn, drift = len(n), sum(n), 2 * Fraction(_check_weight(mu, "mu")) - 1
    image = defaultdict(int)
    for alpha, c in ball_polynomial(n, mu).items():
        # x . grad x^alpha = |alpha| x^alpha; times x_j, d/dx_j gives alpha_j + 1
        divergence = (drift + sum(alpha)) * sum(a + 1 for a in alpha)
        image[alpha] += c * ((nn + r) * (nn + drift) - divergence)
        for i, a in enumerate(alpha):
            if a >= 2:
                image[_shift(alpha, i, -2)] += c * a * (a - 1)
    return float(max(abs(c) for c in image.values()))


def _polynomial_value(poly: dict, x) -> float:
    """``poly`` at the float point ``x``, exact up to the final rounding."""
    from fractions import Fraction

    x = [Fraction(float(v)) for v in x]
    return float(sum(c * math.prod(v ** a for v, a in zip(x, alpha)) for alpha, c in poly.items()))
