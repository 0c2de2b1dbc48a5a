"""The sech-weighted ball-polynomial family on R^r and its Fourier transform.

Composing the ball basis with the coordinate-wise tanh map and attaching
sech powers produces an integrable family on R^r whose Fourier transform has
a closed form: a power of two, Pochhammer prefactors, and one theta factor
per axis.  Each theta factor is a beta function times a terminating 3F2 at
unit argument, and can equivalently be written through a continuous Hahn
polynomial; both routes are implemented and cross-checked.

Transform convention: forward kernel exp(-i xi . x), no 1/(2 pi) prefactor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ball import ball_basis_eval, tail_sum, validate_multi_index
from .classical import continuous_hahn, gegenbauer
from .hypergeometric import hyp3f2_unit
from .special import beta_conjugate, pochhammer

__all__ = [
    "FamilyParams",
    "tanh_ball_map",
    "family_eval",
    "family_eval_peel_first",
    "family_eval_peel_last",
    "family_axis_factor",
    "theta_factor",
    "theta_factor_hahn",
    "axis_parameters",
    "axis_series",
    "fourier_prefactor",
    "fourier_closed_form",
    "fourier_via_recursion",
]

# natural-log scale beyond which the power of two in the closed form is
# declared out of double range
_LOG_SCALE_LIMIT = 700.0


@dataclass(frozen=True)
class FamilyParams:
    """Parameters (a, mu, n) of the family; r is the length of n."""

    a: float
    mu: float
    n: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", validate_multi_index(self.n))
        if not self.a > 0:
            raise ValueError("decay parameter must satisfy a > 0")
        if not self.mu > -0.5 or self.mu == 0.0:
            raise ValueError("weight parameter must satisfy mu > -1/2, mu != 0")

    @property
    def r(self) -> int:
        return len(self.n)


def tanh_ball_map(x):
    """Map x in R^r to the open unit ball: v_j = tanh(x_j) prod_{k<j} sech(x_k)."""
    x = np.asarray(x, dtype=np.float64)
    t = np.tanh(x)
    sech = 1.0 / np.cosh(x)
    prefix = np.ones_like(sech)
    if x.shape[-1] > 1:
        prefix[..., 1:] = np.cumprod(sech[..., :-1], axis=-1)
    return t * prefix


def family_eval(x, params: FamilyParams):
    """Evaluate the family member at point(s) ``x`` of shape (..., r)."""
    x = np.asarray(x, dtype=np.float64)
    r = params.r
    if x.ndim == 0 or x.shape[-1] != r:
        raise ValueError(f"point must have {r} coordinates on its last axis")
    sech2 = 1.0 / np.cosh(x) ** 2
    exponents = params.a + (r - 1 - np.arange(r)) / 4.0
    prefactor = np.prod(sech2 ** exponents, axis=-1)
    return prefactor * ball_basis_eval(params.n, params.mu, tanh_ball_map(x))


def family_eval_peel_first(x, params: FamilyParams):
    """Same value as :func:`family_eval`, built by peeling x_1 recursively."""
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


def family_eval_peel_last(x, params: FamilyParams):
    """Same value as :func:`family_eval`, built by peeling x_r with the
    shifted parameters (a + n_r/2 + 1/4, mu + n_r + 1/2)."""
    x = np.asarray(x, dtype=np.float64)
    r = params.r
    sech2 = 1.0 / np.cosh(x[..., -1]) ** 2
    tail_factor = sech2 ** params.a * gegenbauer(params.n[-1], params.mu, np.tanh(x[..., -1]))
    if r == 1:
        return tail_factor
    nr = params.n[-1]
    rest = FamilyParams(params.a + nr / 2.0 + 0.25, params.mu + nr + 0.5, params.n[:-1])
    return tail_factor * family_eval_peel_last(x[..., :-1], rest)


def family_axis_factor(j: int, params: FamilyParams, x):
    """Axis-j factor of the fully separated form of the family.

    The product of these factors over j = 1..r equals :func:`family_eval`
    (this is the peel-first recursion unrolled); the quadrature oracle uses
    it to evaluate tensor-product integrals one axis at a time.
    """
    r = params.r
    if not 1 <= j <= r:
        raise ValueError("axis index out of range")
    m = tail_sum(params.n, j + 1)
    lam = params.mu + m + (r - j) / 2.0
    x = np.asarray(x, dtype=np.float64)
    sech2 = 1.0 / np.cosh(x) ** 2
    return (sech2 ** (params.a + (r - j) / 4.0 + m / 2.0)
            * gegenbauer(params.n[j - 1], lam, np.tanh(x)))


def axis_parameters(j: int, r: int, n, a: float, mu: float, z):
    """Per-axis parameter algebra of the theta factors and the gamma-pair
    family: ``(m, q, arg_plus, arg_minus, upper2, lower1, lower2)`` with
    m = |n^{j+1}|, q = (r - j)/4, gamma arguments a + (m +- z)/2 + q and the
    3F2(-n_j, upper2, arg_plus; lower1, lower2; 1) parameters.  Theta takes
    z = i xi; the gamma-pair family takes z = x_j, a = a1, mu = a1 + a2 - 1/2.
    """
    if len(n) != r:
        raise ValueError("n must have length r")
    if not 1 <= j <= r:
        raise ValueError("axis index out of range")
    m = tail_sum(n, j + 1)
    q = (r - j) / 4.0
    arg_plus = a + (m + z) / 2.0 + q
    arg_minus = a + (m - z) / 2.0 + q
    upper2 = n[j - 1] + 2.0 * (m + mu + (r - j) / 2.0)
    lower1 = m + mu + (r - j + 1) / 2.0
    lower2 = m + 2.0 * a + (r - j) / 2.0
    return m, q, arg_plus, arg_minus, upper2, lower1, lower2


def axis_series(j: int, r: int, n, a: float, mu: float, z):
    """The per-axis terminating 3F2 at unit argument of the gamma-pair
    family, the same series as in :func:`theta_factor` (which also needs
    m and q for its beta factor): ``(arg_plus, arg_minus, value)``
    with the gamma arguments of :func:`axis_parameters` and the value of
    3F2(-n_j, upper2, arg_plus; lower1, lower2; 1) from :func:`hyp3f2_unit`
    (here s = upper2 - n_j + 1 = 2m + 2mu + r - j + 1 > 0, so the degree
    recurrence)."""
    _, _, arg_plus, arg_minus, upper2, lower1, lower2 = axis_parameters(j, r, n, a, mu, z)
    return arg_plus, arg_minus, hyp3f2_unit(n[j - 1], upper2, arg_plus, lower1, lower2)


def _theta_pieces(j: int, r: int, params: FamilyParams, xi):
    return axis_parameters(j, r, params.n, params.a, params.mu,
                           1j * np.asarray(xi, dtype=np.float64))


def theta_factor(j: int, r: int, params: FamilyParams, xi):
    """Axis-j theta factor: beta factor times terminating 3F2 at unit argument.

    ``xi`` may be a scalar or an array (the transform of axis j is evaluated
    at every entry).  At real ``xi`` the two beta arguments are a conjugate
    pair a + m/2 + q +- i xi/2, so the beta factor is
    :func:`special.beta_conjugate` with one real part for all of ``xi``.
    """
    xi = np.asarray(xi, dtype=np.float64)
    m, q, arg_plus, _, upper2, lower1, lower2 = _theta_pieces(j, r, params, xi)
    series = hyp3f2_unit(params.n[j - 1], upper2, arg_plus, lower1, lower2)
    return beta_conjugate(params.a + m / 2.0 + q, xi / 2.0) * series


def theta_factor_hahn(j: int, r: int, params: FamilyParams, xi):
    """The same theta factor written through a continuous Hahn polynomial
    evaluated at xi/2.  Must agree with :func:`theta_factor`."""
    xi = np.asarray(xi, dtype=np.float64)
    m, q, _, _, _, lower1, lower2 = _theta_pieces(j, r, params, xi)
    nj = params.n[j - 1]
    big_a = params.a + m / 2.0 + q
    big_b = params.mu - params.a + (m + 1.0) / 2.0 + q
    prefactor = math.factorial(nj) / ((1j ** nj)
                                      * pochhammer(complex(lower1), nj)
                                      * pochhammer(complex(lower2), nj))
    hahn = continuous_hahn(nj, xi / 2.0, (big_a, big_b, big_b, big_a))
    return prefactor * beta_conjugate(big_a, xi / 2.0) * hahn


def fourier_prefactor(params: FamilyParams) -> float:
    """Constant multiplying the product of theta factors in the closed form:
    the power of two and the per-axis Pochhammer ratios."""
    r = params.r
    n = params.n
    exponent = 2.0 * r * params.a + r * (r - 5) / 4.0
    exponent += sum((j + 1) * n[j + 1] for j in range(r - 1))
    if exponent * math.log(2.0) > _LOG_SCALE_LIMIT:
        raise OverflowError("closed-form scale exceeds double range")
    value = 2.0 ** exponent
    for j in range(1, r + 1):
        m = tail_sum(n, j + 1)
        value *= (pochhammer(2.0 * (m + params.mu + (r - j) / 2.0), n[j - 1])
                  / math.factorial(n[j - 1]))
    return value


def fourier_closed_form(params: FamilyParams, xi):
    """Closed-form Fourier transform of the family member at frequency ``xi``.

    ``xi`` has shape (..., r): one length-r frequency vector gives a complex
    scalar, a batch of them an array of shape ``xi.shape[:-1]``.  This is
    the default production path; the recursive forms exist for
    cross-validation.
    """
    xi = np.asarray(xi, dtype=np.float64)
    r = params.r
    if xi.ndim == 0 or xi.shape[-1] != r:
        raise ValueError(f"frequency vectors must have length {r} on the last axis")
    value = complex(fourier_prefactor(params))
    for j in range(1, r + 1):
        value = value * theta_factor(j, r, params, xi[..., j - 1])
    return value


def _sech_gegenbauer_transform(a: float, mu: float, nj: int, m: int, k: int, xi_j):
    """Transform at xi_j of the one-axis factor
    sech(x)^(2a + m + k/2) C_nj^(m + mu + k/2)(tanh x): the factor split
    off by peel-first with m = |n^2| and k = r - 1 further axes, and the
    whole r = 1 member (and the peel-last factor) at m = k = 0."""
    ap = a + (m + 1j * xi_j) / 2.0 + k / 4.0
    lam = m + mu + k / 2.0
    series = hyp3f2_unit(nj, nj + 2.0 * lam, ap, m + 2.0 * a + k / 2.0,
                         m + mu + (k + 1) / 2.0)
    return (2.0 ** (m + 2.0 * a + (k - 2) / 2.0) * pochhammer(2.0 * lam, nj)
            / math.factorial(nj) * beta_conjugate(a + m / 2.0 + k / 4.0, xi_j / 2.0)
            * series)


def fourier_via_recursion(params: FamilyParams, xi, mode: str = "peel_first") -> complex:
    """Fourier transform through the one-axis-at-a-time recursions.

    ``mode='peel_first'`` splits off the x_1 integral; ``mode='peel_last'``
    splits off x_r and shifts the remaining parameters to
    (a + n_r/2 + 1/4, mu + n_r + 1/2).  Base case r = 1 is the sech-power
    Gegenbauer transform.
    """
    xi = np.asarray(xi, dtype=np.float64)
    r = params.r
    if xi.shape != (r,):
        raise ValueError(f"frequency vector must have length {r}")
    if mode not in ("peel_first", "peel_last"):
        raise ValueError("mode must be 'peel_first' or 'peel_last'")
    a, mu, n = params.a, params.mu, params.n
    if mode == "peel_first":
        head = _sech_gegenbauer_transform(a, mu, n[0], tail_sum(n, 2), r - 1, xi[0])
        if r == 1:
            return head
        return head * fourier_via_recursion(FamilyParams(a, mu, n[1:]), xi[1:], mode)
    tail_factor = _sech_gegenbauer_transform(a, mu, n[-1], 0, 0, xi[-1])
    if r == 1:
        return tail_factor
    rest = FamilyParams(a + n[-1] / 2.0 + 0.25, mu + n[-1] + 0.5, n[:-1])
    return tail_factor * fourier_via_recursion(rest, xi[:-1], mode)

