"""A biorthogonal family of gamma-pair x 3F2 products on C^r.

Each member is a product over axes of two gamma factors and a terminating
3F2; equivalently, of gamma factors and a continuous Hahn polynomial at
-i x_j / 2.  Pairing a member at +ix against the parameter-swapped member at
-ix over R^r gives a diagonal (multi-Kronecker) orthogonality whose constant
is implemented here in closed form.

The construction couples the ball weight to the decay parameters through
mu = a1 + a2 - 1/2; that value is derived, never passed.  The axis factors
of one axis tail (j, |n^{j+1}|) share their gamma pair and 3F2 ladder
(:func:`d_axis_rows`), as the theta factors do.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

import numpy as np

from .ball import ball_norm, tail_sum, validate_multi_index
from .classical import continuous_hahn
from .special import gamma, gamma_pair, log_gamma, pochhammer
from .tanh_family import _axis_tail, _tail_parameters, axis_ladder

__all__ = [
    "DParams",
    "d_axis_rows",
    "d_axis_factor",
    "d_axis_factor_hahn",
    "d_family_eval",
    "d_family_eval_hahn",
    "d_orthogonality_constant",
]


@dataclass(frozen=True)
class DParams:
    """Parameters (a1, a2, n) with a1, a2 > 0.

    ``mu`` is the coupled ball-weight parameter a1 + a2 - 1/2; a1 + a2 = 1/2
    is rejected because the coupled weight degenerates there.
    """

    a1: float
    a2: float
    n: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", validate_multi_index(self.n))
        if not (self.a1 > 0 and self.a2 > 0):
            raise ValueError("parameters must satisfy a1 > 0 and a2 > 0")
        if self.a1 + self.a2 == 0.5:
            raise ValueError("a1 + a2 = 1/2 is excluded (coupled weight degenerates)")

    @property
    def r(self) -> int:
        return len(self.n)

    @property
    def mu(self) -> float:
        return self.a1 + self.a2 - 0.5


def d_axis_rows(j: int, r: int, m: int, degrees, x_j, a1: float, a2: float):
    """Axis-j factors at tail m = |n^{j+1}| for every n_j in ``degrees``:
    one gamma pair and one 3F2 ladder (:func:`tanh_family.axis_ladder`),
    since neither depends on n_j.  Vectorized in x_j; each entry equals
    the :func:`d_axis_factor` of its degree bit for bit."""
    gplus, gminus, series = axis_ladder(j, r, m, a1, a1 + a2 - 0.5, x_j, degrees)
    pair = gamma_pair(gminus, gplus)
    return [pair * value for value in series]


def d_axis_factor(j: int, r: int, x_j, n, a1: float, a2: float):
    """Axis-j factor: gamma pair times terminating 3F2.  Vectorized in x_j.

    This is the theta factor's 3F2 with the gamma pair in place of the beta
    factor, under a -> a1 and mu -> a1 + a2 - 1/2: the one-degree case of
    :func:`d_axis_rows`, written as one product so that the gamma pair is
    freed before the arguments (on 1e5 points this order halved the page
    faults of a `d_family_eval` call and saved about 6% of its time)."""
    gplus, gminus, (series,) = axis_ladder(j, r, _axis_tail(j, r, n), a1, a1 + a2 - 0.5,
                                           np.asarray(x_j), (n[j - 1],))
    return gamma_pair(gminus, gplus) * series


def d_axis_factor_hahn(j: int, r: int, x_j, n, a1: float, a2: float):
    """Axis-j factor in continuous-Hahn form; must equal :func:`d_axis_factor`."""
    nj = n[j - 1]
    m = _axis_tail(j, r, n)
    q, gplus, gminus, _, lower1, lower2 = _tail_parameters(j, r, m, a1, a1 + a2 - 0.5,
                                                           np.asarray(x_j))
    big_a1 = a1 + m / 2.0 + q
    big_a2 = a2 + m / 2.0 + q
    prefactor = (math.factorial(nj) * (1j ** (-nj))
                 / (pochhammer(complex(lower2), nj) * pochhammer(complex(lower1), nj)))
    hahn = continuous_hahn(nj, -0.5j * np.asarray(x_j),
                           (big_a1, big_a2, big_a2, big_a1))
    return prefactor * gamma(gminus) * gamma(gplus) * hahn


def _eval_product(x, params: DParams, axis_factor):
    x = np.asarray(x)
    r = params.r
    if x.ndim == 0 or x.shape[-1] != r:
        raise ValueError(f"point must have {r} coordinates on its last axis")
    value = None
    for j in range(1, r + 1):
        factor = axis_factor(j, r, x[..., j - 1], params.n, params.a1, params.a2)
        value = factor if value is None else value * factor
    return value


def d_family_eval(x, params: DParams):
    """Evaluate the family member at complex point(s) ``x`` of shape (..., r)."""
    return _eval_product(x, params, d_axis_factor)


def d_family_eval_hahn(x, params: DParams):
    """Hahn-form evaluation; agrees with :func:`d_family_eval` identically."""
    return _eval_product(x, params, d_axis_factor_hahn)


def d_orthogonality_constant(n, a1: float, a2: float) -> float:
    """Diagonal constant of the +ix / -ix parameter-swapped pairing over R^r.
    The duplication formula on Gamma(2s + 2m + r - j) gives its power of two,
    2^(2r(1 - s)) over all axes and 2^-(2m + r - j) on axis j."""
    n = validate_multi_index(n)
    if not (a1 > 0 and a2 > 0):
        raise ValueError("parameters must satisfy a1 > 0 and a2 > 0")
    r = len(n)
    s = a1 + a2
    mu = s - 0.5
    value = (2.0 * math.pi) ** r * 2.0 ** (2 * r - 2.0 * r * s) * ball_norm(n, mu)
    for j in range(1, r + 1):
        nj = n[j - 1]
        m = tail_sum(n, j + 1)
        log_gammas = (log_gamma(m + 2.0 * a1 + (r - j) / 2.0)
                      + log_gamma(m + 2.0 * a2 + (r - j) / 2.0))
        value *= (math.factorial(nj) ** 2 * float(np.exp(log_gammas)) / 2.0 ** (2 * m + r - j)
                  / pochhammer(2.0 * m + 2.0 * s + r - j - 1.0, nj) ** 2)
    return float(value)
