"""A biorthogonal family of gamma-pair x 3F2 products on C^r.

Each member is a product over axes of two gamma factors and a terminating
3F2; equivalently, of gamma factors and a continuous Hahn polynomial at
-i x_j / 2.  The library evaluates the 3F2 form; the tests check it against
the Hahn form.  Pairing a member at +ix against the parameter-swapped
member at -ix over R^r gives a diagonal (multi-Kronecker) orthogonality
whose constant is implemented here in closed form.

The construction couples the ball weight to the decay parameters through
mu = a1 + a2 - 1/2; that value is derived, never passed.  The axis factors
of one axis tail (j, |n^{j+1}|) share their gamma pair and 3F2 ladder
(:func:`d_axis_rows`), as the theta factors do.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

import numpy as np

from .ball import _axis_parameters, ball_norm, tail_sum, validate_multi_index
from .errors import _check_decay, _check_vectors
from .special import _LOG_DBL_MAX, _blockwise, _number, gamma_pair, log_gamma, pochhammer
from .tanh_family import _axis_tail, axis_ladder

__all__ = [
    "DParams",
    "d_axis_rows",
    "d_axis_factor",
    "d_family_eval",
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
        _check_decay(self.a1, "a1")
        _check_decay(self.a2, "a2")
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
    _, gplus, gminus, series = axis_ladder(j, r, m, a1, a1 + a2 - 0.5, x_j, degrees)
    pair = gamma_pair(gminus, gplus)
    return [pair * value for value in series]


def d_axis_factor(j: int, r: int, x_j, n, a1: float, a2: float):
    """Axis-j factor: gamma pair times terminating 3F2.  Vectorized in x_j.

    This is the theta factor's 3F2 with the gamma pair in place of the beta
    factor, under a -> a1 and mu -> a1 + a2 - 1/2: the one-degree case of
    :func:`d_axis_rows`.  A 0-d ``x_j`` runs as a Python number."""
    z = _number(x_j)
    return d_axis_rows(j, r, _axis_tail(j, r, n), (n[j - 1],),
                       np.asarray(x_j) if z is None else z, a1, a2)[0]


def d_family_eval(x, params: DParams):
    """Evaluate the family member at complex point(s) ``x`` of shape (..., r):
    the product of the :func:`d_axis_factor` values over the columns
    x[..., j], in axis order.  A complex batch runs per block
    (:func:`special._blockwise`).  A single point runs on its coordinates
    as Python numbers, and a real ``x`` runs unblocked, because the gamma
    pair of each axis chooses its real or complex route over the whole
    batch."""
    x = _check_vectors(np.asarray(x), params.r, "x")
    r = params.r

    def product(*columns):
        value = None
        for j, xj in enumerate(columns, start=1):
            factor = d_axis_factor(j, r, xj, params.n, params.a1, params.a2)
            value = factor if value is None else value * factor
        return (value,)

    if x.ndim == 1:
        return product(*x.tolist())[0]
    columns = [x[..., j] for j in range(r)]
    if not np.iscomplexobj(x):
        return product(*columns)[0]
    return _blockwise(product, *columns)[0]


def d_orthogonality_constant(n, a1: float, a2: float) -> float:
    """Diagonal constant of the +ix / -ix parameter-swapped pairing over R^r.
    The duplication formula on Gamma(2s + 2m + r - j) gives its power of two,
    2^(2r(1 - s)) over all axes and 2^-(2m + r - j) on axis j.  An axis
    whose two gamma factors pass double range together raises
    OverflowError, as :func:`classical.hahn_orthogonality_constant` does;
    at n = (0,) and a1 = a2 that happens from about 49.54 on."""
    n = validate_multi_index(n)
    _check_decay(a1, "a1")
    _check_decay(a2, "a2")
    r = len(n)
    s = a1 + a2
    mu = s - 0.5
    value = (2.0 * math.pi) ** r * 2.0 ** (2 * r - 2.0 * r * s) * ball_norm(n, mu)
    for j in range(1, r + 1):
        nj = n[j - 1]
        m = tail_sum(n, j + 1)
        log_gammas = (log_gamma(_axis_parameters(j, r, m, a1, mu)[5])
                      + log_gamma(_axis_parameters(j, r, m, a2, mu)[5]))
        if log_gammas > _LOG_DBL_MAX:
            raise OverflowError("D-family orthogonality constant exceeds double range")
        value *= (math.factorial(nj) ** 2 * float(np.exp(log_gammas)) / 2.0 ** (2 * m + r - j)
                  / pochhammer(2.0 * m + 2.0 * s + r - j - 1.0, nj) ** 2)
    return float(value)
