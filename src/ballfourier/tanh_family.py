"""The sech-weighted ball-polynomial family on R^r and its Fourier transform.

Composing the ball basis with the coordinate-wise tanh map and attaching
sech powers produces an integrable family on R^r whose Fourier transform has
a closed form: a power of two, Pochhammer prefactors, and one theta factor
per axis.  Each theta factor is a beta function times a terminating 3F2 at
unit argument, and can equivalently be written through a continuous Hahn
polynomial; both routes are implemented and cross-checked.  Every axis
factor of the library (theta, the oracle's integrands, the ball basis in
nested-radius coordinates, the gamma-pair family) depends on the member
only through its axis key (j, n_j, |n^{j+1}|), and its parameters only
through the axis tail (j, |n^{j+1}|).  :func:`_axis_table` is the one place
where keys are grouped by tail; every separable route takes each key's
factor from it once per rule.  :func:`axis_ladder` forms the 3F2
parameters once per tail and runs one degree ladder for every n_j, and
:func:`_gegenbauer_factor` is the keyed x-side factor.  So a table of
transforms (:func:`fourier_closed_form_table`) runs one beta factor and
one ladder per axis tail; a single member is the one-index table and
:func:`theta_factor` the one-degree ladder.

Transform convention: forward kernel exp(-i xi . x), no 1/(2 pi) prefactor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .ball import _index_list, tail_sum, validate_multi_index
from .classical import continuous_hahn, gegenbauer
from .hypergeometric import hyp3f2_ladder, hyp3f2_unit
from .special import _blockwise, beta_conjugate, pochhammer

__all__ = [
    "FamilyParams",
    "tanh_ball_map",
    "family_eval",
    "family_eval_peel_first",
    "family_eval_peel_last",
    "family_axis_factor",
    "theta_factor",
    "theta_factor_hahn",
    "axis_ladder",
    "fourier_prefactor",
    "fourier_closed_form",
    "fourier_closed_form_table",
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
    """Evaluate the family member at point(s) ``x`` of shape (..., r): the
    product, in axis order, of the :func:`family_axis_factor` values
    sech^2(x_j)^{p_j} C_{n_j}^{lambda_j}(tanh x_j).  It equals the sech
    powers times the ball basis at :func:`tanh_ball_map`, without that
    form's 1 - |v_{<j}|^2, which cancels as tanh x_j -> 1.  The rows
    x.reshape(-1, r) run per block (:func:`special._blockwise`), so a single
    point keeps its batch entry's bits; it comes back as a scalar."""
    x = np.asarray(x, dtype=np.float64)
    r = params.r
    if x.ndim == 0 or x.shape[-1] != r:
        raise ValueError(f"point must have {r} coordinates on its last axis")
    values = _blockwise(partial(_axis_product, params), *x.reshape(-1, r).T)[0]
    return values.reshape(x.shape[:-1])[()]


def _axis_product(params: FamilyParams, *columns):
    """:func:`family_eval` of one block, from the point coordinates."""
    value = family_axis_factor(1, params, columns[0])
    for j in range(2, params.r + 1):
        value *= family_axis_factor(j, params, columns[j - 1])
    return (value,)


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
    """Axis-j factor of the fully separated form of the family: the
    member's axis-j :func:`_gegenbauer_factor` at t = tanh x with the weight
    sech^2 x, the factor the Fourier oracle integrates.  :func:`family_eval`
    is the product of these factors over j = 1..r, in axis order (the
    peel-first recursion unrolled).
    """
    r = params.r
    if not 1 <= j <= r:
        raise ValueError("axis index out of range")
    key = _axis_keys(params.n)[j - 1]
    x = np.asarray(x, dtype=np.float64)
    return _gegenbauer_factor(key, r, params.mu, 1.0 / np.cosh(x) ** 2,
                              _sech_power(key, r, params.a), np.tanh(x))


def _sech_power(key, r: int, a: float) -> float:
    """a + (r - j)/4 + m/2, the power of sech^2 x of the axis key (j, n_j, m)."""
    j, _, m = key
    return a + (r - j) / 4.0 + m / 2.0


def _gegenbauer_factor(key, r: int, mu: float, weight, power, t):
    """weight^power * C_{n_j}^{lambda_j}(t) of the axis key (j, n_j, m),
    lambda_j = mu + m + (r - j)/2: the x-side axis factor of the family and
    (weight 1 - t^2, power m/2) of the ball basis in nested-radius
    coordinates."""
    j, nj, m = key
    return weight ** power * gegenbauer(nj, mu + m + (r - j) / 2.0, t)


def _axis_tail(j: int, r: int, n) -> int:
    """m = |n^{j+1}| of axis j, after checking that j is an axis of ``n``."""
    if len(n) != r:
        raise ValueError("n must have length r")
    if not 1 <= j <= r:
        raise ValueError("axis index out of range")
    return tail_sum(n, j + 1)


def _tail_parameters(j: int, r: int, m: int, a: float, mu: float, z):
    """(q, arg_plus, arg_minus, s, lower1, lower2) of axis j at tail
    m = |n^{j+1}|: q = (r - j)/4, the gamma arguments a + (m +- z)/2 + q
    and the 3F2(-n_j, n_j + s - 1, arg_plus; lower1, lower2; 1) parameters,
    with s = 2(m + mu + (r - j)/2) + 1 > 0.  None depends on n_j."""
    q = (r - j) / 4.0
    arg_plus = a + (m + z) / 2.0 + q
    arg_minus = a + (m - z) / 2.0 + q
    s = 2.0 * (m + mu + (r - j) / 2.0) + 1.0
    lower1 = m + mu + (r - j + 1) / 2.0
    lower2 = m + 2.0 * a + (r - j) / 2.0
    return q, arg_plus, arg_minus, s, lower1, lower2


def axis_ladder(j: int, r: int, m: int, a: float, mu: float, z, degrees):
    """The per-axis 3F2 of axis j at tail m = |n^{j+1}| for every n_j in
    ``degrees``, from one degree recurrence (:func:`hyp3f2_ladder`):
    ``(arg_plus, arg_minus, values)``.  The parameters s, lower1, lower2
    and the gamma arguments a + (m +- z)/2 + q depend on (j, m) only, so
    one ladder serves every member sharing that axis tail.  Theta takes
    z = i xi; the gamma-pair family takes z = x_j, a = a1 and
    mu = a1 + a2 - 1/2."""
    _, arg_plus, arg_minus, s, lower1, lower2 = _tail_parameters(j, r, m, a, mu, z)
    return arg_plus, arg_minus, hyp3f2_ladder(degrees, s, arg_plus, lower1, lower2)


def _theta_rows(j: int, r: int, m: int, degrees, a: float, mu: float, xi):
    """Theta factors of axis j at tail m for every n_j in ``degrees`` at the
    frequencies ``xi``: one beta factor and one 3F2 ladder."""
    _, _, series = axis_ladder(j, r, m, a, mu, 1j * xi, degrees)
    beta = beta_conjugate(a + m / 2.0 + (r - j) / 4.0, xi / 2.0)
    return [beta * value for value in series]


def theta_factor(j: int, r: int, params: FamilyParams, xi):
    """Axis-j theta factor: beta factor times terminating 3F2 at unit argument.

    ``xi`` may be a scalar or an array (the transform of axis j is evaluated
    at every entry, per block of :func:`special._blockwise`).  At real
    ``xi`` the two beta arguments are a conjugate pair a + m/2 + q +- i xi/2,
    so the beta factor is :func:`special.beta_conjugate` with one real part
    for all of ``xi``.
    """
    xi = np.asarray(xi, dtype=np.float64)
    m = _axis_tail(j, r, params.n)
    rows = partial(_theta_rows, j, r, m, (params.n[j - 1],), params.a, params.mu)
    # a 0-d xi stays a 0-d array; a batch runs per block
    return (rows(xi) if xi.ndim == 0 else _blockwise(rows, xi))[0]


def theta_factor_hahn(j: int, r: int, params: FamilyParams, xi):
    """The same theta factor written through a continuous Hahn polynomial
    evaluated at xi/2.  Must agree with :func:`theta_factor`."""
    xi = np.asarray(xi, dtype=np.float64)
    m = _axis_tail(j, r, params.n)
    q, _, _, _, lower1, lower2 = _tail_parameters(j, r, m, params.a, params.mu, 1j * xi)
    nj = params.n[j - 1]
    big_a = params.a + m / 2.0 + q
    big_b = params.mu - params.a + (m + 1.0) / 2.0 + q
    prefactor = math.factorial(nj) / ((1j ** nj)
                                      * pochhammer(complex(lower1), nj)
                                      * pochhammer(complex(lower2), nj))
    hahn = continuous_hahn(nj, xi / 2.0, (big_a, big_b, big_b, big_a))
    return prefactor * beta_conjugate(big_a, xi / 2.0) * hahn


def _axis_keys(n) -> list[tuple[int, int, int]]:
    """The axis keys (j, n_j, |n^{j+1}|) of the multi-index ``n``, in axis
    order: the axis-j factor of a member (closed form, oracle or gamma-pair
    family) depends on the member only through its key."""
    return [(j, n[j - 1], tail_sum(n, j + 1)) for j in range(1, len(n) + 1)]


def _pochhammer_ratio(key, r: int, mu: float) -> float:
    """(2(m + mu + (r - j)/2))_{n_j} / n_j! of the axis key (j, n_j, m)."""
    j, nj, m = key
    return pochhammer(2.0 * (m + mu + (r - j) / 2.0), nj) / math.factorial(nj)


def _prefactor(params: FamilyParams, ratios) -> float:
    """The power of two times the per-axis ``ratios`` (axis order)."""
    r = params.r
    n = params.n
    exponent = 2.0 * r * params.a + r * (r - 5) / 4.0
    exponent += sum((j + 1) * n[j + 1] for j in range(r - 1))
    if exponent * math.log(2.0) > _LOG_SCALE_LIMIT:
        raise OverflowError("closed-form scale exceeds double range")
    value = 2.0 ** exponent
    for ratio in ratios:
        value *= ratio
    return value


def fourier_prefactor(params: FamilyParams) -> float:
    """Constant multiplying the product of theta factors in the closed form:
    the power of two and the per-axis Pochhammer ratios."""
    return _prefactor(params, [_pochhammer_ratio(key, params.r, params.mu)
                               for key in _axis_keys(params.n)])


def _frequency_vectors(xi, r: int) -> np.ndarray:
    """``xi`` as a float array of length-r frequency vectors, shape (..., r)."""
    xi = np.asarray(xi, dtype=np.float64)
    if xi.ndim == 0 or xi.shape[-1] != r:
        raise ValueError(f"frequency vectors must have length {r} on the last axis")
    return xi


def _axis_product_table(member_keys, shape, heads, factors):
    """Rows head * f_1 * ... * f_r of shape ``shape``, one per entry of
    ``member_keys`` (each member's :func:`_axis_keys`), from ``factors``,
    one per distinct axis key.  Each row multiplies in axis order, as a
    one-member table does, so batching changes no bit."""
    out = np.empty((len(member_keys),) + shape, dtype=np.complex128)
    for p, (value, keys) in enumerate(zip(heads, member_keys)):
        for key in keys:
            value = value * factors[key]
        out[p] = value
    return out


def _axis_table(member_keys, tail_rows) -> dict:
    """The factor of every axis key among ``member_keys`` (each member's
    :func:`_axis_keys`), the one place where keys are grouped by axis tail.
    The tails (j, m) are taken in order of first appearance, and
    ``tail_rows(j, m, degrees)`` is called once per tail for the factors
    of its degrees n_j, in order."""
    tails = {}
    for keys in member_keys:
        for j, nj, m in keys:
            tails.setdefault((j, m), {})[nj] = None
    factors = {}
    for (j, m), degrees in tails.items():
        degrees = tuple(degrees)
        factors.update(((j, nj, m), row) for nj, row in zip(degrees, tail_rows(j, m, degrees)))
    return factors


def _closed_form_table(members, xi):
    """Closed form of each member of ``members`` (parameters sharing a, mu
    and r) at the frequency vectors ``xi``, shape (len(members),) +
    xi.shape[:-1].  Per axis tail one beta factor and one 3F2 ladder give
    the theta rows on the distinct entries of the column xi[..., j - 1]
    (a single vector stays 0-d); the Pochhammer ratios are per axis key."""
    r, a, mu = members[0].r, members[0].a, members[0].mu
    xi = _frequency_vectors(xi, r)
    member_keys = [_axis_keys(params.n) for params in members]
    shape = xi.shape[:-1]
    if shape:
        columns = [np.unique(xi[..., j].reshape(-1), return_inverse=True) for j in range(r)]

    def theta_rows(j, m, degrees):
        if not shape:
            return _theta_rows(j, r, m, degrees, a, mu, xi[j - 1])
        distinct, inverse = columns[j - 1]
        return [row[inverse].reshape(shape)
                for row in _theta_rows(j, r, m, degrees, a, mu, distinct)]

    factors = _axis_table(member_keys, theta_rows)
    ratios = {key: _pochhammer_ratio(key, r, mu) for key in factors}
    heads = [complex(_prefactor(params, [ratios[key] for key in keys]))
             for params, keys in zip(members, member_keys)]
    return _axis_product_table(member_keys, shape, heads, factors)


def fourier_closed_form(params: FamilyParams, xi):
    """Closed-form Fourier transform of the family member at frequency ``xi``.

    ``xi`` has shape (..., r): one length-r frequency vector gives a complex
    scalar, a batch of them an array of shape ``xi.shape[:-1]``.  This is
    the default production path, the one-member case of
    :func:`fourier_closed_form_table`; the recursive forms exist for
    cross-validation.
    """
    return _closed_form_table([params], xi)[0]


def fourier_closed_form_table(indices, a: float, mu: float, xi):
    """Closed-form transforms of the members ``indices`` (multi-indices of
    one length r) with parameters (a, mu) at the frequency vectors ``xi``
    of shape (..., r): an array of shape (len(indices),) + xi.shape[:-1]
    whose row p is :func:`fourier_closed_form` of indices[p], bit for bit.
    Each theta factor is evaluated once per distinct axis key
    (j, n_j, |n^{j+1}|), so the cost grows with the number of keys, not
    with the number of indices; each axis tail (j, |n^{j+1}|) runs one
    3F2 ladder for all its degrees n_j."""
    return _closed_form_table([FamilyParams(a, mu, n) for n in _index_list(indices)], xi)


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

