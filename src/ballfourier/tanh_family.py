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
through the axis tail (j, |n^{j+1}|), all from :func:`ball._axis_parameters`.
The family itself is evaluated one way, :func:`family_eval`, the product of
those axis factors.  Its recursive evaluations, which peel off x_1 or x_r,
are cross-checks kept with the tests; the x_r one is the integrand of the
tests' dense Fourier grid.
:func:`_axis_table` is the one place where keys are grouped by tail.
:func:`axis_ladder` runs one 3F2 degree ladder per tail for every n_j, and
:func:`_x_factor` is the keyed x-side factor.  :func:`_frequency_table`
builds the closed form (:func:`fourier_closed_form_table`: one beta factor
and one ladder per tail) and the separated Fourier oracle alike; a single
member is the one-index table and :func:`theta_factor` the one-degree
ladder.

Transform convention: forward kernel exp(-i xi . x), no 1/(2 pi) prefactor.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from .ball import _axis_lambda, _axis_parameters, _index_list, tail_sum, validate_multi_index
from .classical import continuous_hahn, gegenbauer
from .errors import _check_decay, _check_vectors, _check_weight
from .hypergeometric import hyp3f2_ladder, hyp3f2_unit
from .special import _blockwise, _real_array, beta_conjugate, pochhammer

__all__ = [
    "FamilyParams",
    "family_eval",
    "family_axis_factor",
    "theta_factor",
    "theta_factor_hahn",
    "axis_ladder",
    "fourier_prefactor",
    "fourier_closed_form",
    "fourier_closed_form_table",
    "fourier_via_recursion",
]

@dataclass(frozen=True)
class FamilyParams:
    """Parameters (a, mu, n) of the family; r is the length of n."""

    a: float
    mu: float
    n: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", validate_multi_index(self.n))
        _check_decay(self.a, "a")
        _check_weight(self.mu, "mu")

    @property
    def r(self) -> int:
        return len(self.n)


def family_eval(x, params: FamilyParams):
    """Evaluate the family member at point(s) ``x`` of shape (..., r): the
    product, in axis order, of the :func:`family_axis_factor` values
    sech^2(x_j)^{p_j} C_{n_j}^{lambda_j}(tanh x_j).  It equals the sech
    powers times the ball basis at the tanh-mapped point v_j = tanh(x_j)
    prod_{k<j} sech(x_k), without that form's 1 - |v_{<j}|^2, which
    cancels as tanh x_j -> 1.  The rows
    x.reshape(-1, r) run per block (:func:`special._blockwise`).  A single
    point is a block of one row, whose Gegenbauer recurrences run on
    Python floats (:func:`family_axis_factor`), and keeps its batch entry's
    bits; it comes back as a scalar."""
    x = _check_vectors(_real_array(x, "x"), params.r, "x")
    r = params.r
    values = _blockwise(partial(_axis_product, params), *x.reshape(-1, r).T)[0]
    return values.reshape(x.shape[:-1])[()]


def _axis_product(params: FamilyParams, *columns):
    """:func:`family_eval` of one block, from the point coordinates."""
    value = family_axis_factor(1, params, columns[0])
    for j in range(2, params.r + 1):
        value *= family_axis_factor(j, params, columns[j - 1])
    return (value,)


def family_axis_factor(j: int, params: FamilyParams, x):
    """Axis-j factor of the fully separated form of the family: the
    member's axis-j :func:`_x_factor` at t = tanh x, the factor the Fourier
    oracle integrates.  :func:`family_eval` is the product of these factors
    over j = 1..r, in axis order (the peel-first recursion unrolled).
    """
    r = params.r
    m = _axis_tail(j, r, params.n)
    x = _real_array(x, "x")
    t = np.tanh(x)
    # a single point runs the Gegenbauer recurrence on a Python float; only
    # the sech^2 power stays on its one-entry array, as in a batch, since
    # numpy's power of an array and of a scalar can round apart
    return _x_factor((j, params.n[j - 1], m), r, params.a, params.mu, 1.0 / np.cosh(x) ** 2,
                     t.item() if t.size == 1 else t)


def _x_factor(key, r: int, a: float, mu: float, sech2, t):
    """The x-side factor sech2^p * C_{n_j}^lambda(t) of the axis key
    (j, n_j, m) at t = tanh x, sech2 = sech^2 x."""
    j, nj, m = key
    _, p, lam, *_ = _axis_parameters(j, r, m, a, mu)
    return sech2 ** p * gegenbauer(nj, lam, t)


def _axis_tail(j: int, r: int, n) -> int:
    """m = |n^{j+1}| of axis j, after checking that j is an axis of ``n``."""
    if len(n) != r:
        raise ValueError("n must have length r")
    if not 1 <= j <= r:
        raise ValueError("axis index out of range")
    return tail_sum(n, j + 1)


def axis_ladder(j: int, r: int, m: int, a: float, mu: float, z, degrees):
    """The per-axis 3F2 of axis j at tail m = |n^{j+1}| for every n_j in
    ``degrees``, from one degree recurrence (:func:`hyp3f2_ladder`):
    ``(p, arg_plus, arg_minus, values)``.  The sech^2 power p, the
    parameters s, lower1, lower2 (:func:`_axis_parameters`) and the gamma
    arguments a + (m +- z)/2 + q depend on (j, m) only, so one ladder
    serves every member sharing that axis tail.  Theta takes z = i xi; the
    gamma-pair family takes z = x_j, a = a1 and mu = a1 + a2 - 1/2."""
    q, p, _, s, lower1, lower2 = _axis_parameters(j, r, m, a, mu)
    arg_plus = a + (m + z) / 2.0 + q
    arg_minus = a + (m - z) / 2.0 + q
    return p, arg_plus, arg_minus, hyp3f2_ladder(degrees, s, arg_plus, lower1, lower2)


def _theta_rows(r: int, a: float, mu: float, j: int, m: int, degrees, xi):
    """Theta factors of axis j at tail m for every n_j in ``degrees`` at the
    frequencies ``xi``: one beta factor and one 3F2 ladder."""
    p, _, _, series = axis_ladder(j, r, m, a, mu, 1j * xi, degrees)
    beta = beta_conjugate(p, xi / 2.0)
    return [beta * value for value in series]


def theta_factor(j: int, r: int, params: FamilyParams, xi):
    """Axis-j theta factor: beta factor times terminating 3F2 at unit argument.

    ``xi`` may be a scalar or an array (the transform of axis j is evaluated
    at every entry, per block of :func:`special._blockwise`).  At real
    ``xi`` the two beta arguments are a conjugate pair a + m/2 + q +- i xi/2,
    so the beta factor is :func:`special.beta_conjugate` with one real part
    for all of ``xi``.
    """
    xi = _real_array(xi, "xi")
    m = _axis_tail(j, r, params.n)
    rows = partial(_theta_rows, r, params.a, params.mu, j, m, (params.n[j - 1],))
    # a 0-d xi reaches the rows as a Python float, a batch per block
    return _blockwise(rows, xi)[0]


def theta_factor_hahn(j: int, r: int, params: FamilyParams, xi):
    """The same theta factor written through a continuous Hahn polynomial
    evaluated at xi/2.  Must agree with :func:`theta_factor`."""
    xi = _real_array(xi, "xi")
    m = _axis_tail(j, r, params.n)
    q, big_a, _, _, lower1, lower2 = _axis_parameters(j, r, m, params.a, params.mu)
    nj = params.n[j - 1]
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


def fourier_prefactor(params: FamilyParams) -> float:
    """Constant multiplying the product of theta factors in the closed form:
    the power of two, refused from 2^1024 on, times the per-axis Pochhammer
    ratios (2 lambda_j)_{n_j} / n_j! in axis order."""
    r, a, mu, n = params.r, params.a, params.mu, params.n
    exponent = 2.0 * r * a + r * (r - 5) / 4.0
    exponent += sum((j + 1) * n[j + 1] for j in range(r - 1))
    if exponent >= sys.float_info.max_exp:
        raise OverflowError("closed-form scale exceeds double range")
    value = 2.0 ** exponent
    m = sum(n)
    for j, nj in enumerate(n, start=1):
        m -= nj  # the tail |n^{j+1}|
        value *= pochhammer(2.0 * _axis_lambda(j, r, m, mu), nj) / math.factorial(nj)
    return value


def _frequency_vectors(xi, r: int) -> np.ndarray:
    """``xi`` as a float array of length-r frequency vectors, shape (..., r)."""
    return _check_vectors(_real_array(xi, "xi"), r, "xi")


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


def _frequency_table(members, xi, tail_rows, head):
    """Rows head(params) * f_1 * ... * f_r of ``members`` (sharing r) at
    the frequency vectors ``xi``, a float array of shape (..., r) checked
    by :func:`_frequency_vectors`: the result has shape
    (len(members),) + xi.shape[:-1].
    ``tail_rows(j, m, degrees, column)`` gives the factors of the tail
    (j, m) on the distinct entries of xi[..., j - 1], or on a single
    vector's entry as a Python float.  Each row multiplies in axis order,
    as a one-member table does, so batching changes no bit."""
    r = members[0].r
    shape = xi.shape[:-1]
    if shape:
        columns = [np.unique(xi[..., j].reshape(-1), return_inverse=True) for j in range(r)]

        def rows(j, m, degrees):
            distinct, inverse = columns[j - 1]
            return [row[inverse].reshape(shape) for row in tail_rows(j, m, degrees, distinct)]
    else:
        point = xi.tolist()

        def rows(j, m, degrees):
            return tail_rows(j, m, degrees, point[j - 1])

    member_keys = [_axis_keys(params.n) for params in members]
    factors = _axis_table(member_keys, rows)
    out = np.empty((len(members),) + shape, dtype=np.complex128)
    for p, (params, keys) in enumerate(zip(members, member_keys)):
        value = head(params)
        for key in keys:
            value = value * factors[key]
        out[p] = value
    return out


def _closed_form_table(members, xi):
    """Closed form of ``members`` (sharing a, mu and r) at ``xi``: the
    frequency table of the theta rows, headed by :func:`fourier_prefactor`."""
    r = members[0].r
    rows = partial(_theta_rows, r, members[0].a, members[0].mu)
    return _frequency_table(members, _frequency_vectors(xi, r), rows,
                            lambda params: complex(fourier_prefactor(params)))


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
    xi = _real_array(xi, "xi")
    r = params.r
    if xi.shape != (r,):
        raise ValueError(f"frequency vector must have length {r}")
    if mode not in ("peel_first", "peel_last"):
        raise ValueError("mode must be 'peel_first' or 'peel_last'")
    a, mu, n = params.a, params.mu, params.n
    if mode == "peel_first":
        head = _sech_gegenbauer_transform(a, mu, n[0], tail_sum(n, 2), r - 1, xi.item(0))
        if r == 1:
            return head
        return head * fourier_via_recursion(FamilyParams(a, mu, n[1:]), xi[1:], mode)
    tail_factor = _sech_gegenbauer_transform(a, mu, n[-1], 0, 0, xi.item(-1))
    if r == 1:
        return tail_factor
    rest = FamilyParams(a + n[-1] / 2.0 + 0.25, mu + n[-1] + 0.5, n[:-1])
    return tail_factor * fourier_via_recursion(rest, xi[:-1], mode)

