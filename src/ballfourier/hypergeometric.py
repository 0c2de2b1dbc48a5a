"""Terminating generalized hypergeometric sums pFq.

Every 3F2 in the library has the continuous-Hahn shape
3F2(-n, n+s-1, u; l1, l2; 1), and :func:`hyp3f2_unit` is its one entry.
For Re s > 0 it runs the three-term recurrence of these polynomials in the
degree (Koekoek, Lesky and Swarttouw, *Hypergeometric Orthogonal
Polynomials and Their q-Analogues*, 2010, eq. 9.4.3), which keeps its
accuracy at every degree the tests reach; the forward series loses all
digits by degree 20.  The general engine :func:`_terminating_sum` sums a
terminating pFq forward with compensated (Kahan) addition; it serves the
Gegenbauer 2F1 cross-check, the spec objects and the 3F2 at Re s <= 0.
Both kernels run cache-blocked through :func:`special._blockwise`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DenominatorPoleError
from .special import _blockwise

__all__ = ["HypergeometricSpec", "pfq_terminating", "pfq_diagnostics", "hyp3f2_unit"]


def _is_nonpositive_integer(value: complex) -> bool:
    value = complex(value)
    return value.imag == 0.0 and value.real <= 0.0 and value.real == int(value.real)


@dataclass(frozen=True)
class HypergeometricSpec:
    """A terminating pFq sum: parameters, argument and termination order."""

    numerator_params: tuple[complex, ...]
    denominator_params: tuple[complex, ...]
    argument: complex
    termination_order: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "numerator_params",
                           tuple(complex(p) for p in self.numerator_params))
        object.__setattr__(self, "denominator_params",
                           tuple(complex(p) for p in self.denominator_params))
        object.__setattr__(self, "argument", complex(self.argument))
        order = self.termination_order
        if order < 0 or order != int(order):
            raise ValueError("termination_order must be a nonnegative integer")
        if not any(p == -complex(order) for p in self.numerator_params):
            raise ValueError(
                "a numerator parameter equal to -termination_order is required "
                "(only terminating series are supported)")
        for d in self.denominator_params:
            if _is_nonpositive_integer(d) and d.real >= -order:
                raise DenominatorPoleError(
                    f"denominator parameter {d} vanishes within the summation range")


def _series_block(numerators, denominators, argument, order: int):
    """Forward Kahan-compensated sum of one block of a terminating pFq."""
    arrays = (*numerators, *denominators, argument)
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    dtype = np.result_type(np.float64, *(a.dtype for a in arrays))

    term = np.ones(shape, dtype=dtype)
    total = np.ones(shape, dtype=dtype)
    comp = np.zeros(shape, dtype=dtype)
    max_partial = np.ones(shape, dtype=np.float64)
    for k in range(order):
        ratio = argument / (k + 1.0)
        for p in numerators:
            ratio = ratio * (p + k)
        for q in denominators:
            den = q + k
            if np.any(den == 0):
                raise DenominatorPoleError(
                    f"denominator Pochhammer factor vanished at term {k + 1}")
            ratio = ratio / den
        term = term * ratio
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        max_partial = np.maximum(max_partial, np.abs(total))
    return total, max_partial


def _terminating_sum(numerators, denominators, argument, order: int):
    """Forward Kahan-compensated sum of a terminating pFq series.

    Parameters may be scalars or broadcastable numpy arrays; the sum runs
    cache-blocked (see :func:`special._blockwise`).  Returns the value
    together with the largest partial-sum magnitude seen, a measure of the
    cancellation (reported by :func:`pfq_diagnostics`).  The alternating
    sum loses accuracy with the degree; :func:`hyp3f2_unit` uses it only
    where the degree recurrence cannot run.
    """
    p, q = len(numerators), len(denominators)

    def kernel(*params):
        return _series_block(params[:p], params[p:p + q], params[-1], int(order))

    return _blockwise(kernel, *numerators, *denominators, argument)


def pfq_diagnostics(spec: HypergeometricSpec):
    """The value of the terminating series described by ``spec`` and its
    peak partial-sum magnitude (for cancellation/low-confidence flagging
    downstream)."""
    value, max_partial = _terminating_sum(list(spec.numerator_params),
                                          list(spec.denominator_params),
                                          spec.argument, spec.termination_order)
    return value[()], float(max_partial[()])


def pfq_terminating(spec: HypergeometricSpec):
    """Evaluate the terminating series described by ``spec``."""
    return pfq_diagnostics(spec)[0]


def _hahn_coefficients(n: int, s, l1, l2):
    """Per-degree (A_k + C_k, C_k, 1/A_k), k < n, of the recurrence
    u F_k = A_k F_{k+1} - (A_k + C_k) F_k + C_k F_{k-1} satisfied by
    F_k = 3F2(-k, k+s-1, u; l1, l2; 1), with
    A_k = -(k+s-1)(k+l1)(k+l2) / ((2k+s-1)(2k+s)) (A_0 = -l1 l2 / s, the
    limit) and C_k = k(k+s-l2-1)(k+s-l1-1) / ((2k+s-2)(2k+s-1)).
    Works on scalars and on arrays alike."""
    rows = []
    for k in range(n):
        if k == 0:
            a, c = -l1 * l2 / s, 0.0
        else:
            a = -(k + s - 1) * (k + l1) * (k + l2) / ((2 * k + s - 1) * (2 * k + s))
            c = k * (k + s - l2 - 1) * (k + s - l1 - 1) / ((2 * k + s - 2) * (2 * k + s - 1))
        rows.append((a + c, c, 1.0 / a))
    return rows


def _recurrence_block(u, coefficients):
    """F_n at ``u`` from the rows of :func:`_hahn_coefficients` (n >= 1)."""
    b, _, inv_a = coefficients[0]
    prev, curr = 1.0, (u + b) * inv_a
    for b, c, inv_a in coefficients[1:]:
        prev, curr = curr, ((u + b) * curr - c * prev) * inv_a
    return curr


def _vanishes_within(q, n: int) -> bool:
    """Whether q + k = 0 for an integer 0 <= k < n, i.e. the Pochhammer
    symbol (q)_k of a lower parameter vanishes inside an order-n sum."""
    if np.ndim(q) == 0:
        return _is_nonpositive_integer(q) and complex(q).real > -n
    re = np.real(q)
    return bool(np.any((np.imag(q) == 0) & (re <= 0) & (re > -n) & (re == np.floor(re))))


def _python_scalar(value):
    value = complex(value)
    return value.real if value.imag == 0.0 else value


def _hahn_recurrence(n: int, u, s, l1, l2):
    """3F2(-n, n+s-1, u; l1, l2; 1) by the degree recurrence, cache-blocked.

    The coefficients depend on (s, l1, l2) only: for scalar parameters they
    are Python numbers computed once per call, and the loop over points is
    five array operations per degree."""
    if _vanishes_within(l1, n) or _vanishes_within(l2, n):
        raise DenominatorPoleError("a lower parameter's Pochhammer factor vanishes "
                                   "within the summation range")
    dtype = np.result_type(np.float64, *(np.asarray(p).dtype for p in (u, s, l1, l2)))
    if all(np.ndim(p) == 0 for p in (s, l1, l2)):
        rows = _hahn_coefficients(n, *(_python_scalar(p) for p in (s, l1, l2)))
        value, = _blockwise(lambda u: (_recurrence_block(u, rows),), u)
    else:
        value, = _blockwise(lambda u, s, l1, l2: (
            _recurrence_block(u, _hahn_coefficients(n, s, l1, l2)),), u, s, l1, l2)
    return np.asarray(value, dtype=dtype)


def hyp3f2_unit(n: int, upper2, upper3, lower1, lower2):
    """Terminating 3F2(-n, upper2, upper3; lower1, lower2; 1).

    This is the continuous-Hahn shape every theta factor, gamma-pair factor
    and Hahn polynomial reduces to, with s = upper2 - n + 1.  When
    Re s > 0 (at every entry) it runs the degree recurrence of
    :func:`_hahn_recurrence`, which is stable; otherwise, where the
    recurrence can divide by zero (s = 0, -1, ...), the forward series of
    :func:`_terminating_sum`.  The choice depends on the parameters only.
    Parameters (other than ``n``) may be arrays; the result broadcasts.
    """
    if n < 0 or n != int(n):
        raise ValueError("series order n must be a nonnegative integer")
    n = int(n)
    s = np.asarray(upper2) - (n - 1.0)
    if n > 0 and np.all(np.real(s) > 0):
        return _hahn_recurrence(n, upper3, s[()], lower1, lower2)[()]
    value, _ = _terminating_sum([-float(n), upper2, upper3], [lower1, lower2], 1.0, n)
    return value[()]
