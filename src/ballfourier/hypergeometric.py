"""Terminating generalized hypergeometric sums pFq.

This is the single series engine behind the Gegenbauer, theta-factor,
continuous-Hahn and gamma-pair family evaluations.  Only terminating series
are supported: a numerator parameter must be a nonpositive integer equal to
``-termination_order``.  The sum is accumulated forward with compensated
(Kahan) addition, so results are deterministic and independent of any
reduction-order concerns.
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
    together with the largest partial-sum magnitude seen, which the
    verification layer uses to flag cancellation-heavy results.
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


def hyp3f2_unit(n: int, upper2, upper3, lower1, lower2):
    """Terminating 3F2(-n, upper2, upper3; lower1, lower2; 1).

    This is the Saalschutz-type shape every theta factor and Hahn polynomial
    reduces to.  Parameters (other than ``n``) may be arrays; the result
    broadcasts.  Scalar calls agree bit-for-bit with
    ``pfq_terminating(HypergeometricSpec(...))`` because both run through the
    same accumulation loop.
    """
    if n < 0 or n != int(n):
        raise ValueError("series order n must be a nonnegative integer")
    value, _ = _terminating_sum([-float(n), upper2, upper3], [lower1, lower2], 1.0, int(n))
    return value[()]
