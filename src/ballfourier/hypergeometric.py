"""Terminating generalized hypergeometric sums pFq.

Every 3F2 in the library has the continuous-Hahn shape
F_n = 3F2(-n, n+s-1, u; l1, l2; 1), and :func:`hyp3f2_ladder` is its one
entry point: it takes scalar (s, l1, l2) and an array or scalar u, makes
the one lower-parameter pole check and the one route choice.  For Re s > 0
it runs the three-term recurrence of these polynomials in the degree
(Koekoek, Lesky and Swarttouw, *Hypergeometric Orthogonal Polynomials and
Their q-Analogues*, 2010, eq. 9.4.3), which keeps its accuracy at every
degree the tests reach; the forward series loses all digits by degree 20.
The recurrence's coefficients depend on (s, l1, l2) only, so one run to
the largest degree asked for returns every requested F_k.  For Re s <= 0,
where the recurrence can divide by zero, each degree up to 12 takes the
forward series, and a higher degree raises ValueError; no suite or
workload reaches it, and its measured accuracy is stated in
:func:`hyp3f2_ladder`.
:func:`hyp3f2_unit` is the one-degree case, with s = upper2 - n + 1.  The
general engine :func:`_terminating_sum` sums a terminating pFq forward with
compensated (Kahan) addition; it serves the spec objects and the 3F2 at
Re s <= 0.  Both kernels run cache-blocked through
:func:`special._blockwise`.

A 0-d call runs the same recurrence body on Python numbers, whose complex
multiply is unfused like a numpy scalar's and gives the same bits
(``tests/test_scalar_route.py`` pins it against a recurrence on numpy
scalars).  A 0-d ``u`` enters the recurrence once as a Python number
(:func:`special._number`), with no array or :func:`special._blockwise`
in between; the dtype is complex128 if ``u`` or a parameter is complex
and float64 otherwise, as ``np.result_type`` gives it for a batch, and
each requested degree is packed once as a numpy scalar of that dtype.
The argument checks of :func:`hyp3f2_ladder` and
:func:`hyp3f2_unit` pass a Python number (numpy's float64 and complex128
scalars among them) without ``np.ndim``, whose per-call cost would
dominate a 0-d call, and check the degrees in one pass.  A batch runs
numpy's array loops, which fuse multiply-adds where the CPU has them.  So
at complex u a 0-d value and its batch entry can differ in the last bits.
0-d calls stay off one-entry arrays anyway: running them that way makes
the two agree, but costs about 20% of the eval-scalar benchmark.
Measured on x86-64 with numpy 2.4 over 300 seeded draws (degrees 0..12):
at most 1.2e-15 ulp of |value| for ``theta_factor`` at real frequencies
and 4.1 ulp for ``d_axis_factor`` at complex x (up to 7.5 ulp over 900
further draws); ``tests/test_degree_ladders.py`` pins 1 and 5 ulp on its
draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DenominatorPoleError, _check_lower, _check_order
from .special import _blockwise, _number

__all__ = ["HypergeometricSpec", "pfq_diagnostics", "hyp3f2_unit", "hyp3f2_ladder"]

# highest degree of the forward series at Re s <= 0, its measured range
_FORWARD_DEGREE_LIMIT = 12


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
        order = _check_order(self.termination_order, "termination_order")
        if not any(p == -complex(order) for p in self.numerator_params):
            raise ValueError(
                "a numerator parameter equal to -termination_order is required "
                "(only terminating series are supported)")
        _check_lower(self.denominator_params, order)


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
    sum loses accuracy with the degree; :func:`hyp3f2_ladder` uses it only
    where the degree recurrence cannot run (Re s <= 0).
    """
    p, q = len(numerators), len(denominators)

    def kernel(*params):
        # a 0-d call gets Python numbers; the series keeps numpy's scalar
        # division, whose complex quotient rounds unlike Python's
        params = [np.asarray(v) for v in params]
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


def _hahn_coefficients(n: int, s, l1, l2):
    """Per-degree (A_k + C_k, C_k, 1/A_k), k < n, of the recurrence
    u F_k = A_k F_{k+1} - (A_k + C_k) F_k + C_k F_{k-1} satisfied by
    F_k = 3F2(-k, k+s-1, u; l1, l2; 1), with
    A_k = -(k+s-1)(k+l1)(k+l2) / ((2k+s-1)(2k+s)) (A_0 = -l1 l2 / s, the
    limit) and C_k = k(k+s-l2-1)(k+s-l1-1) / ((2k+s-2)(2k+s-1)), on
    Python numbers.  A divisor that rounds to 0 (A_0 where l1 l2
    underflows or s overflows, 2k + s - 2 at k = 1 for s <= 2^-53) raises
    ValueError."""
    rows = []
    try:
        for k in range(n):
            if k == 0:
                a, c = -l1 * l2 / s, 0.0
            else:
                a = -(k + s - 1) * (k + l1) * (k + l2) / ((2 * k + s - 1) * (2 * k + s))
                c = k * (k + s - l2 - 1) * (k + s - l1 - 1) / ((2 * k + s - 2) * (2 * k + s - 1))
            rows.append((a + c, c, 1.0 / a))
    except ZeroDivisionError as exc:
        raise ValueError(f"the 3F2 recurrence divides by a term that rounds to 0 at s = {s}, "
                         f"lower parameters {l1} and {l2}") from exc
    return rows


def _ladder_block(u, coefficients, degrees, dtype):
    """F_k at ``u`` for every k of ``degrees`` from the rows of
    :func:`_hahn_coefficients` (one row per k < N = max(degrees), N >= 1).
    ``u`` is an array or, for a 0-d call, a Python number; the same
    statements run on both.  Only the requested degrees are kept, so a
    one-degree call holds two rows whatever its degree."""
    kept = {0: np.ones(np.shape(u), dtype=dtype)} if 0 in degrees else {}
    n = len(coefficients)
    b, _, inv_a = coefficients[0]
    prev, curr = 1.0, (u + b) * inv_a
    for k in range(1, n):
        if k in degrees:
            kept[k] = curr
        b, c, inv_a = coefficients[k]
        prev, curr = curr, ((u + b) * curr - c * prev) * inv_a
    kept[n] = curr
    return [kept[k] for k in degrees]


def _python_scalar(value):
    value = complex(value)
    return value.real if value.imag == 0.0 else value


def _ladder(degrees: tuple, s, u, lower1, lower2):
    """The degree recurrence of :func:`_hyp3f2` (Re s > 0): Python-number
    coefficient rows, formed once, run over every block of ``u``, or on a
    0-d ``u`` as a Python number."""
    n = max(degrees)
    value = _number(u)
    if value is None:
        # u in double whatever its dtype: float32 entries would run the
        # recurrence in single precision
        u = np.asarray(u, dtype=np.result_type(np.float64, u))
        dtype = np.result_type(u, s, lower1, lower2)
    else:
        u = value
        # float parameters, as the library's routes pass them, skip np.result_type
        floats = isinstance(s, float) and isinstance(lower1, float) and isinstance(lower2, float)
        complex_ = isinstance(u, complex) or (
            not floats and np.result_type(s, lower1, lower2).kind == "c")
        dtype = np.dtype(np.complex128 if complex_ else np.float64)
    if n == 0:
        # F_0 = 1 at every entry
        return (np.ones(np.shape(u), dtype=dtype)[()],) * len(degrees)
    rows = _hahn_coefficients(n, _python_scalar(s), _python_scalar(lower1),
                              _python_scalar(lower2))
    if value is not None:
        return tuple([dtype.type(v) for v in _ladder_block(u, rows, degrees, dtype)])
    out = _blockwise(lambda u: _ladder_block(u, rows, degrees, dtype), u)
    return tuple([np.asarray(v, dtype=dtype)[()] for v in out])


def _scalars(*values) -> bool:
    """Whether every value is a scalar; a Python number (numpy's float64 and
    complex128 scalars among them) passes without ``np.ndim``."""
    return all([isinstance(v, (int, float, complex)) or not np.ndim(v) for v in values])


def _hyp3f2(degrees: tuple, s, u, lower1, lower2):
    """:func:`hyp3f2_ladder` once its arguments are checked: the one pole
    check and the one route choice of the continuous-Hahn 3F2."""
    n = max(degrees)
    _check_lower((lower1, lower2), n)
    if complex(s).real > 0:
        return _ladder(degrees, s, u, lower1, lower2)
    if n > _FORWARD_DEGREE_LIMIT:
        raise ValueError(f"degree {n} at Re s <= 0 is beyond the forward series' measured "
                         f"range (degree <= {_FORWARD_DEGREE_LIMIT})")
    sums = [_terminating_sum([-float(k), s + (k - 1.0), u], [lower1, lower2], 1.0, k)
            for k in degrees]
    return tuple([value[()] for value, _ in sums])


def hyp3f2_ladder(degrees, s, u, lower1, lower2):
    """F_k = 3F2(-k, k+s-1, u; lower1, lower2; 1) for every k of ``degrees``.

    The one entry point of the continuous-Hahn 3F2.  ``s``, ``lower1`` and
    ``lower2`` are scalars (an array raises ValueError); ``u`` broadcasts.
    A lower parameter whose Pochhammer factor vanishes below
    N = max(degrees) raises :class:`DenominatorPoleError`, and parameters
    at which a recurrence coefficient divides by 0 raise ValueError.

    At Re s > 0 one run of the degree recurrence to N gives every F_k: the
    coefficient rows depend on (s, lower1, lower2) only, so the recurrence
    that reaches F_N passes through every lower degree, and each F_k
    equals the one-degree ladder to k bit for bit.  Only the requested
    degrees are kept.  At Re s <= 0, where the recurrence can divide by
    zero, each degree takes the forward series of :func:`_terminating_sum`
    with upper parameter s + (k - 1).  Its alternating sum loses digits
    with the degree: against 50-digit mpmath at non-integer s in (-6, 0)
    the measured worst relative error (1,100 seeded draws per degree) is
    below 1e-13 up to degree 4, 8e-12 at degree 6, 9e-10 at degree 8,
    5e-8 at degree 10 and 9e-6 at degree 12
    (``tests/test_hahn_recurrence.py`` pins it per degree).  Beyond
    degree 12 it is unmeasured (at degree 30 it is off by five orders of
    magnitude), so N > 12 at Re s <= 0 raises ValueError.

    Returns a tuple with one value per entry of ``degrees`` (a 0-d ``u``
    gives numpy scalars).
    """
    degrees = tuple(degrees)
    # an empty, negative or nan entry never reaches int()
    ints = tuple(map(int, degrees)) if degrees and min(degrees) >= 0 else None
    if ints != degrees:
        raise ValueError("degrees must be a nonempty sequence of nonnegative integers")
    if not _scalars(s, lower1, lower2):
        raise ValueError("s, lower1 and lower2 must be scalars; only u broadcasts")
    return _hyp3f2(ints, s, u, lower1, lower2)


def hyp3f2_unit(n: int, upper2, upper3, lower1, lower2):
    """Terminating 3F2(-n, upper2, upper3; lower1, lower2; 1).

    This is the continuous-Hahn shape every theta factor, gamma-pair factor
    and Hahn polynomial reduces to: the one-degree case of
    :func:`hyp3f2_ladder` with s = upper2 - (n - 1) and u = ``upper3``,
    which alone may be an array (the result broadcasts with it).
    """
    n = _check_order(n, "series order n")
    if not _scalars(upper2, lower1, lower2):
        raise ValueError("upper2, lower1 and lower2 must be scalars; only upper3 broadcasts")
    return _hyp3f2((n,), upper2 - (n - 1.0), upper3, lower1, lower2)[0]
