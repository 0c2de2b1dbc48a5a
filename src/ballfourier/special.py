"""Foundation scalar functions: gamma, log-gamma, beta, Pochhammer, binomial.

All functions accept Python scalars or numpy arrays and broadcast in the
usual way.  Gamma values are produced through a Lanczos approximation whose
double-precision relative error is ~1e-14 on the tested range; ratios of
gamma functions in the rest of the library are assembled in log space via
:func:`log_gamma` / :func:`log_beta` and exponentiated once to avoid
overflow of intermediate products.

Poles are errors, never infinities: every formula in scope has pole-free
parameter ranges, so hitting a pole signals a caller bug.

Complex log-gamma (and so complex gamma) runs cache-blocked: arrays larger
than ``_BLOCK`` entries are evaluated in flat slices by :func:`_blockwise`,
which the terminating-series kernel in :mod:`hypergeometric` shares.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PoleError

__all__ = [
    "log_gamma",
    "gamma",
    "beta",
    "log_beta",
    "beta_conjugate",
    "pochhammer",
    "generalized_binomial",
]

# Lanczos coefficients, g = 607/128, 15 terms (Godfrey's set).
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
_LOG_SQRT_TWO_PI = 0.91893853320467274178
_LOG_PI = 1.1447298858494001741
_LOG_TWO = 0.69314718055994530942
# exp() overflows double beyond this; gamma() raises OverflowError instead.
_LOG_DBL_MAX = 709.782712893384
# flat slice length of the blocked kernels: the temporaries of one slice of
# complex log-gamma or of a terminating series stay in cache
_BLOCK = 8192
# complex log-gamma shifts Re z up to 0.5 by the recurrence from
# Re z >= -_SHIFT_CAP and reflects further left
_SHIFT_CAP = 16.0
# |Im z| beyond which log sin(pi z) is taken from its exponential asymptote
_SIN_ASYMPTOTIC = 20.0


def _check_poles(z: np.ndarray) -> None:
    re = np.real(z)
    im = np.imag(z)
    on_pole = (im == 0.0) & (re <= 0.0) & (re == np.floor(re))
    if np.any(on_pole):
        raise PoleError("gamma function evaluated at a nonpositive integer")


def _lanczos_sum(zz):
    # zz = z - 1, valid for Re(z) >= 0.5
    s = np.full_like(zz, _LANCZOS_C[0])
    for k in range(1, len(_LANCZOS_C)):
        s = s + _LANCZOS_C[k] / (zz + k)
    return s


def _log_gamma_right(zz):
    # log Gamma(zz + 1) for Re(zz + 1) >= 0.5; all operations commute with
    # conjugation, so conjugate symmetry holds to roundoff.
    t = zz + (_LANCZOS_G + 0.5)
    return _LOG_SQRT_TWO_PI + (zz + 0.5) * np.log(t) - t + np.log(_lanczos_sum(zz))


def _blockwise(kernel, *args):
    """Evaluate the elementwise ``kernel`` over the broadcast of ``args``.

    ``kernel`` takes arrays and returns a tuple of arrays of their broadcast
    shape.  Up to ``_BLOCK`` entries it runs once on ``args`` as given, so a
    0-d call is the one-block case of the same code.  Beyond that it runs on
    flat ``_BLOCK``-sized slices written into preallocated outputs, so every
    temporary of the kernel stays in cache; inputs of size one are passed
    whole to every slice, and each entry comes out bit-identical to an
    unblocked call.
    """
    arrays = [np.asarray(a) for a in args]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    size = math.prod(shape)
    if size <= _BLOCK:
        return kernel(*arrays)
    # a 0-d input stays 0-d and a size-one array becomes shape (1,), so the
    # slices see the same kinds of operand as an unblocked call
    flat = [a.reshape((1,) * min(a.ndim, 1)) if a.size == 1
            else np.broadcast_to(a, shape).reshape(-1) for a in arrays]
    outs = None
    for start in range(0, size, _BLOCK):
        stop = start + _BLOCK
        parts = kernel(*(a if a.size == 1 else a[start:stop] for a in flat))
        if outs is None:
            outs = tuple(np.empty(size, dtype=part.dtype) for part in parts)
        for out, part in zip(outs, parts):
            out[start:stop] = part
    return tuple(out.reshape(shape) for out in outs)


def _log_sin_pi(z: np.ndarray) -> np.ndarray:
    """Principal log sin(pi z), without overflow for large |Im z|."""
    # sin(pi z) has period 2; Re z - 2 round(Re z / 2) is exact and in [-1, 1]
    zr = z - 2.0 * np.round(z.real / 2.0)
    big = np.abs(zr.imag) > _SIN_ASYMPTOTIC
    # large-|Im| entries go through sin as real numbers only to keep the
    # overflowing cosh out; their value is set below
    out = np.log(np.sin(np.pi * np.where(big, zr.real, zr)))
    if np.any(big):
        # |sin(pi z)| = exp(pi |y|) / 2 and arg = sign(y) (pi/2 - pi x), up to
        # a relative exp(-2 pi |y|) that is below double precision here
        zb = zr[big]
        phase = np.copysign(1.0, zb.imag) * (0.5 - zb.real) * np.pi
        phase -= 2.0 * np.pi * np.round(phase / (2.0 * np.pi))
        out[big] = (np.pi * np.abs(zb.imag) - _LOG_TWO) + 1j * phase
    return out


def _log_gamma_block(z) -> tuple[np.ndarray]:
    """Principal-branch log Gamma of one block of complex input.

    For -``_SHIFT_CAP`` <= Re(z) < 0.5 the value is obtained through the
    recurrence ``log Gamma(z) = log Gamma(z + k) - sum_j log(z + j)``, which
    tracks the principal branch exactly (both sides share the cut on the
    negative real axis and are analytic elsewhere).  Further left, where the
    recurrence would take O(|Re z|) steps, the reflection formula
    ``log Gamma(z) = log pi - log sin(pi z) - log Gamma(1 - z)`` is unwound
    onto the principal branch by adding
    ``2 pi i sign(Im z) floor(Re z / 2 + 1/4)`` (D. E. G. Hare, "Computing
    the principal branch of log-Gamma", J. Algorithms 25, 1997), so the cost
    no longer grows with |Re z|.  Non-finite entries skip both (a shift by
    one never moves them) and come back non-finite.
    """
    z = np.array(z, dtype=np.complex128)
    flat = z.reshape(-1)  # a view: index work on it writes through to z
    finite = np.isfinite(flat)
    reflect = np.flatnonzero(finite & (flat.real < -_SHIFT_CAP))
    if reflect.size:
        z_left = flat[reflect]
        flat[reflect] = 1.0 - z_left
    shift = np.zeros_like(z)
    left = np.flatnonzero(finite & (flat.real < 0.5))
    if left.size:
        # sorted by Re z, the entries still left of 0.5 stay a prefix, so
        # every step works on one contiguous slice
        left = left[np.argsort(flat.real[left], kind="stable")]
        moved = flat[left]
        logs = np.zeros_like(moved)
        count = moved.size
        while count:
            logs[:count] += np.log(moved[:count])
            moved.real[:count] += 1.0
            count = np.count_nonzero(moved.real[:count] < 0.5)
        flat[left] = moved
        shift.reshape(-1)[left] = logs
    out = _log_gamma_right(z - 1.0) - shift
    if reflect.size:
        out = np.asarray(out)  # 0-d input gives a numpy scalar
        unwind = np.copysign(2.0 * np.pi, z_left.imag) * np.floor(0.5 * z_left.real + 0.25)
        out.reshape(-1)[reflect] = ((_LOG_PI + 1j * unwind) - _log_sin_pi(z_left)
                                    - out.reshape(-1)[reflect])
    return (out,)


def _log_gamma_complex(z) -> np.ndarray:
    """Principal-branch log Gamma for complex input, cache-blocked."""
    return _blockwise(_log_gamma_block, z)[0]


def log_gamma(z):
    """Principal-branch log Gamma.

    Real input with all entries positive yields a real result; anything else
    is computed on the complex path.  Raises :class:`PoleError` at
    nonpositive integers.
    """
    arr = np.asarray(z)
    scalar = arr.ndim == 0
    _check_poles(arr)
    if not np.iscomplexobj(arr) and np.all(arr > 0.0):
        a = arr.astype(np.float64)
        if np.all(a >= 0.5):
            out = _log_gamma_right(a - 1.0)
        else:
            # shift once into the Lanczos region; argument stays positive
            out = np.where(a >= 0.5, _log_gamma_right(np.maximum(a, 0.5) - 1.0),
                           _log_gamma_right(a) - np.log(np.maximum(a, np.finfo(float).tiny)))
        return out[()] if scalar else out
    out = _log_gamma_complex(arr)
    return out[()] if scalar else out


def _gamma_real(a: np.ndarray) -> np.ndarray:
    # real path keeps the imaginary part exactly zero
    out = np.empty_like(a)
    right = a >= 0.5
    if np.any(right):
        lg = _log_gamma_right(a[right] - 1.0)
        if np.any(lg > _LOG_DBL_MAX):
            raise OverflowError("gamma overflow: argument too large for double range")
        out[right] = np.exp(lg)
    if np.any(~right):
        zr = a[~right]
        # reflection: Gamma(z) = pi / (sin(pi z) Gamma(1 - z)), 1 - z >= 0.5
        out[~right] = np.pi / (np.sin(np.pi * zr) * np.exp(_log_gamma_right(-zr)))
    return out


def gamma(z):
    """Gamma function, ``exp(log_gamma(z))``.

    Real input returns real output (the imaginary part is exactly zero, not
    merely small).  Raises :class:`PoleError` at nonpositive integers and
    :class:`OverflowError` when the result exceeds double range.
    """
    arr = np.asarray(z)
    scalar = arr.ndim == 0
    _check_poles(arr)
    if not np.iscomplexobj(arr):
        out = _gamma_real(arr.astype(np.float64))
        return out[()] if scalar else out
    lg = _log_gamma_complex(arr)
    if np.any(lg.real > _LOG_DBL_MAX):
        raise OverflowError("gamma overflow: argument too large for double range")
    out = np.exp(lg)
    return out[()] if scalar else out


def log_beta(a, b):
    """log B(a, b) = log Gamma(a) + log Gamma(b) - log Gamma(a + b)."""
    return log_gamma(a) + log_gamma(b) - log_gamma(np.asarray(a) + np.asarray(b))


def beta(a, b):
    """Beta function, evaluated in log space to dodge intermediate overflow.

    Raises :class:`PoleError` if ``a``, ``b`` or ``a + b`` hits a gamma pole.
    """
    _check_poles(np.asarray(a) + np.asarray(b))
    return np.exp(log_beta(a, b))


def beta_conjugate(z):
    """B(z, conj z) = |Gamma(z)|^2 / Gamma(2 Re z), real.

    The beta function of a conjugate pair, as in the theta factors at real
    frequency: ``exp(2 Re log Gamma(z) - log Gamma(2 Re z))``, one complex
    and one real log-gamma per point instead of the three complex ones of
    ``beta(z, conj(z))``.  Raises :class:`PoleError` at a gamma pole.
    """
    z = np.asarray(z, dtype=np.complex128)
    return np.exp(2.0 * np.real(log_gamma(z)) - log_gamma(2.0 * z.real))


def pochhammer(base, order: int):
    """Rising factorial ``(base)_order = base (base+1) ... (base+order-1)``.

    ``order`` must be a nonnegative integer; the empty product is 1.
    """
    if order < 0 or order != int(order):
        raise ValueError("pochhammer order must be a nonnegative integer")
    order = int(order)
    if order == 0:
        arr = np.asarray(base)
        return np.ones_like(arr) if arr.ndim else arr.dtype.type(1)
    result = base
    for k in range(1, order):
        result = result * (base + k)
    if not np.all(np.isfinite(np.asarray(result, dtype=np.complex128))):
        raise OverflowError("pochhammer overflow")
    return result


def generalized_binomial(alpha: float, k: int) -> float:
    """Generalized binomial coefficient C(alpha, k) for real alpha."""
    if k < 0 or k != int(k):
        raise ValueError("binomial index must be a nonnegative integer")
    num = 1.0
    for i in range(int(k)):
        num *= alpha - i
    return num / math.factorial(int(k))
