"""Foundation scalar functions: gamma, log-gamma, beta, Pochhammer, binomial.

All functions accept Python scalars or numpy arrays and broadcast in the
usual way.  Gamma values are produced through a Lanczos approximation whose
double-precision relative error is ~1e-14 on the tested range; ratios of
gamma functions in the rest of the library are assembled in log space via
:func:`log_gamma` / :func:`log_beta` and exponentiated once to avoid
overflow of intermediate products.

Poles are errors, never infinities: every formula in scope has pole-free
parameter ranges, so hitting a pole signals a caller bug.
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
# exp() overflows double beyond this; gamma() raises OverflowError instead.
_LOG_DBL_MAX = 709.782712893384


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


def _log_gamma_complex(z: np.ndarray) -> np.ndarray:
    """Analytic-continuation branch of log Gamma for complex input.

    For Re(z) < 0.5 the value is obtained through the recurrence
    ``log Gamma(z) = log Gamma(z + k) - sum_j log(z + j)``, which tracks the
    principal branch exactly (both sides share the cut on the negative real
    axis and are analytic elsewhere), unlike a naive sine-reflection which
    needs explicit unwinding.  Non-finite entries skip the recurrence (a
    shift by one never moves them) and come back non-finite.
    """
    z = np.array(z, dtype=np.complex128)
    shift = np.zeros_like(z)
    finite = np.isfinite(z)
    left = finite & (z.real < 0.5)
    while np.any(left):
        shift[left] += np.log(z[left])
        z[left] += 1.0
        left = finite & (z.real < 0.5)
    return _log_gamma_right(z - 1.0) - shift


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
