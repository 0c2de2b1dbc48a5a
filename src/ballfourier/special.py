"""Foundation scalar functions: gamma, log-gamma, the gamma pair, the beta
function of a conjugate pair, and the Pochhammer symbol.

All functions accept Python scalars or numpy arrays and broadcast in the
usual way.  Gamma values are produced through a Lanczos approximation whose
double-precision relative error is ~1e-14 on the tested range; products and
ratios of gamma functions in the rest of the library are assembled in log
space via :func:`log_gamma` and exponentiated once to avoid overflow of
intermediate products.

Poles are errors, never infinities: every formula in scope has pole-free
parameter ranges, so hitting a pole signals a caller bug.

Complex log-gamma works in real arithmetic on the planes x = Re z and
y = Im z: no complex ufunc runs in its Lanczos sum, its logarithms or its
pole test, which only the gathered entries with x < 0.5 need, because
the complex-ufunc form costs about twice as much per point.

:func:`_blockwise` is the library's one blocking layer: a batch larger than
``_BLOCK`` entries runs in flat slices of that length, each through the
whole per-point pipeline, into one preallocated output.  Complex log-gamma,
:func:`gamma_pair` and the kernels of :mod:`hypergeometric` run on it, and
so do the batched routes above them (``classical.gegenbauer``,
``ball.ball_basis_eval``, ``tanh_family.theta_factor`` and
``family_eval``, ``dfamily.d_family_eval``), whose inner calls then see
one block each.  On 1e5 points the routes hold their output and
block-sized temporaries only, so glibc keeps reusing the same heap pages
instead of faulting in fresh ones on every call.

A 0-d call runs the same kernel bodies on Python numbers.  A number
enters once, at the public entry: :func:`log_gamma`, :func:`gamma_pair`
and :func:`beta_conjugate` make a 0-d argument a Python float, or a
Python complex if its dtype is complex (:func:`_number`), and hand it to
the kernels with no array, numpy scalar or :func:`_blockwise` in between;
a batched route called on 0-d input gets its operands as Python numbers
from :func:`_blockwise`.  Complex log-gamma left of Re z = 0.5 runs its
pole test and shift recurrence on them too, in the batch's order of
operations; left of Re z = -16 it reflects as a batch of one, since no
benchmark workload reflects a 0-d call.  Python numbers skip numpy's
per-call overhead on 0-d arrays and scalars, which dominates a single
value, and :func:`gamma_pair` reads its two real parts as numbers for its
overflow test.  Python and numpy-scalar arithmetic are both unfused IEEE
double, so a 0-d value agrees bit for bit with the same entry of a batch
(a nan may differ in its sign bit), and only the transcendental calls go
through numpy (``tests/test_scalar_route.py`` pins the route and the
bits).  The value is packed once, where the kernel ends: complex
log-gamma as ``np.complex128(complex(re, im))``, the real paths by
numpy's ``log`` and ``exp``.  So 0-d results are numpy scalars of the
batch's dtype, never 0-d arrays or Python numbers.

Each argument is checked once, at the public entry the caller used, and
the library's own calls go beneath the checks.  The public entries refuse
and convert: :func:`log_gamma` and :func:`gamma_pair` read a 0-d argument
through :func:`_number`, and so does :func:`beta_conjugate`, with its
real part as a float; :func:`_real_array` and :func:`_real_number` (a
0-d value as a Python float) refuse complex input for the real routes of
:mod:`tanh_family` and :mod:`ball`.  Beneath them: :func:`_beta_conjugate` takes one real part
as a float (the theta rows and the recursion's axis factors pass theirs),
:func:`_gamma_pair_block` two Python numbers (the D family's 0-d axis
factor), and :func:`_pochhammer` a checked order (the closed-form
prefactor, the recursion, the continuous-Hahn routes and the norms).
:func:`log_gamma` stays on those paths, where its check of a number costs
one ``isinstance``.  A 0-d x with a batch y, the one real part of the
theta beta factors, enters the Lanczos planes as a float: each entry sees
the same operations as when x is broadcast, with 5 array passes per term
of the sum instead of 7.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import PoleError

__all__ = [
    "log_gamma",
    "gamma",
    "gamma_pair",
    "beta_conjugate",
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
# numpy's one native float64 descriptor: an identity test is its cheapest check
_FLOAT64 = np.dtype(np.float64)
# exp() overflows double beyond this; gamma() raises OverflowError instead.
_LOG_DBL_MAX = 709.782712893384
# beyond this |Re zz| or |Im zz| the Lanczos terms c_k / (zz + k) are below
# double precision against c_0; below it (x + k)^2 + y^2 stays finite
_LANCZOS_CLAMP = 1e150
# flat slice length of the blocked kernels: the temporaries of one slice of
# complex log-gamma or of a terminating series stay in cache
_BLOCK = 8192
# complex log-gamma shifts Re z up to 0.5 by the recurrence from
# Re z >= -_SHIFT_CAP and reflects further left
_SHIFT_CAP = 16.0
# |Im z| beyond which log sin(pi z) is taken from its exponential asymptote
_SIN_ASYMPTOTIC = 20.0


def _check_poles(a: np.ndarray) -> None:
    # real input; the complex kernel tests its own gathered entries
    if np.any((a <= 0.0) & (a == np.floor(a))):
        raise PoleError("gamma function evaluated at a nonpositive integer")


def _lanczos_sum(zz):
    # real zz = z - 1, valid for z >= 0.5; an array or a Python float
    s = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        s = s + _LANCZOS_C[k] / (zz + k)
    return s


def _log_gamma_right(zz):
    # log Gamma(zz + 1) for real zz + 1 >= 0.5; a Python float gives a
    # numpy float64
    t = zz + (_LANCZOS_G + 0.5)
    return _LOG_SQRT_TWO_PI + (zz + 0.5) * np.log(t) - t + np.log(_lanczos_sum(zz))


def _blockwise(kernel, *args):
    """Evaluate the elementwise ``kernel`` over the broadcast of ``args``.

    The one blocking layer of the library.  ``kernel`` takes arrays and
    returns a sequence of arrays of their broadcast shape.  A 0-d call hands
    it Python numbers instead (``ndarray.item()``): the kernels are written
    in operators, and Python and numpy-scalar arithmetic are the same
    unfused IEEE double, so the values keep their bits at a fraction of a
    numpy scalar's cost per operation.  Up to ``_BLOCK`` entries it runs
    once on ``args`` as given.  Beyond that it runs on flat ``_BLOCK``-sized
    slices written into preallocated outputs, so every temporary of the
    kernel stays in cache and no full-size one is made; inputs of size one
    are passed whole to every slice.  Each entry comes out bit-identical to
    an unblocked call, as long as the kernel makes no choice over the
    whole of its input (a route that does makes it before blocking, as
    :func:`gamma_pair` does), and an error is raised from the block that
    holds its point.
    """
    arrays = [np.asarray(a) for a in args]
    shapes = {a.shape for a in arrays}
    shape = shapes.pop() if len(shapes) == 1 else np.broadcast_shapes(*shapes)
    if not shape:
        return kernel(*[a.item() for a in arrays])
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


def _complex(re, im) -> np.ndarray:
    """re + i im as a complex array, keeping signed zeros and infinities
    (``re + 1j * im`` turns an infinite ``im`` into a nan real part)."""
    out = np.empty(np.shape(re), dtype=np.complex128)
    out.real = re
    out.imag = im
    return out


def _log_gamma_right_planes(x, y):
    """(Re, Im) of log Gamma(zz + 1), zz = x + iy with x >= -1/2, in real
    arithmetic on the two planes.

    The Lanczos sum is S = c_0 + sum_k c_k (u_k - iy) / d_k with u_k = x + k
    and d_k = u_k^2 + y^2.  Beyond ``_LANCZOS_CLAMP`` its terms are below
    double precision against c_0, so x and y enter it clamped there and d_k
    stays finite.  log |t|, t = zz + g + 1/2, comes from ``hypot``, which
    does not overflow at any |Im z|, log |S| from the squared modulus (|S|
    is of order one), and the arguments from ``arctan2``.  Every imaginary
    part is odd in y and every real part even, so conjugate symmetry is
    exact.  ``x`` and ``y`` are arrays or, for a 0-d call, Python floats,
    and ``x`` may be a float with ``y`` an array (one real part for a
    batch); the same statements run on all of them.
    """
    # min and max keep a Python float one (the ufuncs would return a numpy
    # scalar); with the operand first, a nan stays nan as in numpy
    if isinstance(x, float):
        xc = min(x, _LANCZOS_CLAMP)
    else:
        xc = np.minimum(x, _LANCZOS_CLAMP)
    if isinstance(y, float):
        yc = max(min(y, _LANCZOS_CLAMP), -_LANCZOS_CLAMP)
    else:
        yc = np.maximum(np.minimum(y, _LANCZOS_CLAMP), -_LANCZOS_CLAMP)
    y2 = yc * yc
    s_re = _LANCZOS_C[0]
    s_im = 0.0
    for k in range(1, len(_LANCZOS_C)):
        # augmented steps run in place on arrays and rebind numbers; a float
        # x takes 5 array passes per term here instead of 7
        u = xc + k
        d = u * u
        d += y2
        q = _LANCZOS_C[k] / d
        u *= q
        s_re += u
        s_im += q
    s_im = -yc * s_im
    xh = x + 0.5
    t = xh + _LANCZOS_G
    log_t = np.log(np.hypot(t, y))
    arg_t = np.arctan2(y, t)
    # (zz + 1/2) log t - t = (zz + 1/2)(log t - 1) - g; log t > 1 here, so
    # log t - 1 is exact, and the large terms meet before the small ones
    log_t -= 1.0
    re = ((xh * log_t - y * arg_t)
          + ((_LOG_SQRT_TWO_PI - _LANCZOS_G) + 0.5 * np.log(s_re * s_re + s_im * s_im)))
    im = (xh * arg_t + y * log_t) + np.arctan2(s_im, s_re)
    return re, im


def _log_gamma_block(x, y) -> tuple[np.ndarray]:
    """Principal-branch log Gamma(x + iy) of one block, from the real planes
    x and y (which broadcast).

    Only entries with x < 0.5 can be poles or need more than the Lanczos
    formula, so they are gathered once: a pole among them raises
    :class:`PoleError`.  For -``_SHIFT_CAP`` <= x < 0.5 the value comes
    from the recurrence ``log Gamma(z) = log Gamma(z + k) - sum_j log(z + j)``,
    which tracks the principal branch exactly (both sides share the cut on
    the negative real axis and are analytic elsewhere); its logs are
    ``log hypot`` and ``arctan2`` of the planes.  Further left, where the
    recurrence would take O(|x|) steps, the reflection formula
    ``log Gamma(z) = log pi - log sin(pi z) - log Gamma(1 - z)`` is unwound
    onto the principal branch by adding
    ``2 pi i sign(Im z) floor(Re z / 2 + 1/4)`` (D. E. G. Hare, "Computing
    the principal branch of log-Gamma", J. Algorithms 25, 1997), so the cost
    no longer grows with |x|.  Non-finite entries come back non-finite.  A
    0-d call passes Python floats, and the pole test and shift run on them
    in the batch's order of operations: the shift sums its rows x + j,
    j = 0 .. int(0.5 - x), in row order like the batch's ``cumsum``, adding
    0.0 for a row at 0.5, so the value keeps its batch entry's bits.  Only
    ``log``, ``hypot`` and ``arctan2`` still go through numpy there.  A 0-d
    call that reflects runs the array body below as a batch of one.  A 0-d
    x not left of 0.5 with an array y (the one real part of
    :func:`beta_conjugate`) enters the Lanczos planes as a float, without
    being broadcast to y's shape.
    """
    if isinstance(y, np.ndarray) and not np.ndim(x) and not x < 0.5:
        re, im = _log_gamma_right_planes(float(x) - 1.0, np.asarray(y, dtype=np.float64))
        return (_complex(re, im),)
    # a 0-d call left of -_SHIFT_CAP reflects as a batch of one
    if isinstance(x, float) and isinstance(y, float) and not x < -_SHIFT_CAP:
        if not x < 0.5:
            re, im = _log_gamma_right_planes(x - 1.0, y)
            return (np.complex128(complex(re, im)),)
        # x == floor(x) of the batch
        if y == 0.0 and x.is_integer():
            raise PoleError("gamma function evaluated at a nonpositive integer")
        sum_re, sum_im = float(np.log(np.hypot(x, y))), float(np.arctan2(y, x))
        steps = 1
        for j in range(1, int(0.5 - x) + 1):
            row = j + x
            if row < 0.5:
                sum_re += float(np.log(np.hypot(row, y)))
                sum_im += float(np.arctan2(y, row))
                steps += 1
            else:
                sum_re += 0.0
                sum_im += 0.0
        re, im = _log_gamma_right_planes((x + steps) - 1.0, y)
        return (np.complex128(complex(re - sum_re, im - sum_im)),)
    if np.shape(x) != np.shape(y):
        shape = np.broadcast_shapes(np.shape(x), np.shape(y))
        x, y = np.broadcast_to(x, shape), np.broadcast_to(y, shape)
    x = np.array(x, dtype=np.float64)
    y = np.array(y, dtype=np.float64)
    xf, yf = x.reshape(-1), y.reshape(-1)  # views: index work writes through
    left = (xf < 0.5).nonzero()[0]
    reflect = shift = left
    if left.size:
        x_left, y_left = xf[left], yf[left]
        if ((y_left == 0.0) & (x_left == np.floor(x_left))).any():
            raise PoleError("gamma function evaluated at a nonpositive integer")
        # x = -inf reflects to +inf and an infinite or nan y stays so: such
        # entries come back non-finite on either route
        far = x_left < -_SHIFT_CAP
        reflect, shift = left[far], left[~far]
        if reflect.size:
            z_far = _complex(xf[reflect], yf[reflect])
            xf[reflect] = 1.0 - z_far.real
            yf[reflect] = -z_far.imag
        if shift.size:
            # row j holds x + j, exact while x + j < 0.5 (then |x + j| <= |x|);
            # the steps still left of 0.5 are a prefix of every column, and
            # cumsum adds the rows in order whatever the number of columns
            moved, y_shift = xf[shift], yf[shift]
            grid = np.arange(int(0.5 - moved.min()) + 1.0)[:, None] + moved
            active = grid < 0.5
            logs = _complex(np.where(active, np.log(np.hypot(grid, y_shift)), 0.0),
                            np.where(active, np.arctan2(y_shift, grid), 0.0))
            logs = np.cumsum(logs, axis=0)[-1]
            xf[shift] = moved + active.sum(axis=0)
    # y[()] is a view of y for arrays and a numpy scalar for 0-d input,
    # whose arithmetic costs a fraction of a 0-d array's
    out = _complex(*_log_gamma_right_planes(x - 1.0, y[()]))
    if left.size:
        flat = out.reshape(-1)
        if shift.size:
            flat[shift] -= logs
        if reflect.size:
            unwind = np.copysign(2.0 * np.pi, z_far.imag) * np.floor(0.5 * z_far.real + 0.25)
            flat[reflect] = (_LOG_PI + 1j * unwind) - _log_sin_pi(z_far) - flat[reflect]
    return (out,)


def _log_gamma_complex(z) -> np.ndarray:
    """Principal-branch log Gamma for complex input, cache-blocked."""
    z = np.asarray(z, dtype=np.complex128)
    return _blockwise(_log_gamma_block, z.real, z.imag)[0]


def _number(value):
    """A 0-d ``value`` as a Python float, or a Python complex if its dtype
    is complex; None for an array.  The public entries of this module and
    of :mod:`hypergeometric` (``hyp3f2_ladder``) and ``dfamily.d_axis_factor``
    read their single values through it."""
    if isinstance(value, float):  # numpy's float64 scalars among them
        return float(value)
    if isinstance(value, complex):  # and complex128
        return complex(value)
    value = np.asarray(value)
    if value.ndim:
        return None
    return complex(value.item()) if np.iscomplexobj(value) else float(value.item())


def _real_array(value, name: str) -> np.ndarray:
    """``value`` as a float64 array (one ``asarray`` if it is one already);
    complex input raises ValueError naming the argument ``name``."""
    arr = np.asarray(value)
    if arr.dtype is not _FLOAT64:
        if np.iscomplexobj(arr):
            raise ValueError(f"{name} must be real, not complex")
        arr = arr.astype(np.float64)
    return arr


def _real_number(value, name: str):
    """A 0-d ``value`` as a Python float, anything else as
    :func:`_real_array` gives it; complex input raises ValueError naming
    the argument ``name``."""
    if isinstance(value, float):  # numpy's float64 scalars among them
        return float(value)
    arr = _real_array(value, name)
    return arr.item() if not arr.ndim else arr


def log_gamma(z):
    """Principal-branch log Gamma.

    Real input with all entries positive yields a real result; anything else
    is computed on the complex path.  Raises :class:`PoleError` at
    nonpositive integers.
    """
    value = _number(z)
    if value is None:
        arr = np.asarray(z)
        if not np.iscomplexobj(arr) and (arr > 0.0).all():
            a = arr.astype(np.float64)
            if (a >= 0.5).all():
                return _log_gamma_right(a - 1.0)
            # shift once into the Lanczos region; argument stays positive
            return np.where(a >= 0.5, _log_gamma_right(np.maximum(a, 0.5) - 1.0),
                            _log_gamma_right(a) - np.log(a))
        return _log_gamma_complex(arr)
    if isinstance(value, float):
        if value >= 0.5:
            return _log_gamma_right(value - 1.0)
        if value > 0.0:
            return _log_gamma_right(value) - np.log(value)
    # the kernel packs the value, except that a reflection comes back as a
    # 0-d batch of one
    return _log_gamma_block(value.real, value.imag)[0][()]


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
        # reflection: Gamma(z) = pi / (sin(pi z) Gamma(1 - z)), 1 - z >= 0.5;
        # where Gamma(1 - z) passes double range the quotient is formed in
        # log space and may underflow to zero, quietly
        sin = np.sin(np.pi * zr)
        lg = _log_gamma_right(-zr)
        with np.errstate(over="ignore", divide="ignore"):
            values = np.where(lg > _LOG_DBL_MAX,
                              np.copysign(np.exp(_LOG_PI - np.log(np.abs(sin)) - lg), sin),
                              np.pi / (sin * np.exp(lg)))
        if np.isinf(values).any():
            raise OverflowError("gamma overflow: argument too close to 0 for double range")
        out[~right] = values
    return out


def gamma(z):
    """Gamma function, ``exp(log_gamma(z))``.

    Real input returns real output (the imaginary part is exactly zero, not
    merely small).  Raises :class:`PoleError` at nonpositive integers and
    :class:`OverflowError` when the result exceeds double range.
    """
    arr = np.asarray(z)
    scalar = arr.ndim == 0
    if not np.iscomplexobj(arr):
        a = arr.astype(np.float64)
        _check_poles(a)
        out = _gamma_real(a)
        return out[()] if scalar else out
    lg = _log_gamma_complex(arr)
    if (lg.real > _LOG_DBL_MAX).any():
        raise OverflowError("gamma overflow: argument too large for double range")
    out = np.exp(lg)
    return out[()] if scalar else out


def gamma_pair(a, b):
    """Gamma(a) Gamma(b) as one exponential of the summed log-gammas.

    Raises :class:`PoleError` at a gamma pole and :class:`OverflowError`
    under the condition of :func:`gamma`: either factor beyond double range.
    A batch runs per block (:func:`_blockwise`).  :func:`log_gamma` takes
    its real route only for an operand whose entries are all positive; that
    choice is made here for the whole batch, so every block takes it alike.
    """
    x, y = _number(a), _number(b)
    if x is not None and y is not None:
        return _gamma_pair_block(x, y)[0]
    a, b = np.asarray(a), np.asarray(b)
    if not (np.iscomplexobj(a) or (a > 0.0).all()):
        a = a.astype(np.complex128)
    if not (np.iscomplexobj(b) or (b > 0.0).all()):
        b = b.astype(np.complex128)
    return _blockwise(_gamma_pair_block, a, b)[0]


def _gamma_pair_block(a, b):
    log_a = log_gamma(a)
    log_b = log_gamma(b)
    if isinstance(log_a, np.generic) and isinstance(log_b, np.generic):
        # 0-d operands, tested as numbers; as np.maximum does, a nan in
        # either real part means no overflow
        re_a, re_b = float(log_a.real), float(log_b.real)
        overflow = (re_a > _LOG_DBL_MAX or re_b > _LOG_DBL_MAX) and re_a == re_a and re_b == re_b
    else:
        overflow = (np.maximum(np.real(log_a), np.real(log_b)) > _LOG_DBL_MAX).any()
    if overflow:
        raise OverflowError("gamma overflow: argument too large for double range")
    return (np.exp(log_a + log_b),)


def beta_conjugate(x, y):
    """B(x + iy, x - iy) = |Gamma(x + iy)|^2 / Gamma(2x) for real x and y.

    The beta function of a conjugate pair, as in the theta factors at real
    frequency: ``exp(2 Re log Gamma(x + iy) - log Gamma(2x))``, one complex
    log-gamma per point.  ``x`` and ``y`` broadcast; the theta factors pass
    one real part per call, so log Gamma(2x) is then a single scalar
    evaluation.  The result is real, and negative where Gamma(2x) is: for
    2x < 0 that is when ceil(-2x) is odd.  Raises :class:`PoleError` at a
    gamma pole.
    """
    re, im = _number(x), _number(y)
    if re is None or im is None:
        x = np.asarray(x, dtype=np.float64)
        return _beta_from_log(x, _blockwise(_log_gamma_block, x, y)[0])
    return _beta_conjugate(float(re), im)


def _beta_conjugate(x: float, y):
    """:func:`beta_conjugate` at one real part ``x``, a Python float, and
    ``y``, a Python float or one block of an array: the theta rows'
    entry, beneath the argument checks."""
    return _beta_from_log(x, _log_gamma_block(x, y)[0])


def _beta_from_log(x, lg):
    """:func:`beta_conjugate` from ``lg`` = log Gamma(x + iy)."""
    lg2 = log_gamma(2.0 * x)
    if lg2.dtype.kind != "c":
        return np.exp(2.0 * lg.real - lg2)
    # some 2x < 0, where log Gamma(2x) is complex: keep its modulus and sign
    sign = np.where((x < 0.0) & (np.ceil(-2.0 * x) % 2.0 == 1.0), -1.0, 1.0)
    return sign * np.exp(2.0 * lg.real - lg2.real)


def _pochhammer(base, order: int):
    """Rising factorial ``(base)_order = base (base+1) ... (base+order-1)``
    for a checked ``order`` (an int >= 0); the empty product is 1.  The
    base is taken as given, so the callers pass Python numbers or doubles."""
    if order == 0:
        arr = np.asarray(base)
        return np.ones_like(arr) if arr.ndim else arr.dtype.type(1)
    result = base
    for k in range(1, order):
        result = result * (base + k)
    if isinstance(result, np.ndarray):
        finite = np.isfinite(np.asarray(result, dtype=np.complex128)).all()
    else:
        # a number is checked without building an array
        finite = cmath.isfinite(result)
    if not finite:
        raise OverflowError("pochhammer overflow")
    return result
