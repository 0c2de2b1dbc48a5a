"""mpmath references for the eval workloads, written from the formulas
rather than from the library code.

Each reference returns the value at ``DIGITS`` significant digits and a
cancellation scale: the same formula with every series term, and every
factor, replaced by its magnitude.  Forward summation in double precision
can be off by a small multiple of machine epsilon times that scale, but no
more; a wrong formula is off by far more.  A value that misses the relative
tolerance counts as failed; one that also exceeds the scale bound is wrong.
"""

from __future__ import annotations

import mpmath

DIGITS = 50
# a checked value fails when it misses the reference by more than this,
# relative to the reference
REL_TOLERANCE = 1e-8
# a checked value is wrong, not merely inaccurate, when it misses the
# reference by more than this times its cancellation scale
SCALE_TOLERANCE = 1e-12


def _mp(value):
    if isinstance(value, complex):
        return mpmath.mpc(value.real, value.imag)
    return mpmath.mpf(value)


def _hyp3f2_unit(n: int, b, c, d, e):
    """3F2(-n, b, c; d, e; 1) and the sum of its terms' magnitudes."""
    value = mpmath.hyp3f2(-n, b, c, d, e, 1)
    term = mpmath.mpf(1)
    magnitude = mpmath.mpf(1)
    for k in range(n):
        term = term * (k - n) * (b + k) * (c + k) / ((d + k) * (e + k) * (k + 1))
        magnitude += abs(term)
    return value, magnitude


def _theta(j: int, r: int, a, mu, n, xi):
    nj = n[j - 1]
    m = sum(n[j:])
    q = mpmath.mpf(r - j) / 4
    ap = a + (m + 1j * xi) / 2 + q
    am = a + (m - 1j * xi) / 2 + q
    beta = mpmath.gamma(ap) * mpmath.gamma(am) / mpmath.gamma(ap + am)
    series, magnitude = _hyp3f2_unit(nj, nj + 2 * (m + mu + mpmath.mpf(r - j) / 2), ap,
                                     m + mu + mpmath.mpf(r - j + 1) / 2,
                                     m + 2 * a + mpmath.mpf(r - j) / 2)
    return beta * series, abs(beta) * magnitude


def _fourier(call):
    n, r = call["n"], call["r"]
    a, mu = _mp(call["a"]), _mp(call["mu"])
    exponent = (2 * r * a + mpmath.mpf(r * (r - 5)) / 4
                + sum((j + 1) * n[j + 1] for j in range(r - 1)))
    value = mpmath.power(2, exponent)
    for j in range(1, r + 1):
        m = sum(n[j:])
        value *= (mpmath.rf(2 * (m + mu + mpmath.mpf(r - j) / 2), n[j - 1])
                  / mpmath.factorial(n[j - 1]))
    scale = abs(value)
    for j in range(1, r + 1):
        theta, theta_scale = _theta(j, r, a, mu, n, _mp(call["xi"][j - 1]))
        value *= theta
        scale *= theta_scale
    return value, scale


def _gegenbauer(n: int, lam, x):
    """C_n^lam(x) and the magnitude sum of its terminating 2F1 form."""
    value = mpmath.gegenbauer(n, lam, x)
    z = (1 - x) / 2
    term = mpmath.mpf(1)
    magnitude = mpmath.mpf(1)
    for k in range(n):
        term = term * (k - n) * (n + 2 * lam + k) / ((lam + mpmath.mpf(1) / 2 + k) * (k + 1)) * z
        magnitude += abs(term)
    return value, abs(mpmath.rf(2 * lam, n) / mpmath.factorial(n)) * magnitude


def _ball(n, mu, x):
    r = len(n)
    value = mpmath.mpf(1)
    scale = mpmath.mpf(1)
    partial = mpmath.mpf(0)
    for j in range(1, r + 1):
        lam = mu + sum(n[j:]) + mpmath.mpf(r - j) / 2
        s2 = 1 - partial
        weight = s2 ** (mpmath.mpf(n[j - 1]) / 2)
        factor, factor_scale = _gegenbauer(n[j - 1], lam, x[j - 1] / mpmath.sqrt(s2))
        value *= weight * factor
        scale *= weight * factor_scale
        partial += x[j - 1] ** 2
    return value, scale


def _family(call):
    n, r = call["n"], call["r"]
    a, mu = _mp(call["a"]), _mp(call["mu"])
    x = [_mp(v) for v in call["x"]]
    prefactor = mpmath.mpf(1)
    for j in range(r):
        prefactor *= mpmath.sech(x[j]) ** (2 * (a + mpmath.mpf(r - 1 - j) / 4))
    v, carry = [], mpmath.mpf(1)
    for j in range(r):
        v.append(mpmath.tanh(x[j]) * carry)
        carry *= mpmath.sech(x[j])
    value, scale = _ball(n, mu, v)
    return prefactor * value, prefactor * scale


def _dfamily(call):
    n, r = call["n"], call["r"]
    a1, a2 = _mp(call["a1"]), _mp(call["a2"])
    s = a1 + a2
    value = mpmath.mpf(1)
    scale = mpmath.mpf(1)
    for j in range(1, r + 1):
        nj = n[j - 1]
        m = sum(n[j:])
        q = mpmath.mpf(r - j) / 4
        xj = _mp(call["x"][j - 1])
        gplus = a1 + (m + xj) / 2 + q
        gammas = mpmath.gamma(a1 + (m - xj) / 2 + q) * mpmath.gamma(gplus)
        series, magnitude = _hyp3f2_unit(nj, nj + 2 * (m + s + mpmath.mpf(r - j - 1) / 2), gplus,
                                         m + s + mpmath.mpf(r - j) / 2,
                                         m + 2 * a1 + mpmath.mpf(r - j) / 2)
        value *= gammas * series
        scale *= abs(gammas) * magnitude
    return value, scale


def reference(call: dict):
    """(value, cancellation scale) of one scalar call at DIGITS digits."""
    kind = call["kind"]
    with mpmath.workdps(DIGITS):
        if kind in ("fourier_closed_form", "fourier_via_recursion"):
            # both routes compute the same transform
            return _fourier(call)
        if kind == "theta_factor":
            return _theta(call["j"], call["r"], _mp(call["a"]), _mp(call["mu"]),
                          call["n"], _mp(call["xi"]))
        if kind == "gegenbauer":
            return _gegenbauer(call["n"], _mp(call["lam"]), _mp(call["x"]))
        if kind == "ball_basis_eval":
            return _ball(call["n"], _mp(call["mu"]), [_mp(v) for v in call["x"]])
        if kind == "family_eval":
            return _family(call)
        if kind == "d_family_eval":
            return _dfamily(call)
        if kind == "log_gamma":
            value = mpmath.loggamma(_mp(call["z"]))
            return value, abs(value) + 1
    raise ValueError(f"no reference for {kind!r}")


def check(call: dict, got: complex) -> tuple[float, bool, bool]:
    """(relative error, missed, wrong) of one computed value: missed when it
    is further than REL_TOLERANCE from the reference, relative; wrong when it
    also misses by more than SCALE_TOLERANCE times the cancellation scale."""
    value, scale = reference(call)
    with mpmath.workdps(DIGITS):
        error = abs(_mp(complex(got)) - value)
        size = max(abs(value), abs(_mp(complex(got))))
        rel = float(error / size) if size > 0 else 0.0
        missed = rel > REL_TOLERANCE
        wrong = missed and bool(error > SCALE_TOLERANCE * scale)
    return rel, missed, wrong
