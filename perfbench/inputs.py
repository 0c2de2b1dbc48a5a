"""Seeded inputs of the eval-scalar and eval-batch workloads.

Every input is drawn from ``numpy.random.default_rng(seed)``, so one seed
always gives the same calls.  A call is a dict: ``kind`` names the library
function and the other keys are its arguments as plain numbers, tuples or
numpy arrays.  Nothing here imports the library; ``worker.py`` turns a call
into a library call and ``reference.py`` into an mpmath reference value.

Degrees are drawn per axis from 0..DEGREE_MAX.  The range reaches degree 12
on purpose: the forward 3F2 series loses relative accuracy from degree 8 up,
and the workloads keep that loss visible.

The draws that set a call's cost are stratified: within each kind, every
dimension r = 1..3 and every degree 0..12 appears equally often, in a seeded
order.  Only the continuous parameters and points are drawn freely.  So two
seeds give workloads of nearly the same cost and the same share of high
degrees.
"""

from __future__ import annotations

import hashlib
from functools import partial

import numpy as np

DEGREE_MAX = 12

SCALAR_KINDS = ("fourier_closed_form", "fourier_via_recursion", "theta_factor",
                "gegenbauer", "ball_basis_eval", "d_family_eval", "log_gamma")
BATCH_KINDS = ("theta_factor", "gegenbauer", "ball_basis_eval", "family_eval",
               "d_family_eval", "log_gamma")

# calls of each kind in one cycle of the scalar stream; the timed loop
# replays the cycle and every call of it is checked against mpmath
SCALAR_PER_KIND = 210
# output values per batched call, batched calls of each kind in one cycle,
# and the values of each batched call that are checked against mpmath
BATCH_POINTS = 100_000
BATCH_PER_KIND = 18
BATCH_CHECKED_POINTS = 8


def _balanced(rng, values, count: int) -> list[int]:
    """``count`` entries cycling through ``values``, in a seeded order."""
    return [int(v) for v in rng.permutation(np.resize(np.asarray(values), count))]


class _Strata:
    """Dimensions and per-axis degrees for the calls of one kind, each value
    equally often: r cycles through 1..3, degrees through 0..DEGREE_MAX."""

    def __init__(self, rng, count: int) -> None:
        self.dims = _balanced(rng, (1, 2, 3), count)
        self._degrees = _balanced(rng, range(DEGREE_MAX + 1), sum(self.dims))

    def degrees(self, r: int) -> tuple[int, ...]:
        taken, self._degrees = self._degrees[:r], self._degrees[r:]
        return tuple(taken)


def _mu(rng) -> float:
    # the ball weight excludes mu = 0 (a Gamma(mu) pole in the norms)
    mu = float(rng.uniform(-0.4, 2.0))
    return 0.35 if abs(mu) < 0.05 else mu


def _family(rng, r: int, n: tuple[int, ...]) -> dict:
    return {"r": r, "a": float(rng.uniform(0.3, 2.0)), "mu": _mu(rng), "n": n}


def _dfamily(rng, r: int, n: tuple[int, ...]) -> dict:
    a1 = float(rng.uniform(0.3, 2.0))
    a2 = float(rng.uniform(0.3, 2.0))
    return {"r": r, "a1": a1, "a2": a2, "n": n}


def _lambda(rng) -> float:
    lam = float(rng.uniform(-0.4, 3.0))
    return 0.35 if abs(lam) < 0.05 else lam


def _ball_points(rng, count: int, r: int) -> np.ndarray:
    """Points uniform in the open unit ball of R^r, shape (count, r)."""
    direction = rng.normal(size=(count, r))
    direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
    radius = 0.999 * rng.uniform(size=(count, 1)) ** (1.0 / r)
    return direction * radius


def _dfamily_points(rng, count: int, r: int) -> np.ndarray:
    """Complex points of shape (count, r) off the gamma poles.

    The gamma arguments a1 + (m +- x_j)/2 + q keep a positive real part when
    |Re x_j| < 2 a1, and a1 >= 0.3, so |Re x_j| < 0.5 never meets a pole.
    """
    return rng.uniform(-0.5, 0.5, size=(count, r)) + 1j * rng.uniform(-6.0, 6.0, size=(count, r))


def _log_gamma_points(rng, count: int) -> np.ndarray:
    return rng.uniform(-4.5, 12.0, size=count) + 1j * rng.uniform(-8.0, 8.0, size=count)


def _scalar_call(rng, kind: str, r: int, n: tuple[int, ...]) -> dict:
    if kind in ("fourier_closed_form", "fourier_via_recursion"):
        call = _family(rng, r, n)
        call["xi"] = tuple(float(v) for v in rng.uniform(-3.0, 3.0, size=r))
        if kind == "fourier_via_recursion":
            call["mode"] = ("peel_first", "peel_last")[int(rng.integers(0, 2))]
    elif kind == "theta_factor":
        call = _family(rng, r, n)
        call["j"] = int(rng.integers(1, r + 1))
        call["xi"] = float(rng.uniform(-3.0, 3.0))
    elif kind == "gegenbauer":
        call = {"n": n[0], "lam": _lambda(rng), "x": float(rng.uniform(-1.0, 1.0))}
    elif kind == "ball_basis_eval":
        call = {"r": r, "n": n, "mu": _mu(rng),
                "x": tuple(float(v) for v in _ball_points(rng, 1, r)[0])}
    elif kind == "d_family_eval":
        call = _dfamily(rng, r, n)
        call["x"] = tuple(complex(v) for v in _dfamily_points(rng, 1, r)[0])
    else:
        call = {"z": complex(_log_gamma_points(rng, 1)[0])}
    call["kind"] = kind
    return call


def _stream(rng, kinds, per_kind: int, make) -> list[dict]:
    """``per_kind`` calls of every kind, stratified, in a seeded order."""
    calls = []
    for kind in kinds:
        strata = _Strata(rng, per_kind)
        for r in strata.dims:
            # gegenbauer takes one degree; log_gamma none
            width = 0 if kind == "log_gamma" else 1 if kind == "gegenbauer" else r
            calls.append(make(rng, kind, r, strata.degrees(width)))
    return [calls[i] for i in rng.permutation(len(calls))]


def scalar_stream(seed: int) -> list[dict]:
    """One cycle of the eval-scalar stream: SCALAR_PER_KIND single-value calls
    of every kind."""
    return _stream(np.random.default_rng([seed, 1]), SCALAR_KINDS, SCALAR_PER_KIND,
                   _scalar_call)


def _batch_inputs(rng) -> dict:
    """The arrays the batched calls evaluate on; calls of one kind and
    dimension share them, which keeps the working set small."""
    count = BATCH_POINTS
    arrays = {"xi": np.linspace(rng.uniform(-4.0, -2.0), rng.uniform(2.0, 4.0), count),
              "x": rng.uniform(-1.0, 1.0, size=count),
              "z": _log_gamma_points(rng, count)}
    for r in (1, 2, 3):
        arrays["ball", r] = _ball_points(rng, count, r)
        arrays["family", r] = rng.normal(scale=1.5, size=(count, r))
        arrays["dfamily", r] = _dfamily_points(rng, count, r)
    return arrays


def _batch_call(arrays: dict, rng, kind: str, r: int, n: tuple[int, ...]) -> dict:
    if kind == "theta_factor":
        call = _family(rng, r, n)
        call["j"] = int(rng.integers(1, r + 1))
        call["xi"] = arrays["xi"]
    elif kind == "gegenbauer":
        call = {"n": n[0], "lam": _lambda(rng), "x": arrays["x"]}
    elif kind == "ball_basis_eval":
        call = {"r": r, "n": n, "mu": _mu(rng), "x": arrays["ball", r]}
    elif kind == "family_eval":
        call = _family(rng, r, n)
        call["x"] = arrays["family", r]
    elif kind == "d_family_eval":
        call = _dfamily(rng, r, n)
        call["x"] = arrays["dfamily", r]
    else:
        call = {"z": arrays["z"]}
    call["kind"] = kind
    call["checked"] = rng.choice(BATCH_POINTS, size=BATCH_CHECKED_POINTS, replace=False)
    return call


def batch_stream(seed: int) -> list[dict]:
    """One cycle of the eval-batch stream: BATCH_PER_KIND batched calls of
    BATCH_POINTS values for every kind."""
    rng = np.random.default_rng([seed, 2])
    return _stream(rng, BATCH_KINDS, BATCH_PER_KIND, partial(_batch_call, _batch_inputs(rng)))


def batch_point(call: dict, index: int) -> dict:
    """The scalar call that computes value ``index`` of a batched call."""
    point = {key: value for key, value in call.items() if key != "checked"}
    if call["kind"] == "log_gamma":
        point["z"] = complex(call["z"][index])
    elif call["kind"] == "theta_factor":
        point["xi"] = float(call["xi"][index])
    elif call["kind"] == "gegenbauer":
        point["x"] = float(call["x"][index])
    else:
        point["x"] = tuple(call["x"][index].tolist())
    return point


def digest(calls: list[dict]) -> str:
    """SHA-256 over the calls' kinds, parameters and input arrays; an array
    that several calls share is hashed once and then named by position."""
    h = hashlib.sha256()
    seen: dict[int, int] = {}
    for call in calls:
        for key in sorted(call):
            value = call[key]
            h.update(key.encode())
            if isinstance(value, np.ndarray) and id(value) in seen:
                h.update(f"array {seen[id(value)]}".encode())
            elif isinstance(value, np.ndarray):
                seen[id(value)] = len(seen)
                h.update(str(value.dtype).encode())
                h.update(np.ascontiguousarray(value).tobytes())
            else:
                h.update(repr(value).encode())
    return h.hexdigest()
