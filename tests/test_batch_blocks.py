"""The batched public routes run in blocks of ``special._BLOCK`` points.

Each route runs its whole per-point pipeline on one block at a time and
writes into one preallocated output, so a batch larger than a block keeps
the bits of an unblocked evaluation and holds no full-size temporaries.
The digests below were recorded before the routes were blocked; 20,481
points leave a partial last block, and the (97, 211) batch is 2-D.  The
r >= 2 family digests and the single-point digest were recorded again
when ``family_eval`` became the product of its axis factors, whose values
are closer to 40-digit mpmath than those of the ball basis at the mapped
point.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from ballfourier import (DParams, DomainError, FamilyParams, PoleError, ball_basis_eval,
                         d_family_eval, family_eval, gegenbauer, theta_factor)
from ballfourier.special import _BLOCK, gamma_pair

# rounding may differ on another numpy, so the digests are checked only on
# the numpy they were recorded with
_RECORDED_NUMPY = "2.4."
_SIZES = ((20_481,), (97, 211))


def _ball_points(rng, shape, r):
    direction = rng.normal(size=shape + (r,))
    direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
    return direction * (0.999 * rng.uniform(size=shape + (1,)) ** (1.0 / r))


def _outputs(shape):
    """(name, value) of every blocked route on seeded inputs of ``shape``."""
    rng = np.random.default_rng([24, len(shape)])
    xi = rng.uniform(-4.0, 4.0, size=shape)
    x = rng.uniform(-1.0, 1.0, size=shape)
    z = x + 1j * rng.uniform(-1.0, 1.0, size=shape)
    yield "theta r=3 j=2", theta_factor(2, 3, FamilyParams(0.8, 0.6, (3, 5, 2)), xi)
    yield "theta r=1", theta_factor(1, 1, FamilyParams(1.3, -0.3, (11,)), xi)
    yield "gegenbauer real", gegenbauer(9, 0.7, x)
    yield "gegenbauer complex", gegenbauer(12, 2.3, z)
    for r, n in ((1, (7,)), (2, (4, 6)), (3, (3, 2, 4))):
        yield f"ball r={r}", ball_basis_eval(n, 0.45, _ball_points(rng, shape, r))
        family = FamilyParams(0.9, 1.2, n)
        yield f"family r={r}", family_eval(rng.normal(scale=1.5, size=shape + (r,)), family)
        points = (rng.uniform(-0.5, 0.5, size=shape + (r,))
                  + 1j * rng.uniform(-6.0, 6.0, size=shape + (r,)))
        yield f"dfamily r={r}", d_family_eval(points, DParams(0.7, 1.1, n))
    a = rng.uniform(-3.5, 6.0, size=shape) + 1j * rng.uniform(-8.0, 8.0, size=shape)
    yield "gamma_pair complex", gamma_pair(a, a.conj() + 0.25)
    yield "gamma_pair positive real", gamma_pair(xi + 4.5, 2.5)
    # one nonpositive entry puts the whole real operand on the complex route
    real = xi + 4.5
    real.reshape(-1)[-1] = -0.5
    yield "gamma_pair mixed real", gamma_pair(real, xi + 5.0)
    # sech^2 powers of exponent 2 and 1/2, where numpy's power may shortcut
    for r, a in ((1, 2.0), (1, 0.5), (2, 0.5), (3, 0.25)):
        points = rng.normal(scale=1.5, size=shape + (r,))
        yield f"family r={r} a={a}", family_eval(points, FamilyParams(a, 0.7, (5,) * r))


def _single_points():
    """Single-point calls of every blocked route, which stay unblocked."""
    rng = np.random.default_rng(2024)
    for r in (1, 2, 3):
        n = tuple(int(v) for v in rng.integers(0, 9, r))
        for a in (2.0, 0.5, 0.25, 0.9):
            x = rng.normal(scale=1.5, size=r)
            yield family_eval(x, FamilyParams(a, 0.7, n))
            yield ball_basis_eval(n, 0.45, x / (1.0 + np.linalg.norm(x)))
            yield d_family_eval(x + 1j * rng.uniform(-6.0, 6.0, r), DParams(a, 0.6, n))
            yield theta_factor(r, r, FamilyParams(a, 0.7, n), x[0])
            yield gegenbauer(n[0] + 1, a, complex(x[0] / 4.0, x[-1] / 4.0))
            yield gamma_pair(complex(x[0], x[-1]), a - 3.3)


def _digests(shape) -> dict:
    digests = {}
    for name, value in _outputs(shape):
        value = np.asarray(value)
        assert value.shape == shape, name
        digest = hashlib.sha256(str(value.dtype).encode() + value.tobytes())
        digests[name] = digest.hexdigest()[:16]
    return digests


_SHA256 = {
    (20_481,): {
        "theta r=3 j=2": "7ced927ba2c52d94", "theta r=1": "f6170c63a45169e6",
        "gegenbauer real": "19ca385e1c3115e6", "gegenbauer complex": "63abfb10f3a7195d",
        "ball r=1": "e8101202eeca6589", "family r=1": "0467f154bd6e62af",
        "dfamily r=1": "45aa2c6d9008128f", "ball r=2": "44c2cd8a2eff4903",
        "family r=2": "fff6b042efefa173", "dfamily r=2": "c418fb940ecb5f97",
        "ball r=3": "58580f99f677bdf4", "family r=3": "2c4fbe762a652ecf",
        "dfamily r=3": "bcc5bb7393952a12", "gamma_pair complex": "030ddc9a405fcc90",
        "gamma_pair positive real": "e13c4bb162b20972", "gamma_pair mixed real": "5a0364953b8826f8",
        "family r=1 a=2.0": "ee9867bfd124e90b", "family r=1 a=0.5": "ca4c4e194fc024c3",
        "family r=2 a=0.5": "29f881f7bce529bf", "family r=3 a=0.25": "daf8a6cf9ab0a270",
    },
    (97, 211): {
        "theta r=3 j=2": "3f6f86c89cb749a6", "theta r=1": "9b3c241d5de52ab8",
        "gegenbauer real": "ea4fcf0afee48926", "gegenbauer complex": "28bb5119ce743268",
        "ball r=1": "1512ffd0461f3a80", "family r=1": "a70fdffa7158bd6e",
        "dfamily r=1": "6e28c09fadba42cf", "ball r=2": "2841cc3c74ce7c9c",
        "family r=2": "09ff192e1e42c74b", "dfamily r=2": "5a5fe6ebf361c6e2",
        "ball r=3": "772f3901077afd1c", "family r=3": "7ff53f06dc29abfb",
        "dfamily r=3": "445ec7bd5d0fa185", "gamma_pair complex": "5f9696a52e3ff6cb",
        "gamma_pair positive real": "57ede995fe7f1f92", "gamma_pair mixed real": "0aacbba5ab07bc61",
        "family r=1 a=2.0": "d212775025f85eea", "family r=1 a=0.5": "2f41a38851e12093",
        "family r=2 a=0.5": "797bee1d32db4d60", "family r=3 a=0.25": "a554719461d25be1",
    },
}
_SINGLE_POINTS_SHA256 = "8fc8d7cccc6c97fa"


class TestRecordedBits:
    @pytest.mark.skipif(not np.__version__.startswith(_RECORDED_NUMPY),
                        reason=f"digests recorded with numpy {_RECORDED_NUMPY}x, "
                               f"this is numpy {np.__version__}")
    @pytest.mark.parametrize("shape", _SIZES)
    def test_outputs_keep_their_bits(self, shape):
        assert _digests(shape) == _SHA256[shape]

    @pytest.mark.skipif(not np.__version__.startswith(_RECORDED_NUMPY),
                        reason=f"digest recorded with numpy {_RECORDED_NUMPY}x, "
                               f"this is numpy {np.__version__}")
    def test_single_points_keep_their_bits(self):
        digest = hashlib.sha256()
        for value in _single_points():
            assert np.ndim(value) == 0
            digest.update(str(value.dtype).encode() + value.tobytes())
        assert digest.hexdigest()[:16] == _SINGLE_POINTS_SHA256


class TestBadPointInLastBlock:
    """A bad point is found when its block runs, with the unblocked error."""

    def test_point_outside_the_ball(self):
        x = _ball_points(np.random.default_rng(5), (20_481,), 3)
        x[-1] = (0.8, 0.8, 0.0)
        assert x.shape[0] - 1 >= 2 * _BLOCK
        with pytest.raises(DomainError):
            ball_basis_eval((2, 1, 3), 0.45, x)

    def test_gamma_pole(self):
        rng = np.random.default_rng(6)
        x = (rng.uniform(-0.5, 0.5, size=(20_481, 1))
             + 1j * rng.uniform(-6.0, 6.0, size=(20_481, 1)))
        # a1 - x/2 = 0 at x = 2 a1: Gamma(0) in the axis factor's gamma pair
        x[-1, 0] = 1.5
        with pytest.raises(PoleError):
            d_family_eval(x, DParams(0.75, 1.1, (4,)))


_POINTS = 100_000


def _peak_over_output(fn, *args) -> float:
    tracemalloc.start()
    try:
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / np.asarray(out).nbytes


class TestMemoryBound:
    """On 1e5 points a route holds its output and block-sized temporaries:
    the traced peak stays below three outputs (unblocked it was 4 to 16)."""

    def test_theta_factor(self, rng):
        xi = rng.uniform(-4.0, 4.0, _POINTS)
        assert _peak_over_output(theta_factor, 1, 3, FamilyParams(0.8, 0.6, (12, 5, 2)), xi) < 3

    def test_gegenbauer(self, rng):
        x = rng.uniform(-1.0, 1.0, _POINTS)
        assert _peak_over_output(gegenbauer, 12, 0.7, x) < 3

    def test_ball_basis_eval(self, rng):
        x = _ball_points(rng, (_POINTS,), 3)
        assert _peak_over_output(ball_basis_eval, (12, 3, 7), 0.45, x) < 3

    def test_family_eval(self, rng):
        x = rng.normal(scale=1.5, size=(_POINTS, 3))
        assert _peak_over_output(family_eval, x, FamilyParams(0.9, 1.2, (12, 3, 7))) < 3

    def test_d_family_eval(self, rng):
        x = (rng.uniform(-0.5, 0.5, size=(_POINTS, 3))
             + 1j * rng.uniform(-6.0, 6.0, size=(_POINTS, 3)))
        assert _peak_over_output(d_family_eval, x, DParams(0.7, 1.1, (12, 3, 7))) < 3
