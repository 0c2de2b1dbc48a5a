"""The cache-blocked kernels: complex log-gamma, the terminating series and
the continuous-Hahn degree recurrence.

Arrays larger than ``special._BLOCK`` run through the kernels in flat
slices.  Every entry must come out bit-identical to a call on that entry
alone, whichever slice it falls in, and an error or a non-finite value in a
later slice must still surface.

The reference for an entry is the same function called on a one-entry
array (a batch of one).  For complex log-gamma a 0-d call agrees with it
bit for bit too, since that kernel's arithmetic is real
(``tests/test_special.py::TestScalarIsBatchOfOne``).  For the 3F2 kernels
with complex parameters the two can differ in the last bit, because a 0-d
call runs on Python numbers, whose complex multiply is unfused, while
numpy's array loops fuse it.  That is the arithmetic's behaviour, not the
blocking's.
"""

import numpy as np
import pytest

from ballfourier import DenominatorPoleError, PoleError, gamma, hyp3f2_unit, log_gamma, special
from ballfourier.hypergeometric import _terminating_sum

B = special._BLOCK
SIZES = (B - 1, B, B + 1, 3 * B + 7)


def _probe_indices(size):
    """Entries on both sides of every slice boundary, plus a spread."""
    edges = [k * B + d for k in range(size // B + 1) for d in (-1, 0, 1)]
    spread = np.linspace(0, size - 1, 48).astype(int).tolist()
    return sorted({i for i in edges + spread if 0 <= i < size})


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _complex_points(rng, size, re_low=-30.0, re_high=12.0, im=25.0):
    z = rng.uniform(re_low, re_high, size) + 1j * rng.uniform(-im, im, size)
    # real-axis entries with either sign of zero, kept off the poles
    axis = np.arange(0, size, 97)
    z[axis] = np.floor(z[axis].real) + 0.375 + 0j
    z[axis[::2]] = np.conj(z[axis[::2]])
    return z


@pytest.mark.parametrize("size", SIZES)
def test_log_gamma_entries_match_single_calls(rng, size):
    z = _complex_points(rng, size)
    batch = log_gamma(z)
    assert batch.shape == (size,)
    for i in _probe_indices(size):
        assert _same_bits(batch[i], log_gamma(z[i:i + 1])[0]), i


@pytest.mark.parametrize("size", SIZES)
def test_complex_gamma_entries_match_single_calls(rng, size):
    z = _complex_points(rng, size, re_low=-12.0, re_high=12.0, im=8.0)
    batch = gamma(z)
    for i in _probe_indices(size):
        assert _same_bits(batch[i], gamma(z[i:i + 1])[0]), i


def test_log_gamma_two_dimensional(rng):
    z = _complex_points(rng, 4 * (B // 2 + 3)).reshape(4, B // 2 + 3)
    batch = log_gamma(z)
    assert batch.shape == z.shape
    for i in range(4):
        for j in (0, B // 2 - 1, B // 2, B // 2 + 2):
            assert _same_bits(batch[i, j], log_gamma(z[i, j:j + 1])[0])


@pytest.mark.parametrize("size", SIZES)
def test_terminating_sum_entries_match_single_calls(rng, size):
    # the theta-factor shape: real numerators, one complex parameter array
    arg = rng.uniform(0.3, 3.0, size) + 0.5j * rng.uniform(-4.0, 4.0, size)
    value, peak = _terminating_sum([-9.0, 14.5, arg], [3.2, 2.6], 1.0, 9)
    for i in _probe_indices(size):
        v, p = _terminating_sum([-9.0, 14.5, arg[i:i + 1]], [3.2, 2.6], 1.0, 9)
        assert _same_bits(value[i], v[0]) and _same_bits(peak[i], p[0]), i


@pytest.mark.parametrize("size", SIZES)
def test_real_terminating_sum_entries_match_0d_calls(rng, size):
    # real arithmetic: a 0-d call is bit-identical to its batch entry
    x = rng.uniform(-1.0, 1.0, size)
    value, peak = _terminating_sum([-10.0, 12.5], [3.25], (1.0 - x) / 2.0, 10)
    for i in _probe_indices(size):
        v, p = _terminating_sum([-10.0, 12.5], [3.25], np.asarray((1.0 - x[i]) / 2.0), 10)
        assert _same_bits(value[i], v) and _same_bits(peak[i], p), i


@pytest.mark.parametrize("size", SIZES)
def test_hahn_recurrence_entries_match_single_calls(rng, size):
    # the theta-factor shape on the recurrence route (s = 5.5 > 0)
    arg = rng.uniform(0.3, 3.0, size) + 0.5j * rng.uniform(-40.0, 40.0, size)
    value = hyp3f2_unit(12, 16.5, arg, 3.2, 2.6)
    for i in _probe_indices(size):
        assert _same_bits(value[i], hyp3f2_unit(12, 16.5, arg[i:i + 1], 3.2, 2.6)[0]), i


def test_terminating_sum_broadcast_shapes(rng):
    # a (rows, 1) numerator against a (1, cols) argument: blocked output
    # has the broadcast shape and every entry of the unblocked call
    rows, cols = 3, B // 2 + 5
    upper = rng.uniform(1.0, 4.0, (rows, 1))
    arg = (rng.uniform(0.3, 3.0, cols) + 1j * rng.uniform(-2.0, 2.0, cols)).reshape(1, cols)
    value, peak = _terminating_sum([-6.0, upper, arg], [2.5, 1.75], 1.0, 6)
    assert value.shape == peak.shape == (rows, cols)
    for i in range(rows):
        v, p = _terminating_sum([-6.0, upper[i], arg[0]], [2.5, 1.75], 1.0, 6)
        assert _same_bits(value[i], v) and _same_bits(peak[i], p)


def test_pole_in_a_later_block_raises():
    size = 3 * B + 7
    den = np.full(size, 2.5)
    den[2 * B + 5] = -1.0  # den + 1 vanishes at the second term
    with pytest.raises(DenominatorPoleError):
        _terminating_sum([-3.0, 1.5], [den], 1.0, 3)
    z = np.full(size, 1.5 + 0.5j)
    z[2 * B + 5] = -4.0
    with pytest.raises(PoleError):
        log_gamma(z)
    with pytest.raises(PoleError):
        gamma(z)


def test_non_finite_in_a_later_block_propagates():
    size = 3 * B + 7
    z = np.full(size, -2.5 + 0.25j)
    clean = log_gamma(z)
    z[2 * B + 5] = complex(np.nan, 1.0)
    z[3 * B + 2] = complex(-np.inf, 1.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        values = log_gamma(z)
    assert not np.isfinite(values[2 * B + 5]) and not np.isfinite(values[3 * B + 2])
    keep = np.ones(size, dtype=bool)
    keep[[2 * B + 5, 3 * B + 2]] = False
    assert _same_bits(values[keep], clean[keep])
    arg = np.full(size, 1.25 + 0.5j)
    arg[2 * B + 5] = complex(np.nan, 0.0)
    with np.errstate(invalid="ignore"):
        value, _ = _terminating_sum([-4.0, 2.0, arg], [1.5, 2.5], 1.0, 4)
    assert not np.isfinite(value[2 * B + 5])
    assert np.all(np.isfinite(np.delete(value, 2 * B + 5)))
