"""The 0-d route of the log-gamma and continuous-Hahn 3F2 kernels.

A 0-d call hands the kernels Python floats and complex numbers instead of
numpy scalars (``special._blockwise`` and the real ``log_gamma`` entry).
The kernel bodies are the batch bodies, written in operators; Python and
numpy-scalar arithmetic are both unfused IEEE double, so every value keeps
its bits.  These tests pin the route (the kernels really see Python
numbers), the bits (against a recurrence on numpy scalars written here and
against the batch entry on the real log-gamma path) and the edges (non-finite
and huge planes), where Python arithmetic may only drop a numpy warning.
"""

import warnings

import numpy as np
import pytest

from ballfourier import FamilyParams, gamma, hypergeometric, log_gamma, special, theta_factor
from ballfourier.hypergeometric import hyp3f2_ladder
from ballfourier.special import beta_conjugate


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestKernelsSeePythonNumbers:
    @staticmethod
    def _spy(monkeypatch, module, name, seen):
        kernel = getattr(module, name)

        def spy(*args):
            seen.append((name, type(args[0]), type(args[1]) if name.endswith("planes") else None))
            return kernel(*args)

        monkeypatch.setattr(module, name, spy)

    @pytest.fixture
    def seen(self, monkeypatch):
        seen = []
        self._spy(monkeypatch, special, "_lanczos_sum", seen)
        self._spy(monkeypatch, special, "_log_gamma_right_planes", seen)
        self._spy(monkeypatch, hypergeometric, "_ladder_block", seen)
        return seen

    def test_log_gamma(self, seen):
        assert type(log_gamma(3.7)) is np.float64
        assert type(log_gamma(0.3)) is np.float64
        assert type(log_gamma(3.7 + 2.1j)) is np.complex128
        assert seen == [("_lanczos_sum", float, None), ("_lanczos_sum", float, None),
                        ("_log_gamma_right_planes", float, float)]

    def test_beta_conjugate(self, seen):
        assert type(beta_conjugate(1.375, 0.8)) is np.float64
        assert seen == [("_log_gamma_right_planes", float, float), ("_lanczos_sum", float, None)]

    @pytest.mark.parametrize("u, kind", [(1.2 + 0.7j, complex), (1.2, float)])
    def test_ladder(self, seen, u, kind):
        values = hyp3f2_ladder((0, 3, 8), 5.5, u, 2.5, 3.25)
        assert [type(v) for v in values] == [np.dtype(kind).type] * 3
        assert seen == [("_ladder_block", kind, None)]

    def test_theta_factor(self, seen):
        params = FamilyParams(0.8, 0.6, (3, 5, 2))
        assert type(theta_factor(2, 3, params, 0.7)) is np.complex128
        assert sorted(set(seen), key=str) == [("_ladder_block", complex, None),
                                              ("_lanczos_sum", float, None),
                                              ("_log_gamma_right_planes", float, float)]

    def test_batches_stay_arrays(self, seen):
        log_gamma(np.array([3.7, 0.3]))
        log_gamma(np.array([3.7 + 2.1j]))
        hyp3f2_ladder((8,), 5.5, np.array([1.2 + 0.7j]), 2.5, 3.25)
        assert {kind for _, kind, _ in seen} == {np.ndarray}


def _reference_ladder(u, s, l1, l2, n):
    """F_0 .. F_n of 3F2(-k, k+s-1, u; l1, l2; 1) by the degree recurrence
    on numpy scalars: coefficients in float64, values in complex128, in the
    library's order of operations."""
    s, l1, l2 = np.float64(s), np.float64(l1), np.float64(l2)
    u = np.complex128(u)
    values = [np.complex128(1.0)]
    prev = curr = np.complex128(1.0)
    for k in range(n):
        if k == 0:
            a, c = -l1 * l2 / s, np.float64(0.0)
        else:
            a = -(k + s - 1) * (k + l1) * (k + l2) / ((2 * k + s - 1) * (2 * k + s))
            c = k * (k + s - l2 - 1) * (k + s - l1 - 1) / ((2 * k + s - 2) * (2 * k + s - 1))
        b, inv_a = a + c, np.float64(1.0) / a
        prev, curr = curr, ((u + b) * curr - c * prev) * inv_a
        values.append(curr)
    return values


class TestLadderAgainstNumpyScalars:
    @pytest.mark.parametrize("complex_u", [False, True])
    def test_degrees_0_to_30(self, complex_u):
        rng = np.random.default_rng(20260418)
        for _ in range(40):
            s = float(rng.uniform(0.5, 12.0))
            l1, l2 = (float(v) for v in rng.uniform(0.2, 6.0, size=2))
            u = float(rng.uniform(-4.0, 4.0))
            if complex_u:
                u = complex(u, float(rng.uniform(-20.0, 20.0)))
            values = hyp3f2_ladder(range(31), s, u, l1, l2)
            reference = _reference_ladder(u, s, l1, l2, 30)
            for k, (value, ref) in enumerate(zip(values, reference)):
                assert np.isfinite(ref), (s, l1, l2, u, k)
                expect = ref if complex_u else ref.real
                assert _same_bits(value, expect), (s, l1, l2, u, k)


class TestRealPathIsBatchOfOne:
    """0-d real calls against their batch entry, bit for bit, for x in
    (0, 60]; ``test_special.TestScalarIsBatchOfOne`` draws complex points."""

    @staticmethod
    def _points():
        rng = np.random.default_rng(31)
        x = rng.uniform(0.0, 60.0, 300)
        x[:40] = rng.uniform(0.0, 0.5, 40)  # the shifted branch, x < 1/2
        return np.concatenate([x, [0.5, np.nextafter(0.5, 0.0), 1e-300, 1.0, 2.0, 60.0]])

    @pytest.mark.parametrize("fn", [log_gamma, gamma])
    def test_log_gamma_and_gamma(self, fn):
        x = self._points()
        batch = fn(x)
        assert batch.dtype == np.float64
        for i, value in enumerate(x):
            assert _same_bits(fn(float(value)), batch[i]), value

    def test_beta_conjugate(self):
        x = self._points()
        y = np.random.default_rng(32).uniform(-30.0, 30.0, x.size)
        batch = beta_conjugate(x, y)
        for i in range(x.size):
            assert _same_bits(beta_conjugate(float(x[i]), float(y[i])), batch[i]), (x[i], y[i])


_PLANES = (np.nan, np.inf, -np.inf, 1e300, -1e300, 2.5, -2.5, -17.5)


def _run(fn, *args):
    """(type name of what ``fn`` raises with numpy's warnings as errors, or
    None; its value with them silenced, or the exception raised then)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            fn(*args)
            raised = None
        except (RuntimeWarning, ArithmeticError, ValueError) as exc:
            raised = type(exc).__name__
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            return raised, fn(*args)
        except (ArithmeticError, ValueError) as exc:
            return raised, type(exc).__name__


def _same_bits_or_nan(a, b) -> bool:
    """Bit-identical, except that a nan matches any nan: the sign of a nan
    depends on which operand an instruction propagates, and CPython's
    specialised float operations can order them unlike its generic ones."""
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype:
        return False
    parts = (a.real, b.real), (a.imag, b.imag)
    return all((np.isnan(x) and np.isnan(y)) or x.tobytes() == y.tobytes() for x, y in parts)


class TestEdgePlanes:
    """nan, +-inf and 1e300 in each plane: a 0-d call gives its batch entry's
    bits (a nan is any nan), and raises nothing its batch entry does not
    (Python arithmetic emits no RuntimeWarning, so a 0-d call may raise
    less)."""

    CASES = [(x, y) for x in _PLANES for y in _PLANES]

    @staticmethod
    def _check(zero_d, batch):
        (raised, value), (batch_raised, batch_value) = zero_d, batch
        assert raised in (None, batch_raised)
        if isinstance(batch_value, str):
            assert value == batch_value
        else:
            assert _same_bits_or_nan(value, batch_value[0])

    @pytest.mark.parametrize("x, y", CASES)
    def test_log_gamma_and_gamma(self, x, y):
        z = complex(x, y)
        for fn in (log_gamma, gamma):
            self._check(_run(fn, z), _run(fn, np.array([z])))

    @pytest.mark.parametrize("x, y", CASES)
    def test_beta_conjugate(self, x, y):
        self._check(_run(beta_conjugate, x, y), _run(beta_conjugate, np.array([x]), np.array([y])))

    @pytest.mark.parametrize("x", _PLANES)
    def test_real_log_gamma_and_gamma(self, x):
        for fn in (log_gamma, gamma):
            self._check(_run(fn, x), _run(fn, np.array([x])))
