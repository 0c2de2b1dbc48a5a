"""The 0-d route of the log-gamma and continuous-Hahn 3F2 kernels.

A 0-d call hands the kernels Python floats and complex numbers instead of
numpy scalars (``special._blockwise``, the real ``log_gamma`` entry and the
real ``gegenbauer`` entry).  The kernel bodies are the batch bodies,
written in operators; Python and numpy-scalar arithmetic are both unfused
IEEE double, so every value keeps its bits.  Complex log-gamma left of
Re z = 1/2 runs its pole test, shift recurrence and reflection on Python
floats in the batch's order of operations.  These tests pin the route (the
kernels really see Python numbers), the bits (against a recurrence on numpy
scalars written here and against the batch entry) and the edges
(non-finite and huge planes), where Python arithmetic may only drop a numpy
warning.
"""

import warnings

import numpy as np
import pytest

from ballfourier import (FamilyParams, classical, gamma, gegenbauer, hypergeometric, log_gamma,
                         special, theta_factor)
from ballfourier.errors import PoleError
from ballfourier.hypergeometric import hyp3f2_ladder
from ballfourier.special import beta_conjugate, gamma_pair


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

    @pytest.mark.parametrize("z", [0.3 + 2.1j, -2.3 + 1.1j, -20.5 + 1.1j, -0.5])
    def test_log_gamma_left_of_one_half(self, seen, z):
        # the shift (first two) on Python floats and the reflection (third)
        # as a batch of one; a negative real argument takes the complex path
        assert type(log_gamma(z)) is np.complex128
        planes = np.float64 if complex(z).real < -16.0 else float
        assert seen == [("_log_gamma_right_planes", planes, planes)]

    def test_gamma_pair_left_of_one_half(self, seen):
        assert type(gamma_pair(0.3 + 1.0j, -1.2 - 0.4j)) is np.complex128
        assert seen == [("_log_gamma_right_planes", float, float)] * 2

    def test_gegenbauer(self, monkeypatch):
        seen = []
        recurrence = classical._gegenbauer_recurrence

        def spy(n, lam, x, prev, curr):
            seen.append(type(x))
            return recurrence(n, lam, x, prev, curr)

        monkeypatch.setattr(classical, "_gegenbauer_recurrence", spy)
        assert type(gegenbauer(5, 0.7, 0.3)) is np.float64
        # a complex 0-d x and a batch stay on arrays
        assert type(gegenbauer(5, 0.7, 0.3 + 0.1j)) is np.complex128
        gegenbauer(5, 0.7, np.array([0.3]))
        assert seen == [float, np.ndarray, np.ndarray]

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
        log_gamma(np.array([-2.3 + 1.1j, -20.5 + 1.1j]))
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


class TestLeftHalfPlaneIsBatchOfOne:
    """0-d complex log-gamma at Re z < 1/2 against its one-entry batch, bit
    for bit: every shift count, the reflection left of Re z = -16, the
    negative half-integers (whose last shift row lands on 1/2 and adds 0.0)
    and both signs of a zero imaginary part.  The non-finite planes are in
    :class:`TestEdgePlanes`."""

    @staticmethod
    def _check(x, y):
        z = complex(x, y)
        assert _same_bits(log_gamma(z), log_gamma(np.array([z]))[0]), z

    def test_every_shift_count(self):
        rng = np.random.default_rng(41)
        for steps in range(1, 17):
            # x in (1/2 - steps, 3/2 - steps) takes `steps` recurrence steps
            for x, y in zip(1.5 - steps - rng.uniform(0.0, 1.0, 20), rng.uniform(-8.0, 8.0, 20)):
                self._check(x, y)
        for x in (-16.0, -15.75, 0.5 - 2.0 ** -53, -0.5 + 2.0 ** -53, 1e-300, -1e-300):
            self._check(x, 1.25)

    def test_reflection(self):
        rng = np.random.default_rng(42)
        for x, y in zip(rng.uniform(-80.0, -16.0, 200), rng.uniform(-30.0, 30.0, 200)):
            self._check(x, y)
        for x in (-16.0 - 2.0 ** -48, -1e6 + 0.25, -1e300):
            self._check(x, 0.75)

    def test_negative_half_integers(self):
        for k in range(40):
            for y in (0.0, -0.0, 1e-300, 1.0, -2.5):
                self._check(-k - 0.5, y)

    def test_signed_zero_imaginary_part(self):
        rng = np.random.default_rng(43)
        for x in rng.uniform(-40.0, 0.5, 200):
            for y in (0.0, -0.0):
                self._check(x, y)

    def test_real_argument(self):
        # a negative real 0-d argument takes the complex route
        x = np.random.default_rng(44).uniform(-30.0, 0.0, 100)
        batch = log_gamma(x)
        for i, value in enumerate(x):
            assert _same_bits(log_gamma(float(value)), batch[i]), value

    @pytest.mark.parametrize("x", [0.0, -0.0, -3.0, -16.0, -17.0, -1e300, -np.inf])
    @pytest.mark.parametrize("y", [0.0, -0.0])
    def test_poles_raise_pole_error(self, x, y):
        # floor(-inf) is -inf, so -inf is a pole like the batch's, not an
        # OverflowError from a Python floor
        for z in (complex(x, y), np.array([complex(x, y)])):
            with pytest.raises(PoleError):
                log_gamma(z)


class TestGegenbauerIsBatchOfOne:
    def test_real_x(self):
        rng = np.random.default_rng(45)
        x = np.concatenate([rng.uniform(-1.2, 1.2, 12), [-1.2, -1.0, 0.0, -0.0, 1.0, 1.2]])
        for n in range(41):
            for lam in rng.uniform(-0.4, 5.0, 6):
                batch = gegenbauer(n, lam, x)
                for i, value in enumerate(x):
                    assert _same_bits(gegenbauer(n, lam, float(value)), batch[i]), (n, lam, value)

    def test_complex_x_keeps_the_array_route(self):
        # a 0-d complex x runs the recurrence on 0-d arrays, as before the
        # real 0-d route; a Python complex route would change its bits
        rng = np.random.default_rng(46)
        for _ in range(200):
            n, lam = int(rng.integers(1, 41)), float(rng.uniform(-0.4, 5.0))
            z = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.0, 1.0))
            arr = np.asarray(z)
            prev, curr = np.ones((), dtype=np.complex128), 2.0 * lam * arr
            for k in range(2, n + 1):
                prev, curr = curr, (2.0 * (k - 1.0 + lam) * arr * curr
                                    - (k - 2.0 + 2.0 * lam) * prev) / k
            assert _same_bits(gegenbauer(n, lam, z), curr), (n, lam, z)


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

    @pytest.mark.parametrize("a", [np.nan, 200.0, 1.5, complex(np.nan, 1.0), 180.0 + 40.0j])
    @pytest.mark.parametrize("b", [np.nan, 200.0, -0.75 + 0.5j])
    def test_gamma_pair(self, a, b):
        # the 0-d overflow test reads the real parts as numbers; as in the
        # batch, a nan in either one never raises
        self._check(_run(gamma_pair, a, b), _run(gamma_pair, np.array([a]), np.array([b])))

    @pytest.mark.parametrize("x", _PLANES)
    def test_real_log_gamma_and_gamma(self, x):
        for fn in (log_gamma, gamma):
            self._check(_run(fn, x), _run(fn, np.array([x])))
