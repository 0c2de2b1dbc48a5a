"""One 3F2 ladder per axis tail (j, |n^{j+1}|).

The continuous-Hahn 3F2 parameters of an axis depend on a member only
through its tail, so one run of the degree recurrence gives every degree.
Each row of a ladder is the one-degree value bit for bit, the consumers run
one ladder per tail, and a one-degree call keeps no other row.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from ballfourier import DenominatorPoleError, FamilyParams, tail_sum, theta_factor, verify
from ballfourier.dfamily import d_axis_factor
from ballfourier.hypergeometric import _terminating_sum, hyp3f2_ladder
from ballfourier.quadrature import (QuadratureSpec, _jacgauss_cached, ball_default_spec,
                                    ball_gram_matrix, ball_inner_product_numeric,
                                    d_biorthogonality_gram, d_biorthogonality_integral,
                                    doubled_spec, fourier_numeric_table, hahn_gram_matrix,
                                    hahn_orthogonality_integral, tanh_default_spec)
from ballfourier.tanh_family import fourier_closed_form_table
from reference_routes import hyp3f2_unit


def _same_bits(a, b) -> bool:
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    return a.shape == b.shape and np.array_equal(np.atleast_1d(a).view(np.int64),
                                                 np.atleast_1d(b).view(np.int64))


def _tails(indices):
    tails = {}
    for n in indices:
        for j in range(1, len(n) + 1):
            tails.setdefault((j, tail_sum(n, j + 1)), set()).add(n[j - 1])
    return tails


class TestLadderKernel:
    # dyadic s, l1, l2: n + s - 1 - (n - 1) = s exactly, so the one-degree
    # calls of hyp3f2_unit run on the same s as the ladder
    @pytest.mark.parametrize("s, l1, l2", [(2.25, 1.5, 3.25), (0.125, 0.75, 2.5),
                                           (5.5 + 0.5j, 1.25 - 0.25j, 0.625)])
    def test_rows_are_the_one_degree_recurrence(self, rng, s, l1, l2):
        u = rng.uniform(0.3, 3.0, 40) + 1j * rng.uniform(-20.0, 20.0, 40)
        degrees = range(21)
        rows = hyp3f2_ladder(degrees, s, u, l1, l2)
        assert len(rows) == len(degrees)
        for k, row in zip(degrees, rows):
            assert _same_bits(row, hyp3f2_unit(k, k + s - 1.0, u, l1, l2)), k
        # any order, repeats and a 0-d argument (0-d against 0-d: numpy
        # scalars and array loops may round complex products differently)
        picked = hyp3f2_ladder((7, 0, 7, 3), s, u[5], l1, l2)
        assert [complex(v) for v in picked] == [
            complex(hyp3f2_unit(k, k + s - 1.0, u[5], l1, l2)) for k in (7, 0, 7, 3)]

    def test_blocked_rows_match_single_entries(self, rng):
        # beyond one cache block every row is still per entry
        u = rng.uniform(0.3, 3.0, 20_000) + 1j * rng.uniform(-30.0, 30.0, 20_000)
        rows = hyp3f2_ladder(range(10), 3.5, u, 1.75, 2.5)
        for i in (0, 8191, 8192, 19_999):
            one = hyp3f2_ladder(range(10), 3.5, u[i:i + 1], 1.75, 2.5)
            assert all(_same_bits(row[i], row_one[0]) for row, row_one in zip(rows, one))

    def test_rejects_what_the_recurrence_cannot_run(self):
        for degrees in ((), (2, -1), (2.5,), (float("nan"),)):
            with pytest.raises(ValueError, match="nonempty sequence"):
                hyp3f2_ladder(degrees, 1.5, 0.3, 1.0, 1.0)
        assert hyp3f2_ladder((np.int64(3), 2.0), 1.5, 0.3, 1.0, 1.0) == hyp3f2_ladder(
            (3, 2), 1.5, 0.3, 1.0, 1.0)
        # s = 0, where the recurrence would divide by zero, is the forward
        # series with upper parameter s + (k - 1), bit for bit
        forward, _ = _terminating_sum([-2.0, 1.0, 0.3], [1.0, 1.0], 1.0, 2)
        assert _same_bits(hyp3f2_ladder((2,), 0.0, 0.3, 1.0, 1.0)[0], forward[()])

    def test_array_parameters_raise(self):
        # only u broadcasts; s, lower1 and lower2 (upper2 of hyp3f2_unit) are scalars
        u = np.array([0.3, 0.7 + 1j])
        for s, l1, l2 in ((np.array([1.5, 2.5]), 1.0, 1.0), (1.5, np.array([1.0]), 1.0),
                          (1.5, 1.0, [1.0, 2.0]), (np.array([-0.5, 0.5]), 1.0, 1.0)):
            with pytest.raises(ValueError, match="scalars"):
                hyp3f2_ladder((2,), s, u, l1, l2)
            with pytest.raises(ValueError, match="scalars"):
                hyp3f2_unit(2, np.asarray(s) + 1.0, u, l1, l2)
        assert hyp3f2_ladder((2,), np.float64(1.5), u, np.array(1.0), 1.0)[0].shape == (2,)

    def test_forward_route(self, rng):
        # at Re s <= 0 each degree is its own forward series: the ladder's
        # rows are the one-degree calls and the pole check is the
        # recurrence's
        u = rng.uniform(0.3, 3.0, 6) + 1j * rng.uniform(-4.0, 4.0, 6)
        s = -2.375 + 0.5j
        rows = hyp3f2_ladder((4, 0, 2), s, u, 1.25, 0.75)
        for k, row in zip((4, 0, 2), rows):
            forward, _ = _terminating_sum([-float(k), s + (k - 1.0), u], [1.25, 0.75], 1.0, k)
            assert _same_bits(row, forward[()]), k
            assert _same_bits(row, hyp3f2_unit(k, k + s - 1.0, u, 1.25, 0.75)), k
        for s in (-2.375, 2.375):
            with pytest.raises(DenominatorPoleError):
                hyp3f2_ladder((1, 4), s, u, 1.25, -3.0)
            assert np.all(np.isfinite(hyp3f2_ladder((3,), s, u, 1.25, -3.0)[0]))

    def test_forward_route_refuses_degrees_beyond_12(self, rng):
        # the forward series is measured up to degree 12 only; above it the
        # value would be silently wrong, so it is refused
        u = rng.uniform(0.3, 3.0, 6) + 1j * rng.uniform(-4.0, 4.0, 6)
        s = -2.375 + 0.5j
        assert np.all(np.isfinite(hyp3f2_ladder((12, 3), s, u, 1.25, 0.75)[0]))
        with pytest.raises(ValueError, match="Re s <= 0"):
            hyp3f2_ladder((3, 13), s, u, 1.25, 0.75)
        with pytest.raises(ValueError, match="Re s <= 0"):
            hyp3f2_unit(30, 30 + s - 1.0, u, 1.25, 0.75)
        # the recurrence has no such limit
        assert np.all(np.isfinite(hyp3f2_ladder((30,), -s.conjugate(), u, 1.25, 0.75)[0]))

    def test_one_degree_call_keeps_one_row(self, rng):
        # 13 rows of 1e5 complex values would be 21 MB; one is 1.6 MB
        u = rng.uniform(0.3, 3.0, 100_000) + 1j * rng.uniform(-4.0, 4.0, 100_000)
        tracemalloc.start()
        try:
            hyp3f2_ladder((12,), 2.75, u, 1.5, 3.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * u.nbytes


class TestZeroDimensionalCalls:
    """A 0-d call runs the recurrence on Python numbers, whose complex
    multiply is unfused (as a numpy scalar's is); a batch runs numpy's
    array loops, which may fuse multiply-adds.  The two differ in the last
    bits only."""

    @staticmethod
    def _ulps(a, b) -> float:
        a, b = complex(a), complex(b)
        return abs(a - b) / math.ulp(max(abs(a), abs(b)))

    def test_measured_bound(self):
        rng = np.random.default_rng(20240817)
        worst_theta = worst_d = 0.0
        for _ in range(100):
            r = int(rng.integers(1, 4))
            j = int(rng.integers(1, r + 1))
            n = tuple(int(v) for v in rng.integers(0, 13, size=r))
            params = FamilyParams(float(rng.uniform(0.3, 2.0)), float(rng.uniform(-0.4, 2.0)), n)
            xi = rng.uniform(-3.0, 3.0, size=3)
            batch = theta_factor(j, r, params, xi)
            for i in range(3):
                worst_theta = max(worst_theta,
                                  self._ulps(theta_factor(j, r, params, xi[i]), batch[i]))
            a1, a2 = (float(v) for v in rng.uniform(0.3, 2.0, size=2))
            x = rng.uniform(-0.5, 0.5, 3) + 1j * rng.uniform(-6.0, 6.0, 3)
            batch = d_axis_factor(j, r, x, n, a1, a2)
            for i in range(3):
                worst_d = max(worst_d, self._ulps(d_axis_factor(j, r, x[i], n, a1, a2),
                                                  batch[i]))
        # measured: 1.2e-15 and 4.1 ulps of |value| (x86-64, numpy 2.4)
        assert worst_theta <= 1.0
        assert worst_d <= 5.0


class TestOneLadderPerTail:
    INDICES = [(0, 0, 0), (1, 0, 1), (0, 1, 1), (2, 0, 0), (0, 0, 2), (1, 1, 0), (3, 0, 1),
               (0, 2, 1)]

    @staticmethod
    def _recording(monkeypatch, module):
        calls = []
        ladder = module._axis_ladder

        def recording(j, r, m, a, mu, z, degrees):
            calls.append((j, m, a, tuple(degrees)))
            return ladder(j, r, m, a, mu, z, degrees)

        monkeypatch.setattr(module, "_axis_ladder", recording)
        return calls

    def test_closed_form_table(self, monkeypatch):
        from ballfourier import tanh_family
        calls = self._recording(monkeypatch, tanh_family)
        grid = np.array(list(itertools.product((-3.0, 0.5, 2.0), repeat=3)))
        fourier_closed_form_table(self.INDICES, 1.2, 0.7, grid)
        tails = _tails(self.INDICES)
        assert len(calls) == len(tails) < 3 * len(self.INDICES)
        assert {(j, m): set(degrees) for j, m, _, degrees in calls} == tails

    def test_theta_diagnostics(self, monkeypatch):
        calls = []
        ladder = verify.hyp3f2_ladder

        def recording(degrees, s, u, lower1, lower2):
            calls.append((tuple(degrees), s))
            return ladder(degrees, s, u, lower1, lower2)

        monkeypatch.setattr(verify, "hyp3f2_ladder", recording)
        params = FamilyParams(0.9, 1.1, (4, 0, 3))
        verify.fourier_value_scale(params, np.array([0.5, -1.0, 2.0]))
        # one ladder per axis, at s = 2 lambda_j + 1 with lambda_j =
        # mu + m + (r - j)/2, through every degree k <= n_j for the peak
        assert calls == [((0, 1, 2, 3, 4), 2.0 * (1.1 + 3 + 1.0) + 1.0),
                         ((0,), 2.0 * (1.1 + 3 + 0.5) + 1.0),
                         ((0, 1, 2, 3), 2.0 * (1.1 + 0 + 0.0) + 1.0)]

    def test_theta_diagnostics_peak_is_the_ladder_maximum(self):
        # the scale is the prefactor times, per axis, |beta| times the peak
        # max_{k <= n_j} |F_k| of the axis's 3F2 at its own s
        from ballfourier.special import beta_conjugate
        from ballfourier.tanh_family import fourier_prefactor
        params = FamilyParams(0.9, 1.1, (6, 2))
        xi = np.array([1.5, -0.5])
        expect = float(fourier_prefactor(params))
        for j, m in ((1, 2), (2, 0)):
            q = (2 - j) / 4.0
            s = 2.0 * (m + 1.1 + (2 - j) / 2.0) + 1.0
            ap = 0.9 + (m + 1j * xi[j - 1]) / 2.0 + q
            values = [hyp3f2_ladder((k,), s, ap, m + 1.1 + (3 - j) / 2.0,
                                    m + 1.8 + (2 - j) / 2.0)[0]
                      for k in range(params.n[j - 1] + 1)]
            expect *= abs(beta_conjugate(ap.real, ap.imag)) * max(abs(v) for v in values)
        assert verify.fourier_value_scale(params, xi) == expect

    def test_d_pairings(self, monkeypatch):
        from ballfourier import dfamily
        calls = self._recording(monkeypatch, dfamily)
        indices = [n for n in itertools.product(range(4), repeat=2) if sum(n) <= 3]
        d_biorthogonality_gram(indices, 1.0, 0.75)
        tails = _tails(indices)
        # one ladder per (j, m) and sign: a = a1 at +ix, a = a2 at -ix
        assert len(calls) == 2 * len(tails) < 2 * 2 * len(indices)
        for a in (1.0, 0.75):
            assert {(j, m): set(degrees) for j, m, aa, degrees in calls if aa == a} == tails

    def test_hahn_gram(self, monkeypatch):
        from ballfourier import classical
        calls = []
        ladder = classical.hyp3f2_ladder

        def recording(degrees, *args, **kwargs):
            calls.append(tuple(degrees))
            return ladder(degrees, *args, **kwargs)

        monkeypatch.setattr(classical, "hyp3f2_ladder", recording)
        hahn_gram_matrix([0, 1, 2, 3, 4], 1.0, 0.75)
        assert calls == [(0, 1, 2, 3, 4)]


class TestOneFactorPerAxisKey:
    """Every separable route evaluates each axis key (j, n_j, |n^{j+1}|)
    once per rule, however many indices share it."""

    # indices of length 3 sharing axis keys
    INDICES = TestOneLadderPerTail.INDICES

    @staticmethod
    def _keys(indices):
        return {(j, n[j - 1], tail_sum(n, j + 1)) for n in indices for j in range(1, len(n) + 1)}

    def test_ball_gram(self, monkeypatch):
        # the Gegenbauer evaluations, recorded in every module that holds
        # the function, with the rule they run on
        from ballfourier import ball, classical, quadrature, tanh_family
        calls = []
        original = classical.gegenbauer

        def recording(n, lam, x):
            calls.append((n, lam, np.asarray(x).tobytes()))
            return original(n, lam, x)

        for module in (ball, quadrature, tanh_family):
            if getattr(module, "gegenbauer", None) is original:
                monkeypatch.setattr(module, "gegenbauer", recording)
        mu, r = 0.5, 3
        keys = self._keys(self.INDICES)
        assert len(keys) < r * len(self.INDICES)
        for spec in (ball_default_spec(r), QuadratureSpec(nodes_per_axis=64, panels=1)):
            calls.clear()
            ball_gram_matrix(self.INDICES, mu, spec)
            rules = [_jacgauss_cached(spec.nodes_per_axis, mu - 0.5 + (r - j) / 2.0,
                                      mu - 0.5 + (r - j) / 2.0)[0] for j in range(1, r + 1)]
            expect = [(nj, mu + m + (r - j) / 2.0, rules[j - 1].tobytes()) for j, nj, m in keys]
            assert sorted(calls) == sorted(expect)

    @pytest.mark.parametrize("specs", [
        pytest.param((QuadratureSpec(), QuadratureSpec(nodes_per_axis=2048, panels=128)),
                     id="separated"),
        pytest.param((tanh_default_spec(), doubled_spec(tanh_default_spec())), id="tanh"),
    ])
    def test_fourier_tables(self, monkeypatch, specs):
        # the finite-window rule and the whole-line (tanh-mapped) rule
        from ballfourier import quadrature
        calls = []
        original = quadrature._fourier_axis_integral

        def recording(key, *args):
            calls.append(key)
            return original(key, *args)

        monkeypatch.setattr(quadrature, "_fourier_axis_integral", recording)
        grid = np.array(list(itertools.product((-3.0, 0.5, 2.0), repeat=3)))
        for spec in specs:
            calls.clear()
            fourier_numeric_table(self.INDICES, 1.2, 0.7, grid, spec)
            assert sorted(calls) == sorted(self._keys(self.INDICES))

    def test_d_pairings(self, monkeypatch):
        # one factor per axis key and sign: a = a1 at +ix, a = a2 at -ix
        from ballfourier import quadrature
        calls = []
        rows = quadrature._d_axis_rows

        def recording(j, r, m, degrees, x_j, a1, a2):
            calls.extend((a1, j, nj, m) for nj in degrees)
            return rows(j, r, m, degrees, x_j, a1, a2)

        monkeypatch.setattr(quadrature, "_d_axis_rows", recording)
        keys = self._keys(self.INDICES)
        base = QuadratureSpec(nodes_per_axis=800, panels=50, truncation_halfwidth=40.0 / 1.75)
        for spec in (base, QuadratureSpec(1600, base.truncation_halfwidth, 100)):
            calls.clear()
            d_biorthogonality_gram(self.INDICES, 1.0, 0.75, spec)
            assert sorted(calls) == sorted((a, *key) for a in (1.0, 0.75) for key in keys)


class TestGramsAtNonDyadicParameters:
    # a1 + a2 and the shared s have long binary fractions here
    A1, A2 = 0.7, 0.45

    def test_hahn_gram_entries_are_pairwise_integrals(self):
        degrees = [0, 3, 1, 4]
        gram = hahn_gram_matrix(degrees, self.A1, self.A2)
        for (p, n), (q, m) in itertools.product(enumerate(degrees), repeat=2):
            assert _same_bits(gram[p, q], hahn_orthogonality_integral(n, m, self.A1, self.A2))

    def test_d_gram_entries_are_pairwise_integrals(self):
        indices = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        gram = d_biorthogonality_gram(indices, self.A1, self.A2)
        for (p, n), (q, m) in itertools.product(enumerate(indices), repeat=2):
            assert _same_bits(gram[p, q],
                              d_biorthogonality_integral(n, m, self.A1, self.A2))


class TestExactBallRules:
    def test_default_is_32_nodes_for_every_r(self):
        for r in range(1, 6):
            assert ball_default_spec(r) == QuadratureSpec(nodes_per_axis=32, panels=1)

    def test_default_rule_is_exact_to_degree_63(self):
        # the r = 1 pair (n, m) of degree 63 is exact; beyond it the default
        # rule is refused rather than summed inexactly
        from ballfourier import gegenbauer_norm
        assert abs(ball_inner_product_numeric((40,), (23,), 1.0)) <= 1e-10 * math.sqrt(
            gegenbauer_norm(40, 1.0) * gegenbauer_norm(23, 1.0))
        assert ball_inner_product_numeric((31,), (31,), 1.0) == pytest.approx(
            gegenbauer_norm(31, 1.0), rel=1e-12)
        with pytest.raises(ValueError, match="pass a QuadratureSpec"):
            ball_inner_product_numeric((32,), (32,), 1.0)
        with pytest.raises(ValueError, match="pass a QuadratureSpec"):
            ball_gram_matrix([(0, 0), (20, 12)], 0.5)
        spec = QuadratureSpec(nodes_per_axis=40, panels=1)
        assert ball_inner_product_numeric((32,), (32,), 1.0, spec) == pytest.approx(
            gegenbauer_norm(32, 1.0), rel=1e-12)

    def test_verify_builds_no_rule_above_64_nodes(self, monkeypatch):
        from ballfourier import quadrature
        sizes = []

        def recording(k, alpha, beta):
            sizes.append(k)
            return _jacgauss_cached(k, alpha, beta)

        _jacgauss_cached.cache_clear()
        monkeypatch.setattr(quadrature, "_jacgauss_cached", recording)
        reports = verify.run_suite("all", r_max=3)
        assert reports and all(rep.passed for rep in reports)
        assert sizes and max(sizes) <= 64
        assert _jacgauss_cached.cache_info().misses > 0
