"""Acceptance gate: one test per criterion, each at its pinned tolerance.

Every test prints a single PASS line on success (run with ``pytest -s`` to
see them); a failing criterion shows up as an ordinary pytest failure.
Runtime budgets are generous relative to the actual cost; the full module
runs in well under a minute on a laptop-class machine.
"""

import io
import itertools
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import ballfourier as bf
from ballfourier import quadrature as quad
from ballfourier.ball import _polynomial_value
from ballfourier.quadrature import _jacgauss_cached
from ballfourier.tanh_family import theta_factor_hahn, fourier_prefactor
from ballfourier.verify import (SplitMix64, _multi_indices, fourier_value_scale,
                                report_to_dict, reports_to_json, run_suite)
from conftest import rel_err
from reference_routes import fourier_numeric_tensor, pochhammer


def announce(number: int, description: str) -> None:
    print(f"ACCEPTANCE {number:2d} PASS  {description}")


def test_criterion_01_gegenbauer_orthogonality():
    """200-node quadrature vs the closed-form norm, n, m <= 6."""
    worst_diag, worst_off = 0.0, 0.0
    for lam in (0.3, 1.0, 2.5):
        nodes, weights = _jacgauss_cached(200, lam - 0.5, lam - 0.5)
        values = [bf.gegenbauer(k, lam, nodes) for k in range(7)]
        for n in range(7):
            h_n = bf.gegenbauer_norm(n, lam)
            for m in range(n, 7):
                integral = float(np.sum(weights * values[n] * values[m]))
                if n == m:
                    err = rel_err(integral, h_n)
                    assert err <= 1e-10, (lam, n)
                    worst_diag = max(worst_diag, err)
                else:
                    assert abs(integral) <= 1e-10 * h_n, (lam, n, m)
                    worst_off = max(worst_off, abs(integral) / h_n)
    announce(1, f"gegenbauer orthogonality: diag rel <= {worst_diag:.2e}, "
                f"off-diag <= {worst_off:.2e} (tol 1e-10)")


def test_criterion_02_jacobi_gegenbauer_relation():
    """Hypergeometric-normalization identity against the exact Jacobi sum."""
    rng = np.random.default_rng(2)
    worst = 0.0
    for lam in (0.3, 1.0, 2.5):
        for n in range(11):
            ratio = pochhammer(2.0 * lam, n) / pochhammer(lam + 0.5, n)
            xs = rng.uniform(-1.0, 1.0, size=100)
            lhs = np.array([bf.gegenbauer(n, lam, x) for x in xs])
            rhs = np.array([ratio * bf.jacobi(n, lam - 0.5, lam - 0.5, x) for x in xs])
            scale = max(np.max(np.abs(lhs)), 1.0)
            for lv, rv in zip(lhs, rhs):
                # pointwise relative error; absolute on the polynomial scale
                # near zeros, where relative error is ill-defined
                if abs(lv) >= 1e-3 * scale:
                    err = rel_err(lv, rv)
                    assert err <= 1e-12, (lam, n, lv, rv)
                    worst = max(worst, err)
                else:
                    assert abs(lv - rv) <= 1e-12 * scale, (lam, n)
    announce(2, f"jacobi-gegenbauer relation: rel <= {worst:.2e} (tol 1e-12)")


def test_criterion_03_ball_orthogonality():
    """Gram matrices of the ball basis against the closed-form norms."""
    worst = 0.0
    for mu in (0.5, 1.5):
        indices = _multi_indices(2, 3)
        gram = quad.ball_gram_matrix(indices, mu)
        for p, n in enumerate(indices):
            h_n = bf.ball_norm(n, mu)
            for q in range(p, len(indices)):
                m = indices[q]
                if n == m:
                    err = rel_err(gram[p, q], h_n)
                    assert err <= 1e-8, (mu, n)
                    worst = max(worst, err)
                else:
                    bound = 1e-8 * math.sqrt(h_n * bf.ball_norm(m, mu))
                    assert abs(gram[p, q]) <= bound, (mu, n, m)
    indices3 = _multi_indices(3, 2)
    gram3 = quad.ball_gram_matrix(indices3, 0.75)
    for p, n in enumerate(indices3):
        h_n = bf.ball_norm(n, 0.75)
        for q in range(p, len(indices3)):
            m = indices3[q]
            if n == m:
                assert rel_err(gram3[p, q], h_n) <= 1e-6, (n,)
            else:
                assert abs(gram3[p, q]) <= 1e-6 * math.sqrt(h_n * bf.ball_norm(m, 0.75))
    announce(3, f"ball orthogonality r=2 (diag rel <= {worst:.2e}, tol 1e-8) "
                "and r=3 spot checks (tol 1e-6)")


def test_criterion_04_ball_pde_eigenfunction():
    """Exact residual 0 of the eigenvalue equation, in rational arithmetic."""
    rng = SplitMix64(4)
    members = []
    while len(members) < 20:
        r = rng.integer(1, 3)
        n = [0] * r
        for _ in range(rng.integer(2, 3)):
            n[rng.integer(0, r - 1)] += 1
        n = tuple(n)
        if max(n) < 2:
            continue  # the 20 members with a coordinate degree of 2 or more
        mu = rng.uniform(0.3, 1.8)
        point = np.array([rng.uniform(-0.3, 0.3) for _ in range(r)])
        members.append((n, mu, point))
    members += [((1,), 0.7, np.full(1, 0.15)), ((1, 1), 0.7, np.full(2, 0.15)),
                ((1, 0, 1), 0.7, np.full(3, 0.15))]
    worst = 0.0
    for n, mu, point in members:
        assert bf.ball_operator_residual(n, mu) == 0.0, (n, mu)
        exact = _polynomial_value(bf.ball_polynomial(n, mu), point)
        worst = max(worst, rel_err(bf.ball_basis_eval(n, mu, point), exact))
    assert worst <= 1e-12
    announce(4, f"ball PDE residual exactly 0 for {len(members)} members; "
                f"ball_basis_eval within {worst:.1e} of the exact polynomial (tol 1e-12)")


FOURIER_GRID_XI = {1: (-3.0, -1.5, 0.0, 0.5, 1.0, 2.0, 3.0),
                   2: (-3.0, 0.5, 2.0),
                   3: (-3.0, 2.0)}


def test_criterion_05_fourier_closed_form_vs_oracle():
    """Closed form vs tensor-product quadrature over the full grid."""
    checks = 0
    worst = 0.0
    for r in (1, 2, 3):
        spec = quad.QuadratureSpec()
        grid = np.array(list(itertools.product(FOURIER_GRID_XI[r], repeat=r)))
        indices = _multi_indices(r, 4)
        for a in (0.5, 1.0, 1.75):
            for mu in (0.5, 1.25):
                # one table call per route: every index on the whole grid
                oracle = bf.fourier_numeric_table(indices, a, mu, grid, spec)
                closed = bf.fourier_closed_form_table(indices, a, mu, grid)
                abs_err = np.abs(closed - oracle)
                scale = np.maximum(np.abs(closed), np.abs(oracle))
                rel = np.divide(abs_err, scale, out=np.zeros_like(abs_err),
                                where=scale > 0)
                ok = (rel <= 1e-6) | (abs_err <= 1e-9)
                bad = np.argwhere(~ok)
                assert not bad.size, (r, indices[bad[0, 0]], a, mu, grid[bad[0, 1]])
                if (abs_err > 1e-9).any():
                    worst = max(worst, float(rel[abs_err > 1e-9].max()))
                checks += closed.size
    # dense-tensor spot checks: the oracle evaluated with no use of separability
    tensor_spec = quad.QuadratureSpec(nodes_per_axis=384, panels=24)
    for r, n, a, mu, xi in [(2, (1, 1), 1.0, 0.5, (0.5, -1.0)),
                            (2, (2, 0), 0.5, 1.25, (2.0, 0.5)),
                            (3, (1, 0, 1), 1.0, 0.5, (0.5, -1.0, 2.0))]:
        params = bf.FamilyParams(a, mu, n)
        # r=3 grid: tails below 1e-12 by |x| = 14 for a >= 1, so a narrower
        # window buys panel resolution within the tensor memory budget
        spec = tensor_spec if r == 2 else quad.QuadratureSpec(
            nodes_per_axis=192, panels=12, truncation_halfwidth=14.0)
        dense = fourier_numeric_tensor(params, np.array(xi), spec)
        closed = bf.fourier_closed_form(params, np.array(xi))
        assert rel_err(dense, closed) <= 1e-6, (r, n)
    announce(5, f"fourier closed form vs oracle: {checks} grid points, "
                f"worst rel {worst:.2e} (tol 1e-6, abs floor 1e-9)")


def test_criterion_06_path_equivalence():
    """Closed form = peel-first = peel-last = Hahn-form product, 500 draws."""
    rng = SplitMix64(6)
    worst = 0.0
    for _ in range(500):
        r = rng.integer(1, 3)
        n = [0] * r
        for _ in range(rng.integer(0, 4)):
            n[rng.integer(0, r - 1)] += 1
        a = rng.uniform(0.3, 2.0)
        mu = rng.uniform(-0.4, 2.0)
        if abs(mu) < 0.05:
            mu = 0.35
        params = bf.FamilyParams(a, mu, tuple(n))
        xi = np.array([rng.uniform(-3.0, 3.0) for _ in range(r)])
        closed = bf.fourier_closed_form(params, xi)
        hahn = complex(fourier_prefactor(params))
        for j in range(1, r + 1):
            hahn *= theta_factor_hahn(j, r, params, float(xi[j - 1]))
        others = (bf.fourier_via_recursion(params, xi, "peel_first"),
                  bf.fourier_via_recursion(params, xi, "peel_last"),
                  hahn)
        scale = fourier_value_scale(params, xi)
        for other in others:
            abs_err = abs(closed - other)
            denom = max(abs(closed), abs(other))
            rel = abs_err / denom if denom else 0.0
            # absolute comparison on the term scale near series zeros
            assert rel <= 1e-11 or abs_err <= 1e-11 * scale, (params, xi)
            if abs_err > 1e-11 * scale:
                worst = max(worst, rel)
    announce(6, f"path equivalence over 500 draws: worst rel {worst:.2e} (tol 1e-11)")


def test_criterion_07_known_closed_value():
    """The sech integral: both paths give pi to 1e-12."""
    params = bf.FamilyParams(0.5, 0.5, (0,))
    closed = bf.fourier_closed_form(params, [0.0])
    oracle = bf.fourier_numeric(params, [0.0])
    assert rel_err(closed, math.pi) <= 1e-12
    assert rel_err(oracle, math.pi) <= 1e-12
    announce(7, f"sech integral = pi: closed rel {rel_err(closed, math.pi):.2e}, "
                f"oracle rel {rel_err(oracle, math.pi):.2e} (tol 1e-12)")


def test_criterion_08_hahn_orthogonality():
    """Gamma-weight quadrature vs the closed-form Hahn constant, n, m <= 4."""
    worst = 0.0
    for a1, a2 in ((0.5, 0.5), (1.0, 0.75)):
        for n in range(5):
            c_n = bf.hahn_orthogonality_constant(n, a1, a2)
            for m in range(n, 5):
                value = bf.hahn_orthogonality_integral(n, m, a1, a2)
                if n == m:
                    err = rel_err(value, c_n)
                    assert err <= 1e-6, (a1, a2, n)
                    worst = max(worst, err)
                else:
                    scale = math.sqrt(c_n * bf.hahn_orthogonality_constant(m, a1, a2))
                    assert abs(value) <= 1e-6 * scale, (a1, a2, n, m)
    analytic = bf.hahn_orthogonality_integral(0, 0, 0.5, 0.5)
    assert rel_err(analytic, 2.0 * math.pi) <= 1e-10
    announce(8, f"continuous Hahn orthogonality: worst diag rel {worst:.2e} "
                "(tol 1e-6); n=0 half-half diagonal = 2 pi to 1e-10")


def test_criterion_09_dfamily_biorthogonality():
    """Pairing integrals vs the closed-form constant, r in {1, 2}."""
    worst = 0.0
    for a1, a2 in ((0.5, 0.5), (1.0, 0.75)):
        for r in (1, 2):
            indices = _multi_indices(r, 3)
            for n in indices:
                c_n = bf.d_orthogonality_constant(n, a1, a2)
                for m in indices:
                    if m < n:
                        continue
                    value = bf.d_biorthogonality_integral(n, m, a1, a2)
                    if n == m:
                        err = rel_err(value, c_n)
                        assert err <= 1e-4, (a1, a2, n)
                        worst = max(worst, err)
                    else:
                        scale = math.sqrt(c_n * bf.d_orthogonality_constant(m, a1, a2))
                        assert abs(value) <= 1e-5 * scale, (a1, a2, n, m)
    analytic = bf.d_biorthogonality_integral((0,), (0,), 0.5, 0.5)
    assert rel_err(analytic, 4.0 * math.pi) <= 1e-10
    announce(9, f"gamma-pair family biorthogonality: worst diag rel {worst:.2e} "
                "(tol 1e-4); r=1 half-half diagonal = 4 pi to 1e-10")


def test_criterion_10_constant_specializations():
    """General-r orthogonality constant vs the r=1 and r=2 displays."""
    from test_dfamily import reference_constant_r1, reference_constant_r2

    worst = 0.0
    for a1, a2 in ((0.5, 0.5), (1.0, 0.75), (1.3, 0.6)):
        for n in range(5):
            err = rel_err(bf.d_orthogonality_constant((n,), a1, a2),
                          reference_constant_r1(n, a1, a2))
            assert err <= 1e-12
            worst = max(worst, err)
        for n1 in range(4):
            for n2 in range(4):
                err = rel_err(bf.d_orthogonality_constant((n1, n2), a1, a2),
                              reference_constant_r2(n1, n2, a1, a2))
                assert err <= 1e-12
                worst = max(worst, err)
    announce(10, f"orthogonality-constant specializations: rel <= {worst:.2e} "
                 "(tol 1e-12, formula vs formula)")


def test_criterion_11_cli_contract(tmp_path):
    """Exit-code matrix, byte-identical reruns, JSON report round-trip."""
    def run(args):
        proc = subprocess.run([sys.executable, "-m", "ballfourier.cli", *args],
                              capture_output=True, text=True)
        return proc.returncode

    assert run(["eval", "--fn", "gegenbauer", "--n", "1", "--lambda", "1.5",
                "--x", "0.4"]) == 0
    assert run(["fourier", "--r", "1", "--n", "0", "--a", "0.5", "--mu", "0.5",
                "--xi", "0", "--check"]) == 0
    assert run(["eval", "--fn", "ball", "--n", "0,1", "--mu", "1"]) == 2
    assert run(["verify", "--suite", "nonsense"]) == 2
    assert run(["verify", "--suite", "gegenbauer-ort", "--tolerance", "1e-18",
                "--output", str(tmp_path / "fail.json")]) == 1

    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code = run(["verify", "--suite", "fourier-paths", "--seed", "7",
                    "--r-max", "2", "--output", str(path)])
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()

    reports = run_suite("hahn-ort")
    handle = io.StringIO()
    reports_to_json(reports, handle)
    assert json.loads(handle.getvalue()) == [report_to_dict(rep) for rep in reports]
    parsed = json.loads(paths[0].read_text())
    assert all(set(item) == {"identity_name", "parameters", "lhs_re", "lhs_im",
                             "rhs_re", "rhs_im", "abs_error", "rel_error",
                             "tolerance", "passed", "low_confidence"}
               for item in parsed)
    announce(11, "CLI contract: exit codes {0,1,2}, byte-identical reruns, "
                 "JSON round-trip")
