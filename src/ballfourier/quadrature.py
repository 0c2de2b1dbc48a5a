"""Numerical-integration oracles for every identity in the library.

These engines are the ground truth the closed forms are checked against:

* real-line integrals use composite Gauss-Legendre panels over [-T, T]
  (the integrands are analytic with exponential decay, so panelled rules
  reach near machine precision);
* ball integrals use the nested radius parameterization with per-axis
  Gauss-Jacobi rules that absorb the weight exactly; in those coordinates a
  product of two basis polynomials is a product of one-variable factors
  (1 - t_j^2)^((|n^{j+1}| + |m^{j+1}|)/2) C_{n_j}(t_j) C_{m_j}(t_j), so the
  tensor sum is evaluated one axis at a time, with the dense grid through
  the ball basis retained as a small-r cross-check (``mode="tensor"``);
* Fourier integrals are tensor-product quadratures; because every family
  member separates across axes, the tensor sum is normally evaluated in
  factored per-axis form (one reduction per axis for a whole set of
  frequencies), with a dense tensor mode and a tanh-substituted mode
  retained as independent cross-checks.

Tables that depend only on the rule are built once per process.  The rules
themselves are cached by their parameters.  The Fourier phase rows
exp(-i xi x) of a line rule are kept in a bounded LRU cache keyed by
(:class:`QuadratureSpec`, xi) and handed out read-only: at most
``_PHASE_ROWS`` (128) rows of rules with at most ``_PHASE_ROW_NODES``
(4096) nodes, 16 bytes per node, so never more than 8 MiB; a rule with more
nodes computes its phases on each call.  The Gram routes
(:func:`ball_gram_matrix`, :func:`hahn_gram_matrix` and
:func:`d_biorthogonality_gram`) evaluate each index's factors, and the Hahn
weight, once per rule.  Every entry of the Hahn and D matrices, and every
upper-triangle entry of the ball matrix (its lower triangle is the
mirror), is bit-identical to the pairwise call on the same rule.

Accumulation uses numpy's fixed pairwise reductions, so identical inputs
produce bit-identical results regardless of scheduling.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .ball import _check_mu, ball_basis_eval, ball_norm, tail_sum, validate_multi_index
from .classical import continuous_hahn, gegenbauer
from .dfamily import DParams, d_axis_factor, d_family_eval
from .errors import NonFiniteIntegrandError
from .special import log_gamma
from .tanh_family import (FamilyParams, family_axis_factor, family_eval,
                          fourier_prefactor, theta_factor)

__all__ = [
    "QuadratureSpec",
    "VerificationReport",
    "make_report",
    "default_spec",
    "ball_default_spec",
    "hahn_default_spec",
    "fourier_numeric",
    "ball_inner_product_numeric",
    "ball_gram_matrix",
    "hahn_orthogonality_integral",
    "hahn_gram_matrix",
    "d_biorthogonality_integral",
    "d_biorthogonality_gram",
    "parseval_check",
    "parseval_ball_value",
]

@dataclass(frozen=True)
class QuadratureSpec:
    """Node budget and truncation for the oracle.

    ``nodes_per_axis`` is the total node count along one axis; line rules
    spread it over ``panels`` equal Gauss-Legendre panels.
    """

    nodes_per_axis: int = 1024
    truncation_halfwidth: float = 40.0
    panels: int = 64

    def __post_init__(self) -> None:
        if self.nodes_per_axis < 2:
            raise ValueError("nodes_per_axis must be at least 2")
        if not self.truncation_halfwidth > 0:
            raise ValueError("truncation_halfwidth must be positive")
        if self.panels < 1:
            raise ValueError("panels must be at least 1")


def default_spec(r: int) -> QuadratureSpec:
    """Defaults for the real-line/Fourier oracles.

    Separated evaluation makes the per-axis budget cheap in any dimension,
    so the default is deliberately generous: 64 panels of 16 nodes resolve
    both the slowest sech decay (a = 1/2) and the sharpest one in the tested
    range at |xi| <= 3 to better than 1e-12.
    """
    return QuadratureSpec(nodes_per_axis=1024, panels=64)


def ball_default_spec(r: int) -> QuadratureSpec:
    """Defaults for ball inner products (Gauss-Jacobi rules are exact for the
    polynomial integrands at these counts)."""
    nodes = {1: 200, 2: 120}.get(r, 64)
    return QuadratureSpec(nodes_per_axis=nodes, panels=1)


def doubled_spec(spec: QuadratureSpec) -> QuadratureSpec:
    """Same rule with twice the nodes (and panels, for line rules): the
    resolution step of the stability gate the verification suites apply
    before issuing a verdict."""
    return QuadratureSpec(nodes_per_axis=2 * spec.nodes_per_axis,
                          truncation_halfwidth=spec.truncation_halfwidth,
                          panels=2 * spec.panels)


@lru_cache(maxsize=None)
def _leggauss_cached(k: int):
    x, w = leggauss(k)
    return x, w


@lru_cache(maxsize=None)
def _jacgauss_cached(k: int, alpha: float, beta: float):
    """Gauss-Jacobi rule for the weight (1-x)^alpha (1+x)^beta, alpha, beta > -1.

    Built by Golub-Welsch from the exact three-term recurrence coefficients.
    (scipy's roots_jacobi drops to ~1e-10 moment accuracy for alpha < -1/2,
    which is not good enough for the orthogonality tolerances here; the
    symmetric-tridiagonal eigenproblem keeps moments at machine precision.)
    """
    if min(alpha, beta) <= -1.0:
        raise ValueError("Jacobi exponents must exceed -1")
    ab = alpha + beta
    diag = np.empty(k)
    diag[0] = (beta - alpha) / (ab + 2.0)
    idx = np.arange(1, k)
    diag[1:] = (beta ** 2 - alpha ** 2) / ((2.0 * idx + ab) * (2.0 * idx + ab + 2.0))
    sub = np.sqrt(4.0 * idx * (idx + alpha) * (idx + beta) * (idx + ab)
                  / ((2.0 * idx + ab) ** 2 * (2.0 * idx + ab + 1.0) * (2.0 * idx + ab - 1.0)))
    matrix = np.diag(diag) + np.diag(sub, 1) + np.diag(sub, -1)
    nodes, vectors = np.linalg.eigh(matrix)
    total_mass = float(2.0 ** (ab + 1.0)
                       * np.exp(log_gamma(alpha + 1.0) + log_gamma(beta + 1.0)
                                - log_gamma(ab + 2.0)))
    weights = total_mass * vectors[0, :] ** 2
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@lru_cache(maxsize=None)
def _composite_rule(lo: float, hi: float, panels: int, nodes_per_panel: int):
    xg, wg = _leggauss_cached(nodes_per_panel)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    centers = 0.5 * (edges[:-1] + edges[1:])
    x = (centers[:, None] + half * xg[None, :]).ravel()
    w = np.tile(half * wg, panels)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _line_rule(spec: QuadratureSpec):
    nodes_per_panel = max(2, -(-spec.nodes_per_axis // spec.panels))
    return _composite_rule(-spec.truncation_halfwidth, spec.truncation_halfwidth,
                           spec.panels, nodes_per_panel)


# ---------------------------------------------------------------------------
# tanh-substituted node set
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _tanh_rule(levels: int = 120, nodes_per_panel: int = 16, central_panels: int = 8):
    """Nodes on (-1, 1) for integrands singular/oscillatory at the endpoints.

    Panels halve dyadically toward +-1; endpoint panels are parameterized by
    the distance v = 1 - |u| so that 1 - u^2 and artanh(u) are formed without
    cancellation.  Returns (u, 1 - u^2, artanh(u), w).
    """
    xg, wg = _leggauss_cached(nodes_per_panel)
    us, om2s, xs, ws = [], [], [], []
    edges = np.linspace(-0.5, 0.5, central_panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    for lo, hi in zip(edges[:-1], edges[1:]):
        u = 0.5 * (lo + hi) + half * xg
        us.append(u)
        om2s.append(1.0 - u * u)
        xs.append(np.arctanh(u))
        ws.append(half * wg)
    for sign in (1.0, -1.0):
        for lev in range(1, levels):
            vhi, vlo = 2.0 ** (-lev), 2.0 ** (-lev - 1)
            mid, vhalf = 0.5 * (vlo + vhi), 0.5 * (vhi - vlo)
            v = mid + vhalf * xg
            us.append(sign * (1.0 - v))
            om2s.append(v * (2.0 - v))
            xs.append(sign * 0.5 * np.log((2.0 - v) / v))
            ws.append(vhalf * wg)
    out = tuple(np.concatenate(part) for part in (us, om2s, xs, ws))
    for arr in out:
        arr.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# Fourier transform oracle
# ---------------------------------------------------------------------------

_TENSOR_GRID_LIMIT = 8_000_000

# the phase-row cache holds at most _PHASE_ROWS rows of line rules with at
# most _PHASE_ROW_NODES nodes, 16 bytes per node: 8 MiB at most
_PHASE_ROWS = 128
_PHASE_ROW_NODES = 4096


@lru_cache(maxsize=_PHASE_ROWS)
def _phase_row(spec: QuadratureSpec, xi: float):
    """exp(-i xi x) on the nodes of the line rule of ``spec``, read-only."""
    x, _ = _line_rule(spec)
    row = np.exp(-1j * xi * x)
    row.setflags(write=False)
    return row


def _fourier_axis_integral(j: int, params: FamilyParams, xi_j, spec: QuadratureSpec):
    """Axis-j quadrature of the transform at frequency ``xi_j``, a scalar
    (complex result) or an array (one value per entry).  Each entry is the
    same pairwise node sum a scalar call makes, so batching does not change
    a bit.  The phase rows come from the :func:`_phase_row` cache for rules
    of at most ``_PHASE_ROW_NODES`` nodes and are computed uncached beyond
    that."""
    x, w = _line_rule(spec)
    wphi = w * family_axis_factor(j, params, x)
    xi_j = np.asarray(xi_j, dtype=np.float64)
    phase_row = _phase_row if len(x) <= _PHASE_ROW_NODES else _phase_row.__wrapped__
    phases = np.empty(xi_j.shape + x.shape, dtype=np.complex128)
    for row, xi in zip(phases.reshape(-1, len(x)), xi_j.ravel().tolist()):
        row[...] = phase_row(spec, xi)
    values = np.sum(wphi * phases, axis=-1)
    return complex(values) if values.ndim == 0 else values


def _tanh_axis_integral(j: int, params: FamilyParams, xi_j):
    """Axis-j transform at the frequency array ``xi_j`` on the
    tanh-substituted node set of :func:`_tanh_rule`."""
    u, om2, xmap, w = _tanh_rule()
    r = params.r
    m = tail_sum(params.n, j + 1)
    lam = params.mu + m + (r - j) / 2.0
    integrand = (om2 ** (params.a + (r - j) / 4.0 + m / 2.0 - 1.0)
                 * gegenbauer(params.n[j - 1], lam, u)
                 * np.exp(-1j * xi_j[..., None] * xmap))
    return np.sum(w * integrand, axis=-1)


def fourier_numeric(params: FamilyParams, xi, spec: QuadratureSpec | None = None,
                    mode: str = "separated"):
    """Numerical Fourier transform of a family member (kernel exp(-i xi.x)).

    ``xi`` has shape (..., r): one length-r frequency vector gives a complex
    scalar, a batch of them an array of shape ``xi.shape[:-1]``.  Modes:

    * ``separated`` (default): the tensor-product quadrature sum evaluated in
      factored per-axis form — exact reordering of the same sum, at per-axis
      cost; each axis is integrated once on its distinct frequencies.
    * ``tensor``: dense tensor-product sum; the integrand is evaluated
      through the ball-basis route, making no use of separability.
    * ``tanh``: per axis, substitute u = tanh x and integrate over (-1, 1)
      with the kernel ((1+u)/(1-u))^(-i xi/2) and Jacobian (1-u^2)^(-1) on
      endpoint-clustered panels.

    All modes agree to quadrature accuracy; the extra modes exist as
    independent checks of the default.
    """
    r = params.r
    xi = np.asarray(xi, dtype=np.float64)
    if xi.ndim == 0 or xi.shape[-1] != r:
        raise ValueError(f"frequency vectors must have length {r} on the last axis")
    if spec is None:
        spec = default_spec(r)
    if mode == "tensor":
        x, w = _line_rule(spec)
        if len(x) ** r > _TENSOR_GRID_LIMIT:
            raise ValueError("tensor grid too large; pass a coarser QuadratureSpec")
        grids = np.meshgrid(*([x] * r), indexing="ij")
        points = np.stack(grids, axis=-1)
        values = family_eval(points, params)
        if not np.all(np.isfinite(values)):
            raise NonFiniteIntegrandError("family evaluation produced non-finite values")
        out = np.empty(xi.shape[:-1], dtype=np.complex128)
        for index in np.ndindex(out.shape):
            acc = values.astype(np.complex128)
            for j in range(r):
                shape = [1] * r
                shape[j] = len(x)
                acc = acc * (w * np.exp(-1j * xi[index][j] * x)).reshape(shape)
            out[index] = np.sum(acc)
    elif mode in ("separated", "tanh"):
        out = np.ones(xi.shape[:-1], dtype=np.complex128)
        for j in range(1, r + 1):
            distinct, inverse = np.unique(xi[..., j - 1], return_inverse=True)
            axis = (_fourier_axis_integral(j, params, distinct, spec) if mode == "separated"
                    else _tanh_axis_integral(j, params, distinct))
            out = out * axis[inverse.reshape(out.shape)]
    else:
        raise ValueError("mode must be 'separated', 'tensor' or 'tanh'")
    return complex(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Ball inner products
# ---------------------------------------------------------------------------

def _ball_rules(r: int, mu: float, nodes: int):
    """Per-axis rules of the nested-radius parameterization of the ball.

    Axis j carries the Gauss-Jacobi rule with exponent mu - 1/2 + (r - j)/2,
    so the measure, weight and radius Jacobians are absorbed exactly; what is
    left of the integrand is polynomial and integrates exactly.
    """
    return [_jacgauss_cached(nodes, mu - 0.5 + (r - j) / 2.0, mu - 0.5 + (r - j) / 2.0)
            for j in range(1, r + 1)]


def _ball_grid(r: int, mu: float, nodes: int):
    """Dense tensor grid of :func:`_ball_rules` mapped into the ball:
    (points, weights) with points of shape (nodes^r, r)."""
    if nodes ** r > _TENSOR_GRID_LIMIT:
        raise ValueError("tensor grid too large; pass a coarser QuadratureSpec")
    axes, weights = zip(*_ball_rules(r, mu, nodes))
    grids = np.meshgrid(*axes, indexing="ij")
    wgrids = np.meshgrid(*weights, indexing="ij")
    t = np.stack([g.ravel() for g in grids], axis=-1)
    w = np.ones(t.shape[0])
    for g in wgrids:
        w = w * g.ravel()
    # x_j = t_j * prod_{k<j} sqrt(1 - t_k^2)
    x = np.empty_like(t)
    scale = np.ones(t.shape[0])
    for j in range(r):
        x[:, j] = t[:, j] * scale
        scale = scale * np.sqrt(np.maximum(1.0 - t[:, j] ** 2, 0.0))
    return x, w


def _ball_axis_factors(n, mu: float, rules):
    """The basis polynomial ``n`` in nested-radius coordinates, one factor
    per axis: (1 - t_j^2)^(|n^{j+1}|/2) C_{n_j}^{lambda_j}(t_j) on the nodes
    of axis j, lambda_j = mu + |n^{j+1}| + (r - j)/2.  Their product over j
    is the basis polynomial at the mapped point."""
    r = len(n)
    factors = []
    for j, (t, _) in enumerate(rules, start=1):
        m = tail_sum(n, j + 1)
        factors.append((1.0 - t * t) ** (m / 2.0)
                       * gegenbauer(n[j - 1], mu + m + (r - j) / 2.0, t))
    return factors


def _ball_factor_table(indices, mu: float, spec: QuadratureSpec | None, mode: str):
    """(rules, factors) for ball integrals of the basis polynomials
    ``indices``: the rules the integral is summed on and, per index, its
    factor on each rule, evaluated once per distinct index.  ``separated``
    has one Gauss-Jacobi rule per axis and the per-axis factors;
    ``tensor`` has the dense grid as its one rule and the basis values on
    it."""
    if mode not in ("separated", "tensor"):
        raise ValueError("mode must be 'separated' or 'tensor'")
    mu = _check_mu(mu)
    r = len(indices[0])
    if spec is None:
        spec = ball_default_spec(r)
    if mode == "tensor":
        x, w = _ball_grid(r, mu, spec.nodes_per_axis)
        rules = [(x, w)]
        unique = {ix: [ball_basis_eval(ix, mu, x)] for ix in dict.fromkeys(indices)}
    else:
        rules = _ball_rules(r, mu, spec.nodes_per_axis)
        unique = {ix: _ball_axis_factors(ix, mu, rules) for ix in dict.fromkeys(indices)}
    return rules, [unique[ix] for ix in indices]


def _ball_pairing(fn, fm, rules) -> float:
    """Product over the rules of the weighted node sums of fn * fm."""
    value = 1.0
    for f, g, (_, w) in zip(fn, fm, rules):
        value *= float(np.sum(w * f * g))
    return value


def _index_pair(n, m):
    n = validate_multi_index(n)
    m = validate_multi_index(m)
    if len(n) != len(m):
        raise ValueError("multi-indices must have equal length")
    return n, m, len(n)


def _index_list(indices):
    indices = [validate_multi_index(ix) for ix in indices]
    if any(len(ix) != len(indices[0]) for ix in indices):
        raise ValueError("all multi-indices must have equal length")
    return indices


def ball_inner_product_numeric(n, m, mu: float, spec: QuadratureSpec | None = None,
                               mode: str = "separated") -> float:
    """Weighted ball inner product of two basis polynomials by quadrature.

    ``separated`` (default) sums the per-axis factors of the integrand on
    the per-axis Gauss-Jacobi rules, at per-axis cost; ``tensor`` sums the
    same rule as a dense grid of nodes^r <= 8e6 points through
    :func:`ball_basis_eval`, as an independent check.
    """
    n, m, _ = _index_pair(n, m)
    rules, (fn, fm) = _ball_factor_table([n, m], mu, spec, mode)
    return _ball_pairing(fn, fm, rules)


def ball_gram_matrix(indices, mu: float, spec: QuadratureSpec | None = None,
                     mode: str = "separated") -> np.ndarray:
    """Gram matrix of several basis polynomials on one shared rule (modes
    as in :func:`ball_inner_product_numeric`)."""
    indices = _index_list(indices)
    rules, basis = _ball_factor_table(indices, mu, spec, mode)
    count = len(indices)
    gram = np.empty((count, count))
    for p in range(count):
        for q in range(p, count):
            gram[p, q] = gram[q, p] = _ball_pairing(basis[p], basis[q], rules)
    return gram


# ---------------------------------------------------------------------------
# Hahn weight integral and the gamma-pair family pairing
# ---------------------------------------------------------------------------

def hahn_default_spec() -> QuadratureSpec:
    """Default line rule of the Hahn weight integrals: the weight decays like
    exp(-2 pi |x|), so the rule truncates at |x| = 12."""
    return QuadratureSpec(nodes_per_axis=768, truncation_halfwidth=12.0, panels=48)


def _d_pair_spec(a1: float, a2: float) -> QuadratureSpec:
    # gamma-pair decay exp(-pi |x|) per axis; 40/(a1+a2) covers the tested
    # parameter range with tail below 1e-12 (checked by range doubling).
    # The integrand has poles at distance min(2 a1, 2 a2) off the axis, so
    # panels are kept narrower than that for spectral panel convergence.
    return QuadratureSpec(nodes_per_axis=800, panels=50,
                          truncation_halfwidth=40.0 / (a1 + a2))


def _hahn_pairings(rows, cols, a1: float, a2: float, spec: QuadratureSpec | None):
    """Hahn weight integrals of p_n, n in ``rows``, against p_m, m in
    ``cols``, on one rule: the weight is evaluated once, each degree's
    polynomial once, and each row's weighted polynomial once."""
    if spec is None:
        spec = hahn_default_spec()
    x, w = _line_rule(spec)
    weight = np.exp(2.0 * np.real(log_gamma(a1 + 1j * x)) + 2.0 * np.real(log_gamma(a2 + 1j * x)))
    params = (a1, a2, a2, a1)
    poly = {k: continuous_hahn(k, x, params) for k in dict.fromkeys([*rows, *cols])}
    weighted = {n: weight * poly[n] for n in dict.fromkeys(rows)}
    out = np.empty((len(rows), len(cols)), dtype=np.complex128)
    for p, n in enumerate(rows):
        for q, m in enumerate(cols):
            y = weighted[n] * poly[m]
            if not np.all(np.isfinite(y)):
                raise NonFiniteIntegrandError("Hahn weight integrand non-finite")
            out[p, q] = np.sum(w * y)
    return out


def hahn_orthogonality_integral(n: int, m: int, a1: float, a2: float,
                                spec: QuadratureSpec | None = None) -> complex:
    """Real-line integral of the gamma-product Hahn weight against
    p_n p_m with the (a1, a2, a2, a1) parameter pattern, on
    :func:`hahn_default_spec` by default."""
    return complex(_hahn_pairings([n], [m], a1, a2, spec)[0, 0])


def hahn_gram_matrix(degrees, a1: float, a2: float,
                     spec: QuadratureSpec | None = None) -> np.ndarray:
    """Gram matrix of the Hahn polynomials of ``degrees`` on one rule: entry
    [p, q] is :func:`hahn_orthogonality_integral` of degrees[p] and
    degrees[q], bit for bit."""
    degrees = list(degrees)
    return _hahn_pairings(degrees, degrees, a1, a2, spec)


def _d_pairings(rows, cols, a1: float, a2: float, spec: QuadratureSpec | None):
    """Pairing integrals of the members ``rows`` at +ix (parameters a1, a2)
    against the members ``cols`` at -ix (parameters swapped), summed one
    axis at a time on one rule; each index's axis factors are evaluated
    once per sign."""
    r = len(rows[0])
    if spec is None:
        spec = _d_pair_spec(a1, a2)
    x, w = _line_rule(spec)
    plus = {n: [w * d_axis_factor(j, r, 1j * x, n, a1, a2) for j in range(1, r + 1)]
            for n in dict.fromkeys(rows)}
    minus = {m: [d_axis_factor(j, r, -1j * x, m, a2, a1) for j in range(1, r + 1)]
             for m in dict.fromkeys(cols)}
    out = np.empty((len(rows), len(cols)), dtype=np.complex128)
    for p, n in enumerate(rows):
        for q, m in enumerate(cols):
            value = 1.0 + 0.0j
            for wfn, fm in zip(plus[n], minus[m]):
                value *= np.sum(wfn * fm)
            out[p, q] = value
    return out


def d_biorthogonality_integral(n, m, a1: float, a2: float,
                               spec: QuadratureSpec | None = None,
                               mode: str = "separated") -> complex:
    """Pairing integral of the gamma-pair family member indexed by ``n`` at
    +ix (parameters a1, a2) against the member indexed by ``m`` at -ix with
    parameters swapped, over R^r.  ``separated`` (default) is the one-entry
    case of :func:`d_biorthogonality_gram`; ``tensor`` sums the same rule
    as a dense grid through :func:`d_family_eval`, as an independent check."""
    n, m, r = _index_pair(n, m)
    if mode == "separated":
        return complex(_d_pairings([n], [m], a1, a2, spec)[0, 0])
    if mode != "tensor":
        raise ValueError("mode must be 'separated' or 'tensor'")
    if spec is None:
        spec = _d_pair_spec(a1, a2)
    x, w = _line_rule(spec)
    if len(x) ** r > _TENSOR_GRID_LIMIT:
        raise ValueError("tensor grid too large; pass a coarser QuadratureSpec")
    grids = np.meshgrid(*([x] * r), indexing="ij")
    points = np.stack(grids, axis=-1).astype(np.complex128)
    fn = d_family_eval(1j * points, DParams(a1, a2, n))
    fm = d_family_eval(-1j * points, DParams(a2, a1, m))
    acc = fn * fm
    for j in range(r):
        shape = [1] * r
        shape[j] = len(x)
        acc = acc * w.reshape(shape)
    return complex(np.sum(acc))


def d_biorthogonality_gram(indices, a1: float, a2: float,
                           spec: QuadratureSpec | None = None) -> np.ndarray:
    """Matrix of the pairings of the members ``indices`` on one rule: entry
    [p, q] is the separated :func:`d_biorthogonality_integral` of
    indices[p] against indices[q], bit for bit.  The pairing is not
    symmetric, so every entry is summed."""
    indices = _index_list(indices)
    return _d_pairings(indices, indices, a1, a2, spec)


# ---------------------------------------------------------------------------
# Verification reports and the Parseval pairing check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    """One machine-checked identity instance: both sides and the verdict."""

    identity_name: str
    parameters: dict
    lhs: complex
    rhs: complex
    abs_error: float
    rel_error: float
    tolerance: float
    passed: bool
    low_confidence: bool = False


def make_report(identity_name: str, parameters: dict, lhs, rhs, tolerance: float,
                abs_floor: float = 0.0, low_confidence: bool = False) -> VerificationReport:
    """Build a report; passed means both sides are finite and rel_error <=
    tolerance or abs_error <= abs_floor.  A non-finite side fails the check,
    is flagged low-confidence and has rel_error NaN."""
    lhs = complex(lhs)
    rhs = complex(rhs)
    finite = cmath.isfinite(lhs) and cmath.isfinite(rhs)
    abs_error = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs))
    rel_error = (abs_error / scale if scale > 0.0 else 0.0) if finite else math.nan
    passed = finite and bool(rel_error <= tolerance or abs_error <= abs_floor)
    return VerificationReport(identity_name=identity_name, parameters=dict(parameters),
                              lhs=lhs, rhs=rhs, abs_error=abs_error, rel_error=rel_error,
                              tolerance=tolerance, passed=passed,
                              low_confidence=low_confidence or not finite)


def parseval_check(n, m, a1: float, a2: float,
                   spec: QuadratureSpec | None = None,
                   tolerance: float = 1e-6, abs_floor: float = 1e-8) -> VerificationReport:
    """Check the Parseval pairing for the coupled weight mu = a1 + a2 - 1/2.

    Reports (2 pi)^r <f, g>_x as lhs against the xi-side pairing of the
    closed-form transforms as rhs, both as tensor-product sums over the line
    rule of ``spec`` evaluated one axis at a time.  Both sides equal the ball
    norm times a multi-Kronecker delta; that comparison is reported
    separately by the verification suites.
    """
    n, m, r = _index_pair(n, m)
    mu = DParams(a1, a2, (0,) * r).mu  # validates a1, a2 and the coupling
    if spec is None:
        spec = default_spec(r)
    x, w = _line_rule(spec)
    fp = FamilyParams(a1, mu, n)
    gp = FamilyParams(a2, mu, m)
    x_side = 1.0
    xi_side = complex(fourier_prefactor(fp)) * complex(fourier_prefactor(gp))
    for j in range(1, r + 1):
        x_side *= float(np.sum(w * family_axis_factor(j, fp, x) * family_axis_factor(j, gp, x)))
        xi_side *= np.sum(w * theta_factor(j, r, fp, x) * np.conj(theta_factor(j, r, gp, x)))
    return make_report(
        "parseval", {"r": r, "n": list(n), "m": list(m), "a1": a1, "a2": a2},
        (2.0 * math.pi) ** r * x_side, xi_side, tolerance, abs_floor=abs_floor)


def parseval_ball_value(n, m, a1: float, a2: float) -> float:
    """The value both Parseval sides must take: ball norm times delta."""
    n = validate_multi_index(n)
    m = validate_multi_index(m)
    mu = a1 + a2 - 0.5
    if n != m:
        return 0.0
    return (2.0 * math.pi) ** len(n) * ball_norm(n, mu)
