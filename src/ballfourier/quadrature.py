"""Numerical-integration oracles for every identity in the library.  They
return numbers only; :mod:`ballfourier.verify` turns them into verdicts.

These engines are the ground truth the closed forms are checked against:

* real-line integrals take their nodes from :func:`_line_rule`: composite
  Gauss-Legendre panels over [-T, T] (the integrands are analytic with
  exponential decay, so panelled rules reach near machine precision), or
  the tanh-mapped whole-line rule of :func:`tanh_default_spec`;
* ball integrals use the nested radius parameterization with per-axis
  Gauss-Jacobi rules that absorb the weight exactly; in those coordinates a
  product of two basis polynomials is a product of one-variable factors
  (1 - t_j^2)^((|n^{j+1}| + |m^{j+1}|)/2) C_{n_j}(t_j) C_{m_j}(t_j), so the
  tensor sum is evaluated one axis at a time; the default 32-node rule is
  exact up to |n| + |m| = 63 (:func:`ball_default_spec`);
* Fourier integrals are tensor-product quadratures; because every family
  member separates across axes, the tensor sum is evaluated in factored
  per-axis form (one reduction per axis for a whole set of frequencies);
  the axis-j integral depends on the member only through its axis key
  (j, n_j, |n^{j+1}|), so a table over many multi-indices
  (:func:`fourier_numeric_table`) computes it once per key.

Each oracle route has one path, the separated sum.  The dense tensor sums
of the same rules (ball, Fourier, D family), through the evaluators these
integrals referee, are cross-checks that live with the tests.

Tables that depend only on the rule are built once per process.  The rules
themselves are cached by their parameters; they are the only state kept
between calls.  The Fourier phase rows exp(-i xi x) are formed once per
table call for each axis, on that axis's distinct frequencies.  The Gram
routes (:func:`ball_gram_matrix`, :func:`d_biorthogonality_gram`) and both
sides of :func:`parseval_sides` evaluate each axis key's factor once per
rule and sign, through :func:`tanh_family._axis_table`, with one gamma pair
and one ladder per axis tail; :func:`hahn_gram_matrix` evaluates the Hahn
weight once and its polynomials from one 3F2 ladder.  One kernel,
:func:`_pairing`, pairs such keyed tables: a head times, axis by axis, the
node sum of a weighted row factor against a column factor.  Every entry
of the Hahn and D matrices, and every upper-triangle entry of the ball
matrix (its lower triangle is the mirror), is bit-identical to the
pairwise call on the same rule.

Accumulation uses numpy's fixed pairwise reductions, so identical inputs
produce bit-identical results regardless of scheduling.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .ball import _axis_lambda, _index_list
from .classical import continuous_hahn_rows, gegenbauer
from .dfamily import DParams, _d_axis_rows
from .errors import NonFiniteIntegrandError, _check_jacobi_exponents, _check_weight
from .special import log_gamma
from .tanh_family import (FamilyParams, _axis_keys, _axis_table, _frequency_table,
                          _frequency_vectors, _theta_rows, _x_factor, fourier_prefactor)

__all__ = [
    "QuadratureSpec",
    "ball_default_spec",
    "hahn_default_spec",
    "d_pair_spec",
    "tanh_default_spec",
    "fourier_numeric",
    "fourier_numeric_table",
    "ball_inner_product_numeric",
    "ball_gram_matrix",
    "hahn_orthogonality_integral",
    "hahn_gram_matrix",
    "d_biorthogonality_integral",
    "d_biorthogonality_gram",
    "parseval_sides",
]

# cells of the whole-line rule in u = tanh x: 8 central panels on
# |u| <= 1/2 and, on each side, 119 dyadic levels 2^-(l+1) <= 1 - |u| <= 2^-l
_TANH_CENTRAL, _TANH_LEVELS = 8, 119
_TANH_CELLS = _TANH_CENTRAL + 2 * _TANH_LEVELS


@dataclass(frozen=True)
class QuadratureSpec:
    """Node budget and truncation for the oracle.

    ``nodes_per_axis`` is the total node count along one axis; line rules
    split it into ``panels`` equal Gauss-Legendre panels of at least 2
    nodes.  ``truncation_halfwidth=math.inf`` names the whole-line rule,
    whose 246 cells take panels / 246 panels each.  The defaults are the
    real-line/Fourier rule.  Separated evaluation makes the per-axis
    budget cheap in any dimension, so they are deliberately generous: 64
    panels of 16 nodes resolve both the slowest sech decay (a = 1/2) and
    the sharpest one in the tested range at |xi| <= 3 to better than 1e-12.
    """

    nodes_per_axis: int = 1024
    truncation_halfwidth: float = 40.0
    panels: int = 64

    def __post_init__(self) -> None:
        if not (isinstance(self.nodes_per_axis, numbers.Integral) and self.nodes_per_axis >= 2):
            raise ValueError("nodes_per_axis must be an integer of at least 2")
        if not 0 < self.truncation_halfwidth <= math.inf:
            raise ValueError("truncation_halfwidth must be positive")
        if not (isinstance(self.panels, numbers.Integral) and self.panels >= 1):
            raise ValueError("panels must be an integer of at least 1")
        if self.nodes_per_axis % self.panels or self.nodes_per_axis < 2 * self.panels:
            raise ValueError("panels must split nodes_per_axis into equal panels of >= 2 nodes")
        if self.truncation_halfwidth == math.inf and self.panels % _TANH_CELLS:
            raise ValueError(f"the whole-line rule needs a multiple of {_TANH_CELLS} panels")


# Gauss-Jacobi nodes per axis of the default ball rule and of the largest
# (exact to pair degree 1,023, far past where ball_norm overflows, about 95)
_BALL_NODES, _BALL_MAX_NODES = 32, 512


def ball_default_spec(r: int) -> QuadratureSpec:
    """Default rule of ball inner products, the same for every r: 32
    Gauss-Jacobi nodes per axis.

    It is exact for every pair with |n| + |m| <= 63.  A k-node
    Gauss-Jacobi rule integrates polynomials of degree <= 2k - 1 exactly,
    and the axis-j factor of a pair, (1 - t^2)^((|n^{j+1}| + |m^{j+1}|)/2)
    C_{n_j}(t) C_{m_j}(t), is a polynomial of degree at most |n| + |m|
    whenever |n^{j+1}| + |m^{j+1}| is even.  When it is odd, some deeper
    axis i has n_i + m_i odd; the deepest such axis has an even tail, so its
    factor is an odd polynomial, which the symmetric rule sums to zero, and
    so does the exact integral.  ``r`` is kept for callers that pass it.
    """
    return QuadratureSpec(nodes_per_axis=_BALL_NODES, panels=1)


def doubled_spec(spec: QuadratureSpec) -> QuadratureSpec:
    """Same rule with twice the nodes (and panels, for line rules; on the
    whole line every cell gets twice the panels): the resolution step of the
    stability gate the verification suites apply before issuing a verdict."""
    return QuadratureSpec(nodes_per_axis=2 * spec.nodes_per_axis,
                          truncation_halfwidth=spec.truncation_halfwidth,
                          panels=2 * spec.panels)


def tanh_default_spec() -> QuadratureSpec:
    """The whole-line rule: 16 Gauss-Legendre nodes in each of the 246
    cells of u = tanh x, 3,936 nodes, and no truncation.  At degree 30 it
    keeps the Fourier oracle at rounding level, where the default line rule
    is off by 1.1e-5."""
    return QuadratureSpec(nodes_per_axis=16 * _TANH_CELLS, truncation_halfwidth=math.inf,
                          panels=_TANH_CELLS)


def _read_only(*arrays):
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def _leggauss_cached(k: int):
    return leggauss(k)


@lru_cache(maxsize=None)
def _jacgauss_cached(k: int, alpha: float, beta: float):
    """Gauss-Jacobi rule for the weight (1-x)^alpha (1+x)^beta, alpha, beta > -1.

    Built by Golub-Welsch from the exact three-term recurrence coefficients.
    (scipy's roots_jacobi drops to ~1e-10 moment accuracy for alpha < -1/2,
    which is not good enough for the orthogonality tolerances here; the
    symmetric-tridiagonal eigenproblem keeps moments at machine precision.)
    """
    _check_jacobi_exponents(alpha, beta)
    ab = alpha + beta
    diag = np.empty(k)
    diag[0] = (beta - alpha) / (ab + 2.0)
    idx = np.arange(1, k)
    diag[1:] = (beta ** 2 - alpha ** 2) / ((2.0 * idx + ab) * (2.0 * idx + ab + 2.0))
    # the first squared off-diagonal in closed form: the general one is 0/0 at ab = -1
    first, idx = 4.0 * (1.0 + alpha) * (1.0 + beta) / ((ab + 2.0) ** 2 * (ab + 3.0)), idx[1:]
    sub = np.sqrt(np.concatenate([[first][:k - 1], 4.0 * idx * (idx + alpha) * (idx + beta) * (
        idx + ab) / ((2.0 * idx + ab) ** 2 * (2.0 * idx + ab + 1.0) * (2.0 * idx + ab - 1.0))]))
    matrix = np.diag(diag) + np.diag(sub, 1) + np.diag(sub, -1)
    nodes, vectors = np.linalg.eigh(matrix)
    total_mass = float(2.0 ** (ab + 1.0)
                       * np.exp(log_gamma(alpha + 1.0) + log_gamma(beta + 1.0)
                                - log_gamma(ab + 2.0)))
    return _read_only(nodes, total_mass * vectors[0, :] ** 2)


@lru_cache(maxsize=None)
def _composite_rule(lo: float, hi: float, panels: int, nodes_per_panel: int):
    """(x, w, tanh x, sech^2 x) of ``panels`` equal Gauss-Legendre panels
    on [lo, hi]."""
    xg, wg = _leggauss_cached(nodes_per_panel)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    centers = 0.5 * (edges[:-1] + edges[1:])
    x = (centers[:, None] + half * xg[None, :]).ravel()
    return _read_only(x, np.tile(half * wg, panels), np.tanh(x), 1.0 / np.cosh(x) ** 2)


@lru_cache(maxsize=None)
def _tanh_rule(splits: int, nodes_per_panel: int):
    """(x, w, tanh x, sech^2 x) of the whole-line rule x = artanh u: each
    cell of u is split into ``splits`` equal Gauss-Legendre panels, w is
    w_u / (1 - u^2), and tanh x and sech^2 x are the map's u and 1 - u^2.
    The dyadic cells are parameterized by v = 1 - |u|, so 1 - u^2 and
    artanh u are formed without cancellation."""
    xg, wg = _leggauss_cached(nodes_per_panel)
    edges = np.linspace(-0.5, 0.5, _TANH_CENTRAL * splits + 1)
    half = 0.5 * (edges[1] - edges[0])
    u = ((0.5 * (edges[:-1] + edges[1:]))[:, None] + half * xg).ravel()
    # the dyadic cells of one side, in v, from 1 - |u| = 1/2 toward 0
    vedges = (2.0 ** -np.arange(2, _TANH_LEVELS + 2))[:, None] * (
        1.0 + np.arange(splits + 1) / splits)
    vhalf = (0.5 * (vedges[:, 1:] - vedges[:, :-1])).reshape(-1, 1)
    v = ((0.5 * (vedges[:, :-1] + vedges[:, 1:])).reshape(-1, 1) + vhalf * xg).ravel()
    x_side, w_side = 0.5 * np.log((2.0 - v) / v), (vhalf * wg).ravel()
    om2 = np.concatenate([1.0 - u * u, v * (2.0 - v), v * (2.0 - v)])
    w = np.concatenate([np.tile(half * wg, len(edges) - 1), w_side, w_side]) / om2
    return _read_only(np.concatenate([np.arctanh(u), x_side, -x_side]), w,
                      np.concatenate([u, 1.0 - v, -(1.0 - v)]), om2)


def _line_rule(spec: QuadratureSpec):
    """(x, w, tanh x, sech^2 x) of the line rule of ``spec``, the one source
    of nodes of every oracle integral on R; a finite window has equal
    panels on [-T, T], the whole line the cells of :func:`_tanh_rule`."""
    nodes_per_panel = spec.nodes_per_axis // spec.panels
    if spec.truncation_halfwidth == math.inf:
        return _tanh_rule(spec.panels // _TANH_CELLS, nodes_per_panel)
    return _composite_rule(-spec.truncation_halfwidth, spec.truncation_halfwidth,
                           spec.panels, nodes_per_panel)


# ---------------------------------------------------------------------------
# Pairing kernel
# ---------------------------------------------------------------------------

def _pairing(keys_n, keys_m, rows, cols, head=1.0):
    """``head`` times, axis by axis, the node sum of rows[key_n] *
    cols[key_m] over the paired axis keys of ``keys_n`` and ``keys_m``.
    The rows carry the rule weights, so each sum is the quadrature of one
    axis factor pair; the product runs in axis order from the head."""
    value = head
    for key_n, key_m in zip(keys_n, keys_m):
        value = value * np.sum(rows[key_n] * cols[key_m])
    return value


# ---------------------------------------------------------------------------
# Fourier transform oracle
# ---------------------------------------------------------------------------

def _fourier_axis_integral(key, r: int, a: float, mu: float, phases, spec: QuadratureSpec):
    """Quadrature of the transform of the axis factor of the key
    (j, n_j, m) against ``phases``, the rows exp(-i xi x) on the nodes of
    the line rule of ``spec``, one row per frequency: one pairwise node sum
    per row, so a row's value does not depend on the other rows."""
    _, w, t, sech2 = _line_rule(spec)
    return np.sum((w * _x_factor(key, r, a, mu, sech2, t)) * phases, axis=-1)


def _separated_table(members, xi, spec: QuadratureSpec | None):
    """Separated transforms of each member of ``members`` (parameters
    sharing a, mu and r) at the frequency vectors ``xi``, shape
    (len(members),) + xi.shape[:-1]: the frequency table of one axis
    integral per axis key on the phase rows of the axis, formed once per
    axis.  One vector is a batch of one, so its value is the batch entry."""
    r, a, mu = members[0].r, members[0].a, members[0].mu
    xi = _frequency_vectors(xi, r)
    if spec is None:
        spec = QuadratureSpec()
    nodes = _line_rule(spec)[0]
    phases = {}

    def axis_rows(j, m, degrees, column):
        if j not in phases:
            phases[j] = np.exp(-1j * column[:, None] * nodes)
        return [_fourier_axis_integral((j, nj, m), r, a, mu, phases[j], spec) for nj in degrees]

    table = _frequency_table(members, xi.reshape(-1, r), axis_rows, lambda params: 1)
    return table.reshape((len(members),) + xi.shape[:-1])


def fourier_numeric(params: FamilyParams, xi, spec: QuadratureSpec | None = None):
    """Numerical Fourier transform of a family member (kernel exp(-i xi.x))
    on the line rule of ``spec``, by default :class:`QuadratureSpec`;
    :func:`tanh_default_spec` is the whole-line rule, at rounding level
    past the default's degree range.

    ``xi`` has shape (..., r): one length-r frequency vector gives a complex
    scalar, a batch of them an array of shape ``xi.shape[:-1]``.  The
    tensor-product quadrature sum is evaluated in factored per-axis form,
    an exact reordering of the same sum at per-axis cost; each axis is
    integrated once on its distinct frequencies.  It is the one-member case
    of :func:`fourier_numeric_table`.
    """
    out = _separated_table([params], xi, spec)[0]
    return complex(out) if out.ndim == 0 else out


def fourier_numeric_table(indices, a: float, mu: float, xi,
                          spec: QuadratureSpec | None = None):
    """Numerical transforms of the members ``indices`` (multi-indices of one
    length r) with parameters (a, mu) at the frequency vectors ``xi`` of
    shape (..., r), on the line rule of ``spec``: an array of shape
    (len(indices),) + xi.shape[:-1] whose row p is
    :func:`fourier_numeric` of indices[p], bit for bit.  Each axis integral
    is computed once per distinct axis key (j, n_j, |n^{j+1}|), so the cost
    grows with the number of keys, not with the number of indices."""
    members = [FamilyParams(a, mu, n) for n in _index_list(indices)]
    return _separated_table(members, xi, spec)


# ---------------------------------------------------------------------------
# Ball inner products
# ---------------------------------------------------------------------------

def _ball_rules(indices, pairs, mu: float, spec: QuadratureSpec | None):
    """Per-axis rules of the ball integrals of indices[p] * indices[q], (p, q)
    in ``pairs``, in the nested-radius parameterization, at a checked mu.

    Axis j carries the Gauss-Jacobi rule with exponent mu - 1/2 + (r - j)/2,
    so the measure, weight and radius Jacobians are absorbed exactly; what is
    left of the integrand is polynomial and integrates exactly.  The default
    rule is exact up to pair degree 63; beyond it a ``spec`` must be passed.
    A whole-line ``spec`` or one of more than 512 nodes per axis is refused
    before any rule is built.
    """
    r = len(indices[0])
    if spec is None:
        spec = ball_default_spec(r)
        degree = max(sum(indices[p]) + sum(indices[q]) for p, q in pairs)
        if degree > 2 * spec.nodes_per_axis - 1:
            raise ValueError(f"pair degree {degree} is beyond the exact range of the default "
                             f"{spec.nodes_per_axis}-node rule; pass a QuadratureSpec")
    elif spec.truncation_halfwidth == math.inf:
        raise ValueError("the whole-line rule is a rule on R, not a ball rule")
    elif spec.nodes_per_axis > _BALL_MAX_NODES:
        raise ValueError(f"a ball rule takes at most {_BALL_MAX_NODES} nodes per axis")
    return [_jacgauss_cached(spec.nodes_per_axis, mu - 0.5 + (r - j) / 2.0,
                             mu - 0.5 + (r - j) / 2.0) for j in range(1, r + 1)]


def _ball_pairings(indices, pairs, mu: float, spec: QuadratureSpec | None):
    """Ball integrals of indices[p] * indices[q] for each (p, q) in ``pairs``
    on one Gauss-Jacobi rule per axis (:func:`_ball_rules`): the pairing of
    the factors (1 - t_j^2)^(|n^{j+1}|/2) C_{n_j}^{lambda_j}(t_j), each axis
    key's once."""
    mu = _check_weight(mu, "mu")
    r = len(indices[0])
    rules = _ball_rules(indices, pairs, mu, spec)

    def ball_rows(j, m, degrees):
        t = rules[j - 1][0]
        weight = (1.0 - t * t) ** (m / 2.0)
        lam = _axis_lambda(j, r, m, mu)
        return [weight * gegenbauer(nj, lam, t) for nj in degrees]

    keys = [_axis_keys(ix) for ix in indices]
    cols = _axis_table(keys, ball_rows)
    rows = {key: rules[key[0] - 1][1] * f for key, f in cols.items()}
    return np.array([_pairing(keys[p], keys[q], rows, cols) for p, q in pairs])


def ball_inner_product_numeric(n, m, mu: float, spec: QuadratureSpec | None = None) -> float:
    """Weighted ball inner product of two basis polynomials by quadrature:
    the per-axis factors of the integrand summed on the per-axis
    Gauss-Jacobi rules, at per-axis cost."""
    return float(_ball_pairings(_index_list([n, m]), [(0, 1)], mu, spec)[0])


def ball_gram_matrix(indices, mu: float, spec: QuadratureSpec | None = None) -> np.ndarray:
    """Gram matrix of several basis polynomials on one shared rule: each
    upper-triangle entry is :func:`ball_inner_product_numeric` of its pair,
    bit for bit, and the lower triangle is its mirror."""
    indices = _index_list(indices)
    upper = np.triu_indices(len(indices))
    gram = np.empty((len(indices), len(indices)))
    gram[upper] = _ball_pairings(indices, list(zip(*upper)), mu, spec)
    gram.T[upper] = gram[upper]
    return gram


# ---------------------------------------------------------------------------
# Hahn weight integral and the gamma-pair family pairing
# ---------------------------------------------------------------------------

def hahn_default_spec() -> QuadratureSpec:
    """Default line rule of the Hahn weight integrals: the weight decays like
    exp(-2 pi |x|), so the rule truncates at |x| = 12."""
    return QuadratureSpec(nodes_per_axis=768, truncation_halfwidth=12.0, panels=48)


def d_pair_spec(a1: float, a2: float) -> QuadratureSpec:
    """Default line rule of the gamma-pair pairings at (a1, a2)."""
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
    x, w = _line_rule(spec)[:2]
    weight = np.exp(2.0 * np.real(log_gamma(a1 + 1j * x)) + 2.0 * np.real(log_gamma(a2 + 1j * x)))
    params = (a1, a2, a2, a1)
    degrees = list(dict.fromkeys([*rows, *cols]))
    poly = dict(zip(degrees, continuous_hahn_rows(degrees, x, params))) if degrees else {}
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
    axis at a time on one rule; the axis factors of each sign are formed
    once per axis key, from one ladder per axis tail."""
    if spec is None:
        spec = d_pair_spec(a1, a2)
    x, w = _line_rule(spec)[:2]
    r = len(rows[0])
    row_keys = [_axis_keys(n) for n in rows]
    col_keys = [_axis_keys(m) for m in cols]
    plus = {key: w * factor for key, factor in _axis_table(
        row_keys, lambda j, m, degrees: _d_axis_rows(j, r, m, degrees, 1j * x, a1, a2)).items()}
    minus = _axis_table(
        col_keys, lambda j, m, degrees: _d_axis_rows(j, r, m, degrees, -1j * x, a2, a1))
    return np.array([[_pairing(keys_n, keys_m, plus, minus) for keys_m in col_keys]
                     for keys_n in row_keys], dtype=np.complex128)


def d_biorthogonality_integral(n, m, a1: float, a2: float,
                               spec: QuadratureSpec | None = None) -> complex:
    """Pairing integral of the gamma-pair family member indexed by ``n`` at
    +ix (parameters a1, a2) against the member indexed by ``m`` at -ix with
    parameters swapped, over R^r, summed one axis at a time: the one-entry
    case of :func:`d_biorthogonality_gram`."""
    n, m = _index_list([n, m])
    return complex(_d_pairings([n], [m], a1, a2, spec)[0, 0])


def d_biorthogonality_gram(indices, a1: float, a2: float,
                           spec: QuadratureSpec | None = None) -> np.ndarray:
    """Matrix of the pairings of the members ``indices`` on one rule: entry
    [p, q] is :func:`d_biorthogonality_integral` of
    indices[p] against indices[q], bit for bit.  The pairing is not
    symmetric, so every entry is summed."""
    indices = _index_list(indices)
    return _d_pairings(indices, indices, a1, a2, spec)


# ---------------------------------------------------------------------------
# Parseval pairing
# ---------------------------------------------------------------------------

def parseval_sides(n, m, a1: float, a2: float, spec: QuadratureSpec | None = None):
    """Both sides of the Parseval pairing for the coupled weight
    mu = a1 + a2 - 1/2: (2 pi)^r <f, g>_x and the xi-side pairing of the
    closed-form transforms, both as tensor-product sums over the line rule
    of ``spec`` evaluated one axis at a time.  Both sides equal
    (2 pi)^r times the ball norm times a multi-Kronecker delta.  Each side
    pairs the :func:`_axis_table` factors of f (a = a1) and g (a = a2): the
    Gegenbauer factors, and the theta rows from the prefactor product.
    """
    n, m = _index_list([n, m])
    r = len(n)
    mu = DParams(a1, a2, (0,) * r).mu  # validates a1, a2 and the coupling
    if spec is None:
        spec = QuadratureSpec()
    x, w, t, sech2 = _line_rule(spec)
    keys_n, keys_m = _axis_keys(n), _axis_keys(m)

    def x_rows(a):
        return lambda j, tail, degrees: [_x_factor((j, nj, tail), r, a, mu, sech2, t)
                                         for nj in degrees]

    def theta_rows(a):
        return lambda j, tail, degrees: _theta_rows(r, a, mu, j, tail, degrees, x)

    def weighted(table):
        return {key: w * factor for key, factor in table.items()}

    x_side = _pairing(keys_n, keys_m, weighted(_axis_table([keys_n], x_rows(a1))),
                      _axis_table([keys_m], x_rows(a2)))
    head = (complex(fourier_prefactor(FamilyParams(a1, mu, n)))
            * complex(fourier_prefactor(FamilyParams(a2, mu, m))))
    conj = {key: np.conj(factor) for key, factor in _axis_table([keys_m], theta_rows(a2)).items()}
    xi_side = _pairing(keys_n, keys_m, weighted(_axis_table([keys_n], theta_rows(a1))), conj, head)
    return complex((2.0 * math.pi) ** r * x_side), complex(xi_side)
