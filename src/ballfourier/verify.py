"""Identity-verification suites producing VerificationReport records.

This module is the one place where verdicts are built: the quadrature
oracle returns numbers, and :func:`make_report` and the node-doubling gate
turn them into reports, for the suites and for :func:`fourier_report`.
Each suite machine-checks one family of identities at desk scale and returns
a canonically ordered list of reports (sorted by identity name, then by the
JSON encoding of the parameters), so output files are byte-stable across
runs.  Random parameter sweeps draw from SplitMix64, a documented 64-bit
generator, making sweeps reproducible from the seed alone.  A suite holds
its case table and verdicts only: every number comes from a route of the
library, and every quadrature verdict passes one node-doubling gate.
"""

from __future__ import annotations

import cmath
import csv
import dataclasses
import itertools
import json
import math

import numpy as np

from . import quadrature as quad
from .ball import (_axis_parameters, _polynomial_value, ball_basis_eval, ball_norm,
                   ball_operator_residual, ball_polynomial, tail_sum)
from .classical import gegenbauer_norm, hahn_orthogonality_constant
from .dfamily import d_orthogonality_constant
from .special import beta_conjugate, gamma
from .tanh_family import (FamilyParams, axis_ladder, fourier_closed_form,
                          fourier_closed_form_table, fourier_prefactor,
                          fourier_via_recursion, theta_factor_hahn)

__all__ = ["VerificationReport", "make_report", "fourier_report", "SplitMix64",
           "SUITE_NAMES", "run_suite", "report_to_dict", "reports_to_json", "reports_to_csv",
           "canonical_sort"]

# a 3F2 value below this fraction of the largest |F_k|, k <= n, of its
# degree recurrence marks a cancellation-risky series value
_LOW_CONFIDENCE_RATIO = 1e-10
# relative tolerance and absolute floor of closed form against oracle
_FOURIER_TOLERANCE = 1e-6
_FOURIER_FLOOR = 1e-9
# relative tolerance and absolute floor of ball_basis_eval against the exact
# polynomial: 1e3 over the worst error at seeds 0-9 (8.6e-16 rel, 2.8e-16 abs)
_VALUE_TOLERANCE = 1e-12
# json.dumps(value, sort_keys=True) without building an encoder per call:
# the report sort key and the CSV parameters cell
_sorted_json = json.JSONEncoder(sort_keys=True).encode
# json's leaf encoders: its C string encoder (ensure_ascii), for strings
# and keys, and the repr of the floats between -_INFINITY and _INFINITY
_json_string = json.encoder.encode_basestring_ascii
_float_repr = float.__repr__
_INFINITY = math.inf
# the newline and indent of a report field in the indented list
_FIELD_INDENT = "\n    "
# the report schema: its eleven keys, in the order every writer uses
_REPORT_KEYS = ("identity_name", "parameters", "lhs_re", "lhs_im", "rhs_re", "rhs_im",
                "abs_error", "rel_error", "tolerance", "passed", "low_confidence")
# one report of the indented list, a field per schema key
_REPORT_TEMPLATE = ("{" + ",".join(_FIELD_INDENT + _json_string(key) + ": %s"
                                   for key in _REPORT_KEYS) + "\n  }")


@dataclasses.dataclass(frozen=True)
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


def _gated_report(name, parameters, lhs, rhs, tolerance, abs_floor, resolutions,
                  override=None):
    """Report on lhs against rhs behind the node-doubling stability gate:
    ``resolutions`` holds a (base, doubled-rule) pair per quadrature value
    the verdict rests on.  The verdict stands only if doubling moves each by
    at most the suite's ``tolerance`` (relative) or the floor; otherwise the
    report fails and is flagged low-confidence.  A user tolerance
    (``override``) judges lhs against rhs only: whether the rule has
    converged does not depend on how close the user wants the sides."""
    stable = all(abs(complex(base) - complex(doubled))
                 <= max(tolerance * max(abs(complex(base)), abs(complex(doubled))),
                        abs_floor)
                 for base, doubled in resolutions)
    verdict = tolerance if override is None else override
    report = make_report(name, parameters, lhs, rhs, verdict, abs_floor=abs_floor,
                         low_confidence=not stable)
    return report if stable else dataclasses.replace(report, passed=False)


def _base_and_doubled(spec, integral):
    """``integral`` on the rule ``spec`` and on its node-doubled rule."""
    return [integral(s) for s in (spec, quad.doubled_spec(spec))]


def _gram_reports(name, pairs, spec, gram, norm, tolerance, floor_factor, parameters,
                  override):
    """Orthogonality verdicts of one case: ``gram(indices, s)`` is the Gram
    matrix on the rule ``s``, built on ``spec`` and on its node-doubled
    rule, with the indices of ``pairs`` in order of first appearance, so
    each listed pair (n, m) is an upper-triangle entry summed in its own
    order.  The target of <p_n, p_m> is norm(n) on the diagonal and 0 off
    it, where the floor is ``floor_factor`` * sqrt(norm(n) norm(m));
    ``tolerance`` is the suite's and ``override`` the user's (see
    :func:`_gated_report`), and ``parameters(n, m)`` the report's."""
    position = {ix: k for k, ix in enumerate(dict.fromkeys(ix for pair in pairs for ix in pair))}
    grams = _base_and_doubled(spec, lambda s: gram(list(position), s))
    reports = []
    for n, m in pairs:
        value, fine = (g[position[n], position[m]] for g in grams)
        if n == m:
            target, floor = norm(n), 0.0
        else:
            target, floor = 0.0, floor_factor * math.sqrt(norm(n) * norm(m))
        reports.append(_gated_report(name, parameters(n, m), value, target, tolerance, floor,
                                     [(value, fine)], override))
    return reports


class SplitMix64:
    """SplitMix64: x += 0x9E3779B97F4A7C15; z = x; z = (z ^ z>>30) * 0xBF58476D1CE4E5B9;
    z = (z ^ z>>27) * 0x94D049BB133111EB; return z ^ z>>31 (all mod 2^64)."""

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int) -> None:
        self._state = seed & self._MASK

    def next_raw(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return lo + (hi - lo) * (self.next_raw() / 2.0 ** 64)

    def integer(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]."""
        return lo + self.next_raw() % (hi - lo + 1)


def _multi_indices(r: int, max_total: int):
    """All multi-indices of length r with total degree <= max_total, sorted."""
    return [n for n in itertools.product(range(max_total + 1), repeat=r) if sum(n) <= max_total]


def _random_multi_index(rng: SplitMix64, r: int, max_total: int) -> tuple[int, ...]:
    n = [0] * r
    for _ in range(rng.integer(0, max_total)):
        n[rng.integer(0, r - 1)] += 1
    return tuple(n)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _suite_gegenbauer_ort(seed: int, r_max: int, tolerance: float | None):
    # a degree-n Gegenbauer polynomial is the r = 1 ball basis member (n,)
    pairs = list(itertools.combinations_with_replacement(range(7), 2))
    reports = []
    for lam in (0.3, 1.0, 2.5):
        reports += _gram_reports(
            "gegenbauer-ort", pairs, quad.ball_default_spec(1),
            lambda degrees, s: quad.ball_gram_matrix([(k,) for k in degrees], lam, s),
            lambda k: gegenbauer_norm(k, lam), 1e-10, 1e-10,
            lambda n, m: {"lambda": lam, "n": n, "m": m}, tolerance)
    return reports


def _suite_ball_ort(seed: int, r_max: int, tolerance: float | None):
    pairs2 = list(itertools.combinations_with_replacement(_multi_indices(2, 3), 2))
    # (r, mu, tolerance, floor factor, index pairs)
    cases = [(2, 0.5, 1e-8, 1e-8, pairs2), (2, 1.5, 1e-8, 1e-8, pairs2)]
    if r_max >= 3:
        cases.append((3, 0.5, 1e-6, 1e-6, [((0, 0, 0), (0, 0, 0)), ((1, 0, 1), (1, 0, 1)),
                                           ((2, 0, 0), (0, 0, 2)), ((0, 1, 1), (0, 1, 1))]))
    reports = []
    for r, mu, default_tol, floor_factor, pairs in cases:
        reports += _gram_reports(
            "ball-ort", pairs, quad.ball_default_spec(r),
            lambda indices, s: quad.ball_gram_matrix(indices, mu, s),
            lambda ix: ball_norm(ix, mu), default_tol, floor_factor,
            lambda n, m: {"r": r, "mu": mu, "n": list(n), "m": list(m)}, tolerance)
    return reports


def _suite_ball_pde(seed: int, r_max: int, tolerance: float | None):
    # the exact residual's target is 0; ball_basis_eval's is the exact value
    rng = SplitMix64(seed)
    reports = []
    for _ in range(10):
        r = rng.integer(1, min(3, r_max))
        n = _random_multi_index(rng, r, 3)
        mu = rng.uniform(0.3, 1.8)
        point = [rng.uniform(-0.4, 0.4) for _ in range(r)]
        exact = _polynomial_value(ball_polynomial(n, mu), point)
        base = {"r": r, "n": list(n), "mu": mu}
        reports.append(make_report("ball-pde", {**base, "quantity": "residual"},
                                   ball_operator_residual(n, mu), 0.0, tolerance or 0.0))
        reports.append(make_report(
            "ball-pde", {**base, "point": point, "quantity": "value"},
            ball_basis_eval(n, mu, np.array(point)), exact,
            _VALUE_TOLERANCE if tolerance is None else tolerance, abs_floor=_VALUE_TOLERANCE))
    return reports


def _theta_diagnostics(params: FamilyParams, xi) -> tuple[float, bool]:
    """One pass over the theta 3F2 diagnostics at ``xi``: the value scale of
    :func:`fourier_value_scale`, and whether any axis series is
    cancellation-risky (its value below a fixed fraction of its peak).  The
    peak of axis j is max over k <= n_j of |F_k|, the same 3F2 at the lower
    degrees k with s held fixed: one ladder per axis gives every row."""
    r = params.r
    scale = abs(float(fourier_prefactor(params)))
    low_confidence = False
    for j in range(1, r + 1):
        _, arg_plus, _, values = axis_ladder(
            j, r, tail_sum(params.n, j + 1), params.a, params.mu, 1j * float(xi[j - 1]),
            range(params.n[j - 1] + 1))
        peak = float(np.max(np.abs(values)))
        low_confidence = low_confidence or abs(values[-1]) < _LOW_CONFIDENCE_RATIO * peak
        scale *= abs(beta_conjugate(arg_plus.real, arg_plus.imag)) * peak
    return scale, low_confidence


def fourier_value_scale(params: FamilyParams, xi) -> float:
    """Natural magnitude scale of the closed-form transform at ``xi``.

    The series inside each theta factor can sit near a polynomial zero, in
    which case path-equivalence comparisons are meaningful in absolute terms
    against this scale (the prefactor's magnitude times the beta magnitudes
    times the peak 3F2 magnitudes over the lower degrees), not in relative
    terms against the suppressed value.  It is positive: the prefactor is
    negative for mu in (-1/2, 0), where a signed scale would turn the
    absolute floor of a comparison negative.
    """
    return _theta_diagnostics(params, xi)[0]


def _random_family_params(rng: SplitMix64, r: int, max_total: int) -> FamilyParams:
    a = rng.uniform(0.3, 2.0)
    mu = rng.uniform(-0.4, 2.0)
    if abs(mu) < 0.05:
        mu = 0.35
    return FamilyParams(a, mu, _random_multi_index(rng, r, max_total))


def _suite_fourier_paths(seed: int, r_max: int, tolerance: float | None):
    tol = tolerance if tolerance is not None else 1e-11
    rng = SplitMix64(seed)
    reports = []
    for _ in range(120):
        r = rng.integer(1, min(3, r_max))
        params = _random_family_params(rng, r, 4)
        xi = np.array([rng.uniform(-3.0, 3.0) for _ in range(r)])
        closed = fourier_closed_form(params, xi)
        scale, low_conf = _theta_diagnostics(params, xi)
        f1 = fourier_via_recursion(params, xi, "peel_first")
        f2 = fourier_via_recursion(params, xi, "peel_last")
        hahn = complex(fourier_prefactor(params))
        for j in range(1, r + 1):
            hahn *= theta_factor_hahn(j, r, params, float(xi[j - 1]))
        base = {"r": r, "n": list(params.n), "a": params.a, "mu": params.mu,
                "xi": [float(v) for v in xi]}
        for label, other in (("peel-first", f1), ("peel-last", f2), ("hahn-form", hahn)):
            reports.append(make_report(
                "fourier-paths", {**base, "path": label}, closed, other, tol,
                abs_floor=tol * scale, low_confidence=low_conf))
    return reports


_FOURIER_GRID_XI = {1: (-3.0, -1.0, 0.0, 0.5, 2.0, 3.0),
                    2: (-3.0, 0.5, 2.0),
                    3: (-3.0, 2.0)}


def fourier_report(params: FamilyParams, xi, tolerance: float | None = None):
    """Closed-form transform of ``params`` at the frequency vector ``xi``
    (lhs) against the separated oracle on the whole-line rule (rhs), with
    the oracle behind the node-doubling gate."""
    oracle, fine = _base_and_doubled(quad.tanh_default_spec(),
                                     lambda s: quad.fourier_numeric(params, xi, s))
    parameters = {"r": params.r, "n": list(params.n), "a": params.a, "mu": params.mu,
                  "xi": [float(v) for v in xi]}
    return _gated_report("fourier", parameters, fourier_closed_form(params, xi), oracle,
                         _FOURIER_TOLERANCE, _FOURIER_FLOOR, [(oracle, fine)], tolerance)


def _suite_fourier_oracle(seed: int, r_max: int, tolerance: float | None):
    reports = []
    a_values = (0.5, 1.0, 1.75)
    mu_values = (0.5, 1.25)
    for r in range(1, min(3, r_max) + 1):
        grid = list(itertools.product(_FOURIER_GRID_XI[r], repeat=r))
        indices = _multi_indices(r, 4)
        for a in a_values:
            for mu in mu_values:
                # one table per route: each per-axis factor once per rule
                closed = fourier_closed_form_table(indices, a, mu, grid)
                oracle, fine = _base_and_doubled(
                    quad.QuadratureSpec(),
                    lambda s: quad.fourier_numeric_table(indices, a, mu, grid, s))
                for n, lhs_row, rhs_row, fine_row in zip(indices, closed, oracle, fine):
                    for xi, lhs, rhs, rhs_fine in zip(grid, lhs_row, rhs_row, fine_row):
                        reports.append(_gated_report(
                            "fourier-oracle",
                            {"r": r, "n": list(n), "a": a, "mu": mu, "xi": list(xi)},
                            lhs, rhs, _FOURIER_TOLERANCE, _FOURIER_FLOOR, [(rhs, rhs_fine)],
                            tolerance))
    return reports


def _suite_hahn_ort(seed: int, r_max: int, tolerance: float | None):
    pairs = list(itertools.combinations_with_replacement(range(5), 2))
    reports = []
    for a1, a2 in ((0.5, 0.5), (1.0, 0.75)):
        reports += _gram_reports(
            "hahn-ort", pairs, quad.hahn_default_spec(),
            lambda degrees, s: quad.hahn_gram_matrix(degrees, a1, a2, s),
            lambda k: hahn_orthogonality_constant(k, a1, a2), 1e-6, 1e-6,
            lambda n, m: {"a1": a1, "a2": a2, "n": n, "m": m}, tolerance)
    return reports


def _transform_pair_constant(params: FamilyParams) -> float:
    """Constant K with F(member) = K * (gamma-pair family member at i xi):
    the closed-form prefactor divided by the beta denominators."""
    value = fourier_prefactor(params)
    r = params.r
    for j in range(1, r + 1):
        value /= gamma(_axis_parameters(j, r, tail_sum(params.n, j + 1), params.a, params.mu)[5])
    return float(value)


def _parseval_case(n, m, a1, a2, tol, floor, override=None):
    (lhs, rhs), (lhs_fine, rhs_fine) = _base_and_doubled(
        quad.QuadratureSpec(), lambda s: quad.parseval_sides(n, m, a1, a2, s))
    resolutions = [(lhs, lhs_fine), (rhs, rhs_fine)]
    base = {"r": len(n), "n": list(n), "m": list(m), "a1": a1, "a2": a2}
    mu = a1 + a2 - 0.5
    out = [_gated_report("parseval", base, lhs, rhs, tol, floor, resolutions, override)]
    target = (2.0 * math.pi) ** len(n) * ball_norm(n, mu) if n == m else 0.0
    out.append(_gated_report("parseval-ball-value", base, lhs, target, tol, floor,
                             resolutions, override))
    # the xi-side, rescaled by the transform constants, is the pairing of the
    # gamma-pair family; compare it with the closed-form pairing constant
    # (and its gate compares both sides in those units, against its floor)
    k = _transform_pair_constant(FamilyParams(a1, mu, n)) * _transform_pair_constant(
        FamilyParams(a2, mu, m))
    pair_target = d_orthogonality_constant(n, a1, a2) if n == m else 0.0
    out.append(_gated_report("parseval-pair-constant", base, rhs / k, pair_target,
                             tol, floor * 4.0 * math.pi / abs(k),
                             [(value / k, fine / k) for value, fine in resolutions], override))
    return out


def _suite_parseval(seed: int, r_max: int, tolerance: float | None):
    reports = []
    cases = {1: (((0,), (0,), 0.5, 0.5), ((1,), (0,), 0.5, 0.5), ((1,), (1,), 1.0, 0.75),
                 ((3,), (3,), 0.5, 0.5), ((2,), (0,), 1.0, 0.75)),
             2: (((0, 0), (0, 0), 0.5, 0.5), ((1, 0), (1, 0), 1.0, 0.5),
                 ((1, 0), (0, 1), 1.0, 0.5), ((1, 1), (1, 1), 1.0, 0.75))}
    # each r's default tolerance is its floor
    for r, floor in ((1, 1e-8), (2, 1e-6))[:r_max]:
        for n, m, a1, a2 in cases[r]:
            reports.extend(_parseval_case(n, m, a1, a2, floor, floor, tolerance))
    return reports


def _suite_dfamily_ort(seed: int, r_max: int, tolerance: float | None):
    cases = [((0.5, 0.5), _multi_indices(1, 3)), ((1.0, 0.75), _multi_indices(1, 3))]
    if r_max >= 2:
        cases.append(((1.0, 0.75), _multi_indices(2, 2)))
    reports = []
    for (a1, a2), indices in cases:
        reports += _gram_reports(
            "dfamily-ort", list(itertools.combinations_with_replacement(indices, 2)),
            quad.d_pair_spec(a1, a2),
            lambda ix, s: quad.d_biorthogonality_gram(ix, a1, a2, s),
            lambda ix: d_orthogonality_constant(ix, a1, a2), 1e-4, 1e-5,
            lambda n, m: {"r": len(n), "a1": a1, "a2": a2, "n": list(n), "m": list(m)},
            tolerance)
    return reports


_SUITES = {
    "gegenbauer-ort": _suite_gegenbauer_ort,
    "ball-ort": _suite_ball_ort,
    "ball-pde": _suite_ball_pde,
    "fourier-paths": _suite_fourier_paths,
    "fourier-oracle": _suite_fourier_oracle,
    "hahn-ort": _suite_hahn_ort,
    "parseval": _suite_parseval,
    "dfamily-ort": _suite_dfamily_ort,
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def canonical_sort(reports):
    """Canonical report order: identity name, then JSON-encoded parameters."""
    return sorted(reports, key=lambda rep: (rep.identity_name, _sorted_json(rep.parameters)))


def run_suite(name: str, seed: int = 0, r_max: int = 3, tolerance: float | None = None):
    """Run one named suite (or 'all') and return canonically sorted reports."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if r_max < 1:
        raise ValueError(f"r_max must be at least 1, got {r_max}")
    reports = []
    for suite_name in _SUITES if name == "all" else (name,):
        reports.extend(_SUITES[suite_name](seed, r_max, tolerance))
    return canonical_sort(reports)


# ---------------------------------------------------------------------------
# serialization (exact JSON schema used by the CLI)
# ---------------------------------------------------------------------------

def report_to_dict(report: VerificationReport) -> dict:
    lhs, rhs = report.lhs, report.rhs
    return dict(zip(_REPORT_KEYS, (
        report.identity_name, report.parameters, lhs.real, lhs.imag, rhs.real, rhs.imag,
        report.abs_error, report.rel_error, report.tolerance, report.passed,
        report.low_confidence)))


def _json_text(value, indent=_FIELD_INDENT, path=()) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it, its lines
    shifted to ``indent`` (a newline and the spaces of its level), by the
    rules of :func:`reports_to_json` in json's order of checks (a float
    first, which no other branch can match).  Keys are coerced as json
    coerces them.  Whatever json refuses raises as json raises: TypeError
    for another type (numpy.int64, numpy.bool_) or key, and ValueError
    for a container that holds itself; ``path`` holds the ids of the
    enclosing containers."""
    if isinstance(value, float):
        if -_INFINITY < value < _INFINITY:
            return _float_repr(value)
        return "NaN" if value != value else "Infinity" if value > 0.0 else "-Infinity"
    if isinstance(value, str):
        return _json_string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        path = _enter(value, path)
        inner = indent + "  "
        items = [_json_text(item, inner, path) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        path = _enter(value, path)
        inner = indent + "  "
        items = [_json_string(key if isinstance(key, str) else _json_key(key)) + ": "
                 + _json_text(item, inner, path) for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _enter(container, path: tuple) -> tuple:
    """``path`` with the id of ``container`` added; ValueError, as json
    raises it, if the container already encloses itself."""
    if id(container) in path:
        raise ValueError("Circular reference detected")
    return path + (id(container),)


def _json_key(key) -> str:
    """A non-string dict key as json coerces it to a string."""
    if isinstance(key, (float, int)) or key is None:
        return _json_text(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def reports_to_json(reports, handle) -> None:
    """The reports as one indented JSON list on the text ``handle``, the
    text of ``json.dumps([report_to_dict(rep) for rep in reports],
    indent=2)``, byte for byte.

    Each report fills one fixed template of the eleven schema keys, in
    :func:`report_to_dict` order, and :func:`_json_text` writes its values
    by the leaf rules json applies: ``encode_basestring_ascii`` (json's C
    string encoder) for strings and keys, ``float.__repr__`` for finite
    floats and NaN, Infinity, -Infinity otherwise, ``int.__repr__``,
    true, false and null; ``parameters`` is laid out as ``indent=2`` lays
    it out, and whatever json refuses raises as it does.  The template
    replaces ``JSONEncoder(indent=2)``: json runs its C encoder only
    without ``indent``, so every value went through the generators of its
    pure-Python encoder, which took longer than the fourier-oracle suite
    and left cyclic garbage at each report for the collector.

    Every report is written as soon as it is formatted, so the whole text
    is never built."""
    text = _json_text
    opening = "[\n  "
    for rep in reports:
        lhs, rhs = rep.lhs, rep.rhs
        handle.write(opening + _REPORT_TEMPLATE % (
            text(rep.identity_name), text(rep.parameters), text(lhs.real), text(lhs.imag),
            text(rhs.real), text(rhs.imag), text(rep.abs_error), text(rep.rel_error),
            text(rep.tolerance), text(rep.passed), text(rep.low_confidence)))
        opening = ",\n  "
    handle.write("[]" if opening == "[\n  " else "\n]")


def reports_to_csv(reports, handle) -> None:
    """The reports as CSV on the text ``handle``: a header row of the
    schema keys, then one row per report, written as it is formatted.
    ``parameters`` is its JSON with sorted keys, the numbers are their
    ``repr`` and the two flags are ``true`` or ``false``."""
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(_REPORT_KEYS)
    for report in reports:
        name, parameters, *numbers, passed, low_confidence = report_to_dict(report).values()
        writer.writerow([name, _sorted_json(parameters), *map(repr, numbers),
                         str(passed).lower(), str(low_confidence).lower()])

