"""Independent cross-check routes that only the tests run.

Each is a second derivation of a quantity the library computes by one
production route: the Gegenbauer polynomial as its definitional terminating
2F1, the tanh family by peeling x_1 or x_r recursively or as the paper
writes it, through the ball basis at the tanh-mapped point
(:func:`tanh_ball_map`), and the gamma-pair family through continuous Hahn
polynomials.  The quadrature oracle sums
every integral one axis at a time; here the same rules are summed as dense
tensor grids through the evaluators it referees, with no use of
separability (:func:`tensor_sum`): the Fourier transform through the
peel-last recursion, the ball inner products through ``ball_basis_eval`` at
the nested-radius points, and the gamma-pair pairing through
``d_family_eval``.  The tests compare them with the production routes;
nothing in the package imports them.
"""

import math
from functools import reduce

import numpy as np

from ballfourier import (DParams, FamilyParams, NonFiniteIntegrandError, QuadratureSpec,
                         ball_basis_eval, continuous_hahn, d_family_eval, gamma, gegenbauer,
                         pochhammer, tail_sum)
from ballfourier.ball import _index_list
from ballfourier.errors import _check_order, _check_weight
from ballfourier.hypergeometric import _terminating_sum
from ballfourier.quadrature import _ball_rules, _line_rule, d_pair_spec
from ballfourier.special import _real_array
from ballfourier.tanh_family import _axis_tail, _frequency_vectors


def gegenbauer_series(n: int, lam: float, x):
    """C_n^(lambda)(x) through the terminating 2F1 sum (definitional form).

    Its alternating sum loses up to ~1e-10 relative accuracy by n = 10,
    which is why :func:`ballfourier.gegenbauer` runs the recurrence.
    """
    n = _check_order(n, "degree")
    lam = _check_weight(lam, "lambda")
    prefactor = pochhammer(2.0 * lam, n) / math.factorial(n)
    arr = np.asarray(x)
    if not np.iscomplexobj(arr):
        # parity reduction keeps the 2F1 argument in [0, 1/2]
        sign = np.where(arr < 0.0, (-1.0) ** n, 1.0)
        z = (1.0 - np.abs(arr)) / 2.0
        value, _ = _terminating_sum([-float(n), n + 2.0 * lam], [lam + 0.5], z, n)
        return prefactor * (sign * value)[()]
    z = (1.0 - arr) / 2.0
    value, _ = _terminating_sum([-float(n), n + 2.0 * lam], [lam + 0.5], z, n)
    return prefactor * value[()]


def family_eval_peel_first(x, params: FamilyParams):
    """Same value as :func:`ballfourier.family_eval`, built by peeling x_1
    recursively."""
    x = np.asarray(x, dtype=np.float64)
    r = params.r
    m = tail_sum(params.n, 2)
    sech2 = 1.0 / np.cosh(x[..., 0]) ** 2
    head = (sech2 ** (params.a + m / 2.0 + (r - 1) / 4.0)
            * gegenbauer(params.n[0], m + params.mu + (r - 1) / 2.0, np.tanh(x[..., 0])))
    if r == 1:
        return head
    rest = FamilyParams(params.a, params.mu, params.n[1:])
    return head * family_eval_peel_first(x[..., 1:], rest)


def family_eval_peel_last(x, params: FamilyParams):
    """Same value as :func:`ballfourier.family_eval`, built by peeling x_r
    with the shifted parameters (a + n_r/2 + 1/4, mu + n_r + 1/2)."""
    x = _real_array(x, "x")
    r = params.r
    sech2 = 1.0 / np.cosh(x[..., -1]) ** 2
    tail_factor = sech2 ** params.a * gegenbauer(params.n[-1], params.mu, np.tanh(x[..., -1]))
    if r == 1:
        return tail_factor
    nr = params.n[-1]
    rest = FamilyParams(params.a + nr / 2.0 + 0.25, params.mu + nr + 0.5, params.n[:-1])
    return tail_factor * family_eval_peel_last(x[..., :-1], rest)


def tanh_ball_map(x):
    """Map x in R^r to the open unit ball: v_j = tanh(x_j) prod_{k<j} sech(x_k)."""
    x = _real_array(x, "x")
    t = np.tanh(x)
    sech = 1.0 / np.cosh(x)
    prefix = np.ones_like(sech)
    if x.shape[-1] > 1:
        prefix[..., 1:] = np.cumprod(sech[..., :-1], axis=-1)
    return t * prefix


def d_axis_factor_hahn(j: int, r: int, x_j, n, a1: float, a2: float):
    """Axis-j factor of the gamma-pair family in continuous-Hahn form; must
    equal :func:`ballfourier.dfamily.d_axis_factor`.  Its parameters are
    written out from the paper's formulas, with mu = a1 + a2 - 1/2:
    q = (r - j)/4, the gamma arguments a1 + (m +- x_j)/2 + q and the
    Pochhammer bases m + mu + (r - j + 1)/2 and 2 a1 + m + (r - j)/2."""
    nj = n[j - 1]
    m = _axis_tail(j, r, n)
    q = (r - j) / 4.0
    gplus = a1 + (m + np.asarray(x_j)) / 2.0 + q
    gminus = a1 + (m - np.asarray(x_j)) / 2.0 + q
    lower1 = m + a1 + a2 - 0.5 + (r - j + 1) / 2.0
    lower2 = 2.0 * a1 + m + (r - j) / 2.0
    big_a1 = a1 + m / 2.0 + q
    big_a2 = a2 + m / 2.0 + q
    prefactor = (math.factorial(nj) * (1j ** (-nj))
                 / (pochhammer(complex(lower2), nj) * pochhammer(complex(lower1), nj)))
    hahn = continuous_hahn(nj, -0.5j * np.asarray(x_j),
                           (big_a1, big_a2, big_a2, big_a1))
    return prefactor * gamma(gminus) * gamma(gplus) * hahn


def d_family_eval_hahn(x, params):
    """Hahn-form evaluation of :func:`ballfourier.d_family_eval`: the product
    of the :func:`d_axis_factor_hahn` values over the columns x[..., j]."""
    x = np.asarray(x)
    value = d_axis_factor_hahn(1, params.r, x[..., 0], params.n, params.a1, params.a2)
    for j in range(2, params.r + 1):
        value = value * d_axis_factor_hahn(j, params.r, x[..., j - 1], params.n,
                                           params.a1, params.a2)
    return value


# one slab at a time, so the grid cap bounds a dense sum's time, not its memory
TENSOR_GRID_LIMIT, SLAB_POINTS = 8_000_000, 1 << 15


def tensor_sum(rules, integrand):
    """The dense sum of every tensor route: entry [k, m] of the (K, M)
    result sums, over the grid of the per-axis ``rules`` (nodes, weights:
    K rows, or one), value row m of ``integrand`` times the product of the
    points' axis weights of row k.  A slab fixes a node on each axis before
    axis c, the first one followed by at most 2^15 grid points, and takes a
    run of nodes of axis c with the grid of the later axes; integrand(points)
    gets its points, (P, r) in C order.  More than 8e6 points are refused
    before any is formed; a non-finite value raises NonFiniteIntegrandError.
    Order: slab by slab in C order, entry [k, m] adds np.sum(values_m *
    weight_k), weight_k the slab's weights of row k multiplied in axis order."""
    nodes, weights = zip(*((x, np.atleast_2d(w)) for x, w in rules))
    sizes = [len(x) for x in nodes]
    if math.prod(sizes) > TENSOR_GRID_LIMIT:
        raise ValueError("tensor grid too large; pass a coarser QuadratureSpec")
    c = next(j for j in range(len(sizes)) if math.prod(sizes[j + 1:]) <= SLAB_POINTS)
    run = max(1, SLAB_POINTS // math.prod(sizes[c + 1:]))
    total = 0
    for *fixed, part in np.ndindex(*sizes[:c], -(-sizes[c] // run)):
        cut = [slice(i, i + 1) for i in fixed] + [slice(part * run, (part + 1) * run)]
        cut += [slice(None)] * (len(sizes) - c - 1)
        grid = np.meshgrid(*(x[s] for x, s in zip(nodes, cut)), indexing="ij", copy=False)
        points = np.stack(grid).reshape(len(sizes), -1).T  # contiguous columns
        rows = [[w[k, s] for w, s in zip(weights, cut)] for k in range(len(weights[0]))]
        total = total + np.array([[np.sum(values * reduce(np.multiply.outer, row).ravel())
                                   for row in rows] for values in integrand(points)]).T
    if not np.all(np.isfinite(total)):
        raise NonFiniteIntegrandError("dense tensor integrand produced non-finite values")
    return total


def fourier_numeric_tensor(params: FamilyParams, xi, spec: QuadratureSpec | None = None):
    """:func:`ballfourier.fourier_numeric` as the dense tensor-product sum
    of :func:`family_eval_peel_last` on the same line rule, not of the axis
    factors the oracle sums (or of ``family_eval``, their product); the two
    agree to rounding on one rule.  ``xi`` has shape (..., r), one weight
    row w exp(-i xi_j x) per frequency vector on each axis."""
    r = params.r
    xi = _frequency_vectors(xi, r)
    x, w = _line_rule(spec or QuadratureSpec())[:2]
    # weight rows w exp(-i xi_j x), one per frequency vector; complex even if none
    rules = [(x, w * np.exp(-1j * np.multiply.outer(xi_j, x))) for xi_j in xi.reshape(-1, r).T]
    out = tensor_sum(rules, lambda points: (family_eval_peel_last(points, params),))
    out = out[:, 0].astype(np.complex128).reshape(xi.shape[:-1])
    return complex(out) if out.ndim == 0 else out


def ball_gram_tensor(indices, mu: float, spec: QuadratureSpec | None = None) -> np.ndarray:
    """:func:`ballfourier.quadrature.ball_gram_matrix` as the dense sum of
    the basis products through ``ball_basis_eval`` on the same per-axis
    Gauss-Jacobi rules (and the same refusals), at the nested-radius points
    x_j = t_j prod_{k<j} sqrt(1 - t_k^2): the upper triangle, mirrored.  An
    entry does not depend on the other pairs, so entry [0, 1] of two
    indices is their inner product."""
    indices = _index_list(indices)
    mu = _check_weight(mu, "mu")
    upper = np.triu_indices(len(indices))
    pairs = list(zip(*upper))
    rules = _ball_rules(indices, pairs, mu, spec)

    def integrand(t):
        radii = np.cumprod(np.sqrt(np.maximum(1.0 - t[:, :-1] ** 2, 0.0)), axis=1)
        x = t * np.hstack([np.ones((len(t), 1)), radii])
        basis = {ix: ball_basis_eval(ix, mu, x) for ix in dict.fromkeys(indices)}
        return (basis[indices[p]] * basis[indices[q]] for p, q in pairs)

    gram = np.empty((len(indices), len(indices)))
    gram[upper] = tensor_sum(rules, integrand)[0]
    gram.T[upper] = gram[upper]
    return gram


def d_biorthogonality_tensor(n, m, a1: float, a2: float,
                             spec: QuadratureSpec | None = None) -> complex:
    """:func:`ballfourier.d_biorthogonality_integral` as the dense sum of
    the pairing through ``d_family_eval`` at +ix and -ix on the same line
    rule, by default :func:`ballfourier.quadrature.d_pair_spec`."""
    n, m = _index_list([n, m])
    if spec is None:
        spec = d_pair_spec(a1, a2)
    f, g = DParams(a1, a2, n), DParams(a2, a1, m)
    return complex(tensor_sum([_line_rule(spec)[:2]] * len(n), lambda points: (
        d_family_eval(1j * points, f) * d_family_eval(-1j * points, g),))[0, 0])
