"""The benchmark tracer still finds every library function it wraps.

``perfbench/tracer.py`` wraps library functions by name in every module
namespace that holds them and raises ``TraceTargetMissing`` when a name is
gone.  Here it is loaded from its source (read only, no bytecode written),
installed on the package and uninstalled again, so that a rename or a
deletion in the library fails tier-1 rather than only a traced benchmark
run (``perfbench/run.py --trace 1``).  A traced verify-all pass must also
reach every wrapped span but a listed few, so that work moved off a
wrapped name onto a private one fails here instead of reading as zero.
"""

import os
import sys
import types
from pathlib import Path

import numpy as np

import ballfourier
from ballfourier import cli, verify

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def test_install_finds_every_target_and_uninstall_restores_it():
    tracer = _tracer_module()
    modules = tracer.library_modules("ballfourier")
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    before = [dict(vars(m)) for m in modules]
    suites = dict(verify._SUITES)
    spans = tracer.Tracer()
    try:
        spans.install("ballfourier")
        for _, module, attr, _ in tracer.layer_targets(by_name["quadrature"]):
            assert hasattr(getattr(by_name[module], attr), "__wrapped__"), (module, attr)
        assert all(hasattr(runner, "__wrapped__") for runner in verify._SUITES.values())
    finally:
        spans.uninstall()
    assert [dict(vars(m)) for m in modules] == before
    assert verify._SUITES == suites


def _scalar_calls(lib):
    """One 0-d call of each eval-scalar kind of the benchmark, looked up in
    the module namespaces as they are now (after the tracer is installed)."""
    tf, df = lib["tanh_family"], lib["dfamily"]
    params = tf.FamilyParams(0.8, 0.6, (3, 5, 2))
    xi = np.array([0.7, -1.2, 2.1])
    return {
        "fourier_closed_form": lambda: tf.fourier_closed_form(params, xi),
        "fourier_via_recursion peel_first": lambda: tf.fourier_via_recursion(params, xi),
        "fourier_via_recursion peel_last":
            lambda: tf.fourier_via_recursion(params, xi, "peel_last"),
        "theta_factor": lambda: tf.theta_factor(2, 3, params, 0.7),
        "gegenbauer": lambda: lib["classical"].gegenbauer(7, 0.7, 0.3),
        "ball_basis_eval": lambda: lib["ball"].ball_basis_eval((3, 1, 2), 0.45,
                                                               np.array([0.2, -0.3, 0.4])),
        "d_family_eval": lambda: df.d_family_eval(np.array([0.1 + 2.0j, -0.2 - 1.0j, 0.3 + 0.5j]),
                                                  df.DParams(0.7, 1.1, (3, 5, 2))),
        "log_gamma": lambda: lib["special"].log_gamma(-2.3 + 1.1j),
    }


# (calls, points) of every span one call opens, as the benchmark's traced
# eval-scalar runs count them: gamma_pair passes through log_gamma, and
# d_family_eval through d_axis_factor, so work moved off a wrapped name
# fails here instead of making the traced counts incomparable
_SCALAR_SPANS = {
    "fourier_closed_form": {"tanh_family.fourier_closed_form": (1, None),
                            "special.log_gamma": (3, 3)},
    "fourier_via_recursion peel_first": {"tanh_family.fourier_via_recursion": (1, None),
                                         "special.log_gamma": (3, 3)},
    "fourier_via_recursion peel_last": {"tanh_family.fourier_via_recursion": (1, None),
                                        "special.log_gamma": (3, 3)},
    "theta_factor": {"tanh_family.theta_factor": (1, 1), "special.log_gamma": (1, 1)},
    "gegenbauer": {"classical.gegenbauer": (1, 1)},
    "ball_basis_eval": {"ball.ball_basis_eval": (1, 1)},
    "d_family_eval": {"dfamily.d_axis_factor": (3, 3), "special.log_gamma": (6, 6)},
    "log_gamma": {"special.log_gamma": (1, 1)},
}


def test_single_value_calls_keep_their_spans():
    tracer = _tracer_module()
    lib = {m.__name__.rsplit(".", 1)[-1]: m for m in tracer.library_modules("ballfourier")}
    seen = {}
    for kind in _SCALAR_SPANS:
        spans = tracer.Tracer()
        try:
            spans.install("ballfourier")
            _scalar_calls(lib)[kind]()
        finally:
            spans.uninstall()
        summary = spans.summary(0.0)["spans"]
        seen[kind] = {name: (span["calls"], span.get("points"))
                      for name, span in summary.items() if span["calls"]}
    assert seen == _SCALAR_SPANS


# Python-level calls into the library that one call of each eval-scalar
# kind makes (Python 3.11, where each comprehension is a call of its own):
# each input rule and route decision runs once, at the entry the caller
# used, so a layer added back to the single-value chain fails here
_SCALAR_CALL_COUNTS = {
    "fourier_closed_form": 80,
    "fourier_via_recursion peel_first": 54,
    "fourier_via_recursion peel_last": 54,
    "theta_factor": 24,
    "gegenbauer": 4,
    "ball_basis_eval": 31,
    "d_family_eval": 86,
    "log_gamma": 4,
}


def _library_listing(call) -> list:
    """The function names of the ``call`` events of ``sys.setprofile``
    whose code lives in the package's source files while ``call()`` runs:
    numpy's own Python helpers do not count, so the listing does not
    depend on numpy."""
    package = os.path.dirname(ballfourier.__file__) + os.sep
    names = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            names.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return names


def test_single_value_chain_keeps_its_length():
    lib = {name: sys.modules[f"ballfourier.{name}"]
           for name in ("tanh_family", "dfamily", "classical", "ball", "special")}
    calls = _scalar_calls(lib)
    counts = {kind: len(_library_listing(calls[kind])) for kind in _SCALAR_CALL_COUNTS}
    assert counts == {kind: min(count, _SCALAR_CALL_COUNTS[kind])
                      for kind, count in counts.items()}, counts


# library calls of one call of each closed-form norm (Python 3.11): each
# checks its orders at its own entry and forms its Pochhammer products
# beneath that check, so no second order check is in the listing (through
# a checked rising factorial, ball_norm((2, 3, 1), 0.7) made 10 more)
_NORM_CALL_COUNTS = {
    "ball_norm": 35,
    "gegenbauer_norm": 16,
    "d_orthogonality_constant": 66,
}


def test_norms_check_their_orders_once():
    calls = {
        "ball_norm": lambda: ballfourier.ball_norm((2, 3, 1), 0.7),
        "gegenbauer_norm": lambda: ballfourier.gegenbauer_norm(5, 0.7),
        "d_orthogonality_constant":
            lambda: ballfourier.d_orthogonality_constant((2, 1), 0.6, 0.8),
    }
    listings = {kind: _library_listing(call) for kind, call in calls.items()}
    # gegenbauer_norm checks its degree itself; the others validate a multi-index
    assert {kind: names.count("_check_order") for kind, names in listings.items()} \
        == {"ball_norm": 0, "gegenbauer_norm": 1, "d_orthogonality_constant": 0}
    counts = {kind: len(names) for kind, names in listings.items()}
    assert counts == {kind: min(count, _NORM_CALL_COUNTS[kind])
                      for kind, count in counts.items()}, counts


# spans a traced verify-all pass leaves at zero calls, because the suites
# reach their work through other names: the one-axis factors come from the
# keyed axis tables, the pairwise integrals from the Gram routes, the 3F2
# from its degree ladder, and no suite runs the spec diagnostics
_VERIFY_ALL_ZERO = {
    "hypergeometric.terminating_sum", "hypergeometric.pfq_diagnostics",
    "tanh_family.theta_factor", "tanh_family.family_axis_factor", "dfamily.d_axis_factor",
    "quadrature.ball_inner_product_numeric", "quadrature.d_biorthogonality_integral",
    "quadrature.hahn_orthogonality_integral",
}


def test_verify_all_reaches_every_other_span(capsys):
    tracer = _tracer_module()
    spans = tracer.Tracer()
    try:
        spans.install("ballfourier")
        assert cli.main(["verify", "--suite", "all", "--r-max", "3"]) == 0
    finally:
        spans.uninstall()
    capsys.readouterr()
    summary = spans.summary(0.0)["spans"]
    assert {name for name, span in summary.items() if not span["calls"]} == _VERIFY_ALL_ZERO
    # a span that is called counts its points (or terms) as well
    uncounted = {(name, quantity) for name, span in summary.items() if span["calls"]
                 for quantity, count in span.items()
                 if quantity not in ("calls", "total_s", "self_s") and not count}
    assert uncounted == set()
