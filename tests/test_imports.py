"""Every library module, and the tests' reference routes, reads what it
imports and defines what it exports; every exported name has a caller in
the library, and the public signatures are pinned.

The repository runs no linter, so this walks each module's syntax tree.  An
imported name that the module never reads, and does not re-export through
``__all__``, is a dead import; a name in ``__all__`` that the module does
not bind is a broken export.
"""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ballfourier"
# the library's modules and the tests' reference routes, which left the library
MODULES = sorted(SRC.glob("*.py")) + [Path(__file__).resolve().parent / "reference_routes.py"]


def _imported(tree) -> set:
    """Names bound by the module's imports (``from __future__`` aside)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def _read(tree) -> set:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _is_exports(node) -> bool:
    """Whether ``node`` is the ``__all__ = [...]`` assignment."""
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)


def _exports(tree) -> list:
    for node in tree.body:
        if _is_exports(node):
            return list(ast.literal_eval(node.value))
    return []


def _bound(tree) -> set:
    """Names the module binds at its top level."""
    names = _imported(tree)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def _faults(source: str) -> tuple[list, list]:
    """(dead imports, broken exports) of one module's source."""
    tree = ast.parse(source)
    exports = _exports(tree)
    dead = sorted(_imported(tree) - _read(tree) - set(exports))
    broken = [name for name in exports if name not in _bound(tree)]
    return dead, broken


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_imports_are_used_and_exports_defined(path):
    dead, broken = _faults(path.read_text(encoding="utf-8"))
    assert dead == [], f"{path.name} imports names it never uses: {dead}"
    assert broken == [], f"{path.name} exports names it does not define: {broken}"


def test_the_check_flags_both_faults():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "from .ball import tail_sum, ball_norm\n"
              "__all__ = ['ball_norm', 'scale', 'missing']\n"
              "def scale(x: Sequence) -> float:\n"
              "    return float(x)\n")
    assert _faults(source) == (["math", "tail_sum"], ["missing"])


def test_private_names_have_a_caller():
    # a private function or class that nothing in the package refers to
    # outside its own body is dead, even if the tests import it
    defs, refs = set(), set()
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = (path.name, top.name)
                if top.name.startswith("_"):
                    defs.add(owner)
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else
                        node.name if isinstance(node, ast.alias) else None)
                refs.add((name, owner))
    orphans = sorted(f"{module}:{name}" for module, name in defs
                     if not any(ref == name and owner != (module, name) for ref, owner in refs))
    assert orphans == []


# exported names that nothing in the library calls, each with its reason;
# a name leaves this list when it gains a caller or leaves the library
_UNCALLED_EXPORTS = {
    name: "wrapped by name in perfbench/tracer.py; deleted with ROADMAP item 20"
    for name in ("pfq_diagnostics", "ball_inner_product_numeric",
                 "hahn_orthogonality_integral", "d_biorthogonality_integral")
}


def _uncalled_exports(sources) -> list:
    """The names in the ``__all__`` lists of ``sources`` (file name to
    source) that no module but ``__init__.py`` refers to outside the
    top-level definition of that name and the ``__all__`` lists.  Dunder
    names (``__version__``) are package metadata, not routes."""
    exported, refs = set(), set()
    for name, source in sources.items():
        tree = ast.parse(source)
        exported.update(_exports(tree))
        if name == "__init__.py":
            continue
        for top in tree.body:
            if not _is_exports(top):
                # a Name's id or an Attribute's attr, outside the definition
                refs.update({getattr(node, "id", None) or getattr(node, "attr", None)
                             for node in ast.walk(top)} - {getattr(top, "name", None)})
    return sorted(name for name in exported - refs if not name.startswith("__"))


def test_public_names_have_a_caller():
    # the library carries what the CLI, the suites and the benchmark run:
    # a name exported but called only by the tests is dead code
    sources = {path.name: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert _uncalled_exports(sources) == sorted(_UNCALLED_EXPORTS)


def test_the_caller_check_flags_an_uncalled_export():
    sources = {"__init__.py": "from .a import used, unused\n__all__ = ['used', 'unused']\n",
               "a.py": ("__all__ = ['used', 'unused', 'recursive', '__version__']\n"
                        "def used(): return 1\n"
                        "def unused(): return used()\n"
                        "def recursive(k): return recursive(k - 1) if k else 0\n"
                        "__version__ = '1'\n")}
    assert _uncalled_exports(sources) == ["recursive", "unused"]


def test_package_import_leaves_fractions_unloaded():
    # only the exact ball routes use rationals; importing them would add
    # to every process start
    code = "import sys, ballfourier; print('fractions' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


# the parameters, with their defaults, of every callable the package and
# its modules export; an option added to or removed from a public route, or
# a default changed, shows here as a reviewed diff.  The first entries recorded the removal of the oracle's
# four ``mode`` options and of ``family_eval_peel_last``; later ones, of
# ``run_suite``'s ``quick``, of ``reports_to_json``'s optional ``handle``
# and of ``tanh_ball_map``.  The exception classes take Exception's
# arguments.
_PUBLIC_SIGNATURES = {
    "FamilyParams": ("a", "mu", "n"),
    "DParams": ("a1", "a2", "n"),
    "HypergeometricSpec": ("numerator_params", "denominator_params", "argument",
                           "termination_order"),
    "QuadratureSpec": ("nodes_per_axis=1024", "truncation_halfwidth=40.0", "panels=64"),
    "VerificationReport": ("identity_name", "parameters", "lhs", "rhs", "abs_error",
                           "rel_error", "tolerance", "passed", "low_confidence=False"),
    "PoleError": "exception",
    "DenominatorPoleError": "exception",
    "DomainError": "exception",
    "NonFiniteIntegrandError": "exception",
    "log_gamma": ("z",),
    "gamma": ("z",),
    "pochhammer": ("base", "order"),
    "gamma_pair": ("a", "b"),
    "beta_conjugate": ("x", "y"),
    "pfq_diagnostics": ("spec",),
    "hyp3f2_unit": ("n", "upper2", "upper3", "lower1", "lower2"),
    "hyp3f2_ladder": ("degrees", "s", "u", "lower1", "lower2"),
    "jacobi": ("n", "alpha", "beta", "x"),
    "gegenbauer": ("n", "lam", "x"),
    "gegenbauer_norm": ("n", "lam"),
    "continuous_hahn": ("n", "x", "params"),
    "continuous_hahn_rows": ("degrees", "x", "params"),
    "hahn_orthogonality_constant": ("n", "a1", "a2"),
    "tail_sum": ("n", "j"),
    "validate_multi_index": ("n",),
    "ball_basis_eval": ("n", "mu", "x"),
    "ball_norm": ("n", "mu"),
    "ball_polynomial": ("n", "mu"),
    "ball_operator_residual": ("n", "mu"),
    "family_eval": ("x", "params"),
    "family_axis_factor": ("j", "params", "x"),
    "theta_factor": ("j", "r", "params", "xi"),
    "theta_factor_hahn": ("j", "r", "params", "xi"),
    "axis_ladder": ("j", "r", "m", "a", "mu", "z", "degrees"),
    "fourier_prefactor": ("params",),
    "fourier_closed_form": ("params", "xi"),
    "fourier_closed_form_table": ("indices", "a", "mu", "xi"),
    "fourier_via_recursion": ("params", "xi", "mode='peel_first'"),
    "d_axis_rows": ("j", "r", "m", "degrees", "x_j", "a1", "a2"),
    "d_axis_factor": ("j", "r", "x_j", "n", "a1", "a2"),
    "d_family_eval": ("x", "params"),
    "d_orthogonality_constant": ("n", "a1", "a2"),
    "fourier_numeric": ("params", "xi", "spec=None"),
    "fourier_numeric_table": ("indices", "a", "mu", "xi", "spec=None"),
    "ball_inner_product_numeric": ("n", "m", "mu", "spec=None"),
    "hahn_orthogonality_integral": ("n", "m", "a1", "a2", "spec=None"),
    "d_biorthogonality_integral": ("n", "m", "a1", "a2", "spec=None"),
    "parseval_sides": ("n", "m", "a1", "a2", "spec=None"),
    "ball_default_spec": ("r",),
    "hahn_default_spec": (),
    "d_pair_spec": ("a1", "a2"),
    "tanh_default_spec": (),
    "ball_gram_matrix": ("indices", "mu", "spec=None"),
    "hahn_gram_matrix": ("degrees", "a1", "a2", "spec=None"),
    "d_biorthogonality_gram": ("indices", "a1", "a2", "spec=None"),
    "make_report": ("identity_name", "parameters", "lhs", "rhs", "tolerance", "abs_floor=0.0",
                    "low_confidence=False"),
    "fourier_report": ("params", "xi", "tolerance=None"),
    "SplitMix64": ("seed",),
    "run_suite": ("name", "seed=0", "r_max=3", "tolerance=None"),
    "report_to_dict": ("report",),
    "reports_to_json": ("reports", "handle"),
    "reports_to_csv": ("reports", "handle"),
    "canonical_sort": ("reports",),
}


def test_public_signatures_are_pinned():
    import ballfourier

    modules = [ballfourier] + [importlib.import_module(f"ballfourier.{path.stem}")
                               for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"]
    seen = {name: _signature(getattr(module, name))
            for module in modules for name in getattr(module, "__all__", ())}
    assert {name: entry for name, entry in seen.items() if entry is not None} \
        == _PUBLIC_SIGNATURES


def _signature(obj):
    """The pinned entry of one export: "exception", its parameters (a
    name, or name=default), or None for a value that is not callable
    (``SUITE_NAMES``)."""
    if isinstance(obj, type) and issubclass(obj, Exception):
        return "exception"
    if not callable(obj):
        return None
    return tuple(p.name if p.default is p.empty else f"{p.name}={p.default!r}"
                 for p in inspect.signature(obj).parameters.values())
