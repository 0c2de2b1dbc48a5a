"""Every library module reads what it imports and defines what it exports.

The repository runs no linter, so this walks each module's syntax tree.  An
imported name that the module never reads, and does not re-export through
``__all__``, is a dead import; a name in ``__all__`` that the module does
not bind is a broken export.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ballfourier"
MODULES = sorted(SRC.glob("*.py"))


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


def _exports(tree) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
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


def test_package_import_leaves_fractions_unloaded():
    # only the exact ball routes use rationals; importing them would add
    # to every process start
    code = "import sys, ballfourier; print('fractions' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"
