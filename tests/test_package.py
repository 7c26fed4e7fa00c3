"""Package hygiene: the public export list, unused imports and parameters.

No linter ships with the toolchain, so these AST checks stand in for the
rules that matter when code is deleted: every exported name still resolves,
no module keeps importing a name it no longer uses, and no function keeps a
parameter it never reads.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import conscient_sim

PACKAGE_DIR = Path(conscient_sim.__file__).parent
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name each import binds in the module -> line of the import."""
    out: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used_names(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # quoted annotations such as -> "Genome" name things too
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return used


def test_every_exported_name_resolves():
    missing = [name for name in conscient_sim.__all__ if not hasattr(conscient_sim, name)]
    assert missing == []
    assert len(set(conscient_sim.__all__)) == len(conscient_sim.__all__)


def test_all_lists_exactly_what_init_imports():
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text(encoding="utf-8"))
    imported = {name for name in _imported_names(tree) if not name.startswith("_")}
    assert set(conscient_sim.__all__) == imported | {"__version__"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = {
        name: line for name, line in _imported_names(tree).items() if name not in used
    }
    assert unused == {}, f"{path.name} imports names it never uses"


def _unread_parameters(tree: ast.Module) -> list[str]:
    """`function(parameter)` for each parameter its function body never reads."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = [
            stmt
            for stmt in fn.body
            if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
        ]
        if not body:
            continue  # a stub whose body is only `...` (and a docstring)
        a = fn.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        out += [f"{fn.name}({p.arg})" for p in params if p is not None and p.arg not in read]
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_reads_every_parameter(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _unread_parameters(tree) == [], f"{path.name} has parameters it never reads"
