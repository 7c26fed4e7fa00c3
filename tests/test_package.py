"""Package hygiene: no re-exports, unused imports, parameters, fields and definitions.

No linter ships with the toolchain, so these AST checks stand in for the
rules that matter when code is deleted: `__init__.py` re-exports nothing,
no module keeps importing a name it no longer uses, no function keeps a
parameter it never reads, no dataclass keeps a field nobody reads, and no
function, class or method is kept for the tests alone.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import conscient_sim

PACKAGE_DIR = Path(conscient_sim.__file__).parent
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")
BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


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


def test_init_imports_nothing():
    # callers import each name from the module that defines it
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text(encoding="utf-8"))
    assert _imported_names(tree) == {}


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


def _attribute_loads(paths) -> set[str]:
    """Every attribute name read (`x.name` in a load context) in the files."""
    out: set[str] = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        out |= {
            n.attr
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
        }
    return out


def _is_dataclass_decorator(node: ast.expr) -> bool:
    fn = node.func if isinstance(node, ast.Call) else node
    return (isinstance(fn, ast.Name) and fn.id == "dataclass") or (
        isinstance(fn, ast.Attribute) and fn.attr == "dataclass"
    )


def _walks_own_fields(cls: ast.ClassDef) -> bool:
    """The class reads its fields by `fields(self)`, not by name."""
    return any(
        isinstance(n, ast.Call)
        and isinstance(n.func, ast.Name)
        and n.func.id == "fields"
        and any(isinstance(a, ast.Name) and a.id == "self" for a in n.args)
        for n in ast.walk(cls)
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_dataclass_fields_are_read(path):
    # matched by attribute name across src/ and bench/, so this is a lower
    # bound: a field sharing its name with one that is read passes
    loads = _attribute_loads([*PACKAGE_DIR.glob("*.py"), *BENCH_DIR.glob("*.py")])
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unread = [
        f"{cls.name}.{stmt.target.id}"
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        and any(_is_dataclass_decorator(d) for d in cls.decorator_list)
        and not _walks_own_fields(cls)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign)
        and isinstance(stmt.target, ast.Name)
        and stmt.target.id not in loads
    ]
    assert unread == [], f"{path.name} has dataclass fields nothing reads"


# Definitions kept although nothing in src/ or bench/ references them, each
# with its reason.
UNREACHED_ALLOWED = {
    "fields.bump_amount": "closed-form oracle that criterion 02 and "
    "tests/test_fields.py compare local_bump against",
}


def _definitions(tree: ast.Module) -> list[tuple[str, str]]:
    """(qualified name, bare name) of each module-level function and class
    and each non-dunder method."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            out += [
                (f"{node.name}.{m.name}", m.name)
                for m in node.body
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (m.name.startswith("__") and m.name.endswith("__"))
            ]
    return out


def _references(tree: ast.Module) -> set[str]:
    """Every name, attribute and import alias the module mentions."""
    out: set[str] = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.asname or n.name.split(".")[-1])
    return out


def _unreached(modules: dict[str, str], others: list[str], allowed: dict[str, str]) -> list[str]:
    """Definitions in `modules` (stem -> source) that no module references,
    nor any source in `others`, and allowlist entries that are stale.

    A `def` is not a reference to itself, and `__init__` is skipped, so a
    re-export does not count. Matched by bare name, so this is a lower bound:
    a method sharing its name with one that is called passes. An allowlist
    entry is stale when it names no definition or one that is referenced.
    """
    trees = {stem: ast.parse(src) for stem, src in modules.items() if stem != "__init__"}
    refs = set().union(*map(_references, trees.values()))
    refs |= set().union(*(_references(ast.parse(src)) for src in others))
    defined = {
        f"{stem}.{qual}": bare for stem, tree in trees.items() for qual, bare in _definitions(tree)
    }
    unreached = [q for q, bare in defined.items() if bare not in refs and q not in allowed]
    stale = [f"stale allowlist entry {q}" for q in allowed if q not in defined or defined[q] in refs]
    return unreached + stale


def test_every_definition_is_reached_from_src_or_bench():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE_DIR.glob("*.py")}
    bench = [p.read_text(encoding="utf-8") for p in BENCH_DIR.glob("*.py")]
    assert _unreached(modules, bench, UNREACHED_ALLOWED) == []


def test_unreached_checker_flags_and_clears():
    lib = (
        "def helper():\n    return 1\n\n"
        "def orphan():\n    return helper()\n\n"
        "class Box:\n"
        "    def __len__(self):\n        return helper()\n\n"
        "    def peek(self):\n        pass\n"
    )
    assert _unreached({"lib": lib}, [], {}) == ["lib.orphan", "lib.Box", "lib.Box.peek"]
    # a second module that uses them clears them
    app = "from .lib import Box, orphan\n\norphan()\nBox().peek()\n"
    assert _unreached({"lib": lib, "app": app}, [], {}) == []
    # a re-export in __init__ does not count; a reference outside src/ does
    init = "from .lib import orphan\n"
    assert _unreached({"lib": lib, "__init__": init}, [], {}) == [
        "lib.orphan",
        "lib.Box",
        "lib.Box.peek",
    ]
    assert _unreached({"lib": lib}, ["import lib\n\nlib.orphan(lib.Box().peek())\n"], {}) == []
    # an allowlist entry naming nothing, or something referenced, is stale
    allowed = {"lib.orphan": "oracle", "lib.Box": "oracle", "lib.Box.peek": "oracle"}
    assert _unreached({"lib": lib}, [], allowed) == []
    assert _unreached({"lib": lib}, [], {**allowed, "lib.gone": "oracle"}) == [
        "stale allowlist entry lib.gone"
    ]
    assert _unreached({"lib": lib}, [], {**allowed, "lib.helper": "oracle"}) == [
        "stale allowlist entry lib.helper"
    ]
