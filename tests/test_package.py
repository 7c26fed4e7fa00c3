"""Package hygiene: no re-exports, unused imports, parameters, fields and definitions.

No linter ships with the toolchain, so these AST checks stand in for the
rules that matter when code is deleted: `__init__.py` re-exports nothing,
no module keeps importing a name it no longer uses, no function keeps a
parameter it never reads, no dataclass or `NamedTuple` keeps a field nobody
reads (outside a reasoned allowlist), no function, class or method is kept
for the tests alone, no file is opened for writing outside the atomic-rename
helper, no `functools` cache grows without bound, no `except` handler
swallows an error outside the CLI's four, and no error message names a config
key that does not exist. Every package error also survives pickling, which
is how a pool worker's error reaches the parent, and every source file parses
at the Python floor that `requires-python` declares.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import pickle
import re
from pathlib import Path

import pytest

import conscient_sim
from conscient_sim import errors
from conscient_sim.agents import AgentConfig
from conscient_sim.configio import default_values

PACKAGE_DIR = Path(conscient_sim.__file__).parent
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")
REPO_DIR = Path(__file__).resolve().parents[1]
BENCH_DIR = REPO_DIR / "bench"


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


def _is_record_class(cls: ast.ClassDef) -> bool:
    """A `@dataclass` or a `NamedTuple` subclass: its annotated names are fields."""
    return any(_is_dataclass_decorator(d) for d in cls.decorator_list) or any(
        (isinstance(b, ast.Name) and b.id == "NamedTuple")
        or (isinstance(b, ast.Attribute) and b.attr == "NamedTuple")
        for b in cls.bases
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


def _unread_fields(tree: ast.Module, loads: set[str], allowed=()) -> list[str]:
    """`Class.field` for each field of a record class that is not in `loads`
    nor in `allowed`, and each `allowed` entry that is stale: it names no
    field, or one that is in `loads`."""
    declared = {
        f"{cls.name}.{stmt.target.id}": stmt.target.id
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        and _is_record_class(cls)
        and not _walks_own_fields(cls)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    }
    unread = [q for q, name in declared.items() if name not in loads and q not in allowed]
    stale = [
        f"stale allowlist entry {q}" for q in allowed if q not in declared or declared[q] in loads
    ]
    return unread + stale


# Record fields kept although nothing reads them, each with its reason.
UNREAD_ALLOWED = {
    "emotions.EmotionParams.courage_gain": "no event moves courage, but the gain is a GA "
    "gene: dropping it moves the ga digests in bench/expected.json (ROADMAP item 8)",
}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_dataclass_fields_are_read(path):
    # matched by attribute name across src/ and bench/, so this is a lower
    # bound: a field sharing its name with one that is read passes
    loads = _attribute_loads([*PACKAGE_DIR.glob("*.py"), *BENCH_DIR.glob("*.py")])
    tree = ast.parse(path.read_text(encoding="utf-8"))
    allowed = [q.split(".", 1)[1] for q in UNREAD_ALLOWED if q.split(".")[0] == path.stem]
    unread = _unread_fields(tree, loads, allowed)
    assert unread == [], f"{path.name} has record fields nothing reads"


def test_every_agent_setting_is_read_by_the_agents():
    # a setting only the world layout reads belongs to the world section, as
    # the kernel does; kept under `agent`, it would need a layout-key exception
    loads = _attribute_loads([PACKAGE_DIR / "agents.py"])
    assert [f.name for f in dataclasses.fields(AgentConfig) if f.name not in loads] == []


def test_unread_allowlist_names_modules():
    assert {q.split(".")[0] for q in UNREAD_ALLOWED} <= {p.stem for p in MODULES}


def test_unread_field_checker_covers_named_tuples():
    lib = (
        "import typing\n\n"
        "@dataclass(frozen=True)\nclass D:\n    a: int\n\n"
        "class N(NamedTuple):\n    b: int\n\n"
        "class T(typing.NamedTuple):\n    c: int\n\n"
        "class Plain:\n    d: int\n"
    )
    tree = ast.parse(lib)
    assert _unread_fields(tree, set()) == ["D.a", "N.b", "T.c"]
    assert _unread_fields(tree, {"a", "b", "c"}) == []
    # an allowlist entry clears its field; one naming nothing, or a read field, is stale
    assert _unread_fields(tree, {"a", "b"}, ["T.c"]) == []
    assert _unread_fields(tree, {"a", "b"}, ["T.c", "T.gone", "Plain.d", "N.b"]) == [
        "stale allowlist entry T.gone",
        "stale allowlist entry Plain.d",
        "stale allowlist entry N.b",
    ]


# Definitions kept although nothing in src/ or bench/ references them, each
# with its reason. A definition only tests use belongs in tests/oracle.py.
UNREACHED_ALLOWED: dict[str, str] = {}

CONSTANT_NAME = re.compile(r"[A-Z][A-Z0-9_]*")


def _definitions(tree: ast.Module) -> list[tuple[str, str]]:
    """(qualified name, bare name) of each module-level function, class and
    ALL-CAPS constant, and each non-dunder method."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.name))
        targets = [node.target] if isinstance(node, ast.AnnAssign) else []
        targets += node.targets if isinstance(node, ast.Assign) else []
        out += [
            (t.id, t.id)
            for t in targets
            if isinstance(t, ast.Name) and CONSTANT_NAME.fullmatch(t.id)
        ]
        if isinstance(node, ast.ClassDef):
            out += [
                (f"{node.name}.{m.name}", m.name)
                for m in node.body
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (m.name.startswith("__") and m.name.endswith("__"))
            ]
    return out


def _references(tree: ast.Module) -> set[str]:
    """Every name read, attribute and import alias the module mentions."""
    out: set[str] = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.asname or n.name.split(".")[-1])
    return out


def _unreached(modules: dict[str, str], others: list[str], allowed: dict[str, str]) -> list[str]:
    """Definitions in `modules` (stem -> source) that no module references,
    nor any source in `others`, and allowlist entries that are stale.

    A `def` or an assignment is not a reference to itself, and `__init__` is
    skipped, so a re-export does not count. Matched by bare name, so this is a
    lower bound: a method sharing its name with one that is called passes. An
    allowlist entry is stale when it names no definition or one that is
    referenced.
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
        "KINDS = ('a', 'b')\n\n"
        "def helper():\n    return 1\n\n"
        "def orphan():\n    return helper()\n\n"
        "class Box:\n"
        "    def __len__(self):\n        return helper()\n\n"
        "    def peek(self):\n        pass\n"
    )
    flagged = ["lib.KINDS", "lib.orphan", "lib.Box", "lib.Box.peek"]
    assert _unreached({"lib": lib}, [], {}) == flagged
    # a second module that uses them clears them
    app = "from .lib import KINDS, Box, orphan\n\norphan(KINDS)\nBox().peek()\n"
    assert _unreached({"lib": lib, "app": app}, [], {}) == []
    # a re-export in __init__ does not count; a reference outside src/ does
    init = "from .lib import KINDS, orphan\n"
    assert _unreached({"lib": lib, "__init__": init}, [], {}) == flagged
    outside = "import lib\n\nlib.orphan(lib.Box().peek(), lib.KINDS)\n"
    assert _unreached({"lib": lib}, [outside], {}) == []
    # an allowlist entry naming nothing, or something referenced, is stale
    allowed = {q: "oracle" for q in flagged}
    assert _unreached({"lib": lib}, [], allowed) == []
    assert _unreached({"lib": lib}, [], {**allowed, "lib.gone": "oracle"}) == [
        "stale allowlist entry lib.gone"
    ]
    assert _unreached({"lib": lib}, [], {**allowed, "lib.helper": "oracle"}) == [
        "stale allowlist entry lib.helper"
    ]


# The one function that may open a file for writing: every output goes
# through its temp file and rename.
WRITE_OPENER = ("traceio", "_atomic_open")


def _is_open_call(call: ast.Call) -> bool:
    """`open(...)`, `io.open(...)`, `os.open(...)` or `os.fdopen(...)`."""
    fn = call.func
    if isinstance(fn, ast.Name):
        return fn.id == "open"
    return (
        isinstance(fn, ast.Attribute)
        and isinstance(fn.value, ast.Name)
        and (fn.value.id, fn.attr) in {("io", "open"), ("os", "open"), ("os", "fdopen")}
    )


def _opens_for_reading(call: ast.Call) -> bool:
    """A constant mode without `w`, `a`, `x` or `+`, or `os.open` with `os.O_RDONLY`."""
    fn = call.func
    if isinstance(fn, ast.Attribute) and (fn.value.id, fn.attr) == ("os", "open"):
        flags = call.args[1] if len(call.args) > 1 else None
        return isinstance(flags, ast.Attribute) and flags.attr == "O_RDONLY"
    mode = call.args[1] if len(call.args) > 1 else None
    mode = next((k.value for k in call.keywords if k.arg == "mode"), mode)
    if mode is None:
        return True  # the default, "r"
    return isinstance(mode, ast.Constant) and not set(str(mode.value)) & set("wax+")


def _stray_write_opens(modules: dict[str, str]) -> list[str]:
    """`module:line` of each open call (stem -> source) that may write and is
    not inside `WRITE_OPENER`."""
    out = []
    for stem, src in modules.items():
        tree = ast.parse(src)
        allowed = {
            id(n)
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and (stem, fn.name) == WRITE_OPENER
            for n in ast.walk(fn)
        }
        out += [
            f"{stem}:{n.lineno}"
            for n in ast.walk(tree)
            if isinstance(n, ast.Call)
            and _is_open_call(n)
            and id(n) not in allowed
            and not _opens_for_reading(n)
        ]
    return out


def test_every_write_goes_through_the_atomic_open():
    # outputs are renamed into place, so a reader never sees a partial file
    modules = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE_DIR.glob("*.py")}
    assert _stray_write_opens(modules) == []


def test_write_open_checker_flags_and_clears():
    lib = (
        "import io, os\n\n"
        "def read(p):\n"
        "    open(p)\n    open(p, 'rb')\n    open(p, mode='r', encoding='utf-8')\n"
        "    os.open(p, os.O_RDONLY)\n\n"
        "def write(p, m):\n"
        "    open(p, 'w')\n    open(p, mode='a')\n    io.open(p, 'r+')\n    open(p, m)\n"
        "    os.open(p, os.O_WRONLY)\n    os.fdopen(3, 'wb')\n"
    )
    flagged = [f"lib:{line}" for line in range(10, 16)]
    assert _stray_write_opens({"lib": lib}) == flagged
    # the same calls inside traceio._atomic_open are allowed, and only there
    inside = lib.replace("def write(", "def _atomic_open(")
    assert _stray_write_opens({"traceio": inside}) == []
    assert _stray_write_opens({"lib": inside}) == flagged


def _int_constant(node: ast.expr, consts: dict[str, int]) -> int | None:
    """The int an expression of int literals, module-level int constants,
    `+` and `*` stands for, or None."""
    if isinstance(node, ast.Constant):
        return node.value if type(node.value) is int else None
    if isinstance(node, ast.Name):
        return consts.get(node.id)
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Mult)):
        left, right = _int_constant(node.left, consts), _int_constant(node.right, consts)
        if left is not None and right is not None:
            return left + right if isinstance(node.op, ast.Add) else left * right
    return None


def _unbounded_caches(modules: dict[str, str]) -> list[str]:
    """`module:line` of each `functools.cache`, and of each `lru_cache` not
    called with an integer `maxsize` (stem -> source)."""
    out = []
    for stem, src in modules.items():
        tree = ast.parse(src)
        consts: dict[str, int] = {}
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                value = _int_constant(stmt.value, consts)
                if isinstance(stmt.targets[0], ast.Name) and value is not None:
                    consts[stmt.targets[0].id] = value
        aliases = {
            a.asname or a.name: a.name
            for n in ast.walk(tree)
            if isinstance(n, ast.ImportFrom) and n.module == "functools"
            for a in n.names
        }

        def cache_kind(node: ast.AST) -> str | None:
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                return node.attr if node.value.id == "functools" else None
            return aliases.get(node.id) if isinstance(node, ast.Name) else None

        bounded = set()
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and cache_kind(n.func) == "lru_cache":
                size = next((k.value for k in n.keywords if k.arg == "maxsize"), None)
                size = n.args[0] if n.args else size
                if size is not None and _int_constant(size, consts) is not None:
                    bounded.add(id(n.func))
        lines = {
            n.lineno
            for n in ast.walk(tree)
            if cache_kind(n) in ("lru_cache", "cache") and id(n) not in bounded
        }
        out += [f"{stem}:{line}" for line in sorted(lines)]
    return out


def test_every_cache_has_an_integer_maxsize():
    # a cache without a bound keeps every argument and result for the life of
    # the process, which breaks the promise that memory stays bounded
    modules = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE_DIR.glob("*.py")}
    assert _unbounded_caches(modules) == []


def test_unbounded_cache_checker_flags_and_clears():
    lib = (
        "import functools\n"
        "from functools import cache, lru_cache as lru\n\n"
        "N = 4\nM = N * N + 1\n\n"
        "@functools.lru_cache(maxsize=8)\ndef a(x):\n    return x\n\n"
        "@lru(maxsize=M)\ndef b(x):\n    return x\n\n"
        "@functools.lru_cache(16)\ndef c(x):\n    return x\n\n"
        "@functools.lru_cache\ndef d(x):\n    return x\n\n"
        "@lru()\ndef e(x):\n    return x\n\n"
        "@functools.lru_cache(maxsize=None)\ndef f(x):\n    return x\n\n"
        "@functools.lru_cache(None)\ndef g(x):\n    return x\n\n"
        "@functools.cache\ndef h(x):\n    return x\n\n"
        "@cache\ndef i(x):\n    return x\n\n"
        "j = lru(maxsize=None)(a)\n"
        "k = lru(a)\n"
    )
    flagged = [f"lib:{line}" for line in (19, 23, 27, 31, 35, 39, 43, 44)]
    assert _unbounded_caches({"lib": lib}) == flagged
    bounded = (
        "import functools\n\n"
        "@functools.lru_cache(maxsize=2)\ndef a(x):\n    return x\n\n"
        "def cache(x):\n    return x\n\ncache(a(1))\n"
    )
    assert _unbounded_caches({"lib": bounded}) == []


# Handlers that may end without a `raise`, keyed by (module, function, caught
# types), each with its reason. Any other handler that catches an error must
# raise, so a failure stops the run instead of turning into a value.
SWALLOW_ALLOWED = {
    ("cli", "run_command", "SystemExit"): "argparse printed usage; its code is the exit code",
    ("cli", "run_command", "(SimulatorError, OSError)"): "prints the `error:` line; exit 1",
    ("cli", "run_command", "MemoryError"): "prints the `error:` line naming the size keys; exit 1",
    ("cli", "run_command", "BrokenProcessPool"): "a search worker died, as by the OOM killer: "
    "prints the `error:` line; exit 1",
    ("cli", "run_command", "KeyboardInterrupt"): "Ctrl-C: prints `error: interrupted`; exit 130, "
    "as 128 + SIGINT (ROADMAP item 22)",
    ("cli", "run_command", "Terminated"): "SIGTERM, raised by the handler `main` installs: "
    "prints `error: terminated`; exit 143, as 128 + SIGTERM (ROADMAP item 22)",
}


def _swallowing_handlers(modules: dict[str, str], allowed) -> list[str]:
    """`module:line` of each `except` handler (stem -> source) that holds no
    `raise` and is not in `allowed`."""
    out = []
    for stem, src in modules.items():
        tree = ast.parse(src)
        owner = {}  # handler -> innermost enclosing function; walk is outer first
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(n), fn.name) for n in ast.walk(fn))
        lines = {
            h.lineno
            for h in ast.walk(tree)
            if isinstance(h, ast.ExceptHandler)
            and not any(isinstance(n, ast.Raise) for n in ast.walk(h))
            and (stem, owner.get(id(h)), h.type and ast.unparse(h.type)) not in allowed
        }
        out += [f"{stem}:{line}" for line in sorted(lines)]
    return out


def test_no_handler_swallows_an_error():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE_DIR.glob("*.py")}
    assert _swallowing_handlers(modules, SWALLOW_ALLOWED) == []


def test_swallowing_handler_checker_flags_and_clears():
    lib = (
        "def wrap(x):\n"
        "    try:\n        return int(x)\n"
        "    except ValueError:\n        raise KeyError(x) from None\n\n"
        "def retry(x):\n"
        "    while True:\n"
        "        try:\n            return int(x)\n"
        "        except ValueError:\n"
        "            if not x:\n                raise\n"
        "            x = ''\n\n"
        "def swallow(x):\n"
        "    try:\n        return int(x)\n"
        "    except (ValueError, TypeError):\n        return None\n\n"
        "def bare(x):\n"
        "    try:\n        return int(x)\n"
        "    except:\n        pass\n\n"
        "try:\n    import foo\nexcept ImportError:\n    foo = None\n"
    )
    assert _swallowing_handlers({"lib": lib}, {}) == ["lib:19", "lib:25", "lib:30"]
    allowed = {
        ("lib", "swallow", "(ValueError, TypeError)"),
        ("lib", "bare", None),
        ("lib", None, "ImportError"),
    }
    assert _swallowing_handlers({"lib": lib}, allowed) == []
    # an entry covers only its own module, function and caught types
    assert _swallowing_handlers({"other": lib}, allowed) == ["other:19", "other:25", "other:30"]
    narrower = {("lib", "swallow", "ValueError"), ("lib", "wrap", None)}
    assert _swallowing_handlers({"lib": lib}, narrower) == ["lib:19", "lib:25", "lib:30"]


# A config key as an error message names it: a section, a dot, a field name.
KEY_TOKEN = re.compile(r"\b(?:world|agent|dream|emotion|kernel|ga)\.[A-Za-z_]\w*")


def _unknown_raised_keys(modules: dict[str, str], keys) -> list[str]:
    """`module:line token` of each key token in a string literal of a `raise`
    (stem -> source) that is not in `keys`."""
    out = []
    for stem, src in modules.items():
        for node in ast.walk(ast.parse(src)):
            if not isinstance(node, ast.Raise):
                continue
            out += [
                f"{stem}:{c.lineno} {token}"
                for c in ast.walk(node)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
                for token in KEY_TOKEN.findall(c.value)
                if token not in keys
            ]
    return out


def test_every_raised_key_name_is_a_config_key():
    # a renamed field must not leave a message naming a key that is gone
    modules = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE_DIR.glob("*.py")}
    assert _unknown_raised_keys(modules, default_values()) == []


def test_raised_key_checker_flags_and_clears():
    lib = (
        "def check(x, key):\n"
        "    if x < 0:\n"
        "        raise ValueError(f'world.resolution must be >= 2, got {x}')\n"
        "    if x > 9:\n"
        "        raise ValueError('agent.t_wake and dream.lenght, see kernel.*')\n"
        "    if not x:\n"
        "        raise ValueError(f'world.{key} must be set; omega.x is no key')\n"
        "    note = 'ga.no_such_key'\n"
        "    return note\n"
    )
    keys = {"world.resolution", "agent.t_awake", "dream.length"}
    assert _unknown_raised_keys({"lib": lib}, keys) == ["lib:5 agent.t_wake", "lib:5 dream.lenght"]
    fixed = lib.replace("t_wake", "t_awake").replace("lenght", "length")
    assert _unknown_raised_keys({"lib": fixed}, keys) == []
    # a key that is gone from the config flags every message that names it
    assert _unknown_raised_keys({"lib": fixed}, keys - {"world.resolution"}) == [
        "lib:3 world.resolution"
    ]


ERROR_CLASSES = [
    cls
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.SimulatorError) and cls.__module__ == errors.__name__
]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_error_survives_pickling(cls):
    # a pool worker's error reaches the parent only if it unpickles there
    err = pickle.loads(pickle.dumps(cls("msg")))
    assert type(err) is cls
    assert str(err) == str(cls("msg"))


def _python_floor() -> tuple[int, int]:
    """The (major, minor) that `requires-python` in pyproject.toml declares."""
    text = (REPO_DIR / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.MULTILINE)
    assert found, "pyproject.toml declares no requires-python floor"
    return int(found[1]), int(found[2])


@pytest.mark.parametrize("top", ["src", "tests", "bench"])
def test_every_source_file_parses_at_the_python_floor(top):
    # the suite may run under a newer interpreter alone: this holds every file to the floor
    floor = _python_floor()
    paths = sorted((REPO_DIR / top).rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=floor)
    # the check bites: an exception group needs 3.11
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
