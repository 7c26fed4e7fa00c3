"""Flat `section.key = value` config files.

Every tunable in the simulator has a dotted key `section.field`, one per
scalar field of the config dataclasses; a config file lists any subset of them
and everything else takes its declared default. Blank lines and lines whose
first non-blank character is `#` are ignored; there are no trailing comments,
so `key = 6 # six` gives `key` the value `6 # six`. Unknown keys, duplicate
keys, and type mismatches are rejected with the offending key and line
number; each value's range is declared beside its field and checked when its
section is built. Parsed values are echoed back in a canonical rendering so a
manifest can reproduce the run exactly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, is_dataclass
from typing import Callable, Optional, get_type_hints

from .agents import AgentConfig
from .dreams import DreamConfig
from .emotions import EmotionParams
from .errors import ConfigError
from .fields import KernelConfig
from .optimizer import GAConfig
from .semantics import BUILTIN_CONTENT_EDGES, BUILTIN_STYLE_EDGES
from .world import WorldConfig

BUILTIN_GRAPH = "builtin"


def _cast_float(raw: str) -> float:
    v = float(raw)
    if v != v or v in (float("inf"), float("-inf")):
        raise ValueError("not finite")
    return v


def _cast_int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(p) for p in raw.split(","))


def _cast_str_list(raw: str) -> tuple[str, ...]:
    parts = tuple(p.strip() for p in raw.split(",")) if raw.strip() else ()
    if "" in parts:  # as in "a,,b" or "a,": `_render_list` writes no empty entry
        raise ValueError("empty list entry")
    return parts


def _render_float(v) -> str:
    return repr(float(v))


def _render_list(v) -> str:
    return ",".join(str(x) for x in v)


# config section -> its dataclass; a nested config field names its section, and
# nested sections are listed after their parent
_SECTIONS: dict[str, type] = {
    "world": WorldConfig,
    "agent": AgentConfig,
    "dream": DreamConfig,
    "emotion": EmotionParams,
    "kernel": KernelConfig,
    "ga": GAConfig,
}

# the edge-text fields are set through graph labels that `_load_edges` resolves
_GRAPH_KEYS = {
    "world.content_edges": "world.content_graph",
    "world.style_edges": "world.style_graph",
}

# field type -> (cast, render, type name in error messages)
_TYPES: dict[object, tuple[Callable[[str], object], Callable[[object], str], str]] = {
    int: (int, str, "integer"),
    float: (_cast_float, _render_float, "number"),
    str: (str, str, "string"),
    tuple[int, ...]: (_cast_int_list, _render_list, "integer list"),
    tuple[str, ...]: (_cast_str_list, _render_list, "string list"),
}


@dataclass(frozen=True)
class _Entry:
    key: str
    section: str
    field: str
    default: object
    cast: Callable[[str], object]
    render: Callable[[object], str]
    typename: str


def _table() -> tuple[list[_Entry], dict[str, list[str]]]:
    """One entry per scalar field of each section, and each section's nested fields."""
    entries: list[_Entry] = []
    nested: dict[str, list[str]] = {}
    for section, cls in _SECTIONS.items():
        hints = get_type_hints(cls)
        nested[section] = [f.name for f in fields(cls) if is_dataclass(hints[f.name])]
        for f in fields(cls):
            if f.name in nested[section]:
                continue
            key, default = f"{section}.{f.name}", f.default
            if key in _GRAPH_KEYS:
                key, default = _GRAPH_KEYS[key], BUILTIN_GRAPH
            entries.append(_Entry(key, section, f.name, default, *_TYPES[hints[f.name]]))
    return entries, nested


ENTRIES, _NESTED = _table()
_BY_KEY: dict[str, _Entry] = {entry.key: entry for entry in ENTRIES}
_BY_SECTION: dict[str, list[_Entry]] = {
    section: [entry for entry in ENTRIES if entry.section == section] for section in _SECTIONS
}


@dataclass(eq=False)
class ConfigBundle:
    world: WorldConfig
    ga: GAConfig
    # canonical `key -> rendered value` for every parameter, defaults included
    effective: dict[str, str]


def default_values() -> dict[str, str]:
    return {entry.key: entry.render(entry.default) for entry in ENTRIES}


def render_config(values: dict[str, str]) -> str:
    """Config file text reproducing the given effective values."""
    lines = [f"{entry.key} = {values[entry.key]}" for entry in ENTRIES if entry.key in values]
    return "\n".join(lines) + "\n"


def _load_edges(label: str, base_dir: str, key: str) -> tuple[str, str]:
    """Resolve a graph label to (edge text, canonical label)."""
    if label == BUILTIN_GRAPH:
        text = BUILTIN_CONTENT_EDGES if key == "world.content_graph" else BUILTIN_STYLE_EDGES
        return text, BUILTIN_GRAPH
    path = label if os.path.isabs(label) else os.path.join(base_dir, label)
    path = os.path.abspath(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read(), path
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise ConfigError(f"key {key}: cannot read graph file {path}: {exc}") from None


def _cast(entry: _Entry, raw: str, where: str) -> object:
    try:
        return entry.cast(raw)
    except ValueError:
        raise ConfigError(
            f"{where}: key {entry.key}: expected {entry.typename}, got {raw!r}"
        ) from None


def parse_config_text(
    text: str, base_dir: str = ".", overrides: Optional[dict[str, str]] = None
) -> ConfigBundle:
    """Parse flat config text; see module docstring for the format."""
    values = {entry.key: entry.default for entry in ENTRIES}
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _BY_KEY:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        values[key] = _cast(_BY_KEY[key], val.strip(), f"line {lineno}")
    if overrides:
        for key, val in overrides.items():
            if key not in _BY_KEY:
                raise ConfigError(f"override: unknown key {key!r}")
            values[key] = _cast(_BY_KEY[key], val, "override")
    return _build(values, base_dir)


def parse_config(path: str, overrides: Optional[dict[str, str]] = None) -> ConfigBundle:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config_text(text, base_dir=os.path.dirname(os.path.abspath(path)), overrides=overrides)


def _build(values: dict[str, object], base_dir: str) -> ConfigBundle:
    """Construct each section from its typed values, nested sections before their parents."""
    effective = {entry.key: entry.render(values[entry.key]) for entry in ENTRIES}
    built: dict[str, object] = {}
    for section in reversed(_SECTIONS):
        kwargs = {name: built[name] for name in _NESTED[section]}
        for entry in _BY_SECTION[section]:
            value = values[entry.key]
            if entry.key in _GRAPH_KEYS.values():
                value, effective[entry.key] = _load_edges(value, base_dir, entry.key)
            kwargs[entry.field] = value
        built[section] = _SECTIONS[section](**kwargs)
    return ConfigBundle(world=built["world"], ga=built["ga"], effective=effective)
