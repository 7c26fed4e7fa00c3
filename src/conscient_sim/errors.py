"""Exception types shared across the simulator, and the config bounds they report."""

import functools
import math
from dataclasses import field, fields


class SimulatorError(Exception):
    """Base class for every error this package raises on purpose."""


class ConfigError(SimulatorError, ValueError):
    """Invalid configuration value or combination."""


class GraphParseError(SimulatorError, ValueError):
    """Malformed edge-list source; the message starts `line N: ` (1-based)
    when one line is at fault, and `no edges` when the source holds none."""


class CovarianceDegeneracyError(SimulatorError, ArithmeticError):
    """Covariance stayed non-positive-definite after jitter escalation."""


class TraceError(SimulatorError, ValueError):
    """Trace file missing, malformed, or internally inconsistent."""


def bound(default, lo=None, hi=None, *, strict=False, at_most=None):
    """A config field whose value `check_bounds` keeps in [lo, hi], or (lo, hi) when
    `strict`, and at most the field named `at_most`; a None end or partner sets no limit."""
    return field(default=default, metadata={"bound": (lo, hi, strict), "at_most": at_most})


@functools.lru_cache(maxsize=16)
def _rules(cls) -> tuple[tuple[str, object, object, bool, str | None], ...]:
    """(name, lo, hi, strict, at_most) per field of a config class, in field order."""
    return tuple(
        (f.name, *f.metadata.get("bound", (None, None, False)), f.metadata.get("at_most"))
        for f in fields(cls)
    )


def check_bounds(config, section: str) -> None:
    """Reject a float field of `config` that is not finite or outside its `bound`, then
    one above its `at_most` partner, so a partner out of its own range is named first."""
    rules = _rules(type(config))
    for name, lo, hi, strict, _ in rules:
        v = getattr(config, name)
        if isinstance(v, float) and not math.isfinite(v):
            raise ConfigError(f"{section}.{name} must be finite, got {v}")
        above_lo = lo is None or (v > lo if strict else v >= lo)
        below_hi = hi is None or (v < hi if strict else v <= hi)
        if not (above_lo and below_hi):
            if lo is not None and hi is not None:
                rule = f"in ({lo}, {hi})" if strict else f"in [{lo}, {hi}]"
            else:
                op, end = (">", lo) if hi is None else ("<", hi)
                rule = f"{op}{'' if strict else '='} {end}"
            raise ConfigError(f"{section}.{name} must be {rule}, got {v}")
    for name, _, _, _, other in rules:
        if other is not None:
            v, w = getattr(config, name), getattr(config, other)
            if v > w:
                raise ConfigError(f"{section}.{name} {v} exceeds {section}.{other} {w}")
