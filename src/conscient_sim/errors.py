"""Exception types shared across the simulator, and the config bounds they report."""

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


def check_bounds(config, section: str) -> None:
    """Reject a float field of `config` that is not finite or outside its `bound`, then
    one above its `at_most` partner, so a partner out of its own range is named first."""
    for f in fields(config):
        v = getattr(config, f.name)
        if isinstance(v, float) and not math.isfinite(v):
            raise ConfigError(f"{section}.{f.name} must be finite, got {v}")
        lo, hi, strict = f.metadata.get("bound", (None, None, False))
        above_lo = lo is None or (v > lo if strict else v >= lo)
        below_hi = hi is None or (v < hi if strict else v <= hi)
        if not (above_lo and below_hi):
            if lo is not None and hi is not None:
                rule = f"in ({lo}, {hi})" if strict else f"in [{lo}, {hi}]"
            else:
                op, end = (">", lo) if hi is None else ("<", hi)
                rule = f"{op}{'' if strict else '='} {end}"
            raise ConfigError(f"{section}.{f.name} must be {rule}, got {v}")
    for f in fields(config):
        other = f.metadata.get("at_most")
        if other is not None:
            v, w = getattr(config, f.name), getattr(config, other)
            if v > w:
                raise ConfigError(f"{section}.{f.name} {v} exceeds {section}.{other} {w}")
