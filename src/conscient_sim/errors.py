"""Exception types shared across the simulator."""


class SimulatorError(Exception):
    """Base class for every error this package raises on purpose."""


class ConfigError(SimulatorError, ValueError):
    """Invalid configuration value or combination."""


class GraphParseError(SimulatorError, ValueError):
    """Malformed edge-list source; the message starts `line N: ` (1-based)
    when one line is at fault, and `no edges` when the source holds none."""


class UnknownCategoryError(SimulatorError, KeyError):
    """Category name not present in the graph."""


class ContractError(SimulatorError, ValueError):
    """Caller broke an operation contract (dimension mismatch, bad kind, ...)."""


class CovarianceDegeneracyError(SimulatorError, ArithmeticError):
    """Covariance stayed non-positive-definite after jitter escalation."""


class TraceError(SimulatorError, ValueError):
    """Trace file missing, malformed, or internally inconsistent."""
