"""Exception types shared across the simulator."""


class SimulatorError(Exception):
    """Base class for every error this package raises on purpose."""


class ConfigError(SimulatorError, ValueError):
    """Invalid configuration value or combination."""


class GraphParseError(SimulatorError, ValueError):
    """Malformed edge-list source; the message starts `line N: `, 1-based."""


class UnknownCategoryError(SimulatorError, KeyError):
    """Category name not present in the graph."""


class ContractError(SimulatorError, ValueError):
    """Caller broke an operation contract (dimension mismatch, bad kind, ...)."""


class CovarianceDegeneracyError(SimulatorError, ArithmeticError):
    """Covariance stayed non-positive-definite after jitter escalation."""


class EmptyStoreError(SimulatorError, RuntimeError):
    """Dreaming requires at least one stored percept per store."""


class TraceError(SimulatorError, ValueError):
    """Trace file missing, malformed, or internally inconsistent."""
