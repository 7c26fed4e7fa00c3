"""Deterministic multi-agent simulator.

Agents explore a grid through privately sampled importance fields, photograph
and exchange what they find, dream over semantic graphs while asleep, and run
on bounded emotion dynamics; a genetic outer loop tunes their hyperparameters
for sociability. Same seed, same numpy and BLAS build, same OpenBLAS thread
count: identical output, byte for byte. Sampled fields depend on the thread
count through the covariance's Cholesky factor; the README's note on
randomness says more.
"""

__version__ = "0.1.0"

from .agents import Agent, AgentConfig, agent_tick, navigate_step, receive_percept
from .dreams import DreamConfig, DreamFrame, dream, dream_valence
from .emotions import EmotionParams, EmotionState, apply_event, should_sleep, tick_emotions
from .errors import (
    ConfigError,
    ContractError,
    CovarianceDegeneracyError,
    EmptyStoreError,
    GraphParseError,
    SimulatorError,
    TraceError,
    UnknownCategoryError,
)
from .fields import (
    GridCell,
    KernelConfig,
    ValueField,
    contaminate,
    local_bump,
    sample_field,
    steepest_neighbor,
)
from .optimizer import (
    DEFAULT_BOUNDS,
    FitnessReport,
    GAConfig,
    Genome,
    decode_genome,
    evolve,
    fitness,
)
from .semantics import (
    Percept,
    PerceptStore,
    SemanticGraph,
    classify,
    load_graph,
    semantic_distance,
)
from .world import (
    InteractionRecord,
    Metrics,
    SimulationTrace,
    World,
    WorldConfig,
    build_world,
    interact,
    metrics,
    run,
)

__all__ = [
    "__version__",
    "Agent",
    "AgentConfig",
    "agent_tick",
    "navigate_step",
    "receive_percept",
    "DreamConfig",
    "DreamFrame",
    "dream",
    "dream_valence",
    "EmotionParams",
    "EmotionState",
    "apply_event",
    "should_sleep",
    "tick_emotions",
    "ConfigError",
    "ContractError",
    "CovarianceDegeneracyError",
    "EmptyStoreError",
    "GraphParseError",
    "SimulatorError",
    "TraceError",
    "UnknownCategoryError",
    "GridCell",
    "KernelConfig",
    "ValueField",
    "contaminate",
    "local_bump",
    "sample_field",
    "steepest_neighbor",
    "DEFAULT_BOUNDS",
    "FitnessReport",
    "GAConfig",
    "Genome",
    "decode_genome",
    "evolve",
    "fitness",
    "Percept",
    "PerceptStore",
    "SemanticGraph",
    "classify",
    "load_graph",
    "semantic_distance",
    "InteractionRecord",
    "Metrics",
    "SimulationTrace",
    "World",
    "WorldConfig",
    "build_world",
    "interact",
    "metrics",
    "run",
]
