"""Genetic optimizer over agent hyperparameters.

Genomes are vectors in [0, 1]^d decoded linearly into agent parameters, each
gene named by the config key it sets.
Fitness of a genome is the mean interaction count over a fixed list of
evaluation seeds (common random numbers across genomes), with the movement
budget applied to every agent. Evaluation is a pure function of (genome,
seeds), so concurrent and sequential evaluation give identical results; the
CONSCIENT_SIM_THREADS environment variable caps worker count (0 = auto).
A world that cannot run stops the search with its error, in process or from
the pool.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError
from .seeds import derive_seed, make_rng
from .world import Metrics, SimulationTrace, WorldConfig, metrics, run

ENV_THREADS = "CONSCIENT_SIM_THREADS"


@dataclass(frozen=True)
class BoundSpec:
    name: str
    lo: float
    hi: float
    integer: bool = False


# Each gene is named by the config key it sets, and decode order is the gene
# order. Integer genes round half-up after the linear map; the step and delta
# (lower, upper) pairs are sorted after decoding so any genome yields a valid
# config.
DEFAULT_BOUNDS: tuple[BoundSpec, ...] = (
    BoundSpec("agent.t_awake", 5, 60, integer=True),
    BoundSpec("agent.t_asleep", 2, 30, integer=True),
    BoundSpec("dream.step_lower", 0, 3, integer=True),
    BoundSpec("dream.step_upper", 1, 6, integer=True),
    BoundSpec("emotion.threshold", 0.1, 0.95),
    BoundSpec("agent.explore_rate", 0.0, 1.0),
    BoundSpec("agent.noise_sigma", 0.0, 1.0),
    BoundSpec("emotion.delta_lower", 0.0, 0.1),
    BoundSpec("emotion.delta_upper", 0.02, 0.3),
    BoundSpec("dream.style_weight", 0.0, 1.0),
    BoundSpec("agent.visit_peak", -2.0, -0.1),
    BoundSpec("emotion.courage_gain", 0.0, 1.0),
    BoundSpec("emotion.high_value_cutoff", -1.0, 1.0),
)

_SORTED_PAIRS = (
    ("dream.step_lower", "dream.step_upper"),
    ("emotion.delta_lower", "emotion.delta_upper"),
)


@dataclass(eq=False)
class Genome:
    genes: np.ndarray

    def __post_init__(self) -> None:
        self.genes = np.asarray(self.genes, dtype=float)

    def copy(self) -> "Genome":
        return Genome(self.genes.copy())


@dataclass(frozen=True)
class GAConfig:
    population_size: int = 16
    generations: int = 20
    tournament_size: int = 3
    crossover_rate: float = 0.9
    mutation_rate: float = 0.15
    mutation_sigma: float = 0.1
    elite_count: int = 1
    eval_seeds: tuple[int, ...] = (11, 12, 13)
    movement_budget: int = 400

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ConfigError(f"ga.population_size must be >= 2, got {self.population_size}")
        if self.generations < 1:
            raise ConfigError(f"ga.generations must be >= 1, got {self.generations}")
        if self.tournament_size < 1:
            raise ConfigError(f"ga.tournament_size must be >= 1, got {self.tournament_size}")
        if not (0.0 <= self.crossover_rate <= 1.0):
            raise ConfigError(f"ga.crossover_rate must be in [0, 1], got {self.crossover_rate}")
        if not (0.0 <= self.mutation_rate <= 1.0):
            raise ConfigError(f"ga.mutation_rate must be in [0, 1], got {self.mutation_rate}")
        if self.mutation_sigma < 0:
            raise ConfigError(f"ga.mutation_sigma must be >= 0, got {self.mutation_sigma}")
        if not (1 <= self.elite_count <= self.population_size):
            raise ConfigError(
                f"ga.elite_count must be in [1, population_size], got {self.elite_count}"
            )
        if not self.eval_seeds:
            raise ConfigError("ga.eval_seeds must not be empty")
        for seed in self.eval_seeds:
            if not (0 <= seed < 2**64):
                raise ConfigError(
                    f"ga.eval_seeds entries must be unsigned 64-bit integers, got {seed}"
                )
        if self.movement_budget < 0:
            raise ConfigError(f"ga.movement_budget must be >= 0, got {self.movement_budget}")


@dataclass(eq=False)
class FitnessReport:
    genome: Genome
    fitness: float
    per_seed: list[Metrics]
    generation: int


@dataclass(eq=False)
class GenerationStats:
    generation: int
    best_fitness: float
    mean_fitness: float
    best_genome: np.ndarray


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def decode_genome(genome: Genome) -> dict[str, float | int]:
    """Linear map from [0, 1] genes, one per DEFAULT_BOUNDS entry, to `{config key: value}`."""
    out: dict[str, float | int] = {}
    for g, spec in zip(genome.genes, DEFAULT_BOUNDS):
        val = spec.lo + float(g) * (spec.hi - spec.lo)
        out[spec.name] = _round_half_up(val) if spec.integer else val
    for lo_key, hi_key in _SORTED_PAIRS:
        if out[lo_key] > out[hi_key]:
            out[lo_key], out[hi_key] = out[hi_key], out[lo_key]
    return out


def configure_world(
    base: WorldConfig, params: dict[str, float | int], movement_budget: int
) -> WorldConfig:
    """Overlay decoded `{config key: value}` parameters and the GA movement budget."""
    by_section: dict[str, dict[str, float | int]] = {
        "agent": {"movement_budget": movement_budget},
        "dream": {},
        "emotion": {},
    }
    for key, value in params.items():
        section, _, name = key.partition(".")
        by_section[section][name] = value
    agent = base.agent
    dream = replace(agent.dream, **by_section["dream"])
    emotion = replace(agent.emotion, **by_section["emotion"])
    return replace(base, agent=replace(agent, dream=dream, emotion=emotion, **by_section["agent"]))


TraceHook = Callable[[Genome, int, SimulationTrace], None]


def fitness(
    genome: Genome,
    ga: GAConfig,
    base: WorldConfig,
    generation: int = 0,
    trace_hook: Optional[TraceHook] = None,
) -> FitnessReport:
    """Mean interaction count over the evaluation seeds.

    Every decoded genome is a valid config, so a simulation error means the
    base world cannot run: it propagates and stops the search.
    """
    cfg = configure_world(base, decode_genome(genome), ga.movement_budget)
    per_seed: list[Metrics] = []
    for seed in ga.eval_seeds:
        trace = run(replace(cfg, master_seed=seed))
        if trace_hook is not None:
            trace_hook(genome, seed, trace)
        per_seed.append(metrics(trace))
    value = sum(m.interactions for m in per_seed) / len(per_seed)
    return FitnessReport(genome, value, per_seed, generation)


def _resolve_workers(workers: Optional[int]) -> int:
    name = "workers"
    if workers is None:
        name, raw = ENV_THREADS, os.environ.get(ENV_THREADS, "1")
        try:
            workers = int(raw)
        except ValueError:
            raise ConfigError(f"{name} must be an integer, got {raw!r}") from None
    if workers < 0:
        raise ConfigError(f"{name} must be >= 0, got {workers}")
    if workers == 0:
        workers = os.cpu_count() or 1
    return workers


def _tournament(
    reports: list[FitnessReport], size: int, rng: np.random.Generator
) -> FitnessReport:
    picks = rng.integers(0, len(reports), size=size).tolist()
    return reports[min(picks, key=lambda k: (-reports[k].fitness, k))]


def evolve(
    ga: GAConfig,
    base: WorldConfig,
    seed: int,
    workers: Optional[int] = None,
    trace_hook: Optional[TraceHook] = None,
) -> tuple[FitnessReport, list[GenerationStats]]:
    """Run the generational loop; returns the best report and per-gen history.

    Elites are copied unchanged each generation (so the best fitness never
    decreases under deterministic evaluation); the rest of the population is
    refilled by tournament selection, uniform crossover, and per-gene Gaussian
    mutation, with genes clipped back into [0, 1].
    """
    if not (0 <= seed < 2**64):
        raise ConfigError(f"search seed must be an unsigned 64-bit integer, got {seed}")
    n_workers = min(_resolve_workers(workers), ga.population_size)
    rng = make_rng(derive_seed(seed, "ga"))
    d = len(DEFAULT_BOUNDS)
    population = [Genome(rng.random(d)) for _ in range(ga.population_size)]
    history: list[GenerationStats] = []
    best_overall: Optional[FitnessReport] = None
    # one pool for the whole search, so each worker factors the covariance
    # once; hooks cannot cross process boundaries, so they run in-process
    parallel = n_workers > 1 and trace_hook is None
    with ProcessPoolExecutor(max_workers=n_workers) if parallel else nullcontext() as pool:
        mapper = pool.map if parallel else map
        for gen in range(ga.generations):
            evaluate = functools.partial(
                fitness, ga=ga, base=base, generation=gen, trace_hook=trace_hook
            )
            reports = list(mapper(evaluate, population))
            order = sorted(
                range(len(reports)), key=lambda k: (-reports[k].fitness, k)
            )
            gen_best = reports[order[0]]
            mean_fit = sum(r.fitness for r in reports) / len(reports)
            history.append(
                GenerationStats(
                    generation=gen,
                    best_fitness=gen_best.fitness,
                    mean_fitness=mean_fit,
                    best_genome=gen_best.genome.genes.copy(),
                )
            )
            if best_overall is None or gen_best.fitness > best_overall.fitness:
                best_overall = gen_best
            if gen == ga.generations - 1:
                break
            next_pop = [population[k].copy() for k in order[: ga.elite_count]]
            while len(next_pop) < ga.population_size:
                p1 = _tournament(reports, ga.tournament_size, rng).genome.genes
                p2 = _tournament(reports, ga.tournament_size, rng).genome.genes
                if float(rng.random()) < ga.crossover_rate:
                    mask = rng.random(d) < 0.5
                    child = np.where(mask, p1, p2)
                else:
                    child = p1.copy()
                mutate = rng.random(d) < ga.mutation_rate
                noise = rng.normal(0.0, ga.mutation_sigma, size=d)
                child = np.clip(np.where(mutate, child + noise, child), 0.0, 1.0)
                next_pop.append(Genome(child))
            population = next_pop
    assert best_overall is not None
    return best_overall, history
