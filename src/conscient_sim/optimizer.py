"""Genetic optimizer over agent hyperparameters.

Genomes are vectors in [0, 1]^d decoded linearly into named agent parameters.
Fitness of a genome is the mean interaction count over a fixed list of
evaluation seeds (common random numbers across genomes), with the movement
budget applied to every agent. Evaluation is a pure function of (genome,
seeds), so concurrent and sequential evaluation give identical results; the
CONSCIENT_SIM_THREADS environment variable caps worker count (0 = auto).
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

from .errors import ConfigError, ContractError, SimulatorError
from .seeds import derive_seed, make_rng
from .world import Metrics, SimulationTrace, WorldConfig, metrics, run

ENV_THREADS = "CONSCIENT_SIM_THREADS"


@dataclass(frozen=True)
class BoundSpec:
    name: str
    lo: float
    hi: float
    integer: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise ConfigError(f"bad bounds for {self.name}: [{self.lo}, {self.hi}]")


# Decode order is the gene order. Integer genes round half-up after the linear
# map; the (step_lower, step_upper) and (delta_lower, delta_upper) pairs are
# sorted after decoding so any genome yields a valid config.
DEFAULT_BOUNDS: tuple[BoundSpec, ...] = (
    BoundSpec("t_awake", 5, 60, integer=True),
    BoundSpec("t_asleep", 2, 30, integer=True),
    BoundSpec("step_lower", 0, 3, integer=True),
    BoundSpec("step_upper", 1, 6, integer=True),
    BoundSpec("sleep_threshold", 0.1, 0.95),
    BoundSpec("explore_rate", 0.0, 1.0),
    BoundSpec("noise_sigma", 0.0, 1.0),
    BoundSpec("delta_lower", 0.0, 0.1),
    BoundSpec("delta_upper", 0.02, 0.3),
    BoundSpec("style_weight", 0.0, 1.0),
    BoundSpec("visit_peak", -2.0, -0.1),
    BoundSpec("courage_gain", 0.0, 1.0),
    BoundSpec("high_value_cutoff", -1.0, 1.0),
)

_SORTED_PAIRS = (("step_lower", "step_upper"), ("delta_lower", "delta_upper"))


@dataclass(eq=False)
class Genome:
    genes: np.ndarray

    def __post_init__(self) -> None:
        self.genes = np.asarray(self.genes, dtype=float)
        if self.genes.ndim != 1:
            raise ContractError(f"genome must be a flat vector, got shape {self.genes.shape}")
        if not np.all(np.isfinite(self.genes)):
            raise ContractError("genome genes must be finite")
        if np.any(self.genes < 0.0) or np.any(self.genes > 1.0):
            raise ContractError("genome genes must lie in [0, 1]")

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
    normalize_fitness: bool = False

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
    mean_interactions: float
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


def decode_genome(genome: Genome) -> dict[str, float]:
    """Linear map from [0, 1] genes to named parameter values."""
    if genome.genes.shape != (len(DEFAULT_BOUNDS),):
        raise ContractError(
            f"genome length {genome.genes.shape[0]} does not match "
            f"bounds table length {len(DEFAULT_BOUNDS)}"
        )
    out: dict[str, float] = {}
    for g, spec in zip(genome.genes, DEFAULT_BOUNDS):
        val = spec.lo + float(g) * (spec.hi - spec.lo)
        out[spec.name] = float(_round_half_up(val)) if spec.integer else val
    for lo_name, hi_name in _SORTED_PAIRS:
        if out[lo_name] > out[hi_name]:
            out[lo_name], out[hi_name] = out[hi_name], out[lo_name]
    return out


def configure_world(
    base: WorldConfig, params: dict[str, float], movement_budget: int
) -> WorldConfig:
    """Overlay decoded parameters and the GA movement budget on a base config."""
    agent = base.agent
    dream = replace(
        agent.dream,
        step_lower=int(params["step_lower"]),
        step_upper=int(params["step_upper"]),
        style_weight=params["style_weight"],
    )
    emotion = replace(
        agent.emotion,
        delta_lower=params["delta_lower"],
        delta_upper=params["delta_upper"],
        threshold=params["sleep_threshold"],
        courage_gain=params["courage_gain"],
        high_value_cutoff=params["high_value_cutoff"],
    )
    new_agent = replace(
        agent,
        t_awake=int(params["t_awake"]),
        t_asleep=int(params["t_asleep"]),
        explore_rate=params["explore_rate"],
        noise_sigma=params["noise_sigma"],
        visit_peak=params["visit_peak"],
        movement_budget=movement_budget,
        dream=dream,
        emotion=emotion,
    )
    return replace(base, agent=new_agent)


TraceHook = Callable[[Genome, int, SimulationTrace], None]


def fitness(
    genome: Genome,
    ga: GAConfig,
    base: WorldConfig,
    generation: int = 0,
    trace_hook: Optional[TraceHook] = None,
) -> FitnessReport:
    """Mean interaction count over the evaluation seeds.

    A simulation error marks the genome with -inf fitness (worst rank) rather
    than aborting the search. With ga.normalize_fitness the fitness becomes
    the fraction of the theoretical interaction ceiling; the raw mean is kept
    on the report either way.
    """
    params = decode_genome(genome)
    per_seed: list[Metrics] = []
    try:
        for seed in ga.eval_seeds:
            cfg = replace(
                configure_world(base, params, ga.movement_budget), master_seed=seed
            )
            trace = run(cfg)
            if trace_hook is not None:
                trace_hook(genome, seed, trace)
            per_seed.append(metrics(trace))
    except SimulatorError:
        return FitnessReport(
            genome=genome,
            fitness=float("-inf"),
            mean_interactions=float("-inf"),
            per_seed=per_seed,
            generation=generation,
        )
    raw = sum(m.interactions for m in per_seed) / len(per_seed)
    value = raw
    if ga.normalize_fitness:
        pairs = base.n_agents * (base.n_agents - 1) // 2
        ceiling = base.total_ticks * pairs
        value = raw / ceiling if ceiling > 0 else 0.0
    return FitnessReport(
        genome=genome,
        fitness=value,
        mean_interactions=raw,
        per_seed=per_seed,
        generation=generation,
    )


def _resolve_workers(workers: Optional[int]) -> int:
    if workers is None:
        raw = os.environ.get(ENV_THREADS, "1")
        try:
            workers = int(raw)
        except ValueError:
            raise ConfigError(f"{ENV_THREADS} must be an integer, got {raw!r}") from None
    if workers < 0:
        raise ConfigError(f"worker count must be >= 0, got {workers}")
    if workers == 0:
        workers = os.cpu_count() or 1
    return workers


def _evaluate_population(
    population: list[Genome],
    ga: GAConfig,
    base: WorldConfig,
    generation: int,
    pool: Optional[ProcessPoolExecutor],
    trace_hook: Optional[TraceHook],
) -> list[FitnessReport]:
    if pool is None:
        return [fitness(g, ga, base, generation, trace_hook) for g in population]
    evaluate = functools.partial(fitness, ga=ga, base=base, generation=generation)
    return list(pool.map(evaluate, population))


def _tournament(
    reports: list[FitnessReport], size: int, rng: np.random.Generator
) -> FitnessReport:
    picks = rng.integers(0, len(reports), size=size)
    best = None
    for k in picks:
        k = int(k)
        if best is None or reports[k].fitness > reports[best].fitness or (
            reports[k].fitness == reports[best].fitness and k < best
        ):
            best = k
    assert best is not None
    return reports[best]


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
        for gen in range(ga.generations):
            reports = _evaluate_population(population, ga, base, gen, pool, trace_hook)
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
