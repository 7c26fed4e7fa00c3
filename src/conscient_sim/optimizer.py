"""Genetic optimizer over agent hyperparameters.

Genomes are vectors in [0, 1]^d decoded linearly into agent parameters, each
gene named by the config key it sets.
Fitness of a genome is the mean interaction count over a fixed list of
evaluation seeds (common random numbers across genomes), with the movement
budget applied to every agent. Evaluation is a pure function of (genome,
seeds), so concurrent and sequential evaluation give identical results; the
CONSCIENT_SIM_THREADS environment variable caps worker count (0 = the CPUs
this process may use).
A world that cannot run stops the search with its error, in process or from
the pool.
"""

from __future__ import annotations

import functools
import math
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from typing import Callable, Optional

import numpy as np

from .agents import AgentConfig
from .dreams import DreamConfig
from .emotions import EmotionParams
from .errors import ConfigError, bound, check_bounds
from .seeds import derive_seed, make_rng
from .world import Metrics, World, WorldConfig, metrics, run

ENV_THREADS = "CONSCIENT_SIM_THREADS"


@dataclass(frozen=True)
class BoundSpec:
    name: str
    lo: float
    hi: float
    integer: bool = False


# Each gene is named by the config key it sets, and decode order is the gene
# order. Integer genes round half-up after the linear map; each declared
# `at_most` pair of genes is sorted after decoding, so any genome yields a
# valid config (tests/test_optimizer.py::test_genes_keep_to_declared_bounds).
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

# the config sections genes set, with the class that builds each
_GENE_SECTIONS = {"agent": AgentConfig, "dream": DreamConfig, "emotion": EmotionParams}


def _gene_pairs() -> tuple[tuple[str, str], ...]:
    """Each declared `at_most` rule whose two keys are both genes, as (key, partner)."""
    genes = {spec.name for spec in DEFAULT_BOUNDS}
    pairs = []
    for section, cls in _GENE_SECTIONS.items():
        for f in fields(cls):
            other = f.metadata.get("at_most")
            pair = (f"{section}.{f.name}", f"{section}.{other}")
            if other is not None and set(pair) <= genes:
                pairs.append(pair)
    return tuple(pairs)


_SORTED_PAIRS = _gene_pairs()


@dataclass(eq=False)
class Genome:
    genes: np.ndarray

    def __post_init__(self) -> None:
        self.genes = np.asarray(self.genes, dtype=float)


@dataclass(frozen=True)
class GAConfig:
    population_size: int = bound(16, 2)
    generations: int = bound(20, 1)
    tournament_size: int = bound(3, 1)
    crossover_rate: float = bound(0.9, 0, 1)
    mutation_rate: float = bound(0.15, 0, 1)
    mutation_sigma: float = bound(0.1, 0)
    elite_count: int = bound(1, 1, at_most="population_size")
    eval_seeds: tuple[int, ...] = (11, 12, 13)
    movement_budget: int = bound(400, 0)

    def __post_init__(self) -> None:
        check_bounds(self, "ga")
        if not self.eval_seeds:
            raise ConfigError("ga.eval_seeds must not be empty")
        for seed in self.eval_seeds:
            if not (0 <= seed < 2**64):
                raise ConfigError(
                    f"ga.eval_seeds entries must be unsigned 64-bit integers, got {seed}"
                )


@dataclass(eq=False)
class FitnessReport:
    fitness: float
    per_seed: list[Metrics]


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
    by_section: dict[str, dict[str, float | int]] = {s: {} for s in _GENE_SECTIONS}
    by_section["agent"]["movement_budget"] = movement_budget
    for key, value in params.items():
        section, _, name = key.partition(".")
        by_section[section][name] = value
    agent = base.agent
    dream = replace(agent.dream, **by_section["dream"])
    emotion = replace(agent.emotion, **by_section["emotion"])
    return replace(base, agent=replace(agent, dream=dream, emotion=emotion, **by_section["agent"]))


TraceHook = Callable[[Genome, int, World], None]


def fitness(
    genome: Genome,
    ga: GAConfig,
    base: WorldConfig,
    trace_hook: Optional[TraceHook] = None,
) -> FitnessReport:
    """Mean interaction count over the evaluation seeds.

    `trace_hook`, if given, gets each seed's world after its last tick. Every
    decoded genome is a valid config (`test_genes_keep_to_declared_bounds`), so
    a simulation error means the base world cannot run: it propagates and stops
    the search.
    """
    cfg = configure_world(base, decode_genome(genome), ga.movement_budget)
    per_seed: list[Metrics] = []
    for seed in ga.eval_seeds:
        world = run(replace(cfg, master_seed=seed))
        if trace_hook is not None:
            trace_hook(genome, seed, world)
        per_seed.append(metrics(world))
    value = sum(m.interactions for m in per_seed) / len(per_seed)
    return FitnessReport(value, per_seed)


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
        # the CPUs this process may run on, where the platform reports them
        if hasattr(os, "sched_getaffinity"):
            workers = len(os.sched_getaffinity(0))
        else:
            workers = os.cpu_count() or 1
    return workers


def _init_worker() -> None:
    """Leave Ctrl-C to the parent, which reports it, and let SIGTERM end a worker
    at once, as when the pool stops the survivors of a dead worker."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _tournament(reports: list[FitnessReport], size: int, rng: np.random.Generator) -> int:
    """Index of the fittest of `size` uniform draws; ties go to the lowest index."""
    picks = rng.integers(0, len(reports), size=size).tolist()
    return min(picks, key=lambda k: (-reports[k].fitness, k))


def evolve(
    ga: GAConfig,
    base: WorldConfig,
    seed: int,
    workers: Optional[int] = None,
    trace_hook: Optional[TraceHook] = None,
) -> tuple[GenerationStats, list[GenerationStats]]:
    """Run the generational loop; returns `(best, history)`.

    `history` holds one GenerationStats row per generation, and `best` is its
    first row with the highest `best_fitness`: the generation that first found
    the winning genome, `best.best_genome`.

    Elites carry over unchanged each generation (so the best fitness never
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
    evaluate = functools.partial(fitness, ga=ga, base=base, trace_hook=trace_hook)
    # one `evaluate` and one pool for the whole search, so each worker factors
    # the covariance once and builds each eval seed's world layout once (at
    # most 8 stay cached); hooks cannot cross process boundaries, so they run
    # in-process
    parallel = n_workers > 1 and trace_hook is None
    with (
        ProcessPoolExecutor(n_workers, initializer=_init_worker) if parallel else nullcontext()
    ) as pool:
        mapper = pool.map if parallel else map
        for gen in range(ga.generations):
            reports = list(mapper(evaluate, population))
            order = sorted(range(len(reports)), key=lambda k: (-reports[k].fitness, k))
            mean_fit = sum(r.fitness for r in reports) / len(reports)
            top = order[0]
            history.append(
                GenerationStats(gen, reports[top].fitness, mean_fit, population[top].genes)
            )
            if gen == ga.generations - 1:
                break
            # elites are new Genomes, so each evaluation's genome has its own id
            next_pop = [Genome(population[k].genes) for k in order[: ga.elite_count]]
            while len(next_pop) < ga.population_size:
                p1 = population[_tournament(reports, ga.tournament_size, rng)].genes
                p2 = population[_tournament(reports, ga.tournament_size, rng)].genes
                if float(rng.random()) < ga.crossover_rate:
                    mask = rng.random(d) < 0.5
                    child = np.where(mask, p1, p2)
                else:
                    child = p1
                mutate = rng.random(d) < ga.mutation_rate
                noise = rng.normal(0.0, ga.mutation_sigma, size=d)
                child = np.clip(np.where(mutate, child + noise, child), 0.0, 1.0)
                next_pop.append(Genome(child))
            population = next_pop
    # max keeps the first maximal row: the first generation to reach the best
    return max(history, key=lambda h: h.best_fitness), history
