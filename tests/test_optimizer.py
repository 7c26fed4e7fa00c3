"""Genetic search: decoding, fitness, selection, and the evolution loop."""

from __future__ import annotations

import numpy as np
import pytest

from conscient_sim import optimizer
from conscient_sim.configio import ENTRIES
from conscient_sim.errors import ConfigError
from conscient_sim.optimizer import (
    DEFAULT_BOUNDS,
    GAConfig,
    Genome,
    _resolve_workers,
    _tournament,
    configure_world,
    decode_genome,
    evolve,
    fitness,
)
from conscient_sim.seeds import make_rng
from conscient_sim.world import WorldConfig, metrics, run

# tiny but non-trivial world: keeps every evolve() call fast
SMALL_WORLD = WorldConfig(resolution=6, n_agents=2, total_ticks=40, master_seed=0)


def test_genome_validation():
    g = Genome(np.array([0.0, 1.0]))
    c = g.copy()
    c.genes[0] = 0.5
    assert g.genes[0] == 0.0


def test_every_gene_is_a_numeric_config_key():
    types = {entry.key: entry.typename for entry in ENTRIES}
    for spec in DEFAULT_BOUNDS:
        assert types[spec.name] == ("integer" if spec.integer else "number"), spec.name


def test_decode_endpoints():
    d = len(DEFAULT_BOUNDS)
    lo = decode_genome(Genome(np.zeros(d)))
    hi = decode_genome(Genome(np.ones(d)))
    for spec in DEFAULT_BOUNDS:
        if spec.name in ("dream.step_lower", "emotion.delta_lower"):
            continue  # pair sorting may move these, checked separately
        assert lo[spec.name] == pytest.approx(min(spec.lo, spec.hi))
        assert hi[spec.name] == pytest.approx(max(spec.lo, spec.hi))
    # at all-zeros / all-ones the pairs are already ordered
    assert (lo["dream.step_lower"], lo["dream.step_upper"]) == (0, 1)
    assert (hi["dream.step_lower"], hi["dream.step_upper"]) == (3, 6)


def test_decode_midpoint_rounds_half_up():
    d = len(DEFAULT_BOUNDS)
    mid = decode_genome(Genome(np.full(d, 0.5)))
    # 5 + 0.5 * 55 = 32.5 rounds up to 33, not to even
    assert mid["agent.t_awake"] == 33
    assert mid["agent.t_asleep"] == 16
    assert mid["dream.step_lower"] == 2
    assert mid["dream.step_upper"] == 4
    for spec in DEFAULT_BOUNDS:
        assert type(mid[spec.name]) is (int if spec.integer else float), spec.name
    assert mid["emotion.threshold"] == pytest.approx(0.525)
    assert mid["agent.visit_peak"] == pytest.approx(-1.05)
    assert mid["emotion.high_value_cutoff"] == pytest.approx(0.0)


def test_decode_sorts_inverted_pairs():
    d = len(DEFAULT_BOUNDS)
    genes = np.full(d, 0.5)
    names = [s.name for s in DEFAULT_BOUNDS]
    genes[names.index("dream.step_lower")] = 1.0  # decodes to 3
    genes[names.index("dream.step_upper")] = 0.0  # decodes to 1
    genes[names.index("emotion.delta_lower")] = 1.0  # decodes to 0.1
    genes[names.index("emotion.delta_upper")] = 0.0  # decodes to 0.02
    out = decode_genome(Genome(genes))
    assert (out["dream.step_lower"], out["dream.step_upper"]) == (1, 3)
    assert out["emotion.delta_lower"] == pytest.approx(0.02)
    assert out["emotion.delta_upper"] == pytest.approx(0.1)


# where each gene's section sits in a world config
_SECTION_IN_WORLD = {
    "agent": lambda w: w.agent,
    "dream": lambda w: w.agent.dream,
    "emotion": lambda w: w.agent.emotion,
}


def test_configure_world_places_every_parameter():
    params = decode_genome(Genome(np.full(len(DEFAULT_BOUNDS), 0.1)))
    cfg = configure_world(SMALL_WORLD, params, movement_budget=123)
    for key, value in params.items():
        section, name = key.split(".")
        assert getattr(_SECTION_IN_WORLD[section](SMALL_WORLD), name) != value, key
        got = getattr(_SECTION_IN_WORLD[section](cfg), name)
        assert got == value and type(got) is type(value), key
    assert cfg.agent.movement_budget == 123
    # world-level settings pass through untouched
    assert cfg.resolution == SMALL_WORLD.resolution
    assert cfg.total_ticks == SMALL_WORLD.total_ticks


def test_fitness_equals_independent_reruns():
    ga = GAConfig(eval_seeds=(11, 12, 13), movement_budget=60)
    genome = Genome(np.full(len(DEFAULT_BOUNDS), 0.5))
    report = fitness(genome, ga, SMALL_WORLD)
    # oracle: rebuild each seeded world by hand and rerun it
    from dataclasses import replace

    params = decode_genome(genome)
    counts = []
    for seed in ga.eval_seeds:
        cfg = replace(configure_world(SMALL_WORLD, params, 60), master_seed=seed)
        counts.append(metrics(run(cfg)).interactions)
    assert report.fitness == pytest.approx(sum(counts) / 3)
    assert len(report.per_seed) == 3
    assert [m.interactions for m in report.per_seed] == counts


def test_fitness_raises_when_the_world_cannot_run():
    from conscient_sim.errors import CovarianceDegeneracyError
    from conscient_sim.fields import KernelConfig
    from dataclasses import replace

    # a kernel whose covariance cannot be repaired within the jitter ceiling
    broken_agent = replace(
        SMALL_WORLD.agent, kernel=KernelConfig(amplitude=1e16, lengthscale=1e6)
    )
    broken = replace(SMALL_WORLD, agent=broken_agent)
    with pytest.raises(CovarianceDegeneracyError, match="kernel.amplitude"):
        fitness(Genome(np.full(len(DEFAULT_BOUNDS), 0.5)), GAConfig(), broken)
    # the search stops with the same error in process and from the pool
    ga = GAConfig(population_size=2, generations=1)
    for workers in (1, 2):
        with pytest.raises(CovarianceDegeneracyError, match="kernel.amplitude"):
            evolve(ga, broken, seed=1, workers=workers)


def test_fitness_trace_hook_sees_every_seed():
    ga = GAConfig(eval_seeds=(11, 12), movement_budget=60)
    seen = []
    fitness(
        Genome(np.full(len(DEFAULT_BOUNDS), 0.5)),
        ga,
        SMALL_WORLD,
        trace_hook=lambda g, s, t: seen.append((s, len(t.rows))),
    )
    assert [s for s, _ in seen] == [11, 12]
    assert all(n == 2 * 41 for _, n in seen)


def test_tournament_matches_draw_oracle():
    class R:
        def __init__(self, fit):
            self.fitness = fit

    # replay the same draws the tournament will make
    fits = [3.0, 5.0, 5.0, 1.0, 4.0]
    reports = [R(f) for f in fits]
    for seed in range(20):
        picks = [int(k) for k in make_rng(seed).integers(0, 5, size=3)]
        best = min(picks, key=lambda k: (-fits[k], k))
        got = _tournament(reports, 3, make_rng(seed))
        assert got is reports[best]


def test_resolve_workers_env(monkeypatch):
    monkeypatch.delenv("CONSCIENT_SIM_THREADS", raising=False)
    assert _resolve_workers(None) == 1
    monkeypatch.setenv("CONSCIENT_SIM_THREADS", "3")
    assert _resolve_workers(None) == 3
    monkeypatch.setenv("CONSCIENT_SIM_THREADS", "0")
    assert _resolve_workers(None) >= 1
    monkeypatch.setenv("CONSCIENT_SIM_THREADS", "four")
    with pytest.raises(ConfigError):
        _resolve_workers(None)
    assert _resolve_workers(2) == 2
    with pytest.raises(ConfigError):
        _resolve_workers(-1)


def test_ga_config_validation():
    with pytest.raises(ConfigError):
        GAConfig(population_size=1)
    with pytest.raises(ConfigError):
        GAConfig(elite_count=0)
    with pytest.raises(ConfigError):
        GAConfig(elite_count=20, population_size=10)
    with pytest.raises(ConfigError):
        GAConfig(eval_seeds=())
    with pytest.raises(ConfigError):
        GAConfig(crossover_rate=1.5)


def test_eval_seeds_must_be_unsigned_64_bit():
    for bad in ((-1,), (11, 2**64)):
        with pytest.raises(ConfigError, match="ga.eval_seeds"):
            GAConfig(eval_seeds=bad)
    assert GAConfig(eval_seeds=(0, 2**64 - 1)).eval_seeds == (0, 2**64 - 1)


def test_evolve_rejects_out_of_range_search_seed():
    ga = GAConfig(population_size=2, generations=1, eval_seeds=(11,))
    for bad in (-3, 2**64):
        with pytest.raises(ConfigError, match=str(bad)):
            evolve(ga, SMALL_WORLD, seed=bad)


def test_evolve_deterministic():
    ga = GAConfig(
        population_size=4, generations=3, eval_seeds=(11,), movement_budget=50
    )
    best1, hist1 = evolve(ga, SMALL_WORLD, seed=5)
    best2, hist2 = evolve(ga, SMALL_WORLD, seed=5)
    assert best1.fitness == best2.fitness
    assert np.array_equal(best1.genome.genes, best2.genome.genes)
    assert [h.best_fitness for h in hist1] == [h.best_fitness for h in hist2]
    assert [h.mean_fitness for h in hist1] == [h.mean_fitness for h in hist2]
    for h1, h2 in zip(hist1, hist2):
        assert np.array_equal(h1.best_genome, h2.best_genome)


def test_evolve_elitism_keeps_best_non_decreasing():
    ga = GAConfig(
        population_size=6, generations=6, eval_seeds=(11,), movement_budget=50
    )
    best, history = evolve(ga, SMALL_WORLD, seed=1)
    assert len(history) == 6
    fits = [h.best_fitness for h in history]
    for earlier, later in zip(fits, fits[1:]):
        assert later >= earlier
    assert best.fitness == max(fits)


def test_evolve_without_variation_cannot_improve():
    # no crossover, no mutation: children are copies, so no new genetic
    # material ever appears and the elite-kept best stays exactly flat
    ga = GAConfig(
        population_size=5,
        generations=5,
        eval_seeds=(11,),
        movement_budget=50,
        crossover_rate=0.0,
        mutation_rate=0.0,
    )
    _, history = evolve(ga, SMALL_WORLD, seed=9)
    fits = [h.best_fitness for h in history]
    assert fits == [fits[0]] * 5


def test_evolve_parallel_matches_sequential():
    ga = GAConfig(
        population_size=4, generations=2, eval_seeds=(11,), movement_budget=50
    )
    best_seq, hist_seq = evolve(ga, SMALL_WORLD, seed=3, workers=1)
    best_par, hist_par = evolve(ga, SMALL_WORLD, seed=3, workers=2)
    assert best_seq.fitness == best_par.fitness
    assert np.array_equal(best_seq.genome.genes, best_par.genome.genes)
    assert [h.best_fitness for h in hist_seq] == [h.best_fitness for h in hist_par]
    assert [h.mean_fitness for h in hist_seq] == [h.mean_fitness for h in hist_par]


def test_evolve_builds_one_pool_capped_at_population_size(monkeypatch):
    built = []

    class CountingPool(optimizer.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            built.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(optimizer, "ProcessPoolExecutor", CountingPool)
    ga = GAConfig(
        population_size=2, generations=3, eval_seeds=(11,), movement_budget=50
    )
    best_seq, hist_seq = evolve(ga, SMALL_WORLD, seed=4, workers=1)
    assert built == []
    best_par, hist_par = evolve(ga, SMALL_WORLD, seed=4, workers=5)
    assert built == [2]  # one pool for all generations, no more workers than genomes
    assert best_seq.fitness == best_par.fitness
    assert np.array_equal(best_seq.genome.genes, best_par.genome.genes)
    assert [h.best_fitness for h in hist_seq] == [h.best_fitness for h in hist_par]
    assert [h.mean_fitness for h in hist_seq] == [h.mean_fitness for h in hist_par]
    for seq, par in zip(hist_seq, hist_par):
        assert np.array_equal(seq.best_genome, par.best_genome)


def test_evolve_trace_hook_budget_property():
    ga = GAConfig(
        population_size=3, generations=2, eval_seeds=(11,), movement_budget=25
    )
    caps = []
    evolve(
        ga,
        SMALL_WORLD,
        seed=2,
        workers=4,  # hook forces in-process evaluation even with workers set
        trace_hook=lambda g, s, t: caps.append(max(metrics(t).moves_per_agent)),
    )
    assert len(caps) == 3 * 2
    assert all(c <= 25 for c in caps)
