"""Structural performance pinned by exact work counts, not by times.

For a fixed config, how often each cache misses is exact, while a wall time
on a shared machine is noise. Each test clears the caches it reads, runs a
small fixed workload, then reads `cache_info()` and the memo sizes. A count
that moves is a change in the work a run does, and is declared like a moved
digest. The bump-window count lives in
`tests/test_world.py::test_crowded_run_leaves_windows_and_layout_fields_read_only`.
"""

from __future__ import annotations

from conscient_sim.fields import KernelConfig, _covariance_factor, moore_neighbors, sample_field
from conscient_sim.optimizer import GAConfig, evolve
from conscient_sim.seeds import make_rng
from conscient_sim.world import WorldConfig, _cached_layout, build_world, world_layout

# eight agents on an 8 x 8 grid, busy enough to photograph, dream and meet
CROWDED = WorldConfig(resolution=8, n_agents=8, total_ticks=200, master_seed=3)


def _run_crowded():
    for cache in (_covariance_factor, _cached_layout, moore_neighbors):
        cache.cache_clear()
    world = build_world(CROWDED)
    for _ in range(CROWDED.total_ticks):
        world.step()
    infos = {
        name: cache.cache_info()
        for name, cache in (
            ("factor", _covariance_factor),
            ("layout", _cached_layout),
            ("moore", moore_neighbors),
        )
    }
    return world, infos


def test_a_run_factors_once_and_builds_one_layout():
    world, infos = _run_crowded()
    assert world.interactions  # the run met, so every path below ran
    # one factorisation for the world's one (kernel, resolution), shared by its 8 fields
    assert (infos["factor"].hits, infos["factor"].misses) == (CROWDED.n_agents - 1, 1)
    assert (infos["layout"].hits, infos["layout"].misses) == (0, 1)


def test_neighbourhoods_and_classes_are_computed_once_per_cell():
    _, infos = _run_crowded()
    cells = CROWDED.resolution * CROWDED.resolution
    assert infos["moore"].misses == 58 <= cells
    layout = world_layout(CROWDED)
    content, style = layout.content_graph._classified, layout.style_graph._classified
    # the run saw 38 cell vectors, and classified each against each graph at most once
    assert (len(content), len(style), len(layout.features)) == (38, 17, 38)
    assert max(len(content), len(style)) <= len(layout.features)


def test_covariance_factors_stay_cached_for_two_kernels():
    _covariance_factor.cache_clear()
    kernels = (KernelConfig(), KernelConfig(lengthscale=1.5))
    for kernel in kernels * 3:
        sample_field(kernel, 6, make_rng(0))
    assert _covariance_factor.cache_info().misses == len(kernels)


def test_a_search_builds_each_eval_seeds_layout_once():
    # population 4 x 2 generations over 8 eval seeds: 64 worlds on 8 layouts
    _cached_layout.cache_clear()
    ga = GAConfig(population_size=4, generations=2, eval_seeds=tuple(range(1, 9)))
    evolve(ga, WorldConfig(total_ticks=20), seed=5, workers=1)
    info = _cached_layout.cache_info()
    assert (info.hits, info.misses) == (56, len(ga.eval_seeds))
