"""Structural performance pinned by exact work counts, not by times.

For a fixed config, how often each cache misses is exact, while a wall time
on a shared machine is noise. Each test clears the caches it reads, runs a
small fixed workload, then reads `cache_info()`, the memo sizes and the
calls a patched function saw. A count that moves is a change in the work a
run does, and is declared like a moved digest. The bump-window count lives in
`tests/test_world.py::test_crowded_run_leaves_windows_and_layout_fields_read_only`.
The CSV layer's memory is pinned the same way: memo sizes, shared objects,
and a streamed read whose traced peak does not grow with the trace. So are
the `dream` command's peak, which does not grow with its length, and the
bytes a long run holds per agent-tick.
"""

from __future__ import annotations

import random
import tracemalloc

import numpy as np

from conscient_sim import traceio
from conscient_sim.cli import run_command
from conscient_sim.fields import KernelConfig, _covariance_factor, moore_neighbors, sample_field
from conscient_sim.optimizer import DEFAULT_BOUNDS, GAConfig, Genome, evolve, fitness
from conscient_sim.seeds import Stream, make_rng
from conscient_sim.semantics import Percept, classify
from conscient_sim.traceio import (
    iter_trace_csv,
    read_trace_csv,
    summarize_rows,
    write_percepts_csv,
    write_trace_csv,
)
from conscient_sim.world import (
    TraceRow,
    WorldConfig,
    _cached_layout,
    build_world,
    metrics,
    run,
    world_layout,
)

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


def test_neighbourhoods_and_classes_are_computed_once_per_cell(monkeypatch):
    calls = 0

    def counted(features, graph):
        nonlocal calls
        calls += 1
        return classify(features, graph)

    monkeypatch.setattr("conscient_sim.world.classify", counted)
    _, infos = _run_crowded()
    cells = CROWDED.resolution * CROWDED.resolution
    assert infos["moore"].misses == 58 <= cells
    # the run photographed 38 cells, and classified each against each graph once
    assert (len(world_layout(CROWDED).cells), calls) == (38, 2 * 38)
    calls = 0
    run(CROWDED)  # a second world on the same layout classifies nothing
    assert calls == 0


def test_an_exchange_constructs_no_percept(monkeypatch):
    # one percept per photo, per style copy and per dream frame; a received
    # percept is its sender's own object, so an exchange constructs none
    made = 0
    init = Percept.__init__

    def counted(percept, *args, **kwargs):
        nonlocal made
        made += 1
        init(percept, *args, **kwargs)

    monkeypatch.setattr(Percept, "__init__", counted)
    world = run(CROWDED)
    m = metrics(world)
    styles = sum(len(a.styles) for a in world.agents)
    assert (m.photos, styles, m.dream_frames) == (341, 65, 390)
    assert made == m.photos + styles + m.dream_frames == 796
    # 722 meetings left 912 received percepts in the stores, each the object
    # its sender stores
    own = {p.id: p for _, p, kind in world.percept_rows if kind != "received"}
    received = [p for _, p, kind in world.percept_rows if kind == "received"]
    assert (len(world.interactions), len(received), len(own)) == (722, 912, 796)
    assert all(p is own[p.id] for p in received)


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


def test_a_run_rewinds_its_streams_once_per_wake(monkeypatch):
    # each wake's `contaminate` delegates one `normal` to numpy, which first
    # takes back the raw outputs the stream holds; no other draw of a run does
    rewinds = 0
    rewind = Stream._rewind

    def counted(stream):
        nonlocal rewinds
        rewinds += 1
        rewind(stream)

    monkeypatch.setattr(Stream, "_rewind", counted)
    rows = run(CROWDED).rows
    wakes = sum(row.events.count("wake") for row in rows)
    assert wakes and rewinds == wakes, (rewinds, wakes)


def test_a_fitness_call_builds_one_trace_row_per_agent_tick_and_seed(monkeypatch):
    # a run builds its rows in `TraceRow.of`, through tuple.__new__
    built = 0
    of = TraceRow.of

    def counted(cls, *fields):
        nonlocal built
        built += 1
        return of(*fields)

    monkeypatch.setattr(TraceRow, "of", classmethod(counted))
    ga = GAConfig(eval_seeds=(11, 12))
    base = WorldConfig(resolution=8, n_agents=3, total_ticks=50)
    fitness(Genome(np.full(len(DEFAULT_BOUNDS), 0.5)), ga, base)
    assert built == (base.total_ticks + 1) * base.n_agents * len(ga.eval_seeds)


def test_csv_memos_stay_within_their_cap(tmp_path, monkeypatch):
    trace = _run_crowded()[0].snapshot_trace()
    rows = trace.rows
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), rows)
    written = path.read_bytes()
    percepts = tmp_path / "percepts.csv"
    write_percepts_csv(str(percepts), trace.percept_rows)
    percepts_written = percepts.read_bytes()
    # the crowded trace holds 993 distinct field values and 2,175 distinct
    # floats, so a cap of 256 makes every memo fill and start over
    cap = 256
    monkeypatch.setattr(traceio, "MEMO_CAP", cap)
    seen: dict[str, list[int]] = {}  # memo's function: [most entries held, clears]
    missing = traceio._Memo.__missing__

    def counted_missing(memo, key):
        before = len(memo)
        value = missing(memo, key)
        most = seen.setdefault(memo._make.__name__, [0, 0])
        most[0] = max(most[0], len(memo))
        most[1] += len(memo) < before
        return value

    monkeypatch.setattr(traceio._Memo, "__missing__", counted_missing)
    write_trace_csv(str(path), rows)
    assert path.read_bytes() == written  # a memo that starts over renders the same text
    assert read_trace_csv(str(path)) == rows
    assert sorted(seen) == ["_finite_float", "_fmt", "_unit_float"]
    assert all(most <= cap and clears for most, clears in seen.values()), seen
    # its 1,708 percept rows hold 244 distinct feature vectors
    cap = 64
    monkeypatch.setattr(traceio, "MEMO_CAP", cap)
    write_percepts_csv(str(percepts), trace.percept_rows)
    assert percepts.read_bytes() == percepts_written
    most, clears = seen["_render_vector"]
    assert most <= cap and clears, seen


def test_rows_read_back_share_their_tick_and_mode(tmp_path):
    # ticks past 256, where CPython stops handing out one cached object per int
    rows = run(WorldConfig(resolution=8, n_agents=4, total_ticks=300, master_seed=3)).rows
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), rows)
    back = read_trace_csv(str(path))
    assert back == rows and back[-1].tick == 300
    assert len({id(r.tick) for r in back}) == 301  # one int per tick
    assert len({id(r.mode) for r in back}) == len({r.mode for r in back}) == 2


def _streamed_peak(tmp_path, ticks: int) -> int:
    """Traced peak bytes of summarizing a `ticks`-tick, 2-agent trace of distinct floats."""
    rng = random.Random(ticks)
    path = tmp_path / f"trace-{ticks}.csv"
    rows = (
        TraceRow(t, a, 1, 1, "awake", *(rng.random() for _ in range(6)), ())
        for t in range(ticks + 1)
        for a in range(2)
    )
    write_trace_csv(str(path), rows)
    tracemalloc.start()
    try:
        summarize_rows(iter_trace_csv(str(path)))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_streamed_summary_holds_no_row_and_caps_its_memos(tmp_path):
    # 25,000 emotion texts and 5,000 field values fill each reader memo on
    # the short trace already; rows or memos that grew with the trace would
    # make the long one's peak about 4x the short one's (0.99 MB at both)
    short, long = _streamed_peak(tmp_path, 2_500), _streamed_peak(tmp_path, 10_000)
    assert long <= 1.25 * short, (short, long)


# a small world whose percept log holds both kinds, for the `dream` command
DREAM_WORLD = "world.resolution = 8\nagent.photo_period = 1\nagent.style_every = 2\n"


def _dream_peak(tmp_path, log: str, length: int) -> int:
    """Traced peak bytes of a `dream` command of `length` frames replayed from `log`."""
    cfg = tmp_path / f"dream-{length}.cfg"
    cfg.write_text(f"{DREAM_WORLD}dream.length = {length}\n", encoding="utf-8")
    argv = ["dream", "--config", str(cfg), "--percept-log", log, "--out", str(tmp_path / cfg.stem)]
    tracemalloc.start()
    try:
        assert run_command(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_dream_command_holds_no_frame(tmp_path):
    cfg = tmp_path / "world.cfg"
    cfg.write_text(f"{DREAM_WORLD}world.total_ticks = 100\n", encoding="utf-8")
    sim = tmp_path / "sim"
    assert run_command(["simulate", "--config", str(cfg), "--seed", "7", "--out", str(sim)]) == 0
    # frames held until the write take about 430 B each, so the long dream's
    # peak would be about 3x the short one's; it is 0.21 MB at both
    log = str(sim / "percepts.csv")
    short, long = _dream_peak(tmp_path, log, 1_000), _dream_peak(tmp_path, log, 4_000)
    assert long <= 1.25 * short, (short, long)


# criterion 06's reference world
REFERENCE = WorldConfig(
    resolution=16, n_agents=2, total_ticks=10_000, stimulus_probability=0.2, master_seed=7
)


def _grown_per_agent_tick(keep_trace: bool) -> float:
    """Bytes the reference world holds after ticks 2,000-4,000 beyond what it held
    before them, per agent-tick; without `keep_trace` its three trace lists are
    emptied every tick, so what grows is the agents' stored percepts."""
    world = build_world(REFERENCE)

    def steps():
        for _ in range(2_000):
            world.step()
            if not keep_trace:
                for trace in (world.rows, world.interactions, world.dream_rows):
                    trace.clear()

    steps()
    tracemalloc.start()
    try:
        steps()
        return tracemalloc.get_traced_memory()[0] / (2_000 * REFERENCE.n_agents)
    finally:
        tracemalloc.stop()


def test_a_long_run_grows_by_its_known_slope():
    # measured: 438 B per agent-tick, 128 B of it stored percepts (README,
    # "Configuration"), against 430 B when dream frames were dataclasses; a
    # run of 10**6 reference ticks holds about 0.88 GB
    whole, percepts = _grown_per_agent_tick(True), _grown_per_agent_tick(False)
    assert whole <= 1.25 * 430, whole
    assert percepts <= 1.25 * 128, percepts
