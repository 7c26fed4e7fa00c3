"""Properties of a run's record and of its config over generated values (ROADMAP item 4).

Each small world's five files, written from `run(cfg)`, read back to what the
world holds, and a rerun writes the same bytes. A config rendered from
in-bound values parses back to those values, and on a small world it runs or
raises `SimulatorError`, with no warning. A small search gives the same
history in one process as in a pool of two. Examples are derandomized, so
every run of this file checks the same cases.
"""

from __future__ import annotations

import dataclasses
import math
import os
import tempfile
import warnings

import pytest

from conscient_sim.agents import AgentConfig
from conscient_sim.configio import (
    _SECTIONS,
    ENTRIES,
    default_values,
    parse_config_text,
    render_config,
)
from conscient_sim.errors import SimulatorError
from conscient_sim.optimizer import GAConfig, evolve
from conscient_sim.traceio import (
    iter_trace_csv,
    read_percepts_csv,
    summarize_rows,
    write_dreams_csv,
    write_interactions_csv,
    write_metrics_csv,
    write_percepts_csv,
    write_trace_csv,
)
from conscient_sim.world import (
    STIMULUS_MODALITIES,
    World,
    WorldConfig,
    load_graphs,
    metrics,
    run,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

RECORD = hypothesis.settings(max_examples=100, derandomize=True, deadline=None)


@st.composite
def small_worlds(draw) -> WorldConfig:
    """Worlds of 2-8 cells a side, 1-6 agents and 0-150 ticks, on the builtin graphs."""
    r = draw(st.integers(2, 8))
    agent = AgentConfig(
        photo_period=draw(st.integers(1, 8)), style_every=draw(st.integers(1, 4))
    )
    return WorldConfig(
        resolution=r,
        n_agents=draw(st.integers(1, min(6, r * r))),
        total_ticks=draw(st.integers(0, 150)),
        reward_count=draw(st.integers(0, min(4, r * r))),
        stimulus_probability=draw(st.floats(0, 1)),
        master_seed=draw(st.integers(0, 2**64 - 1)),
        agent=agent,
    )


def _write_record(world: World, out: str) -> dict[str, bytes]:
    """The five files `simulate` writes, by name, with their bytes."""
    files = {
        "trace.csv": (write_trace_csv, world.rows),
        "interactions.csv": (write_interactions_csv, world.interactions),
        "dreams.csv": (write_dreams_csv, world.dream_rows),
        "percepts.csv": (write_percepts_csv, world.percept_rows),
        "metrics.csv": (write_metrics_csv, metrics(world)),
    }
    out_bytes = {}
    for name, (write, payload) in files.items():
        path = os.path.join(out, name)
        write(path, payload)
        with open(path, "rb") as fh:
            out_bytes[name] = fh.read()
    return out_bytes


def _percept_key(row):
    aid, p, kind = row
    return (aid, p.id, kind, p.category, p.origin, p.tick, p.features.tolist())


@RECORD
@hypothesis.given(small_worlds())
def test_the_written_record_reads_back_as_the_world_holds_it(cfg):
    world = run(cfg)
    with tempfile.TemporaryDirectory() as out:
        _write_record(world, out)
        assert summarize_rows(iter_trace_csv(os.path.join(out, "trace.csv"))) == metrics(world)
        assert list(iter_trace_csv(os.path.join(out, "trace.csv"))) == world.rows
        back = read_percepts_csv(os.path.join(out, "percepts.csv"), cfg, *load_graphs(cfg))
    assert [_percept_key(row) for row in back] == [_percept_key(row) for row in world.percept_rows]
    # agent by agent, each agent's content percepts before its style percepts
    order = [(aid, kind == "style") for aid, _, kind in back]
    assert order == sorted(order)
    assert len(back) == sum(len(a.percepts) + len(a.styles) for a in world.agents)


@RECORD
@hypothesis.given(small_worlds())
def test_a_rerun_writes_the_same_bytes(cfg):
    with tempfile.TemporaryDirectory() as first, tempfile.TemporaryDirectory() as second:
        assert _write_record(run(cfg), first) == _write_record(run(cfg), second)


# widths whose 2 * width**2 must neither underflow to 0 nor, for the kernel, overflow
_WIDTHS = ("world.reward_width", "agent.visit_width", "kernel.lengthscale")


def _rule(entry) -> tuple[object, object, bool, str | None]:
    """(lo, hi, strict, at_most partner) that `errors.check_bounds` applies to `entry`."""
    f = next(f for f in dataclasses.fields(_SECTIONS[entry.section]) if f.name == entry.field)
    return (*f.metadata.get("bound", (None, None, False)), f.metadata.get("at_most"))


def _in_bounds(draw, entry, lo, hi, strict):
    """A value for `entry`'s field in [lo, hi], or (lo, hi) when `strict`; None is open."""
    if entry.typename == "integer":
        return draw(st.integers(lo, hi))
    if entry.key in _WIDTHS:
        lo, hi, strict = 1e-150, 1e150, False
    return draw(
        st.floats(
            lo,
            hi,
            allow_nan=False,
            allow_infinity=False,
            exclude_min=strict and lo is not None,
            exclude_max=strict and hi is not None,
        )
    )


@st.composite
def effective_values(draw) -> dict[str, str]:
    """Rendered values for every int, float and list key, each inside its bound, its
    `at_most` partner and the grid, with a finite `kernel.amplitude` +
    `kernel.jitter`; the graph labels keep their default."""
    rules = {entry.key: _rule(entry) for entry in ENTRIES}
    # an `at_most` partner is at least the lower bound of the field it caps
    floors = {f"{e.section}.{rules[e.key][3]}": rules[e.key][0] for e in ENTRIES if rules[e.key][3]}
    values: dict[str, object] = {}
    capped = []
    for entry in ENTRIES:
        lo, hi, strict, at_most = rules[entry.key]
        if floors.get(entry.key) is not None:
            lo = floors[entry.key] if lo is None else max(lo, floors[entry.key])
        if entry.key in ("world.n_agents", "world.reward_count"):  # one agent per cell
            r = values["world.resolution"]
            lo, hi = int(entry.key == "world.n_agents"), r * r
        if entry.typename == "string":
            continue
        elif at_most:
            capped.append(entry)  # drawn once its partner is
        elif entry.key == "world.stimulus_modalities":
            values[entry.key] = draw(st.lists(st.sampled_from(STIMULUS_MODALITIES), unique=True))
        elif entry.key == "ga.eval_seeds":
            values[entry.key] = draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4))
        else:
            values[entry.key] = _in_bounds(draw, entry, lo, hi, strict)
    for entry in capped:
        lo, hi, strict, at_most = rules[entry.key]
        top = values[f"{entry.section}.{at_most}"]
        values[entry.key] = _in_bounds(draw, entry, lo, top if hi is None else min(hi, top), strict)
    # the covariance's diagonal, their sum, must stay finite as well
    hypothesis.assume(math.isfinite(values["kernel.amplitude"] + values["kernel.jitter"]))
    rendered = default_values()
    rendered.update({e.key: e.render(values[e.key]) for e in ENTRIES if e.key in values})
    return rendered


@hypothesis.settings(max_examples=200, derandomize=True, deadline=None)
@hypothesis.given(effective_values())
@hypothesis.example(default_values())
@hypothesis.example({**default_values(), "world.reward_peak": "-0.0"})
@hypothesis.example({**default_values(), "emotion.high_value_cutoff": "5e-324"})
@hypothesis.example({**default_values(), "ga.eval_seeds": str(2**64 - 1)})
def test_a_rendered_config_parses_back_to_its_values(values):
    assert parse_config_text(render_config(values)).effective == values


@st.composite
def small_effective_values(draw) -> dict[str, str]:
    """`effective_values()` on a small world: 2-6 cells a side, at most 4 agents,
    80 ticks and 8 features, with the agents and the rewards within r^2 cells."""
    values = draw(effective_values())
    r = draw(st.integers(2, 6))
    values["world.resolution"] = str(r)
    values["world.n_agents"] = str(draw(st.integers(1, min(4, r * r))))
    values["world.reward_count"] = str(draw(st.integers(0, r * r)))
    values["world.total_ticks"] = str(draw(st.integers(0, 80)))
    values["world.feature_dim"] = str(draw(st.integers(1, 8)))
    return values


@hypothesis.settings(max_examples=200, derandomize=True, deadline=None)
@hypothesis.given(small_effective_values())
# each in bounds, but the covariance's diagonal, their sum, overflows
@hypothesis.example(
    {
        **default_values(),
        "world.total_ticks": "5",
        "kernel.amplitude": "1e+308",
        "kernel.jitter": "1e+308",
    }
)
def test_an_accepted_config_runs_or_raises_a_simulator_error(values):
    # a numpy warning or any other error would reach the user as a traceback
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            run(parse_config_text(render_config(values)).world)
        except SimulatorError:
            pass  # the CLI's one `error:` line and exit 1


@st.composite
def small_searches(draw) -> tuple[GAConfig, WorldConfig, int]:
    """(search, base world, search seed): 2-4 genomes for 1-2 generations over
    1-2 eval seeds, on worlds of 2-6 cells a side, 1-4 agents and 0-60 ticks."""
    r = draw(st.integers(2, 6))
    population = draw(st.integers(2, 4))
    ga = GAConfig(
        population_size=population,
        generations=draw(st.integers(1, 2)),
        elite_count=draw(st.integers(1, population)),
        eval_seeds=tuple(draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=2))),
        movement_budget=draw(st.integers(0, 60)),
    )
    base = WorldConfig(
        resolution=r,
        n_agents=draw(st.integers(1, min(4, r * r))),
        total_ticks=draw(st.integers(0, 60)),
        reward_count=draw(st.integers(0, min(4, r * r))),
    )
    return ga, base, draw(st.integers(0, 2**64 - 1))


def _history_key(history) -> list[tuple]:
    return [
        (h.generation, h.best_fitness, h.mean_fitness, h.best_genome.tolist()) for h in history
    ]


# each pooled search starts two worker processes: 20 searches take about 2 s
@hypothesis.settings(max_examples=20, derandomize=True, deadline=None)
@hypothesis.given(small_searches())
def test_a_pooled_search_gives_the_in_process_history(search):
    ga, base, seed = search
    best_seq, hist_seq = evolve(ga, base, seed=seed, workers=1)
    best_par, hist_par = evolve(ga, base, seed=seed, workers=2)
    assert _history_key(hist_par) == _history_key(hist_seq)
    assert _history_key([best_par]) == _history_key([best_seq])
