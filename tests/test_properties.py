"""Properties of a run's record over generated small worlds (ROADMAP item 4).

Each world's five files, written from `run(cfg)`, read back to what the world
holds, and a rerun writes the same bytes. Examples are derandomized, so every
run of this file checks the same worlds.
"""

from __future__ import annotations

import os
import tempfile

import pytest

from conscient_sim.agents import AgentConfig
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
from conscient_sim.world import World, WorldConfig, load_graphs, metrics, run

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
    aid, p = row
    return (aid, p.id, p.kind, p.category, p.origin, p.tick, p.features.tolist())


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
    order = [(aid, p.kind == "style") for aid, p in back]
    assert order == sorted(order)
    assert len(back) == sum(len(a.percepts) + len(a.styles) for a in world.agents)


@RECORD
@hypothesis.given(small_worlds())
def test_a_rerun_writes_the_same_bytes(cfg):
    with tempfile.TemporaryDirectory() as first, tempfile.TemporaryDirectory() as second:
        assert _write_record(run(cfg), first) == _write_record(run(cfg), second)
