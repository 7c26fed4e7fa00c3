"""Trace serialization: exact round trips and the independent summarizer."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import stat

import numpy as np
import pytest

from conscient_sim.agents import AgentConfig
from conscient_sim.cli import run_command
from conscient_sim.dreams import DreamFrame, DreamFrameRow
from conscient_sim.errors import TraceError
from conscient_sim.fields import GridCell
from conscient_sim.optimizer import GenerationStats
from conscient_sim.semantics import Percept, load_graph
from conscient_sim.traceio import (
    DREAMS_HEADER,
    EVENT_PREFIXES,
    EVENT_WORDS,
    GA_HISTORY_HEADER,
    INTERACTIONS_HEADER,
    METRICS_HEADER,
    PERCEPTS_HEADER,
    TRACE_HEADER,
    _cell,
    _fmt,
    atomic_write_text,
    iter_trace_csv,
    read_percepts_csv,
    read_trace_csv,
    summarize_rows,
    write_dreams_csv,
    write_ga_history_csv,
    write_interactions_csv,
    write_manifest,
    write_metrics_csv,
    write_percepts_csv,
    write_trace_csv,
)
from conscient_sim.world import (
    InteractionRecord,
    Metrics,
    TraceRow,
    WorldConfig,
    load_graphs,
    metrics,
    row_metrics,
    run,
)

CFG = WorldConfig(resolution=8, n_agents=2, total_ticks=150, master_seed=2024)
# the world a log of 2-wide percepts fits
NARROW = WorldConfig(resolution=8, feature_dim=2)
# the crowded pinned world of tests/test_acceptance.py: 8 agents meet often
CROWDED = WorldConfig(
    resolution=8, n_agents=8, total_ticks=200, stimulus_probability=0.2, master_seed=3
)


@pytest.fixture(scope="module")
def trace():
    return run(CFG)


def test_trace_csv_roundtrip_exact(tmp_path, trace):
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), trace.rows)
    back = read_trace_csv(str(path))
    assert back == trace.rows


def test_trace_csv_byte_identical_across_runs(tmp_path):
    p1 = tmp_path / "one.csv"
    p2 = tmp_path / "two.csv"
    write_trace_csv(str(p1), run(CFG).rows)
    write_trace_csv(str(p2), run(CFG).rows)
    assert p1.read_bytes() == p2.read_bytes()


def test_read_trace_csv_validation(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("nope\n1,2\n", encoding="utf-8")
    with pytest.raises(TraceError):
        read_trace_csv(str(bad_header))

    head = "tick,agent_id,i,j,mode,e_h,e_c,e_f,e_k,fatigue,field_value,event\n"
    short = tmp_path / "s.csv"
    short.write_text(head + "0,0,1\n", encoding="utf-8")
    with pytest.raises(TraceError) as exc:
        read_trace_csv(str(short))
    assert "line 2" in str(exc.value)

    bad_mode = tmp_path / "m.csv"
    bad_mode.write_text(
        head + "0,0,1,1,groggy,0.5,0.5,0.5,0.5,0.0,0.1,\n", encoding="utf-8"
    )
    with pytest.raises(TraceError):
        read_trace_csv(str(bad_mode))

    unordered = tmp_path / "o.csv"
    unordered.write_text(
        head
        + "0,0,1,1,awake,0.5,0.5,0.5,0.5,0.0,0.1,\n"
        + "1,0,1,1,awake,0.5,0.5,0.5,0.5,0.0,0.1,\n"
        + "0,0,1,1,awake,0.5,0.5,0.5,0.5,0.0,0.1,\n",
        encoding="utf-8",
    )
    with pytest.raises(TraceError) as exc:
        read_trace_csv(str(unordered))
    assert str(exc.value) == f"trace file {unordered}, line 4: expected tick 2, got tick 0"

    # each tick holds agent ids 0..n-1, n being the first tick's row count:
    # a skipped id would shift every later agent's moves onto the wrong id
    row = "{},{},{},1,awake,0.5,0.5,0.5,0.5,0.0,0.1,\n"
    cases = {
        "skipped id": (
            [(0, 0, 1), (0, 2, 1), (1, 0, 1), (1, 2, 2)], 3, "expected agent_id 1, got 2"
        ),
        "late start": ([(0, 1, 1)], 2, "expected agent_id 0, got 1"),
        "short tick": (
            [(0, 0, 1), (0, 1, 1), (1, 0, 1), (2, 0, 1)], 5, "expected agent_id 1, got tick 2"
        ),
        "long tick": (
            [(0, 0, 1), (1, 0, 1), (1, 1, 1)], 4, "tick 1 holds more than the first tick's 1 agents"
        ),
        "short end": ([(0, 0, 1), (0, 1, 1), (1, 0, 1)], 5, "expected agent_id 1, got end of file"),
        # ticks run 0, 1, 2, ... from tick 0, as `run` writes them
        "tick gap": ([(0, 0, 1), (5, 0, 1)], 3, "expected tick 1, got tick 5"),
        "late first tick": ([(3, 0, 1), (4, 0, 1)], 2, "expected tick 0, got tick 3"),
        "header only": ([], 2, "expected tick 0, got end of file"),
        # an agent moves at most one Moore step per tick
        "jump": ([(0, 0, 1), (1, 0, 99)], 3, "agent 0 moves from (1, 1) to (99, 1)"),
        "step": (
            [(0, 0, 1), (1, 0, 2), (2, 0, 3), (3, 0, 1)], 5, "agent 0 moves from (3, 1) to (1, 1)"
        ),
    }
    for name, (keys, line, message) in cases.items():
        gap = tmp_path / f"{name}.csv"
        gap.write_text(head + "".join(row.format(*key) for key in keys), encoding="utf-8")
        with pytest.raises(TraceError) as exc:
            read_trace_csv(str(gap))
        assert str(exc.value) == f"trace file {gap}, line {line}: {message}", name

    # a row's faults are reported in one order: a number that does not
    # parse, then the mode, then the tick order, then an event token
    bad_float_and_mode = tmp_path / "fm.csv"
    bad_float_and_mode.write_text(
        head + "0,0,1,1,groggy,0.5,oops,0.5,0.5,0.0,0.1,\n", encoding="utf-8"
    )
    with pytest.raises(TraceError) as exc:
        read_trace_csv(str(bad_float_and_mode))
    assert str(exc.value) == (
        f"trace file {bad_float_and_mode}, line 2: could not convert string to float: 'oops'"
    )
    bad_mode_and_order = tmp_path / "mo.csv"
    bad_mode_and_order.write_text(
        head
        + "0,0,1,1,awake,0.5,0.5,0.5,0.5,0.0,0.1,\n"
        + "1,0,1,1,awake,0.5,0.5,0.5,0.5,0.0,0.1,\n"
        + "0,0,1,1,groggy,0.5,0.5,0.5,0.5,0.0,0.1,\n",
        encoding="utf-8",
    )
    with pytest.raises(TraceError) as exc:
        read_trace_csv(str(bad_mode_and_order))
    assert str(exc.value) == f"trace file {bad_mode_and_order}, line 4: unknown mode 'groggy'"
    bad_order_and_token = tmp_path / "ot.csv"
    bad_order_and_token.write_text(
        head
        + "0,0,1,1,awake,0.5,0.5,0.5,0.5,0.0,0.1,\n"
        + "1,0,1,1,awake,0.5,0.5,0.5,0.5,0.0,0.1,\n"
        + "0,0,1,1,awake,0.5,0.5,0.5,0.5,0.0,0.1,int:x:a1-p1\n",
        encoding="utf-8",
    )
    with pytest.raises(TraceError) as exc:
        read_trace_csv(str(bad_order_and_token))
    assert str(exc.value) == (
        f"trace file {bad_order_and_token}, line 4: expected tick 2, got tick 0"
    )

    bad_token = tmp_path / "t.csv"
    bad_token.write_text(
        head
        + "0,0,1,1,awake,0.5,0.5,0.5,0.5,0.0,0.1,int:1:a1-p1\n"
        + "0,1,1,1,awake,0.5,0.5,0.5,0.5,0.0,0.1,int:x:a1-p1\n",
        encoding="utf-8",
    )
    with pytest.raises(TraceError) as exc:
        read_trace_csv(str(bad_token))
    assert str(exc.value) == (
        f"trace file {bad_token}, line 3: malformed interaction token 'int:x:a1-p1'"
    )

    # a quoted event cell may span lines: an error names its row's first line
    spans = tmp_path / "span.csv"
    spans.write_text(
        head
        + '0,0,1,1,awake,0.5,0.5,0.5,0.5,0.0,0.1,"photo:a\nb\nc"\n'
        + "0,1,1,1,awake,0.5,0.5,0.5,0.5,0.0,0.1,\n"
        + "0,2,1,1,sleepy,0.5,0.5,0.5,0.5,0.0,0.1,\n",
        encoding="utf-8",
    )
    with pytest.raises(TraceError) as exc:
        read_trace_csv(str(spans))
    assert str(exc.value) == f"trace file {spans}, line 6: unknown mode 'sleepy'"

    # the end of file is the line after the last record, however many lines it spans
    cut = tmp_path / "cut.csv"
    cut.write_text(
        head
        + "0,0,1,1,awake,0.5,0.5,0.5,0.5,0.0,0.1,\n"
        + "0,1,1,1,awake,0.5,0.5,0.5,0.5,0.0,0.1,\n"
        + '1,0,1,1,awake,0.5,0.5,0.5,0.5,0.0,0.1,"photo:a\nb\nc"\n',
        encoding="utf-8",
    )
    with pytest.raises(TraceError) as exc:
        read_trace_csv(str(cut))
    assert str(exc.value) == f"trace file {cut}, line 7: expected agent_id 1, got end of file"

    with pytest.raises(TraceError):
        read_trace_csv(str(tmp_path / "missing.csv"))

    # values the writer never writes: emotions and fatigue outside [0, 1], a
    # field value that is not finite, a negative cell, an empty event token
    ok = "0,0,1,1,awake,0.5,0.5,0.5,0.5,0.0,0.1,\n"
    lax = {
        "nan emotion": (
            "0,1,1,1,awake,nan,0.5,0.5,0.5,0.0,0.1,", "emotion or fatigue nan is outside [0, 1]"
        ),
        "high fatigue": (
            "0,1,1,1,awake,0.5,0.5,0.5,0.5,7.5,0.1,", "emotion or fatigue 7.5 is outside [0, 1]"
        ),
        "low emotion": (
            "0,1,1,1,awake,0.5,0.5,-0.25,0.5,0.0,0.1,",
            "emotion or fatigue -0.25 is outside [0, 1]",
        ),
        "inf field": ("0,1,1,1,awake,0.5,0.5,0.5,0.5,0.0,inf,", "field_value inf is not finite"),
        "nan field": ("0,1,1,1,awake,0.5,0.5,0.5,0.5,0.0,nan,", "field_value nan is not finite"),
        "negative cell": ("0,1,99,-7,awake,0.5,0.5,0.5,0.5,0.0,0.1,", "cell (99, -7) is negative"),
        "empty token": (
            "0,1,1,1,asleep,0.5,0.5,0.5,0.5,0.0,0.1,dream:p1;;wake",
            "unknown event token ''",
        ),
        # a `\r` the writer would leave unquoted, so the row would not read back
        "carriage return": (
            '0,1,1,1,awake,0.5,0.5,0.5,0.5,0.0,0.1,"photo:a\rb"',
            "carriage return in event cell 'photo:a\\rb'",
        ),
    }
    for name, (bad_row, message) in lax.items():
        lax_file = tmp_path / f"{name}.csv"
        lax_file.write_text(head + ok + bad_row + "\n", encoding="utf-8")
        with pytest.raises(TraceError) as exc:
            read_trace_csv(str(lax_file))
        assert str(exc.value) == f"trace file {lax_file}, line 3: {message}", name

    # undecodable bytes in an event cell; the decoder reads ahead, so no line
    not_utf8 = tmp_path / "u.csv"
    not_utf8.write_bytes(head.encode() + b"0,0,1,1,awake,0.5,0.5,0.5,0.5,0.0,0.1,\xff\xfe\n")
    with pytest.raises(TraceError) as exc:
        read_trace_csv(str(not_utf8))
    assert str(exc.value).startswith(f"cannot read trace file {not_utf8}: ")
    assert ", line " not in str(exc.value)


def test_summarize_rows_agrees_with_metrics(tmp_path, trace):
    m1 = metrics(trace)
    # the same fold over the rows the written trace reads back as
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), trace.rows)
    m2 = summarize_rows(read_trace_csv(str(path)))
    assert m1 == m2  # exact, floats included: same order, repr round-trip
    assert m1.interactions > 0 or m1.photos > 0  # the run actually did things


def test_trace_streams_row_by_row(tmp_path, trace):
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), trace.rows)
    rows = iter_trace_csv(str(path))
    assert next(rows) == trace.rows[0]  # yielded before the rest of the file is read
    rows.close()
    assert read_trace_csv(str(path)) == list(iter_trace_csv(str(path))) == trace.rows
    assert summarize_rows(iter_trace_csv(str(path))) == metrics(trace)

    # a tick's pairing is checked when the tick ends: its rows come out first,
    # then the fault is raised before the iterator ends
    head = ",".join(TRACE_HEADER) + "\n"
    unpaired = tmp_path / "unpaired.csv"
    unpaired.write_text(
        head
        + "0,0,1,1,awake,0.5,0.5,0.5,0.5,0.0,0.1,int:1:p1\n"
        + "0,1,1,1,awake,0.5,0.5,0.5,0.5,0.0,0.1,\n",
        encoding="utf-8",
    )
    rows = iter_trace_csv(str(unpaired))
    assert [r.agent_id for r in (next(rows), next(rows))] == [0, 1]
    with pytest.raises(TraceError) as exc:
        next(rows)
    assert str(exc.value) == (
        f"trace file {unpaired}, line 2: interaction token 'int:1:p1' "
        "has no partner token on agent 1's row"
    )


def test_row_metrics_counts_what_the_records_hold():
    # the fold counts event tokens; the crowded pinned world's records and
    # percept stores must agree with each count
    trace = run(CROWDED)
    m = row_metrics(trace.rows)
    assert m.interactions == len(trace.interactions) > 0
    assert m.photos == sum(1 for _, _, kind in trace.percept_rows if kind == "observed") > 0
    assert m.dream_frames == len(trace.dream_rows) > 0
    assert row_metrics(iter(trace.rows)) == m  # one pass over any iterable


def test_summarize_rows_counts_interactions_once(trace):
    m = summarize_rows(trace.rows)
    assert m.interactions == len(trace.interactions)
    tokens = sum(
        sum(1 for e in r.events if e.startswith("int:")) for r in trace.rows
    )
    assert tokens == 2 * m.interactions  # every meeting marks both partners


def test_reader_knows_every_event_kind_the_writer_emits(tmp_path):
    # a world small and busy enough to write all seven kinds: a kind that
    # `agent_tick` or `World.step` starts writing must join the reader's table
    cfg = WorldConfig(
        resolution=4, n_agents=6, total_ticks=200, stimulus_probability=0.5, master_seed=1,
        agent=AgentConfig(t_awake=8, t_asleep=3),
    )
    trace = run(cfg)
    kinds = {
        token if token in EVENT_WORDS else token[: token.index(":") + 1]
        for row in trace.rows
        for token in row.events
    }
    assert kinds == EVENT_WORDS | set(EVENT_PREFIXES)
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), trace.rows)
    back = read_trace_csv(str(path))
    assert back == trace.rows
    assert summarize_rows(back) == metrics(trace)


def test_interactions_csv_contents(tmp_path, trace):
    path = tmp_path / "interactions.csv"
    write_interactions_csv(str(path), trace.interactions)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "tick,agent_a,agent_b,cell_i,cell_j,sent_by_a,sent_by_b,eval_by_a,eval_by_b"
    assert len(lines) == 1 + len(trace.interactions)
    if trace.interactions:
        first = trace.interactions[0]
        cells = lines[1].split(",")
        assert cells[0] == str(first.tick)
        assert float(cells[7]) == first.eval_by_a


def test_dreams_csv_blank_for_unreachable_distance(tmp_path, trace):
    path = tmp_path / "dreams.csv"
    write_dreams_csv(str(path), trace.dream_rows)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + len(trace.dream_rows)
    for row, line in zip(trace.dream_rows, lines[1:]):
        cells = line.split(",")
        want = "" if row.frame.pair_distance is None else str(row.frame.pair_distance)
        assert cells[8] == want


def test_percepts_csv_roundtrip(tmp_path, trace):
    path = tmp_path / "percepts.csv"
    write_percepts_csv(str(path), trace.percept_rows)
    graphs = load_graphs(CFG)
    back = read_percepts_csv(str(path), CFG, *graphs)
    assert len(back) == len(trace.percept_rows)
    for (aid, a, a_kind), (bid, b, b_kind) in zip(trace.percept_rows, back):
        assert (aid, a.id, a_kind, a.category) == (bid, b.id, b_kind, b.category)
        assert b.kind == b_kind
        assert (a.origin, a.tick) == (b.origin, b.tick)
        assert np.array_equal(a.features, b.features)  # repr round-trip is exact
    with pytest.raises(TraceError):
        read_percepts_csv(str(tmp_path / "missing.csv"), CFG, *graphs)

    # ids and categories that the writer must quote come back as they were,
    # through the reader `conscient-sim dream` uses
    quoted_graph = load_graph('dog,cat "\n" x"",y', seed=0, feature_dim=2)
    quoted = [
        (0, Percept('p,1', np.zeros(2), 'dog,cat', GridCell(1, 2), 3, "observed"), "observed"),
        (1, Percept('say "hi"', np.ones(2), '"', GridCell(0, 0), 0, "style"), "style"),
        (1, Percept('a,"b",', np.ones(2), 'x"",y', GridCell(3, 1), 7, "observed"), "received"),
    ]
    write_percepts_csv(str(path), quoted)
    back = read_percepts_csv(str(path), NARROW, quoted_graph, quoted_graph)
    assert [(aid, p.id, p.category) for aid, p, _ in back] == [
        (aid, p.id, p.category) for aid, p, _ in quoted
    ]


@pytest.mark.parametrize(
    "row, message",
    [
        ("0,p1,bogus,dog,1,2,3,0.5;0.5", "unknown percept kind 'bogus'"),
        ("0,p1,observed,dog,1,2,-4,0.5;0.5", "percept tick must be >= 0, got -4"),
        ("0,p1,style,dog,1,2,3,0.5;0.5", "category 'dog' not in world.style_graph"),
        ("0,p1,received,dark,1,2,3,0.5;0.5", "category 'dark' not in world.content_graph"),
        ("0,p1,observed,dog,1,2,3,0.5", "1 features, but world.feature_dim is 2"),
        ("0,p1,observed,dog,1,8,3,0.5;0.5", "origin (1, 8) is off the grid"),
        ("0,p1,observed,dog,1,2,3,nan;0.5", "feature nan is outside [0, 1]"),
        ("0,p1,style,dark,1,2,3,inf;0.5", "feature inf is outside [0, 1]"),
        ("0,p1,received,dog,1,2,3,7.5;0.5", "feature 7.5 is outside [0, 1]"),
        ("0,p1,dreamed,dog,1,2,3,-0.5;0.5", "feature -0.5 is outside [0, 1]"),
        # the writer writes no empty entry, so none is dropped to make up the width
        ("0,p1,observed,dog,1,2,3,0.5;;0.25", "could not convert string to float: ''"),
        ("0,p1,observed,dog,1,2,3,0.5;0.25;", "could not convert string to float: ''"),
        # 200,000 characters, over csv's default field size limit
        ("0,p1,observed,dog,1,2,3," + ";".join(["0.5"] * 50_000), "field larger than field limit"),
        # the writer writes neither; `dream` takes any owner some world could hold
        ("-3,p1,observed,dog,1,2,3,0.5;0.5", "agent_id must be in [0, 16384), got -3"),
        ("16384,p1,observed,dog,1,2,3,0.5;0.5", "agent_id must be in [0, 16384), got 16384"),
        ("0,,observed,dog,1,2,3,0.5;0.5", "percept id is empty"),
    ],
    ids=[
        "kind",
        "tick",
        "style-category",
        "content-category",
        "width",
        "origin",
        "nan-feature",
        "inf-feature",
        "high-feature",
        "low-feature",
        "empty-inner-feature",
        "empty-last-feature",
        "csv-limit",
        "negative-agent",
        "huge-agent",
        "empty-id",
    ],
)
def test_read_percepts_csv_rejects_what_a_percept_rejects(tmp_path, row, message):
    path = tmp_path / "percepts.csv"
    path.write_text(",".join(PERCEPTS_HEADER) + "\n" + row + "\n", encoding="utf-8")
    with pytest.raises(TraceError) as exc:
        read_percepts_csv(str(path), NARROW, *load_graphs(NARROW))
    assert "line 2" in str(exc.value) and message in str(exc.value)
    assert str(path) in str(exc.value)


def test_percept_log_error_names_its_rows_first_line(tmp_path):
    # row 2's quoted id spans lines 2-4, so the bad row after it is line 5
    path = tmp_path / "percepts.csv"
    path.write_text(
        ",".join(PERCEPTS_HEADER)
        + '\n0,"a\nb\nc",observed,dog,1,2,3,0.5;0.5\n'
        + "0,p2,bogus,dog,1,2,3,0.5;0.5\n",
        encoding="utf-8",
    )
    with pytest.raises(TraceError) as exc:
        read_percepts_csv(str(path), NARROW, *load_graphs(NARROW))
    assert str(exc.value) == f"percept log {path}, line 5: percept p2: unknown percept kind 'bogus'"


def test_metrics_csv_roundtrip(tmp_path, trace):
    m = metrics(trace)
    path = tmp_path / "metrics.csv"
    write_metrics_csv(str(path), m)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "metric,value"
    names, raws = zip(*(line.split(",") for line in lines[1:]))
    assert list(names) == [k for k, _ in m.items()]
    assert "moves_agent_0" in names and "moves_agent_1" in names
    # ints render as ints and floats through repr, so each value parses back exactly
    assert [type(v)(raw) for raw, (_, v) in zip(raws, m.items())] == [v for _, v in m.items()]


def test_manifest_roundtrip_is_sorted_json(tmp_path):
    path = tmp_path / "manifest.json"
    payload = {"b": 2, "a": {"nested": [1, 2, 3]}, "seed": "77"}
    write_manifest(str(path), payload)
    assert json.loads(path.read_text(encoding="utf-8")) == payload
    # stable rendering: keys are sorted so rewrites are byte-identical
    before = path.read_bytes()
    write_manifest(str(path), {"seed": "77", "a": {"nested": [1, 2, 3]}, "b": 2})
    assert path.read_bytes() == before


def test_atomic_write_leaves_no_temp_files(tmp_path, trace):
    path = tmp_path / "out.txt"
    atomic_write_text(str(path), "first\n")
    atomic_write_text(str(path), "second\n")
    assert path.read_text(encoding="utf-8") == "second\n"

    # rows stream into the temp file, so a row source that fails part-way
    # must leave the old file as it was and no temp file behind
    def failing_rows():
        yield from trace.rows
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError, match="row source failed"):
        write_trace_csv(str(path), failing_rows())
    assert path.read_text(encoding="utf-8") == "second\n"
    leftovers = [p.name for p in tmp_path.iterdir() if p.name != "out.txt"]
    assert leftovers == []


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
def test_output_files_follow_the_umask(tmp_path, trace, umask):
    old = os.umask(umask)
    try:
        with open(tmp_path / "plain.txt", "w", encoding="utf-8") as fh:
            fh.write("x\n")
        atomic_write_text(str(tmp_path / "text.txt"), "x\n")
        write_trace_csv(str(tmp_path / "trace.csv"), trace.rows)
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes["plain.txt"] == 0o666 & ~umask  # what open(path, "w") gives
    assert modes == dict.fromkeys(modes, 0o666 & ~umask)


def _oracle_csv(header, rows) -> bytes:
    """The renderer the writers replaced: csv.writer over `_fmt` into a StringIO."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue().encode("utf-8")


def _oracle_trace(r: TraceRow) -> list:
    floats = [r.e_h, r.e_c, r.e_f, r.e_k, r.fatigue, r.field_value]
    return [r.tick, r.agent_id, r.i, r.j, r.mode, *map(_fmt, floats), ";".join(r.events)]


def _oracle_interaction(r: InteractionRecord) -> list:
    return [
        r.tick, r.agent_a, r.agent_b, r.cell.i, r.cell.j, r.sent_by_a, r.sent_by_b,
        _fmt(r.eval_by_a), _fmt(r.eval_by_b),
    ]


def _oracle_dream(r: DreamFrameRow) -> list:
    f = r.frame
    distance = "" if f.pair_distance is None else f.pair_distance
    return [
        r.agent_id, r.tick, r.frame_index, r.percept_id, f.content_category,
        f.style_category, f.content_origin.i, f.content_origin.j, distance, r.valence,
    ]


def _oracle_percept(row: tuple[int, Percept, str]) -> list:
    aid, p, kind = row
    features = ";".join(_fmt(x) for x in p.features)
    return [aid, p.id, kind, p.category, p.origin.i, p.origin.j, p.tick, features]


def _oracle_ga_history(h: GenerationStats) -> list:
    # bench `ga` pins these bytes: repr of each number, the genes joined by `;`
    genome = ";".join(repr(float(g)) for g in h.best_genome)
    return [h.generation, repr(h.best_fitness), repr(h.mean_fitness), genome]


def _oracle_metrics(m: Metrics) -> list[list]:
    return [[k, str(v) if isinstance(v, (int, np.integer)) else _fmt(v)] for k, v in m.items()]


def test_writers_match_the_plain_renderer_byte_for_byte(tmp_path):
    # signed zeros in one column, an int and NumPy scalars in float columns,
    # values that repeat, and strings that need CSV quoting: a comma, a quote
    # alone or doubled, a newline; `\r` and non-ASCII text need none
    floats = [
        0.0, -0.0, 1, 1.0, np.float64(0.1), np.float32(0.1), 0.1,
        np.float64(-0.0), float("inf"), 1e-300, 0.1 + 0.2, 0.0, -0.0,
    ]
    texts = ["a,b", 'q"x', "line\nbreak", "car\rriage", '""', '"', "café 日本", "", "plain"]
    # the trace reader takes what a run writes: emotions and fatigue in [0, 1],
    # and finite field values, which may be negative
    unit = [v for v in floats if 0 <= v <= 1]
    trace_rows = [
        TraceRow(
            tick=0, agent_id=t, i=1, j=2, mode="awake" if t % 3 else "asleep",
            e_h=v, e_c=v, e_f=unit[-1 - t], e_k=1, fatigue=np.float64(0.5),
            field_value=-v,
            # a bare \r ends a record for csv.reader, so the rows read back below hold none
            events=("photo:a,b", 'stim:q"x', "dream:x\ny", 'photo:""', 'stim:"') if t % 2 else (),
        )
        for t, v in enumerate(unit)
    ]
    records = [
        InteractionRecord(
            t, 0, 1, GridCell(t, 2), texts[t % 9], texts[-1 - t % 9], v, floats[-1 - t]
        )
        for t, v in enumerate(floats)
    ]
    dream_rows = [
        DreamFrameRow(
            0, t, t, texts[t],
            DreamFrame(np.zeros(2), texts[-1 - t], texts[(t + 3) % 9], GridCell(1, 2), distance),
            -1,
        )
        for t, distance in enumerate([None, 0, 3, None, 1, 2, None, 4, 0])
    ]
    # one array shared by several rows, an equal copy, the same values with
    # +0.0 for -0.0, a float32 vector and an all-zero one
    shared = np.array([0.25, -0.0, 0.0, 1 / 3])
    vectors = [
        shared, shared.copy(), shared, np.array([0.25, 0.0, 0.0, 1 / 3]),
        shared, shared.astype(np.float32), np.zeros(4),
    ]
    percept_rows = [
        (
            t % 2,
            Percept(texts[t] if t % 2 else f"p{t}", vec, texts[-1 - t], GridCell(1, 2), t, "observed"),
            "received" if t % 3 else "observed",
        )
        for t, vec in enumerate(vectors)
    ]
    # a failed search's -inf, signed zeros and repeating genes
    history = [
        GenerationStats(g, best, floats[-1 - g], np.array([*floats[g : g + 3], 1 / 3]))
        for g, best in enumerate([2.5, -math.inf, 0.0, -0.0, 1 / 3])
    ]
    cases = [
        (write_trace_csv, TRACE_HEADER, trace_rows, _oracle_trace),
        (write_interactions_csv, INTERACTIONS_HEADER, records, _oracle_interaction),
        (write_dreams_csv, DREAMS_HEADER, dream_rows, _oracle_dream),
        (write_percepts_csv, PERCEPTS_HEADER, percept_rows, _oracle_percept),
        (write_ga_history_csv, GA_HISTORY_HEADER, history, _oracle_ga_history),
    ]
    for writer, header, rows, oracle in cases:
        path = tmp_path / f"{writer.__name__}.csv"
        writer(str(path), iter(rows))  # one pass, as a generator gives
        assert path.read_bytes() == _oracle_csv(header, map(oracle, rows)), writer.__name__
    # ints, NumPy integers and floats of each kind in one summary
    summary = Metrics(
        interactions=np.int64(3), photos=0, dream_frames=5, total_moves=7,
        moves_per_agent=(1, np.int64(2), 4), mean_happiness=np.float64(0.1),
        mean_curiosity=-0.0, mean_friendship=0.1 + 0.2, mean_courage=1e-300,
        mean_fatigue=np.float32(0.5),
    )
    write_metrics_csv(str(tmp_path / "metrics.csv"), summary)
    want = _oracle_csv(METRICS_HEADER, _oracle_metrics(summary))
    assert (tmp_path / "metrics.csv").read_bytes() == want
    # the rows did reach what they target
    text = (tmp_path / "write_trace_csv.csv").read_text(encoding="utf-8")
    assert ",-0.0," in text and ",0.0," in text
    assert ',"photo:a,b;stim:q""x;dream:x\ny;photo:"""";stim:"""\n' in text
    # and read back equal, each float with its sign, though the reader parses
    # each distinct cell text once
    back = read_trace_csv(str(tmp_path / "write_trace_csv.csv"))
    assert back == trace_rows
    for got, want in zip(back, trace_rows):
        for name in ("e_h", "e_c", "e_f", "e_k", "fatigue", "field_value"):
            sign = math.copysign(1.0, getattr(got, name))
            assert sign == math.copysign(1.0, getattr(want, name)), (got, name)
    percepts = (tmp_path / "write_percepts_csv.csv").read_text(encoding="utf-8")
    assert "0.25;-0.0;0.0;" in percepts and "0.25;0.0;0.0;" in percepts


def test_cell_quotes_exactly_what_csv_writer_quotes():
    # every BMP code point but the surrogates, between two plain characters
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    quoted, mismatched = [], []
    for code in range(0x10000):
        if 0xD800 <= code <= 0xDFFF:
            continue
        text = "a" + chr(code) + "b"
        buf.seek(0)
        buf.truncate()
        writer.writerow([text])
        if _cell(text) + "\n" != buf.getvalue():
            mismatched.append(hex(code))
        if _cell(text) != text:
            quoted.append(chr(code))
    assert mismatched == []
    assert sorted(quoted) == ["\n", '"', ","]  # \r is not quoted
    # csv.writer writes a row of one empty field as `""`; no schema has one column
    headers = [TRACE_HEADER, INTERACTIONS_HEADER, DREAMS_HEADER, PERCEPTS_HEADER, METRICS_HEADER]
    assert min(map(len, headers)) >= 2


@pytest.mark.parametrize(
    "writer, row",
    [
        (write_trace_csv, TraceRow(0, 0, 1, 2, "awake", 0.5, 0.5, 0.5, 0.5, 0.0, 0.1, ("p:1",))),
        (write_interactions_csv, InteractionRecord(0, 0, 1, GridCell(1, 2), "p1", "p2", 0.5, 0.2)),
        (
            write_dreams_csv,
            DreamFrameRow(
                0, 1, 1, "p1", DreamFrame(np.zeros(2), "dog", "dark", GridCell(1, 2), None), 0
            ),
        ),
        (
            write_percepts_csv,
            (0, Percept("p1", np.full(8, 0.1), "dog", GridCell(1, 2), 1, "style"), "style"),
        ),
    ],
    ids=["trace", "interactions", "dreams", "percepts"],
)
def test_writers_stream_rows_into_the_temp_file(tmp_path, writer, row):
    # a writer that gathered every row before writing would hold a whole
    # percepts.csv (9.4 MB on a 32-agent run) in memory at once
    sizes = []

    def rows():
        for _ in range(20_000):
            yield row
        sizes.extend(p.stat().st_size for p in tmp_path.glob(".tmp-*.part"))

    writer(str(tmp_path / "out.csv"), rows())
    assert len(sizes) == 1 and sizes[0] > 0
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_standalone_dream_rows_schema(tmp_path, capsys):
    # the `dream` command adapts bare frames (no agent, no field) to dreams.csv
    (tmp_path / "content.txt").write_text("a b\nb c\n", encoding="utf-8")
    (tmp_path / "style.txt").write_text("dark bright\n", encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "world.feature_dim = 3\nworld.content_graph = content.txt\n"
        "world.style_graph = style.txt\ndream.length = 3\n",
        encoding="utf-8",
    )
    log = tmp_path / "percepts.csv"
    write_percepts_csv(
        str(log),
        [
            (0, Percept("p1", np.zeros(3), "a", GridCell(1, 2), tick=1, kind="observed"), "observed"),
            (0, Percept("s1", np.zeros(3), "dark", GridCell(0, 0), tick=1, kind="style"), "style"),
        ],
    )
    out = tmp_path / "out"
    argv = ["dream", "--config", str(cfg), "--percept-log", str(log), "--out", str(out)]
    assert run_command(argv) == 0
    capsys.readouterr()
    with open(out / "dreams.csv", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == DREAMS_HEADER
        rows = list(reader)
    assert [r["tick"] for r in rows] == ["1", "2", "3"]
    assert [r["frame_index"] for r in rows] == ["1", "2", "3"]
    assert [r["valence"] for r in rows] == ["0", "0", "0"]
    assert all(r["agent_id"] == "0" and r["percept_id"] == "" for r in rows)
    assert rows[0]["origin_i"] == "1" and rows[0]["origin_j"] == "2"
