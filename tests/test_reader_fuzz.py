"""Seeded mutation fuzz of the readers: hostile input ends in a clean rejection.

After Miller, Fredriksen & So, "An Empirical Study of the Reliability of UNIX
Utilities" (CACM 1990). Each reader gets a few hundred mutations of what its
writer wrote, or of the default config text for `parse_config_text`: byte
edits, cut spans, and swapped and duplicated lines. The property:

- each call returns, or raises a `SimulatorError` that names the file (config
  text has no file, so a config error names its line or key instead);
- through `run_command`, a rejected input exits 1 with one `error:` line;
- an accepted trace is a fixed point: written and read back, it gives the
  same rows;
- a trace streamed through `summarize_rows(iter_trace_csv(...))`, as the
  `metrics` command reads it, raises the same message as `read_trace_csv` or
  gives the summary of its rows.
"""

from __future__ import annotations

import random
import re

import pytest

from conscient_sim.cli import run_command
from conscient_sim.configio import default_values, parse_config_text, render_config
from conscient_sim.errors import SimulatorError, TraceError
from conscient_sim.traceio import (
    iter_trace_csv,
    read_percepts_csv,
    read_trace_csv,
    summarize_rows,
    write_percepts_csv,
    write_trace_csv,
)
from conscient_sim.world import load_graphs, run

SEED = 1990
MUTATIONS = 300

# a world small and busy enough to write every event kind and percept kind
CONFIG = """\
world.resolution = 5
world.n_agents = 3
world.total_ticks = 60
world.stimulus_probability = 0.4
agent.photo_period = 1
agent.style_every = 2
agent.t_awake = 12
agent.t_asleep = 3
dream.length = 4
"""

# bytes that move a CSV or config parser: separators, quotes, line ends, a NUL,
# and the characters of numbers and of `nan` and `inf`
SHARP = b'\x00\n\r",;:=#-+.0123456789eEnaif _'

# what a config error names in place of a file: its line, or a key
LINE_OR_KEY = re.compile(r"^line \d+: |\b(?:world|agent|dream|emotion|kernel|ga)\.[A-Za-z_]\w*")


def _mutate(rng: random.Random, data: bytes) -> bytes:
    kind = rng.randrange(4)
    if kind == 0:  # one to three bytes replaced or inserted
        out = bytearray(data)
        for _ in range(rng.randint(1, 3)):
            k = rng.randrange(len(out))
            byte = rng.choice(SHARP) if rng.random() < 0.7 else rng.randrange(256)
            out[k : k + rng.randrange(2)] = bytes([byte])
        return bytes(out)
    if kind == 1:  # a span cut out
        start = rng.randrange(len(data))
        return data[:start] + data[start + rng.randint(1, 64) :]
    lines = data.splitlines(keepends=True)
    a, b = rng.randrange(len(lines)), rng.randrange(len(lines))
    if kind == 2:
        lines[a], lines[b] = lines[b], lines[a]
    else:
        lines.insert(b, lines[a])
    return b"".join(lines)


def _fuzz(capsys, path, base: bytes, read, argv, names_it) -> tuple[int, int]:
    """Feed `read(path)` mutations of `base`; check each outcome, and return
    how many were accepted and how many rejected."""
    rng = random.Random(SEED)
    accepted = rejected = 0
    for _ in range(MUTATIONS):
        data = _mutate(rng, base)
        path.write_bytes(data)
        try:
            read(path)
        except SimulatorError as exc:
            rejected += 1
            assert names_it(str(exc)), (data, str(exc))
            capsys.readouterr()
            assert run_command(argv) == 1, data
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, (data, err)
        except Exception as exc:  # an escape: report the input that caused it
            pytest.fail(f"{type(exc).__name__}: {exc} on input {data!r}")
        else:
            accepted += 1
    return accepted, rejected


@pytest.fixture(scope="module")
def world():
    bundle = parse_config_text(CONFIG)
    return bundle.world, run(bundle.world)


def test_trace_reader_rejects_cleanly_and_accepts_fixed_points(tmp_path, capsys, world):
    _, trace = world
    base = tmp_path / "base.csv"
    write_trace_csv(str(base), trace.rows)
    path, again = tmp_path / "trace.csv", tmp_path / "again.csv"

    def read(p):
        # the streaming path, as `metrics` runs it, agrees with the whole read
        try:
            streamed = summarize_rows(iter_trace_csv(str(p)))
        except TraceError as exc:
            with pytest.raises(TraceError) as whole:
                read_trace_csv(str(p))
            assert str(whole.value) == str(exc), p.read_bytes()
            raise
        rows = read_trace_csv(str(p))
        assert streamed == summarize_rows(rows), p.read_bytes()
        write_trace_csv(str(again), rows)
        assert read_trace_csv(str(again)) == rows, p.read_bytes()

    argv = ["metrics", "--trace", str(path)]
    counts = _fuzz(capsys, path, base.read_bytes(), read, argv, lambda m: str(path) in m)
    assert min(counts) >= MUTATIONS // 50, counts  # both outcomes are exercised


def test_percept_reader_rejects_cleanly(tmp_path, capsys, world):
    cfg, trace = world
    base = tmp_path / "base.csv"
    write_percepts_csv(str(base), trace.percept_rows)
    graphs = load_graphs(cfg)
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG, encoding="utf-8")
    path = tmp_path / "percepts.csv"
    argv = ["dream", "--config", str(config), "--percept-log", str(path), "--out", str(tmp_path)]
    counts = _fuzz(
        capsys,
        path,
        base.read_bytes(),
        lambda p: read_percepts_csv(str(p), cfg, *graphs),
        argv,
        lambda m: str(path) in m,
    )
    assert min(counts) >= MUTATIONS // 50, counts


def test_config_parser_rejects_cleanly(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    # config text is text: the file holds what `parse_config_text` is given
    base = render_config(default_values()).encode("utf-8")

    def read(p):
        text = p.read_bytes().decode("utf-8", "replace")
        p.write_text(text, encoding="utf-8")
        parse_config_text(text, base_dir=str(tmp_path))

    argv = ["simulate", "--config", str(path), "--seed", "1", "--out", str(tmp_path / "o")]
    counts = _fuzz(capsys, path, base, read, argv, lambda m: LINE_OR_KEY.search(m) is not None)
    assert min(counts) >= MUTATIONS // 50, counts
