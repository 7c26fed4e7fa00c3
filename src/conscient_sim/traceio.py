"""CSV serialization for traces, records, metrics and the GA history.

Owns the on-disk schemas. Numbers render via repr so floats round-trip
exactly and identical runs produce byte-identical files. Each row is rendered
as one line, with text cells quoted CSV-style only when they need it, and the
lines stream into a temp file that is renamed into place.

A trace reads back as a stream: `iter_trace_csv` checks it no laxer than the
writer and yields each row once the row passes, so rows yielded before a
later fault are not vouched for; `read_trace_csv` is its list.
`summarize_rows` folds rows with `world.row_metrics`, the one function that
counts a run, so the `metrics` subcommand recounts exactly what `metrics.csv`
holds, holding no row. Floats and their texts repeat within a few ticks, so
the trace writer and reader memoise them, as the percept writer does its
feature vectors, each in a `_Memo` of the function it saves calls to; a memo
clears and starts over at `MEMO_CAP` entries, which bounds its memory
whatever a run's length.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager
from typing import Iterable, Iterator, TextIO

import numpy as np

from .dreams import DreamFrameRow
from .errors import TraceError
from .fields import MAX_RESOLUTION, GridCell
from .optimizer import GenerationStats
from .semantics import PERCEPT_KINDS, Percept, SemanticGraph
from .world import (
    EVENT_PREFIXES,
    EVENT_WORDS,
    InteractionRecord,
    Metrics,
    PerceptRow,
    TraceRow,
    WorldConfig,
    row_metrics,
)

TRACE_HEADER = [
    "tick",
    "agent_id",
    "i",
    "j",
    "mode",
    "e_h",
    "e_c",
    "e_f",
    "e_k",
    "fatigue",
    "field_value",
    "event",
]

INTERACTIONS_HEADER = [
    "tick",
    "agent_a",
    "agent_b",
    "cell_i",
    "cell_j",
    "sent_by_a",
    "sent_by_b",
    "eval_by_a",
    "eval_by_b",
]

DREAMS_HEADER = [
    "agent_id",
    "tick",
    "frame_index",
    "percept_id",
    "content_category",
    "style_category",
    "origin_i",
    "origin_j",
    "pair_distance",
    "valence",
]

PERCEPTS_HEADER = [
    "agent_id",
    "id",
    "kind",
    "category",
    "i",
    "j",
    "tick",
    "features",
]

METRICS_HEADER = ["metric", "value"]

GA_HISTORY_HEADER = ["generation", "best_fitness", "mean_fitness", "best_genome"]

# agent ids any world can hold: each agent spawns on its own cell
MAX_AGENTS = MAX_RESOLUTION * MAX_RESOLUTION


def _fmt(v: float) -> str:
    return repr(float(v))


# The most entries one memo holds: at this size it clears and starts over.
MEMO_CAP = 4096


class _Memo(dict):
    """`make(key)` of each key met, computed once while it stays: `memo[k] == make(k)`.

    A false key is never stored: the only one that reaches a memo is 0.0 (or
    -0.0), and the two compare equal as keys but render differently.
    """

    __slots__ = ("_make",)

    def __init__(self, make) -> None:
        super().__init__()
        self._make = make

    def __missing__(self, key):
        value = self._make(key)
        if key:
            if len(self) >= MEMO_CAP:
                self.clear()
            self[key] = value
        return value


def _render_vector(key: bytes) -> str:
    """`;`-joined `_fmt` texts of a float64 vector, from its bytes (which tell 0.0
    from -0.0); `tolist` gives Python floats already, whose repr is their `_fmt`."""
    return ";".join(map(repr, np.frombuffer(key).tolist()))


@contextmanager
def _atomic_open(path: str) -> Iterator[TextIO]:
    """Yield a text handle on a temp file beside `path`, renamed into place on success.

    Readers never see a partial file, and on any exception the temp file is
    removed and `path` keeps its old bytes; an `OSError` about the temp file is
    raised afresh, naming `path` alone. The temp file is created with mode
    0o666, so the kernel applies the umask just as `open(path, "w")` does.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.part")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None and exc.filename in (None, tmp):
            # a failed write names no file, a failed create the temp file and a
            # failed rename the temp file, then `path`: name `path` alone
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def atomic_write_text(path: str, text: str) -> None:
    """Write text then rename into place so readers never see partial files."""
    with _atomic_open(path) as fh:
        fh.write(text)


def _cell(text: str) -> str:
    """`text` as one CSV cell: wrapped in quotes, with each inner quote doubled,
    only when it holds a `,`, a `"` or a newline, as `csv.writer` would."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_lines(path: str, header: list[str], lines: Iterable[str]) -> None:
    """Write the header line, then stream `lines` (each ending in a newline) into `path`."""
    with _atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)


def write_trace_csv(path: str, rows: Iterable[TraceRow]) -> None:
    # emotions and field values repeat across agents and ticks
    fmt = _Memo(_fmt)
    _write_lines(
        path,
        TRACE_HEADER,
        (
            f"{r.tick},{r.agent_id},{r.i},{r.j},{_cell(r.mode)},{fmt[r.e_h]},{fmt[r.e_c]},"
            f"{fmt[r.e_f]},{fmt[r.e_k]},{fmt[r.fatigue]},{fmt[r.field_value]},"
            f"{_cell(';'.join(r.events))}\n"
            for r in rows
        ),
    )


def _read_csv(
    path: str, header: list[str], what: str
) -> Iterator[tuple[int, list[str] | None]]:
    """Yield (first line number, cells) for each data record of a CSV file, then
    (the line after the last record, None) once the file ends.

    A file that cannot be read or is not UTF-8, a line `csv` cannot parse
    (such as a field over its size limit), a header other than `header` and a
    row of the wrong width raise `TraceError` naming `what`, the path and,
    except for undecodable bytes, the line.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            got = next(reader, None)
            if got != header:
                raise TraceError(f"{what} {path}, line 1: unexpected header {got}")
            lineno = 2
            for cells in reader:
                if len(cells) != len(header):
                    raise TraceError(
                        f"{what} {path}, line {lineno}: expected {len(header)} columns"
                    )
                yield lineno, cells
                lineno = reader.line_num + 1  # a quoted cell may span lines
    except (OSError, UnicodeDecodeError) as exc:
        # no line number: the decoder reads ahead of `reader.line_num`
        raise TraceError(f"cannot read {what} {path}: {exc}") from None
    except csv.Error as exc:
        raise TraceError(f"{what} {path}, line {reader.line_num}: {exc}") from None
    yield lineno, None


def _unit_float(text: str) -> float:
    """An emotion or fatigue text's value, which must lie in [0, 1]."""
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"emotion or fatigue {value} is outside [0, 1]")
    return value


def _finite_float(text: str) -> float:
    """A `field_value` text's value, which must be finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"field_value {value} is not finite")
    return value


# one copy of each mode text, shared by every row read back
_MODES = {mode: mode for mode in ("awake", "asleep")}


def _check_tick(path: str, pairs: dict[tuple[int, int], tuple[int, str]], n: int) -> None:
    """Raise `TraceError` at a token's line unless each (agent, partner) pair of one
    tick's `int:` tokens names an agent in 0..n-1 whose row holds the mirror pair."""
    for (agent, partner), (lineno, token) in pairs.items():
        if not 0 <= partner < n:
            fault = f"names agent {partner}, but each tick holds agents 0..{n - 1}"
        elif (partner, agent) not in pairs:
            fault = f"has no partner token on agent {partner}'s row"
        else:
            continue
        raise TraceError(f"trace file {path}, line {lineno}: interaction token {token!r} {fault}")


def iter_trace_csv(path: str) -> Iterator[TraceRow]:
    """Parse and validate a trace file row by row, yielding each row once it passes.

    Ticks run 0, 1, 2, ... and each holds agents 0..n-1, n being tick 0's
    count; an agent moves at most one Moore step per tick; cells are not
    negative, emotions and fatigue lie in [0, 1], field values are finite;
    events are in the writer's vocabulary; `int:` tokens pair up within each
    tick. The pairing and end-of-file checks run when their tick or the file
    ends, so a fault there raises `TraceError` after rows already yielded.
    Rows of one tick share one `tick` int and the mode texts.
    """
    # emotions and field values repeat across agents and ticks
    emo, field = _Memo(_unit_float), _Memo(_finite_float)
    tick_text, t = None, -1  # the last tick cell read, and its value
    prev_tick, want = -1, 0  # want: the next agent id
    cells: list[tuple[int, int]] = []  # each agent's last cell, by id; tick 0 fills it
    pairs = {}  # (agent, partner): (line, token) of this tick's `int:` tokens
    for lineno, rec in _read_csv(path, TRACE_HEADER, "trace file"):
        if rec is None:
            break
        tick, agent_id, i, j, mode, e_h, e_c, e_f, e_k, fatigue, field_value, ev = rec
        try:
            events = tuple(ev.split(";")) if ev else ()
            if tick != tick_text:
                t, tick_text = int(tick), tick
            aid, ci, cj = int(agent_id), int(i), int(j)
            shared_mode = _MODES.get(mode)  # None: checked below, in the fault order
            row = TraceRow(
                t,
                aid,
                ci,
                cj,
                shared_mode,
                emo[e_h],
                emo[e_c],
                emo[e_f],
                emo[e_k],
                emo[fatigue],
                field[field_value],
                events,
            )
            if (ci | cj) < 0:  # one comparison: an int `or` is negative iff either side is
                raise ValueError(f"cell ({ci}, {cj}) is negative")
            if shared_mode is None:
                raise ValueError(f"unknown mode {mode!r}")
            if t != prev_tick:
                if t != prev_tick + 1:
                    raise ValueError(f"expected tick {prev_tick + 1}, got tick {t}")
                if want != len(cells):
                    raise ValueError(f"expected agent_id {want}, got tick {t}")
                if pairs:
                    _check_tick(path, pairs, len(cells))
                    pairs = {}
                want = 0
            elif t and want == len(cells):
                raise ValueError(f"tick {t} holds more than the first tick's {want} agents")
            if aid != want:
                raise ValueError(f"expected agent_id {want}, got {aid}")
            if t:
                pi, pj = cells[aid]
                if abs(ci - pi) > 1 or abs(cj - pj) > 1:
                    raise ValueError(f"agent {aid} moves from ({pi}, {pj}) to ({ci}, {cj})")
                cells[aid] = ci, cj
            else:
                cells.append((ci, cj))
            if "\r" in ev:  # the writer leaves a `\r` unquoted, so it never writes one in a cell
                raise ValueError(f"carriage return in event cell {ev!r}")
            for token in events:
                if token.startswith("int:"):
                    try:
                        partner = int(token.split(":", 2)[1])
                    except ValueError:
                        raise ValueError(f"malformed interaction token {token!r}") from None
                    if partner == want:
                        raise ValueError(f"interaction token {token!r} names its own agent")
                    if (want, partner) in pairs:
                        raise ValueError(f"interaction token {token!r} names agent {partner} again")
                    pairs[want, partner] = lineno, token
                elif not token.startswith(EVENT_PREFIXES) and token not in EVENT_WORDS:
                    raise ValueError(f"unknown event token {token!r}")
        except TraceError:
            raise  # from `_check_tick`, which names each token's own line
        except ValueError as exc:
            raise TraceError(f"trace file {path}, line {lineno}: {exc}") from None
        prev_tick, want = t, want + 1
        yield row
    # lineno: the line after the last record
    if not cells:
        raise TraceError(f"trace file {path}, line {lineno}: expected tick 0, got end of file")
    if want != len(cells):
        raise TraceError(
            f"trace file {path}, line {lineno}: expected agent_id {want}, got end of file"
        )
    _check_tick(path, pairs, len(cells))  # the last tick's


def read_trace_csv(path: str) -> list[TraceRow]:
    """Every row of a trace file, checked as `iter_trace_csv` checks them."""
    return list(iter_trace_csv(path))


def summarize_rows(rows: Iterable[TraceRow]) -> Metrics:
    """The metrics summary of trace rows alone, as `world.metrics` counts it."""
    return row_metrics(rows)


def write_interactions_csv(path: str, records: Iterable[InteractionRecord]) -> None:
    _write_lines(
        path,
        INTERACTIONS_HEADER,
        (
            f"{r.tick},{r.agent_a},{r.agent_b},{r.cell.i},{r.cell.j},{_cell(r.sent_by_a)},"
            f"{_cell(r.sent_by_b)},{_fmt(r.eval_by_a)},{_fmt(r.eval_by_b)}\n"
            for r in records
        ),
    )


def write_dreams_csv(path: str, rows: Iterable[DreamFrameRow]) -> None:
    _write_lines(
        path,
        DREAMS_HEADER,
        (
            f"{r.agent_id},{r.tick},{r.frame_index},{_cell(r.percept_id)},"
            f"{_cell(r.frame.content_category)},{_cell(r.frame.style_category)},"
            f"{r.frame.content_origin.i},{r.frame.content_origin.j},"
            f"{'' if r.frame.pair_distance is None else r.frame.pair_distance},{r.valence}\n"
            for r in rows
        ),
    )


def write_percepts_csv(path: str, rows: Iterable[PerceptRow]) -> None:
    """One line per (owner agent id, percept, kind) row; `kind` is written as given."""
    # observed, style and received percepts share vectors: render each once
    features = _Memo(_render_vector)
    _write_lines(
        path,
        PERCEPTS_HEADER,
        (
            f"{aid},{_cell(p.id)},{_cell(kind)},{_cell(p.category)},{p.origin.i},{p.origin.j},"
            f"{p.tick},{features[np.asarray(p.features, dtype=np.float64).tobytes()]}\n"
            for aid, p, kind in rows
        ),
    )


def read_percepts_csv(
    path: str, world: WorldConfig, content_graph: SemanticGraph, style_graph: SemanticGraph
) -> list[PerceptRow]:
    """(owner agent id, percept, kind) rows of a percept log, in file order.

    Each percept's own `kind` is its row's, `received` included, as the log
    does not say what kind a received percept was made as.

    Here percepts, and so cells, enter from outside: each must fit `world` and
    its graph (`style_graph` for style percepts, `content_graph` for the rest),
    and its features must lie in [0, 1], as every percept's do. Its id must not
    be empty, and its owner's id is one some world could hold: a `dream`
    config need not be the run's, so `world.n_agents` does not bound it.
    """
    r = world.resolution
    percepts = []
    for lineno, rec in _read_csv(path, PERCEPTS_HEADER, "percept log"):
        if rec is None:
            break
        try:
            # an empty entry, as in "0.5;;0.25" or "0.5;", does not parse: the writer writes none
            feats = np.array([float(x) for x in rec[7].split(";")], dtype=float)
            aid, i, j = int(rec[0]), int(rec[4]), int(rec[5])
            if not 0 <= aid < MAX_AGENTS:
                raise ValueError(f"agent_id must be in [0, {MAX_AGENTS}), got {aid}")
            if not rec[1]:
                raise ValueError("percept id is empty")
            percept = Percept(
                id=rec[1],
                features=feats,
                category=rec[3],
                origin=GridCell(i, j),
                tick=int(rec[6]),
                kind=rec[2],
            )
            if percept.kind not in PERCEPT_KINDS:
                raise ValueError(f"unknown percept kind {percept.kind!r}")
            if percept.tick < 0:
                raise ValueError(f"percept tick must be >= 0, got {percept.tick}")
            kind = "style" if percept.kind == "style" else "content"
            graph = style_graph if kind == "style" else content_graph
            if percept.category not in graph.adjacency:
                raise ValueError(f"category {percept.category!r} not in world.{kind}_graph")
            if len(feats) != world.feature_dim:
                raise ValueError(
                    f"{len(feats)} features, but world.feature_dim is {world.feature_dim}"
                )
            outside = ~((feats >= 0.0) & (feats <= 1.0))  # NaN among them
            if outside.any():
                raise ValueError(f"feature {feats[outside][0]} is outside [0, 1]")
            if not (0 <= i < r and 0 <= j < r):
                raise ValueError(f"origin ({i}, {j}) is off the grid, but world.resolution is {r}")
            percepts.append((aid, percept, percept.kind))
        except ValueError as exc:
            where = f"percept log {path}, line {lineno}: percept {rec[1]}"
            raise TraceError(f"{where}: {exc}") from None
    return percepts


def _render_metric(v) -> str:
    return str(v) if isinstance(v, (int, np.integer)) else _fmt(v)


def write_metrics_csv(path: str, m: Metrics) -> None:
    _write_lines(path, METRICS_HEADER, (f"{_cell(k)},{_render_metric(v)}\n" for k, v in m.items()))


def write_ga_history_csv(path: str, history: Iterable[GenerationStats]) -> None:
    _write_lines(
        path,
        GA_HISTORY_HEADER,
        (
            f"{h.generation},{h.best_fitness!r},{h.mean_fitness!r},"
            f"{';'.join(map(_fmt, h.best_genome))}\n"
            for h in history
        ),
    )


def write_manifest(path: str, manifest: dict) -> None:
    atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
