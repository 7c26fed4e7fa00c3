"""CSV serialization for traces, records, and metrics.

Owns the on-disk schemas. Numbers render via repr so floats round-trip
exactly and identical runs produce byte-identical files. Each row is rendered
as one line, with text cells quoted CSV-style only when they need it, and the
lines stream into a temp file that is renamed into place. `summarize_rows`
recomputes a full metrics summary from trace rows alone, independently of the
in-memory record lists, which is what the `metrics` subcommand and the
consistency checks use.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from typing import Iterable, Iterator, TextIO

import numpy as np

from .dreams import DreamFrameRow
from .errors import TraceError
from .fields import GridCell
from .semantics import PERCEPT_KINDS, Percept, SemanticGraph
from .world import InteractionRecord, Metrics, TraceRow, WorldConfig, row_metrics

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


def _fmt(v: float) -> str:
    return repr(float(v))


class _FloatMemo(dict):
    """`_fmt` of each distinct value, rendered once: `memo[v] == _fmt(v)`.

    Zero is never stored, because 0.0 and -0.0 compare equal as keys but
    render differently.
    """

    def __missing__(self, v) -> str:
        text = _fmt(v)
        if v:
            self[v] = text
        return text


@contextmanager
def _atomic_open(path: str) -> Iterator[TextIO]:
    """Yield a text handle on a temp file beside `path`, renamed into place on success.

    Readers never see a partial file, and on any exception the temp file is
    removed and `path` keeps its old bytes. The temp file is created with mode
    0o666, so the kernel applies the umask just as `open(path, "w")` does.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.part")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
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
    fmt = _FloatMemo()
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


def _read_csv(path: str, header: list[str], what: str) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, cells) for each data row of a CSV file.

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
            for lineno, cells in enumerate(reader, start=2):
                if len(cells) != len(header):
                    raise TraceError(
                        f"{what} {path}, line {lineno}: expected {len(header)} columns"
                    )
                yield lineno, cells
    except (OSError, UnicodeDecodeError) as exc:
        # no line number: the decoder reads ahead of `reader.line_num`
        raise TraceError(f"cannot read {what} {path}: {exc}") from None
    except csv.Error as exc:
        raise TraceError(f"{what} {path}, line {reader.line_num}: {exc}") from None


class _ParseMemo(dict):
    """`float` of each distinct cell text, parsed once: `memo[text] == float(text)`.

    Keyed on the text, so "0.0" and "-0.0" stay distinct.
    """

    def __missing__(self, text: str) -> float:
        value = self[text] = float(text)
        return value


def read_trace_csv(path: str) -> list[TraceRow]:
    """Parse and validate a trace file: each tick holds agents 0..n-1, n being the first's count."""
    rows = []
    # emotions and field values repeat across agents and ticks
    num = _ParseMemo()
    prev_tick, want, n = None, 0, 0  # want: the next agent id; n: 0 until the first tick ends
    for lineno, rec in _read_csv(path, TRACE_HEADER, "trace file"):
        tick, agent_id, i, j, mode, e_h, e_c, e_f, e_k, fatigue, field_value, ev = rec
        try:
            row = TraceRow(
                int(tick),
                int(agent_id),
                int(i),
                int(j),
                mode,
                num[e_h],
                num[e_c],
                num[e_f],
                num[e_k],
                num[fatigue],
                num[field_value],
                tuple(filter(None, ev.split(";"))),
            )
            if mode not in ("awake", "asleep"):
                raise ValueError(f"unknown mode {mode!r}")
            if "int:" in ev:
                for token in row.events:
                    if token.startswith("int:"):
                        try:
                            int(token.split(":", 2)[1])
                        except ValueError:
                            raise ValueError(f"malformed interaction token {token!r}") from None
            if row.tick != prev_tick:
                if prev_tick is not None and row.tick < prev_tick:
                    raise ValueError("rows not ordered by tick")
                n = n or want
                if want != n:
                    raise ValueError(f"expected agent_id {want}, got tick {row.tick}")
                want = 0
            elif want == n:
                raise ValueError(f"tick {row.tick} holds more than the first tick's {n} agents")
            if row.agent_id != want:
                raise ValueError(f"expected agent_id {want}, got {row.agent_id}")
        except ValueError as exc:
            raise TraceError(f"trace file {path}, line {lineno}: {exc}") from None
        prev_tick, want = row.tick, want + 1
        rows.append(row)
    if n and want != n:
        raise TraceError(
            f"trace file {path}, line {lineno + 1}: expected agent_id {want}, got end of file"
        )
    return rows


def summarize_rows(rows: list[TraceRow]) -> Metrics:
    """Recompute the metrics summary from trace rows alone.

    Photos, dream frames, and interactions are counted from event tokens; an
    interaction appears on both partners' rows, so only the row with the lower
    agent id counts it; `read_trace_csv` has checked each `int:` token. Moves
    and means come from `row_metrics`.
    """
    photos = 0
    dream_frames = 0
    interactions = 0
    for row in rows:
        for token in row.events:
            if token.startswith("photo:"):
                photos += 1
            elif token.startswith("dream:"):
                dream_frames += 1
            elif token.startswith("int:") and int(token.split(":", 2)[1]) > row.agent_id:
                interactions += 1
    return row_metrics(rows, interactions=interactions, photos=photos, dream_frames=dream_frames)


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


def write_percepts_csv(path: str, rows: Iterable[tuple[int, Percept]]) -> None:
    """One row per (owner agent id, percept) pair."""
    # observed, style and received percepts share vectors: render each once,
    # keyed on its float64 bytes (which tell 0.0 from -0.0)
    rendered: dict[bytes, str] = {}

    def features(vec) -> str:
        vec = np.asarray(vec, dtype=np.float64)
        key = vec.tobytes()
        text = rendered.get(key)
        if text is None:
            text = rendered[key] = ";".join(map(_fmt, vec.tolist()))
        return text

    _write_lines(
        path,
        PERCEPTS_HEADER,
        (
            f"{aid},{_cell(p.id)},{_cell(p.kind)},{_cell(p.category)},{p.origin.i},{p.origin.j},"
            f"{p.tick},{features(p.features)}\n"
            for aid, p in rows
        ),
    )


def read_percepts_csv(
    path: str, world: WorldConfig, content_graph: SemanticGraph, style_graph: SemanticGraph
) -> list[tuple[int, Percept]]:
    """(owner agent id, percept) pairs of a percept log, in file order.

    Here percepts, and so cells, enter from outside: each must fit `world` and
    its graph (`style_graph` for style percepts, `content_graph` for the rest).
    """
    r = world.resolution
    percepts = []
    for lineno, rec in _read_csv(path, PERCEPTS_HEADER, "percept log"):
        try:
            feats = np.array([float(x) for x in rec[7].split(";") if x], dtype=float)
            i, j = int(rec[4]), int(rec[5])
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
            if not graph.has_node(percept.category):
                raise ValueError(f"category {percept.category!r} not in world.{kind}_graph")
            if len(feats) != world.feature_dim:
                raise ValueError(
                    f"{len(feats)} features, but world.feature_dim is {world.feature_dim}"
                )
            if not (0 <= i < r and 0 <= j < r):
                raise ValueError(f"origin ({i}, {j}) is off the grid, but world.resolution is {r}")
            percepts.append((int(rec[0]), percept))
        except ValueError as exc:
            where = f"percept log {path}, line {lineno}: percept {rec[1]}"
            raise TraceError(f"{where}: {exc}") from None
    return percepts


def _render_metric(v) -> str:
    return str(v) if isinstance(v, (int, np.integer)) else _fmt(v)


def write_metrics_csv(path: str, m: Metrics) -> None:
    _write_lines(path, METRICS_HEADER, (f"{_cell(k)},{_render_metric(v)}\n" for k, v in m.items()))


def write_manifest(path: str, manifest: dict) -> None:
    atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
