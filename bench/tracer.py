"""Span tracer that wraps conscient_sim's public functions from outside.

Nothing under src/ knows about it. `Tracer.install` replaces each function in
TARGETS with a timing wrapper wherever the package looks the name up: every
module global bound to the original function object (so `agents.local_bump`
and `world.local_bump` are both covered, as is an alias such as
`cli.world_metrics`), and the class attribute for methods such as
`World.step`. `uninstall` puts the originals back.

Each call records one span (name, start, end, parent span, run id). Spans are
kept in flat arrays and written out only at the end. A span's self time is its
duration minus the durations of its direct children. The wrappers only read
the clock, their own results and the size of the files the writers wrote;
they draw no random numbers, so a traced run produces the same bytes as an
untraced one.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from array import array

# Traced functions per layer (module of conscient_sim); `Class.method` names a
# method.
TARGETS: dict[str, tuple[str, ...]] = {
    "configio": ("parse_config",),
    "seeds": ("derive_seed", "make_rng"),
    "fields": (
        "sample_field",
        "kernel_matrix",
        "local_bump",
        "contaminate",
        "steepest_neighbor",
        "moore_neighbors",
    ),
    "semantics": (
        "load_graph",
        "classify",
        "semantic_distance",
        "PerceptStore.attach",
        "PerceptStore.latest",
    ),
    "emotions": ("apply_event", "tick_emotions", "should_sleep"),
    "dreams": ("DreamWalk.step", "dream_valence"),
    "agents": ("agent_tick", "navigate_step", "maybe_take_photo", "receive_percept"),
    "world": ("build_world", "World.step", "World.snapshot_trace", "interact", "metrics"),
    "optimizer": ("evolve", "fitness"),
    "traceio": (
        "atomic_write_text",
        "write_trace_csv",
        "write_interactions_csv",
        "write_dreams_csv",
        "write_percepts_csv",
        "write_metrics_csv",
        "read_trace_csv",
        "summarize_rows",
    ),
}

WRITERS = (
    "write_trace_csv",
    "write_interactions_csv",
    "write_dreams_csv",
    "write_percepts_csv",
    "write_metrics_csv",
)


def traced_names() -> list[str]:
    return [f"{layer}.{name}" for layer, names in TARGETS.items() for name in names]


class Tracer:
    """Collects spans and per-function counters while installed."""

    def __init__(self) -> None:
        self.names = traced_names()
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        # useful outcomes: attach accepted, interact recorded, fitness failed
        self.outcomes = [0] * n
        self.bytes = [0] * n
        self.run_id = 0
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._run = array("i")
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrapper(self, k: int, fn, outcome):
        perf = time.perf_counter
        stack = self._stack
        names, starts, ends, parents, runs = (
            self._name,
            self._start,
            self._end,
            self._parent,
            self._run,
        )
        calls, self_s = self.calls, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(k)
            parents.append(stack[-1][0] if stack else -1)
            runs.append(self.run_id)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                t = perf()
                ends[idx] = t
                stack.pop()
                dur = t - starts[idx]
                self_s[k] += dur - frame[1]
                calls[k] += 1
                if stack:
                    stack[-1][1] += dur
            if outcome is not None:
                outcome(k, args, result)
            return result

        return wrapper

    def _outcome_for(self, name: str):
        if name == "semantics.PerceptStore.attach":
            return self._count_if(lambda result: result is True)
        if name == "world.interact":
            return self._count_if(lambda result: result is not None)
        if name == "optimizer.fitness":
            return self._count_if(lambda result: result.fitness == -math.inf)
        if name.split(".", 1)[1] in WRITERS:
            return self._count_bytes
        return None

    def _count_if(self, pred):
        def outcome(k, args, result):
            if pred(result):
                self.outcomes[k] += 1

        return outcome

    def _count_bytes(self, k, args, result):
        self.bytes[k] += os.path.getsize(args[0])

    def install(self) -> None:
        package = [
            m
            for key, m in list(sys.modules.items())
            if key == "conscient_sim" or key.startswith("conscient_sim.")
        ]
        k = 0
        for layer, attrs in TARGETS.items():
            home = sys.modules[f"conscient_sim.{layer}"]
            for attr in attrs:
                name = f"{layer}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self._wrapper(k, orig, self._outcome_for(name)))
                    self._undo.append((cls, meth, orig))
                else:
                    orig = getattr(home, attr)
                    wrapper = self._wrapper(k, orig, self._outcome_for(name))
                    for mod in package:
                        for key, value in list(vars(mod).items()):
                            if value is orig:
                                setattr(mod, key, wrapper)
                                self._undo.append((mod, key, orig))
                k += 1

    def uninstall(self) -> None:
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    # -- results ----------------------------------------------------------

    def index(self, name: str) -> int:
        return self.names.index(name)

    def durations(self, name: str) -> list[float]:
        k = self.index(name)
        return [e - s for n, s, e in zip(self._name, self._start, self._end) if n == k]

    def span_count(self) -> int:
        return len(self._start)

    def write_spans(self, path: str) -> None:
        """CSV of every span: name, start, end, parent span index, run id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start,end,parent,run\n")
            for i in range(len(self._start)):
                fh.write(
                    f"{i},{self.names[self._name[i]]},{self._start[i]!r},"
                    f"{self._end[i]!r},{self._parent[i]},{self._run[i]}\n"
                )
