"""Command-line entry point.

Subcommands:
  simulate  run a world from a config and write trace/metrics/manifest files
  dream     replay dream generation from a stored percept log
  optimize  run the genetic search over agent hyperparameters
  metrics   recompute the summary from an existing trace.csv

Commands write through `_write_outputs`: files first, `manifest.json` last. A
directory without a manifest is incomplete, and only the files its manifest
lists under `outputs` belong to its run.

Exit codes: 0 on success, 1 on config or runtime validation failures (the
message names the offending key), on a failed write (it names the file), on
running out of memory (it names the keys that size a run) and on a dead search
worker, 2 on unknown flags or subcommands (argparse prints usage), 130 on
SIGINT (Ctrl-C) and 143 on SIGTERM, which `main` turns into an exception so
that a writer removes its temp file. Each failure prints one `error:` line.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from concurrent.futures.process import BrokenProcessPool
from datetime import datetime, timezone

from . import __version__
from .configio import ConfigBundle, parse_config
from .dreams import DreamFrameRow, DreamWalk
from .errors import SimulatorError, TraceError
from .optimizer import evolve
from .seeds import Stream, derive_seed
from .semantics import PerceptStore
from .traceio import (
    iter_trace_csv,
    read_percepts_csv,
    summarize_rows,
    write_dreams_csv,
    write_ga_history_csv,
    write_interactions_csv,
    write_manifest,
    write_metrics_csv,
    write_percepts_csv,
    write_trace_csv,
)
from .world import load_graphs
from .world import metrics as world_metrics
from .world import run as run_world


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conscient-sim",
        description="Deterministic multi-agent simulator with dreams, emotions, "
        "and a genetic outer loop.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a simulation and write its trace")
    sim.add_argument("--config", required=True, help="flat key=value config file")
    sim.add_argument("--seed", required=True, type=int, help="master seed (unsigned 64-bit)")
    sim.add_argument("--out", required=True, help="output directory")

    drm = sub.add_parser("dream", help="replay dreams from a percept log")
    drm.add_argument("--config", required=True, help="flat key=value config file")
    drm.add_argument("--percept-log", required=True, help="percepts.csv from a simulation")
    drm.add_argument("--out", required=True, help="output directory")

    opt = sub.add_parser("optimize", help="genetic search over agent parameters")
    opt.add_argument("--config", required=True, help="flat key=value config file")
    opt.add_argument("--seed", required=True, type=int, help="search seed")
    opt.add_argument("--out", required=True, help="output directory")

    met = sub.add_parser("metrics", help="summarize an existing trace")
    met.add_argument("--trace", required=True, help="path to trace.csv")
    return parser


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_outputs(args, bundle: ConfigBundle, started: str, files: dict, **manifest) -> None:
    """Write each `name: (writer, payload)` of `files` into `args.out`, then the manifest.

    An old manifest is removed first, so none vouches for files a failed run
    left half-replaced. The manifest records the parsed flags, the effective
    config and the file names as `outputs`; `manifest` adds or overrides keys.
    """
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "manifest.json")
    if os.path.lexists(path):
        os.remove(path)
    for name, (write, payload) in files.items():
        write(os.path.join(args.out, name), payload)
    arguments = vars(args).copy()
    record = {
        "command": arguments.pop("command"),
        "tool": "conscient-sim",
        "version": __version__,
        "arguments": arguments,
        "master_seed": bundle.world.master_seed,
        "started_at": started,
        "finished_at": _now(),
        "effective_config": dict(bundle.effective),
        "outputs": list(files),
    }
    write_manifest(path, {**record, **manifest})


def _cmd_simulate(args) -> int:
    started = _now()
    bundle = parse_config(args.config, overrides={"world.master_seed": str(args.seed)})
    world = run_world(bundle.world)
    summary = world_metrics(world)
    files = {
        "trace.csv": (write_trace_csv, world.rows),
        "interactions.csv": (write_interactions_csv, world.interactions),
        "dreams.csv": (write_dreams_csv, world.dream_rows),
        "percepts.csv": (write_percepts_csv, world.percept_rows),
        "metrics.csv": (write_metrics_csv, summary),
    }
    _write_outputs(args, bundle, started, files)
    print(
        f"simulated {bundle.world.total_ticks} ticks, {bundle.world.n_agents} agents: "
        f"{summary.interactions} interactions, {summary.photos} photos, "
        f"{summary.dream_frames} dream frames -> {args.out}"
    )
    return 0


def _cmd_dream(args) -> int:
    started = _now()
    bundle = parse_config(args.config)
    world_cfg = bundle.world
    content_graph, style_graph = load_graphs(world_cfg)
    content_store = PerceptStore(content_graph)
    style_store = PerceptStore(style_graph)
    log = args.percept_log
    for _, p, kind in read_percepts_csv(log, world_cfg, content_graph, style_graph):
        (style_store if kind == "style" else content_store).attach(p)
    for kind, store in (("content", content_store), ("style", style_store)):
        if len(store) == 0:
            raise TraceError(f"percept log {log}: no {kind} percepts to dream with")
    rng = Stream(derive_seed(world_cfg.master_seed, "dream-cli"))
    dream_cfg = world_cfg.agent.dream
    walk = DreamWalk(content_store, style_store, dream_cfg, rng)
    # bare frames have no agent and no field: agent 0, tick = frame index;
    # the writer draws each frame as it writes it, so no frame is held
    rows = (DreamFrameRow(0, k, k, "", walk.step(rng), 0) for k in range(1, dream_cfg.length + 1))
    _write_outputs(args, bundle, started, {"dreams.csv": (write_dreams_csv, rows)})
    print(f"dreamed {dream_cfg.length} frames -> {args.out}")
    return 0


def _cmd_optimize(args) -> int:
    started = _now()
    bundle = parse_config(args.config)
    best, history = evolve(bundle.ga, bundle.world, seed=args.seed)
    results = {
        "best_fitness": best.best_fitness,
        "best_generation": best.generation,
        "best_genome": [float(g) for g in best.best_genome],
    }
    files = {"ga_history.csv": (write_ga_history_csv, history)}
    _write_outputs(args, bundle, started, files, master_seed=args.seed, results=results)
    print(
        f"optimized {bundle.ga.generations} generations of {bundle.ga.population_size}: "
        f"best fitness {best.best_fitness} -> {args.out}"
    )
    return 0


def _cmd_metrics(args) -> int:
    summary = summarize_rows(iter_trace_csv(args.trace))  # holds no row
    for key, value in summary.items():
        print(f"{key} = {value}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "dream": _cmd_dream,
    "optimize": _cmd_optimize,
    "metrics": _cmd_metrics,
}


class Terminated(BaseException):
    """SIGTERM, raised where the process was, so cleanup runs as for Ctrl-C."""


def _raise_terminated(*handler_args) -> None:
    """The SIGTERM handler `main` installs; it gets (signal number, frame)."""
    raise Terminated(*handler_args)


def run_command(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code or 0)
    code = 1
    try:
        return _COMMANDS[args.command](args)
    except (SimulatorError, OSError) as exc:
        message = str(exc).translate({10: "\\n", 13: "\\r"})  # one line
    except MemoryError:  # the keys that size a run's arrays
        message = (
            "out of memory: lower world.resolution, world.n_agents, "
            "world.total_ticks or world.feature_dim"
        )
    except BrokenProcessPool:  # the pool lost a worker: a SIGKILL, as from the OOM killer
        message = "a search worker process died, for example killed or out of memory"
    except KeyboardInterrupt:  # exit status 128 + SIGINT
        message, code = "interrupted", 130
    except Terminated:  # exit status 128 + SIGTERM
        message, code = "terminated", 143
    print("error: " + message, file=sys.stderr)
    return code


def main() -> None:
    # here, not in `run_command`, so in-process callers keep Python's default
    signal.signal(signal.SIGTERM, _raise_terminated)
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
