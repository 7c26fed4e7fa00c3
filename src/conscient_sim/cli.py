"""Command-line entry point.

Subcommands:
  simulate  run a world from a config and write trace/metrics/manifest files
  dream     replay dream generation from a stored percept log
  optimize  run the genetic search over agent hyperparameters
  metrics   recompute the summary from an existing trace.csv

Exit codes: 0 on success, 1 on config or runtime validation failures (the
message names the offending key), 2 on unknown flags or subcommands (argparse
prints usage).
"""

from __future__ import annotations

import argparse
import os
import sys
from datetime import datetime, timezone

from . import __version__
from .configio import ConfigBundle, parse_config
from .dreams import DreamFrameRow, DreamWalk
from .errors import SimulatorError, TraceError
from .optimizer import evolve
from .seeds import derive_seed, make_rng
from .semantics import PerceptStore
from .traceio import (
    atomic_write_text,
    read_percepts_csv,
    read_trace_csv,
    summarize_rows,
    write_dreams_csv,
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


def _manifest(args, bundle: ConfigBundle, started: str, outputs: list[str]) -> dict:
    """A command's manifest: its parsed flags, effective config and output file names."""
    arguments = vars(args).copy()
    return {
        "command": arguments.pop("command"),
        "tool": "conscient-sim",
        "version": __version__,
        "arguments": arguments,
        "master_seed": bundle.world.master_seed,
        "started_at": started,
        "finished_at": _now(),
        "effective_config": dict(bundle.effective),
        "outputs": outputs,
    }


def _write_outputs(out_dir: str, outputs: dict) -> list[str]:
    """Write each `file name: (writer, payload)` into `out_dir`; returns the names in order."""
    os.makedirs(out_dir, exist_ok=True)
    for name, (write, payload) in outputs.items():
        write(os.path.join(out_dir, name), payload)
    return list(outputs)


def _cmd_simulate(args) -> int:
    started = _now()
    bundle = parse_config(args.config, overrides={"world.master_seed": str(args.seed)})
    trace = run_world(bundle.world)
    summary = world_metrics(trace)
    outputs = _write_outputs(
        args.out,
        {
            "trace.csv": (write_trace_csv, trace.rows),
            "interactions.csv": (write_interactions_csv, trace.interactions),
            "dreams.csv": (write_dreams_csv, trace.dream_rows),
            "percepts.csv": (write_percepts_csv, trace.percept_rows),
            "metrics.csv": (write_metrics_csv, summary),
        },
    )
    manifest = _manifest(args, bundle, started, outputs)
    write_manifest(os.path.join(args.out, "manifest.json"), manifest)
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
    content_store = PerceptStore()
    style_store = PerceptStore()
    log = args.percept_log
    for _, p in read_percepts_csv(log, world_cfg, content_graph, style_graph):
        (style_store if p.kind == "style" else content_store).attach(p)
    for kind, store in (("content", content_store), ("style", style_store)):
        if len(store) == 0:
            raise TraceError(f"percept log {log}: no {kind} percepts to dream with")
    rng = make_rng(derive_seed(world_cfg.master_seed, "dream-cli"))
    dream_cfg = world_cfg.agent.dream
    walk = DreamWalk(content_store, content_graph, style_store, style_graph, dream_cfg, rng)
    # bare frames have no agent and no field: agent 0, tick = frame index
    rows = [DreamFrameRow(0, k, k, "", walk.step(rng), 0) for k in range(1, dream_cfg.length + 1)]
    outputs = _write_outputs(args.out, {"dreams.csv": (write_dreams_csv, rows)})
    manifest = _manifest(args, bundle, started, outputs)
    write_manifest(os.path.join(args.out, "manifest.json"), manifest)
    print(f"dreamed {len(rows)} frames -> {args.out}")
    return 0


def _cmd_optimize(args) -> int:
    started = _now()
    bundle = parse_config(args.config)
    best, history = evolve(bundle.ga, bundle.world, seed=args.seed)
    lines = ["generation,best_fitness,mean_fitness,best_genome"]
    for h in history:
        genome = ";".join(repr(float(g)) for g in h.best_genome)
        lines.append(f"{h.generation},{repr(h.best_fitness)},{repr(h.mean_fitness)},{genome}")
    text = "\n".join(lines) + "\n"
    outputs = _write_outputs(args.out, {"ga_history.csv": (atomic_write_text, text)})
    manifest = _manifest(args, bundle, started, outputs)
    manifest["master_seed"] = args.seed
    manifest["results"] = {
        "best_fitness": best.fitness,
        "best_generation": best.generation,
        "best_genome": [float(g) for g in best.genome.genes],
    }
    write_manifest(os.path.join(args.out, "manifest.json"), manifest)
    print(
        f"optimized {bundle.ga.generations} generations of {bundle.ga.population_size}: "
        f"best fitness {best.fitness} -> {args.out}"
    )
    return 0


def _cmd_metrics(args) -> int:
    rows = read_trace_csv(args.trace)
    summary = summarize_rows(rows)
    for key, value in summary.items():
        print(f"{key} = {value}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "dream": _cmd_dream,
    "optimize": _cmd_optimize,
    "metrics": _cmd_metrics,
}


def run_command(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (SimulatorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
