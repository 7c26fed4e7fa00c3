#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for conscient-sim.

Run from the repository root:

    python3 bench/run.py --workload reference --seed 0 --seconds 20 --trace 0

Workloads (bench/README.md says why each was chosen):
  reference  the pinned criterion-06 world: res 16, 2 agents, 10k ticks
  crowd      res 16, 32 agents, 1k ticks
  ga         `optimizer.evolve` on the default world, population 4 x 3
             generations, with 1 worker in the library and with 2 as a CLI
             command; the library run then replays the best genome

The package is imported from src/ of the checkout this file sits in, and is
driven only through its public functions, in the phases `conscient-sim
simulate`, `metrics` and `optimize` use. Every generated config is written with
`configio.render_config` under bench/out/, so any run replays through the CLI.

Each invocation:
  1. probe: a short variant of the workload, whose master seed (ga: search
     seed) is --seed, goes through the library phases and through
     `cli.run_command` in-process; the outputs must match byte for byte. The
     probe's library search uses 2 workers and the CLI's uses the default 1.
  2. with --trace 0: set-up alone nine times, then whole repetitions of the
     pinned workload until --seconds have passed; figures are medians of
     samples rescaled by a calibration kernel timed between laps (Meter);
     set-up samples stay raw.
     With --trace 1: one untraced repetition, then one repetition with every
     public function of every layer wrapped (bench/tracer.py). The library
     search always uses 1 worker, as spans made in fork workers are lost.
  3. the pinned workload once more as a CLI command in a fresh process
     (bench/child.py) with CONSCIENT_SIM_THREADS=2; its outputs must match
     the library's byte for byte, and its ru_maxrss is peak_rss_mb. On ga this
     is the 2-worker search.
Every output is checked: digests against bench/expected.json, pinned counts,
replayed against live metrics, CLI against library, the 2-worker search
against the 1-worker one, and each genome that scores -inf is a failed
evaluation. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the exit code is 0 only when every check
passed. Lines before it are a readable report: the environment, every metric
with its unit, and fail_share with its base.

The benchmark sets no BLAS thread variable: OpenBLAS oversubscription is part
of what it measures.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import replace

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("reference", "crowd", "ga")

# Config overrides on top of the defaults, per workload.
SCENARIOS = {
    "reference": {
        "world.resolution": "16",
        "world.n_agents": "2",
        "world.total_ticks": "10000",
        "world.stimulus_probability": "0.2",
        "world.master_seed": "7",
    },
    "crowd": {
        "world.resolution": "16",
        "world.n_agents": "32",
        "world.total_ticks": "1000",
        "world.stimulus_probability": "0.2",
        "world.master_seed": "3",
    },
    "ga": {"ga.population_size": "4", "ga.generations": "3"},
}
GA_SEARCH_SEED = 5
GA_WORKERS = 2

# --tiny shrinks every workload so the whole harness runs in seconds.
TINY = {
    "reference": {"world.total_ticks": "300"},
    "crowd": {"world.n_agents": "8", "world.total_ticks": "40"},
    "ga": {"world.total_ticks": "60", "ga.generations": "2", "ga.eval_seeds": "11"},
}

# The probe shortens the workload; its seed comes from --seed.
PROBE = {
    "reference": {"world.total_ticks": "500"},
    "crowd": {"world.total_ticks": "50"},
    "ga": {"world.total_ticks": "100", "ga.generations": "2", "ga.eval_seeds": "11"},
}

SETUP_ONLY_REPS = 9

# The speed of a shared host drifts: the same work runs up to 1.6x faster or
# slower from one second, or one minute, to the next, so a whole run can fall
# in a slow phase. The benchmark therefore splits every repetition into laps
# (a set-up, a block of ticks, one file written, one world run of the search)
# and times one round of a fixed pure-Python kernel between laps. A lap's time
# is rescaled by the kernel rounds at its two ends: every end-to-end time reads
# as it would on a host where one round takes CAL_REFERENCE_S. The kernel calls
# no numpy and runs with the collector off, so the package cannot change it.
CAL_LOOPS = 15_000
CAL_REFERENCE_S = 0.007
# Laps per stepping phase.
STEP_LAPS = 20
# Set-up is mostly a multi-threaded Cholesky, whose speed the single-threaded
# kernel does not track (rescaled, its spread over runs grew from 4 % to 16 %
# on ga), so set-up laps are reported raw.
RAW_PHASES = ("setup",)
# `metrics` runs this many times on each simulated trace: one replay varies
# by ~15 % within a run, so a run needs many samples of it.
SIM_REPLAYS = 5
# A 500-tick trace writes in ~30 ms and replays in ~15 ms, so ga writes and
# replays each of its winner's traces this many times per repetition.
GA_EXPORT_REPEATS = 5
CHILD_TIMEOUT_S = 150

SIM_OUTPUTS = ("trace.csv", "interactions.csv", "dreams.csv", "percepts.csv", "metrics.csv")
GA_OUTPUTS = ("ga_history.csv",)

END_TO_END_UNITS = {
    "setup_s": "s",
    "ticks_per_s": "1/s",
    "write_s": "s",
    "replay_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description="conscient-sim benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--tiny", action="store_true", help="shrink every workload (smoke test)")
    p.add_argument(
        "--expected",
        default=os.path.join(BENCH_DIR, "expected.json"),
        help="pinned digests and counts (default: bench/expected.json)",
    )
    return p.parse_args(argv)


if not os.path.isfile(os.path.join(SRC, "conscient_sim", "__init__.py")):
    sys.exit(f"error: no conscient_sim package under {SRC}; run from a full checkout")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from conscient_sim import (  # noqa: E402
    cli,
    configio,
    optimizer,
    traceio,
    world,
)

from tracer import WRITERS, Tracer, traced_names  # noqa: E402


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _same_bytes(a: str, b: str) -> bool:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def _fresh_dir(path: str) -> str:
    if os.path.isdir(path):
        shutil.rmtree(path)
    os.makedirs(path)
    return path


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas_id = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_id,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


def _kernel(loops: int) -> float:
    table = [float(i) for i in range(4096)]
    acc, k = 0.0, 1
    for i in range(loops):
        k = (k * 1103515245 + 12345) & 4095
        x = table[k] * 0.5 + i
        table[k] = x if x < 1e6 else x - 1e6
        acc += math.sqrt(x)
    return acc


class Meter:
    """Times a repetition lap by lap, with a calibration round between laps.

    `lap(phase)` ends the lap running since the previous one, adds it to the
    phase's raw and rescaled totals, and returns (raw, rescaled) seconds. The
    rescaled time is raw x CAL_REFERENCE_S / the mean of the kernel rounds at
    the lap's two ends, except for RAW_PHASES. With calibrate=False no kernel
    runs and rescaled times equal raw ones (probe, traced runs).
    """

    def __init__(self, calibrate: bool = True) -> None:
        self.calibrate = calibrate
        self.raw: dict[str, float] = {}
        self.scaled: dict[str, float] = {}
        self.rounds: list[float] = []
        self._cal = self._round()
        self._start = time.perf_counter()

    def _round(self) -> float:
        if not self.calibrate:
            return CAL_REFERENCE_S
        gc.disable()
        try:
            t0 = time.perf_counter()
            _kernel(CAL_LOOPS)
            took = time.perf_counter() - t0
        finally:
            gc.enable()
        self.rounds.append(took)
        return took

    def lap(self, phase: str) -> tuple[float, float]:
        raw = time.perf_counter() - self._start
        cal = self._round()
        scaled = raw if phase in RAW_PHASES else raw * 2 * CAL_REFERENCE_S / (self._cal + cal)
        self._cal = cal
        self.raw[phase] = self.raw.get(phase, 0.0) + raw
        self.scaled[phase] = self.scaled.get(phase, 0.0) + scaled
        self._start = time.perf_counter()
        return raw, scaled

    def totals(self, phase: str) -> tuple[float, float]:
        return self.raw.get(phase, 0.0), self.scaled.get(phase, 0.0)

    def since(self, phase: str, mark: tuple[float, float]) -> tuple[float, float]:
        raw, scaled = self.totals(phase)
        return raw - mark[0], scaled - mark[1]


def _split(pairs: dict[str, list[tuple[float, float]]]) -> dict[str, dict[str, list[float]]]:
    """name -> [(raw, rescaled)] as {"raw": name -> [...], "scaled": name -> [...]}."""
    return {
        view: {name: [pair[k] for pair in values] for name, values in pairs.items()}
        for k, view in enumerate(("raw", "scaled"))
    }


class Ledger:
    """Attempted and failed operations, by kind; the base of fail_share."""

    def __init__(self) -> None:
        self.kinds: dict[str, list[int]] = {}

    def add(self, kind: str, attempted: int, failed: int) -> None:
        entry = self.kinds.setdefault(kind, [0, 0])
        entry[0] += attempted
        entry[1] += failed

    def check(self, kind: str, ok: bool) -> None:
        self.add(kind, 1, 0 if ok else 1)

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.kinds.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.kinds.values())


def write_config(path: str, overrides: dict) -> str:
    values = configio.default_values()
    values.update(overrides)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(configio.render_config(values))
    return path


# -- simulate / metrics phases -------------------------------------------------


def simulate_setup(cfg_path: str, seed: int):
    bundle = configio.parse_config(cfg_path, overrides={"world.master_seed": str(seed)})
    return bundle, world.build_world(bundle.world)


def write_outputs(out_dir: str, trace, meter: Meter) -> world.Metrics:
    """`world.metrics` and the five CSV files `conscient-sim simulate` writes.

    One lap ("write") per step; the first also holds whatever ran since the
    previous lap, such as `snapshot_trace`.
    """
    summary = world.metrics(trace)
    meter.lap("write")
    traceio.write_trace_csv(os.path.join(out_dir, "trace.csv"), trace.rows)
    meter.lap("write")
    traceio.write_interactions_csv(os.path.join(out_dir, "interactions.csv"), trace.interactions)
    meter.lap("write")
    traceio.write_dreams_csv(os.path.join(out_dir, "dreams.csv"), trace.dream_rows)
    meter.lap("write")
    traceio.write_percepts_csv(os.path.join(out_dir, "percepts.csv"), trace.percept_rows)
    meter.lap("write")
    traceio.write_metrics_csv(os.path.join(out_dir, "metrics.csv"), summary)
    meter.lap("write")
    return summary


def replay(out_dir: str, meter: Meter):
    """What `conscient-sim metrics` computes from a written trace.csv."""
    rows = traceio.read_trace_csv(os.path.join(out_dir, "trace.csv"))
    meter.lap("replay")
    summary = traceio.summarize_rows(rows)
    meter.lap("replay")
    return summary


def simulate_rep(cfg_path: str, seed: int, out_dir: str, meter: Meter):
    """One `simulate` then `metrics`, phase by phase, as the CLI runs them.

    The meter's clock must start right before the call. Returns the phase
    samples ({"raw", "scaled"} -> name -> list of seconds or rates) and facts.
    """
    bundle, w = simulate_setup(cfg_path, seed)
    meter.lap("setup")
    ticks = bundle.world.total_ticks
    block = -(-ticks // STEP_LAPS)
    for start in range(0, ticks, block):
        for _ in range(min(block, ticks - start)):
            w.step()
        meter.lap("step")
    summary = write_outputs(out_dir, w.snapshot_trace(), meter)
    replays: list[tuple[float, float]] = []
    replay_ok = True
    for _ in range(SIM_REPLAYS):
        mark = meter.totals("replay")
        replayed = replay(out_dir, meter)
        replays.append(meter.since("replay", mark))
        replay_ok = replay_ok and replayed == summary
    pairs = {
        "setup_s": [meter.totals("setup")],
        "ticks_per_s": [tuple(ticks / t for t in meter.totals("step"))],
        "write_s": [meter.totals("write")],
        "replay_s": replays,
        "run_s": [(sum(meter.raw.values()), sum(meter.scaled.values()))],
    }
    counts = {
        "interactions": summary.interactions,
        "photos": summary.photos,
        "dream_frames": summary.dream_frames,
    }
    return _split(pairs), {"counts": counts, "replay_ok": replay_ok}


# -- optimize phases -----------------------------------------------------------


def history_text(history) -> str:
    """ga_history.csv exactly as `conscient-sim optimize` renders it."""
    lines = ["generation,best_fitness,mean_fitness,best_genome"]
    for h in history:
        genome = ";".join(repr(float(g)) for g in h.best_genome)
        lines.append(f"{h.generation},{repr(h.best_fitness)},{repr(h.mean_fitness)},{genome}")
    return "\n".join(lines) + "\n"


def ga_setup(cfg_path: str):
    bundle = configio.parse_config(cfg_path)
    first = replace(bundle.world, master_seed=bundle.ga.eval_seeds[0])
    return bundle, world.build_world(first)


def ga_rep(cfg_path: str, seed: int, out_dir: str, meter: Meter):
    """`optimize` with 1 worker, then a replay of its winner.

    The replay reads the best genome back from ga_history.csv, evaluates it
    again with every eval seed's trace written out as `simulate` writes it,
    and reads each trace.csv back. Samples: one world-run rate per world the
    1-worker search ran (each run is a lap), and GA_EXPORT_REPEATS writes and
    replays per eval seed.
    """
    bundle, _ = ga_setup(cfg_path)
    setup = meter.lap("setup")
    ga, base = bundle.ga, bundle.world
    rates: list[tuple[float, ...]] = []
    scored: dict[int, list] = {}  # id(genome) -> [genome, finished world runs]

    def count_runs(genome, _seed, _trace):
        rates.append(tuple(base.total_ticks / t for t in meter.lap("search")))
        scored.setdefault(id(genome), [genome, 0])[1] += 1

    _, history = optimizer.evolve(ga, base, seed=seed, workers=1, trace_hook=count_runs)
    meter.lap("search")
    text = history_text(history)
    path = os.path.join(out_dir, "ga_history.csv")
    traceio.atomic_write_text(path, text)
    with open(path, encoding="utf-8") as fh:
        last = fh.read().splitlines()[-1].split(",")
    genome = optimizer.Genome(np.array([float(g) for g in last[3].split(";")]))
    seed_dirs = {s: _fresh_dir(os.path.join(out_dir, f"winner-{s}")) for s in ga.eval_seeds}
    meter.lap("history")
    writes: list[tuple[float, float]] = []

    def export(_genome, eval_seed, trace):
        meter.lap("winner")
        for _ in range(GA_EXPORT_REPEATS):
            mark = meter.totals("write")
            write_outputs(seed_dirs[eval_seed], trace, meter)
            writes.append(meter.since("write", mark))

    report = optimizer.fitness(genome, ga, base, trace_hook=export)
    meter.lap("winner")
    replays: list[tuple[float, float]] = []
    replay_ok = repr(report.fitness) == last[1]
    for eval_seed, live in zip(ga.eval_seeds, report.per_seed):
        for _ in range(GA_EXPORT_REPEATS):
            mark = meter.totals("replay")
            replayed = replay(seed_dirs[eval_seed], meter)
            replays.append(meter.since("replay", mark))
            replay_ok = replay_ok and replayed == live
    evaluations = ga.population_size * ga.generations
    complete = sum(1 for _, n in scored.values() if n == len(ga.eval_seeds))
    pairs = {
        "setup_s": [setup],
        "ticks_per_s": rates,
        "write_s": writes,
        "replay_s": replays,
        "run_s": [(sum(meter.raw.values()), sum(meter.scaled.values()))],
        "search_w1_s": [meter.totals("search")],
    }
    facts = {
        "evaluations": evaluations,
        "failed_evaluations": evaluations - complete,
        "replay_ok": replay_ok,
    }
    return _split(pairs), facts


# -- one workload --------------------------------------------------------------


class Workload:
    def __init__(self, name: str, tiny: bool, out_dir: str) -> None:
        self.name = name
        self.is_ga = name == "ga"
        overrides = dict(SCENARIOS[name])
        if tiny:
            overrides.update(TINY[name])
        self.overrides = overrides
        self.seed = GA_SEARCH_SEED if self.is_ga else int(overrides["world.master_seed"])
        self.out_dir = out_dir
        self.cfg = write_config(os.path.join(out_dir, f"{name}.cfg"), overrides)
        # files the CLI command writes, and files whose digests are pinned
        self.outputs = GA_OUTPUTS if self.is_ga else SIM_OUTPUTS
        self.pinned = self.outputs
        if self.is_ga:
            seeds = configio.parse_config(self.cfg).ga.eval_seeds
            self.pinned += tuple(f"winner-{s}/{f}" for s in seeds for f in SIM_OUTPUTS)

    def setup(self, meter: Meter) -> tuple[float, float]:
        if self.is_ga:
            ga_setup(self.cfg)
        else:
            simulate_setup(self.cfg, self.seed)
        return meter.lap("setup")

    def rep(self, out_dir: str, calibrate: bool = True):
        meter = Meter(calibrate)
        rep = ga_rep if self.is_ga else simulate_rep
        phases, facts = rep(self.cfg, self.seed, out_dir, meter)
        return phases, facts, meter.rounds

    def cli_argv(self, cfg: str, seed: int, out_dir: str) -> list[str]:
        command = "optimize" if self.is_ga else "simulate"
        return [command, "--config", cfg, "--seed", str(seed), "--out", out_dir]

    def check_rep(self, ledger: Ledger, expected: dict, facts: dict, out_dir: str) -> dict:
        digests = {name: _sha256(os.path.join(out_dir, name)) for name in self.pinned}
        for name, digest in digests.items():
            ledger.check("digest", digest == expected["sha256"].get(name))
        ledger.check("replay", facts["replay_ok"])
        if self.is_ga:
            ledger.add("evaluation", facts["evaluations"], facts["failed_evaluations"])
        else:
            ledger.check("pinned_counts", facts["counts"] == expected["counts"])
        return digests

    def probe(self, ledger: Ledger, seed: int) -> None:
        """Library phases against `cli.run_command` on a seed-derived variant."""
        seed %= 2**64
        overrides = dict(self.overrides)
        overrides.update(PROBE[self.name])
        if not self.is_ga:
            overrides["world.master_seed"] = str(seed)
        cfg = write_config(os.path.join(self.out_dir, "probe.cfg"), overrides)
        lib_dir = _fresh_dir(os.path.join(self.out_dir, "probe-library"))
        cli_dir = os.path.join(self.out_dir, "probe-cli")
        if self.is_ga:
            bundle = configio.parse_config(cfg)
            _, history = optimizer.evolve(bundle.ga, bundle.world, seed=seed, workers=GA_WORKERS)
            traceio.atomic_write_text(os.path.join(lib_dir, "ga_history.csv"), history_text(history))
        else:
            simulate_rep(cfg, seed, lib_dir, Meter(calibrate=False))
        with contextlib.redirect_stdout(sys.stderr):
            rc = cli.run_command(self.cli_argv(cfg, seed, cli_dir))
        for name in self.outputs:
            ok = rc == 0 and _same_bytes(os.path.join(lib_dir, name), os.path.join(cli_dir, name))
            ledger.check("probe_cli", ok)

    def run_cli(self, ledger: Ledger, lib_dir: str) -> dict:
        """The pinned workload as one CLI command in a fresh process.

        The command runs with CONSCIENT_SIM_THREADS=2, so on ga it is the
        2-worker search, checked byte for byte against the library's 1-worker
        one. Returns the command's wall time and peak resident set.
        """
        cli_dir = os.path.join(self.out_dir, "cli")
        env = dict(os.environ)
        env[optimizer.ENV_THREADS] = str(GA_WORKERS)
        argv = [sys.executable, os.path.join(BENCH_DIR, "child.py"), SRC]
        argv += self.cli_argv(self.cfg, self.seed, cli_dir)
        # its own session, so that a timeout also stops the command's pool workers
        with subprocess.Popen(
            argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        ) as proc:
            try:
                stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                sys.exit(f"error: {' '.join(argv)} took over {CHILD_TIMEOUT_S} s")
        if proc.returncode != 0:
            sys.exit(f"error: {' '.join(argv)} failed:\n{stderr}")
        report = json.loads(stdout.strip().splitlines()[-1])
        if report["rc"] != 0:
            sys.stderr.write(stderr)
        for name in self.outputs:
            ok = report["rc"] == 0 and _same_bytes(
                os.path.join(lib_dir, name), os.path.join(cli_dir, name)
            )
            ledger.check("parallel" if self.is_ga else "cli", ok)
        return {"command_s": report["wall_s"], "peak_rss_mb": report["maxrss_kb"] / 1024.0}


# -- per-layer figures ---------------------------------------------------------

LAYER_EXTRA_UNITS = {
    "semantics.PerceptStore.attach.accepted_ratio": "ratio",
    "world.interact.recorded_ratio": "ratio",
    "world.World.step.p50_us": "us",
    "world.World.step.p99_us": "us",
    "optimizer.fitness.failed": "count",
    "optimizer.evals_per_s_w1": "1/s",
    "optimizer.evals_per_s_w2": "1/s",
    "optimizer.parallel_efficiency": "ratio",
    "bench.tracing_overhead": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for name in traced_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for writer in WRITERS:
        units[f"traceio.{writer}.bytes"] = "bytes"
    units.update(LAYER_EXTRA_UNITS)
    return units


def _percentile(sorted_values: list[float], q: int) -> float:
    """Nearest-rank percentile; 0 when there are no samples."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[rank - 1]


def layer_metrics(
    tracer: Tracer, untraced: dict, traced: dict, command_s: float, is_ga: bool
) -> dict:
    values: dict[str, float] = {}
    for k, name in enumerate(tracer.names):
        values[f"{name}.calls"] = tracer.calls[k]
        values[f"{name}.self_s"] = tracer.self_s[k]
    for writer in WRITERS:
        values[f"traceio.{writer}.bytes"] = tracer.bytes[tracer.index(f"traceio.{writer}")]

    def share(name: str) -> float:
        k = tracer.index(name)
        return tracer.outcomes[k] / tracer.calls[k] if tracer.calls[k] else 0.0

    values["semantics.PerceptStore.attach.accepted_ratio"] = share("semantics.PerceptStore.attach")
    values["world.interact.recorded_ratio"] = share("world.interact")
    steps = sorted(tracer.durations("world.World.step"))
    values["world.World.step.p50_us"] = _percentile(steps, 50) * 1e6
    values["world.World.step.p99_us"] = _percentile(steps, 99) * 1e6
    values["optimizer.fitness.failed"] = tracer.outcomes[tracer.index("optimizer.fitness")]
    values["optimizer.evals_per_s_w1"] = 0.0
    values["optimizer.evals_per_s_w2"] = 0.0
    values["optimizer.parallel_efficiency"] = 0.0
    if is_ga:
        # the untraced 1-worker search against the 2-worker CLI command
        w1 = untraced["search_w1_s"]
        values["optimizer.evals_per_s_w1"] = untraced["evaluations"] / w1
        values["optimizer.evals_per_s_w2"] = untraced["evaluations"] / command_s
        values["optimizer.parallel_efficiency"] = w1 / (GA_WORKERS * command_s)
    values["bench.tracing_overhead"] = traced["run_s"] / untraced["run_s"]
    return values


# -- main ----------------------------------------------------------------------


def _report(line: str) -> None:
    print(line, flush=True)


def main(argv=None) -> int:
    args = _parse_args(argv)
    with open(args.expected, encoding="utf-8") as fh:
        expected = json.load(fh)["tiny" if args.tiny else "full"][args.workload]
    tag = f"{args.workload}{'-tiny' if args.tiny else ''}-s{args.seed}-t{args.trace}"
    out_dir = _fresh_dir(os.path.join(BENCH_DIR, "out", tag))
    env = environment()
    _report(f"conscient-sim benchmark: workload={args.workload} seed={args.seed} "
            f"seconds={args.seconds} trace={args.trace} tiny={args.tiny}")
    _report("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))

    wl = Workload(args.workload, args.tiny, out_dir)
    ledger = Ledger()
    wl.probe(ledger, args.seed)
    lib_dir = _fresh_dir(os.path.join(out_dir, "library"))
    result = {"args": vars(args), "environment": env, "configs": sorted(
        f for f in os.listdir(out_dir) if f.endswith(".cfg"))}

    if args.trace == 0:
        start = time.perf_counter()
        meter = Meter()
        setups = _split({"setup_s": [wl.setup(meter) for _ in range(SETUP_ONLY_REPS)]})
        raw, samples = setups["raw"], setups["scaled"]
        rounds = list(meter.rounds)
        reps = 0
        while not reps or time.perf_counter() - start < args.seconds:
            phases, facts, rep_rounds = wl.rep(lib_dir)
            rounds += rep_rounds
            result["digests"] = wl.check_rep(ledger, expected, facts, lib_dir)
            result["counts"] = facts.get("counts")
            for view, into in (("raw", raw), ("scaled", samples)):
                for name, values in phases[view].items():
                    into.setdefault(name, []).extend(values)
            reps += 1
        command = wl.run_cli(ledger, lib_dir)
        values = {name: statistics.median(samples[name]) for name in END_TO_END_UNITS
                  if name != "peak_rss_mb"}
        values["peak_rss_mb"] = command["peak_rss_mb"]
        units = END_TO_END_UNITS
        result.update(repetitions=reps, samples=samples, raw_samples=raw,
                      calibration_rounds_s=rounds, command=command)
        _report(f"repetitions: {reps}; each figure is the median of its samples: "
                + ", ".join(f"{name} {len(v)}" for name, v in samples.items())
                + "; peak_rss_mb is one fresh CLI process")
        _report(f"calibration: {len(rounds)} kernel rounds between laps, median "
                f"{statistics.median(rounds)!r} s (reference {CAL_REFERENCE_S} s); times "
                f"are rescaled to the reference, raw medians in brackets")
        for name, unit in units.items():
            unscaled = f" [{statistics.median(raw[name])!r}]" if name in raw else ""
            _report(f"{name} = {values[name]!r} {unit}{unscaled}")
        if wl.is_ga:
            evaluations = facts["evaluations"]
            w1 = evaluations / statistics.median(raw["search_w1_s"])
            _report(f"ga_evals_per_s_w1 = {w1!r} 1/s (median of the library searches)")
            w2 = evaluations / command["command_s"]
            _report(f"ga_evals_per_s_w{GA_WORKERS} = {w2!r} 1/s (one CLI command)")
    else:
        untraced, untraced_facts, _ = wl.rep(lib_dir, calibrate=False)
        wl.check_rep(ledger, expected, untraced_facts, lib_dir)
        tracer = Tracer()
        tracer.run_id = 1
        tracer.install()
        try:
            traced, traced_facts, _ = wl.rep(lib_dir, calibrate=False)
        finally:
            tracer.uninstall()
        result["digests"] = wl.check_rep(ledger, expected, traced_facts, lib_dir)
        command = wl.run_cli(ledger, lib_dir)
        untraced = {name: v[0] for name, v in untraced["raw"].items() if len(v) == 1}
        traced = {name: v[0] for name, v in traced["raw"].items() if len(v) == 1}
        values = layer_metrics(
            tracer, {**untraced, **untraced_facts}, traced, command["command_s"], wl.is_ga
        )
        units = per_layer_units()
        spans = os.path.join(out_dir, "spans.csv")
        tracer.write_spans(spans)
        result.update(untraced=untraced, traced=traced, command=command,
                      spans=tracer.span_count())
        _report(f"one traced repetition: {tracer.span_count()} spans in "
                f"{os.path.relpath(spans, ROOT)}; percentiles are over "
                f"world.World.step.calls samples")
        for name, unit in units.items():
            _report(f"{name} = {values[name]!r} {unit}")

    base = ", ".join(f"{kind} {a}" for kind, (a, _) in sorted(ledger.kinds.items()))
    _report(f"fail_share = {ledger.failed}/{ledger.attempted} (base: {base})")
    result.update(checks=ledger.kinds, metrics=values)
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    correct = ledger.failed == 0
    if correct:  # outputs are kept only as evidence of a failed check
        for work in ("probe-library", "probe-cli", "library", "cli"):
            shutil.rmtree(os.path.join(out_dir, work), ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
