"""Release gate: ten end-to-end checks, one test per criterion.

Each test prints a single [PASS]/[FAIL] line so a teed run reads as a
checklist.  Tolerances and pinned values are part of the contract; do
not loosen them to make a failing build green.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from conscient_sim.agents import AgentConfig
from conscient_sim.cli import run_command
from conscient_sim.configio import render_config
from conscient_sim.dreams import walk_step
from conscient_sim.emotions import (
    EmotionParams,
    EmotionState,
    apply_event,
    should_sleep,
    tick_emotions,
)
from conscient_sim.fields import GridCell, KernelConfig, local_bump, sample_field
from conscient_sim.optimizer import GAConfig, evolve
from conscient_sim.seeds import make_rng
from conscient_sim.semantics import load_graph, semantic_distance
from conscient_sim.traceio import (
    read_trace_csv,
    summarize_rows,
    write_dreams_csv,
    write_interactions_csv,
    write_metrics_csv,
    write_percepts_csv,
    write_trace_csv,
)
from conscient_sim.world import WorldConfig, _cached_layout, metrics, run, world_layout
from oracle import EVENT_KINDS, bump_amount

# Reference scenario for the determinism and replay gates.  The pinned
# numbers below were produced by this exact configuration; a change in
# any of them means the simulation semantics moved and every archived
# trace is invalid.
REFERENCE_CONFIG = WorldConfig(
    resolution=16,
    n_agents=2,
    total_ticks=10_000,
    stimulus_probability=0.2,
    master_seed=7,
)
PINNED_INTERACTIONS = 20
PINNED_PHOTOS = 460
PINNED_DREAM_FRAMES = 5000

# Eight agents on an 8 x 8 grid exchange 906 percepts in 200 ticks, so
# receive_percept, local_bump and classify weigh far more here than in the
# two-agent reference run.
CROWDED_CONFIG = WorldConfig(
    resolution=8,
    n_agents=8,
    total_ticks=200,
    stimulus_probability=0.2,
    master_seed=3,
)

# SHA-256 of every CSV `simulate` writes. A speed-up must leave these bytes
# exactly as they are; moving one is a semantics change.
PINNED_OUTPUT_SHA256 = {
    "reference": {
        "trace.csv": "7ca9a7b7451e4d76b83c56ef6e3095e33d6aa8a24ef8d6e0b59007c5632b1ecb",
        "interactions.csv": "9a9f6b973e0f05a249bef1776253e38dac03276d859effb472630bf7e17ddc6e",
        "dreams.csv": "dfe8dec5f1d6a9b125d3fa6e7bb46669271501383005d4f1bd8c538bbc920727",
        "percepts.csv": "5026e48c8519ce3ecdc5c7ebf5a34035b8b842e36233c2b4b5b5a023cc580676",
        "metrics.csv": "5ee0d74e355e05be41ca3c7983ffde7336bb76db8c8c6dd51feffa8649cf7f7e",
    },
    "crowded": {
        "trace.csv": "cc626b73aa934c2e71b2a6289ece46c4d8def633399934ad77232d68e1f10f20",
        "interactions.csv": "25a6b24199a5a56cbc92f8b56ad1294edda1bab063f070cc0b061b8d4997de5d",
        "dreams.csv": "cc0adbc591524c26e9d6ca595bd5dd5ea6f7339a47e12df2014802cfa0224bb0",
        "percepts.csv": "e7d1893b7181962664b9d14660238bfc61fde5e9cc9c51f83090435c71be8307",
        "metrics.csv": "50b13c0cba0c396c9be545d73aa57b22a2b358447ccda8889c48473e96b8bc28",
    },
}


@contextlib.contextmanager
def _criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number:02d}: {name}")
        raise
    print(f"[PASS] criterion {number:02d}: {name}")


def test_criterion_01_field_marginals_and_neighbor_covariance():
    with _criterion(1, "field marginals and neighbor covariance"):
        kernel = KernelConfig(amplitude=1.0, lengthscale=2.0)
        rng = make_rng(31415)
        t0 = time.perf_counter()
        draws = np.stack(
            [sample_field(kernel, 8, rng).values for _ in range(2000)]
        )
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0

        # every cell is a standard normal marginal under unit amplitude
        var = draws.var(axis=0, ddof=1)
        assert np.all(np.abs(var - 1.0) <= 0.1)

        # grid neighbors sit one cell apart, so their covariance must
        # track amplitude * exp(-1 / (2 * lengthscale**2)) = exp(-1/8)
        want = math.exp(-1.0 / 8.0)
        flat = draws.reshape(2000, -1)
        for i in range(8):
            for j in range(8):
                a = i * 8 + j
                for b in ((i, j + 1), (i + 1, j)):
                    if b[0] >= 8 or b[1] >= 8:
                        continue
                    other = b[0] * 8 + b[1]
                    cov = np.cov(flat[:, a], flat[:, other], ddof=1)[0, 1]
                    assert abs(cov - want) <= 0.08


def test_criterion_02_bump_profile_and_roundtrip():
    with _criterion(2, "bump profile exactness and additive round-trip"):
        for peak, width in ((1.0, 1.0), (-0.5, 1.5), (0.8, 2.0), (2.5, 0.7)):
            assert abs(bump_amount(peak, width, 0.0) - peak) <= 1e-9
            half_dist = width * math.sqrt(2.0 * math.log(2.0))
            assert abs(bump_amount(peak, width, half_dist) - peak / 2.0) <= 1e-9

        field = sample_field(KernelConfig(), 16, make_rng(99))
        center = GridCell(5, 11)
        bumped = local_bump(field, center, 0.8, 1.5)
        restored = local_bump(bumped, center, -0.8, 1.5)
        assert np.max(np.abs(restored.values - field.values)) <= 1e-12


def test_criterion_03_walks_stay_within_hop_budget():
    with _criterion(3, "graph walks never exceed their hop budget"):
        rng = make_rng(2718)
        walks = 0
        violations = 0
        while walks < 1000:
            n = int(rng.integers(4, 21))
            names = [f"n{k}" for k in range(n)]
            lines = [f"{names[k]} {names[k + 1]}" for k in range(n - 1)]
            for _ in range(n):
                a, b = rng.integers(n, size=2)
                if a != b:
                    lines.append(f"{names[int(min(a, b))]} {names[int(max(a, b))]}")
            graph = load_graph(
                "\n".join(lines), seed=int(rng.integers(1 << 30)), feature_dim=4
            )
            for _ in range(5):
                start = names[int(rng.integers(n))]
                omega = int(rng.integers(0, 6))
                end = walk_step(graph, start, omega, rng)
                dist = semantic_distance(graph, start, end)
                if dist is None or dist > omega:
                    violations += 1
                walks += 1
        assert walks >= 1000
        assert violations == 0


def test_criterion_04_emotion_bounds_and_directions():
    with _criterion(4, "emotion bounds and event directions over 1e6 steps"):
        params = EmotionParams(delta_lower=0.0, delta_upper=0.3, photo_fatigue_delta=0.05)
        rng = make_rng(424242)
        state = EmotionState()
        payloads = (-1.0, -0.3, 0.0, 0.3, 1.0)
        for _ in range(1_000_000):
            r = rng.random()
            if r < 0.7:
                kind = EVENT_KINDS[int(rng.integers(len(EVENT_KINDS)))]
                payload = payloads[int(rng.integers(len(payloads)))]
                before = replace(state)
                apply_event(state, kind, payload, params, rng)
                if kind == "photo_taken":
                    if payload > params.high_value_cutoff:
                        assert state.happiness >= before.happiness
                    else:
                        assert state.happiness <= before.happiness
                elif kind == "dream_frame":
                    if payload > 0:
                        assert state.happiness >= before.happiness
                    elif payload < 0:
                        assert state.happiness <= before.happiness
                elif kind == "interaction":
                    if payload > 0:
                        assert state.happiness >= before.happiness
                        assert state.friendship >= before.friendship
                    elif payload < 0:
                        assert state.happiness <= before.happiness
                        assert state.friendship <= before.friendship
                elif kind == "content_stimulus":
                    assert state.curiosity <= before.curiosity
                    if payload > 0:
                        assert state.happiness >= before.happiness
                    elif payload < 0:
                        assert state.happiness <= before.happiness
                    else:
                        assert state.happiness == before.happiness
            else:
                tick_emotions(state, params, "awake" if r < 0.85 else "asleep")
            for v in (
                state.happiness,
                state.curiosity,
                state.friendship,
                state.courage,
                state.fatigue,
            ):
                assert 0.0 <= v <= 1.0


def test_criterion_05_sleep_pressure_frequency():
    with _criterion(5, "sleep frequency matches the uniform-draw law"):
        params = EmotionParams(threshold=0.8)
        tired = EmotionState(fatigue=1.0)
        rng = make_rng(808)
        n = 10_000
        hits = sum(should_sleep(tired, 0, 10_000, params, rng) for _ in range(n))
        # P(sleep) = (fatigue - threshold) / fatigue = 0.2 at full fatigue
        assert abs(hits / n - 0.2) <= 0.02


def test_criterion_06_byte_identical_traces_and_pinned_count(tmp_path):
    with _criterion(6, "identical reruns and pinned interaction count"):
        first = run(REFERENCE_CONFIG)
        second = run(REFERENCE_CONFIG)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_trace_csv(str(p1), first.rows)
        write_trace_csv(str(p2), second.rows)
        assert p1.read_bytes() == p2.read_bytes()

        m = metrics(first)
        assert m.interactions == PINNED_INTERACTIONS
        assert m.photos == PINNED_PHOTOS
        assert m.dream_frames == PINNED_DREAM_FRAMES


PINNED_SCENARIOS = {"reference": REFERENCE_CONFIG, "crowded": CROWDED_CONFIG}


def _output_digests(config, out_dir):
    """SHA-256 of each CSV `simulate` writes for one run of `config`."""
    trace = run(config)
    writers = {
        "trace.csv": (write_trace_csv, trace.rows),
        "interactions.csv": (write_interactions_csv, trace.interactions),
        "dreams.csv": (write_dreams_csv, trace.dream_rows),
        "percepts.csv": (write_percepts_csv, trace.percept_rows),
        "metrics.csv": (write_metrics_csv, metrics(trace)),
    }
    digests = {}
    for filename, (write, payload) in writers.items():
        path = out_dir / filename
        write(str(path), payload)
        digests[filename] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("name", ["reference", "crowded"])
def test_output_bytes_are_pinned(name, tmp_path):
    assert _output_digests(PINNED_SCENARIOS[name], tmp_path) == PINNED_OUTPUT_SHA256[name]


@pytest.mark.parametrize("name", ["reference", "crowded"])
def test_output_bytes_same_from_cold_and_warm_layout(name, tmp_path):
    config = PINNED_SCENARIOS[name]
    _cached_layout.cache_clear()
    cold = _output_digests(config, tmp_path)
    layout = world_layout(config)
    assert layout.features  # the cold run filled the shared cell features
    # a world with other agent settings shares the layout and warms it further
    run(replace(config, total_ticks=300, agent=AgentConfig(explore_rate=0.9)))
    warm = _output_digests(config, tmp_path)
    assert world_layout(config) is layout
    assert warm == cold == PINNED_OUTPUT_SHA256[name]


def test_criterion_07_replay_summary_matches_live_metrics(tmp_path):
    with _criterion(7, "replayed trace reproduces live metrics"):
        t0 = time.perf_counter()
        trace = run(REFERENCE_CONFIG)
        path = tmp_path / "trace.csv"
        write_trace_csv(str(path), trace.rows)
        replayed = summarize_rows(read_trace_csv(str(path)))
        live = metrics(trace)
        elapsed = time.perf_counter() - t0
        assert replayed == live
        assert elapsed < 30.0


def test_criterion_08_ga_improves_and_parallel_matches():
    with _criterion(8, "GA best never regresses and parallel equals sequential"):
        ga = GAConfig()
        base = WorldConfig()
        t0 = time.perf_counter()
        best_seq, hist_seq = evolve(ga, base, seed=5, workers=1)
        best_par, hist_par = evolve(ga, base, seed=5, workers=2)
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0

        assert len(hist_seq) == ga.generations
        bests = [g.best_fitness for g in hist_seq]
        for earlier, later in zip(bests, bests[1:]):
            assert later >= earlier
        assert best_seq.best_fitness == max(bests)

        assert best_seq.generation == best_par.generation
        assert best_seq.best_fitness == best_par.best_fitness
        assert np.array_equal(best_seq.best_genome, best_par.best_genome)
        assert [g.best_fitness for g in hist_seq] == [g.best_fitness for g in hist_par]
        assert [g.mean_fitness for g in hist_seq] == [g.mean_fitness for g in hist_par]
        for a, b in zip(hist_seq, hist_par):
            assert np.array_equal(a.best_genome, b.best_genome)


def test_criterion_09_movement_budget_respected_in_ga():
    with _criterion(9, "every GA evaluation respects the movement budget"):
        ga = GAConfig(
            population_size=6,
            generations=3,
            eval_seeds=(11, 12),
            movement_budget=60,
        )
        base = WorldConfig(resolution=8, total_ticks=120, master_seed=1)
        caps = []
        evolve(
            ga,
            base,
            seed=4,
            trace_hook=lambda genome, seed, trace: caps.append(
                max(metrics(trace).moves_per_agent)
            ),
        )
        assert len(caps) == 6 * 3 * 2
        assert all(c <= 60 for c in caps)


def test_criterion_10_cli_exit_codes_and_manifest_replay(tmp_path, capsys):
    with _criterion(10, "CLI exit codes, manifest replay, metrics agreement"):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "world.resolution = 8\n"
            "world.n_agents = 2\n"
            "world.total_ticks = 150\n"
            "world.stimulus_probability = 0.2\n",
            encoding="utf-8",
        )
        out1 = tmp_path / "a"

        assert run_command(["simulate", "--config", str(cfg)]) == 2
        capsys.readouterr()
        assert run_command(
            ["simulate", "--config", str(tmp_path / "no.cfg"), "--seed", "1", "--out", str(out1)]
        ) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert (
            run_command(["simulate", "--config", str(cfg), "--seed", "9", "--out", str(out1)])
            == 0
        )

        # the manifest echo is a complete recipe: rebuilding the config
        # from it must reproduce the trace byte for byte
        manifest = json.loads((out1 / "manifest.json").read_text(encoding="utf-8"))
        rebuilt = tmp_path / "rebuilt.cfg"
        rebuilt.write_text(render_config(manifest["effective_config"]), encoding="utf-8")
        out2 = tmp_path / "b"
        assert (
            run_command(
                ["simulate", "--config", str(rebuilt), "--seed", "9", "--out", str(out2)]
            )
            == 0
        )
        capsys.readouterr()
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()

        # the written summary and a fresh pass over the trace must agree
        replayed = summarize_rows(read_trace_csv(str(out1 / "trace.csv")))
        write_metrics_csv(str(tmp_path / "replayed.csv"), replayed)
        assert (tmp_path / "replayed.csv").read_bytes() == (out1 / "metrics.csv").read_bytes()
