"""End-to-end command behavior: exit codes, files, reproducibility."""

from __future__ import annotations

import csv
import errno
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import conscient_sim
from conscient_sim.cli import run_command
from conscient_sim.configio import render_config
from conscient_sim.world import MAX_FEATURE_DIM

BASE_CONFIG = """\
world.resolution = 8
world.n_agents = 2
world.total_ticks = 100
world.stimulus_probability = 0.2
agent.photo_period = 1
agent.style_every = 2
dream.length = 6
"""


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(BASE_CONFIG, encoding="utf-8")
    return str(p)


def _child_env() -> dict[str, str]:
    """This environment with this checkout's sources first on a child's PYTHONPATH."""
    src = str(Path(conscient_sim.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_exit_code_2_on_bad_usage(capsys):
    assert run_command(["confabulate"]) == 2
    assert run_command(["simulate", "--config", "x", "--seed", "1"]) == 2  # no --out
    assert run_command(["simulate", "--config", "x", "--seed", "1", "--out", "y", "--frobnicate"]) == 2
    assert run_command([]) == 2
    capsys.readouterr()


def test_exit_code_0_on_help(capsys):
    assert run_command(["--help"]) == 0
    out = capsys.readouterr().out
    for name in ("simulate", "dream", "optimize", "metrics"):
        assert name in out


def test_exit_code_1_on_missing_config(tmp_path, capsys):
    rc = run_command(
        ["simulate", "--config", str(tmp_path / "no.cfg"), "--seed", "1", "--out", str(tmp_path)]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_exit_code_1_names_bad_key_and_line(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("world.resolution = 8\nworld.gravity = 9.8\n", encoding="utf-8")
    rc = run_command(["simulate", "--config", str(bad), "--seed", "1", "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "world.gravity" in err and "line 2" in err


def _assert_error_line(argv, prefix, capsys):
    capsys.readouterr()
    assert run_command(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {prefix}")


def test_exit_code_1_on_non_utf8_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"world.total_ticks = 5\n# caf\xff\n")
    argv = ["simulate", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "o")]
    _assert_error_line(argv, f"cannot read config file {cfg}: ", capsys)


def test_exit_code_1_on_non_utf8_graph_file(tmp_path, capsys):
    graph = tmp_path / "graph.txt"
    graph.write_bytes(b"sun moon\nmoon st\xffar\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("world.total_ticks = 5\nworld.content_graph = graph.txt\n", encoding="utf-8")
    argv = ["simulate", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "o")]
    _assert_error_line(argv, f"key world.content_graph: cannot read graph file {graph}: ", capsys)


def test_exit_code_1_on_a_graph_path_with_a_nul_byte(tmp_path, capsys):
    # `open` rejects the path with ValueError, not OSError
    cfg = tmp_path / "run.cfg"
    cfg.write_text("world.total_ticks = 5\nworld.content_graph = a\0b\n", encoding="utf-8")
    argv = ["simulate", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "o")]
    graph = tmp_path / "a\0b"
    _assert_error_line(argv, f"key world.content_graph: cannot read graph file {graph}: ", capsys)


def test_exit_code_1_on_non_utf8_trace(tmp_path, cfg_path, capsys):
    out = tmp_path / "sim"
    assert run_command(["simulate", "--config", cfg_path, "--seed", "7", "--out", str(out)]) == 0
    trace = out / "trace.csv"
    trace.write_bytes(trace.read_bytes().replace(b"photo:", b"\xff\xfe:", 1))
    _assert_error_line(["metrics", "--trace", str(trace)], f"cannot read trace file {trace}: ", capsys)


def test_exit_code_1_on_negative_eval_seed(tmp_path, capsys):
    # the config is rejected when parsed, before the search builds a world
    bad = tmp_path / "bad.cfg"
    bad.write_text("world.total_ticks = 5\nga.eval_seeds = -1\n", encoding="utf-8")
    out = tmp_path / "o"
    rc = run_command(["optimize", "--config", str(bad), "--seed", "1", "--out", str(out)])
    assert rc == 1
    assert "ga.eval_seeds" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-3", str(2**64)])
def test_exit_code_1_on_out_of_range_search_seed(tmp_path, capsys, seed):
    cfg = tmp_path / "opt.cfg"
    cfg.write_text("world.total_ticks = 5\nga.population_size = 2\nga.generations = 1\n")
    out = tmp_path / "o"
    rc = run_command(["optimize", "--config", str(cfg), "--seed", seed, "--out", str(out)])
    assert rc == 1
    assert seed in capsys.readouterr().err
    assert not out.exists()


BROKEN_KERNEL = "kernel.amplitude = 1e16\nkernel.lengthscale = 1e6"


@pytest.mark.parametrize(
    "command,line,threads,key",
    [
        ("simulate", "dream.step_lower = -1", "1", "dream.step_lower"),
        # a walk step whose span no 32-bit draw holds
        ("simulate", "dream.step_upper = 100000000000", "1", "dream.step_upper"),
        ("simulate", "emotion.delta_lower = 0.5", "1", "emotion.delta_lower"),
        ("simulate", "emotion.valence_low = 0.9", "1", "emotion.valence_low"),
        ("optimize", "ga.population_size = 2", "-1", "CONSCIENT_SIM_THREADS"),
        # each of these drives a field to inf or nan
        (
            "simulate",
            "world.reward_peak = 1e308\nworld.reward_count = 5",
            "1",
            "world.reward_peak",
        ),
        ("simulate", "kernel.lengthscale = 1e-300", "1", "kernel.lengthscale"),
        ("simulate", "kernel.lengthscale = 1e200", "1", "kernel.lengthscale"),
        # l * l is subnormal, but l**2, which the kernel divides by, is 0
        ("simulate", "kernel.lengthscale = 1.3e-162", "1", "kernel.lengthscale"),
        # each in bounds, but the covariance's diagonal, their sum, overflows
        ("simulate", "kernel.amplitude = 1e308\nkernel.jitter = 1e308", "1", "kernel.jitter"),
        ("simulate", "agent.visit_width = 1e-200", "1", "agent.visit_width"),
        ("simulate", "world.reward_width = 1e-200", "1", "world.reward_width"),
        (
            "simulate",
            "agent.t_awake = 1\nagent.t_asleep = 1\nagent.noise_sigma = 1e308",
            "1",
            "agent.noise_sigma",
        ),
        ("simulate", f"world.feature_dim = {MAX_FEATURE_DIM + 1}", "1", "world.feature_dim"),
        # a covariance that no jitter up to the ceiling repairs
        ("simulate", BROKEN_KERNEL, "1", "kernel.amplitude"),
        ("optimize", BROKEN_KERNEL, "2", "kernel.amplitude"),
    ],
    ids=[
        "step-lower",
        "step-upper-huge",
        "delta-lower",
        "valence-low",
        "threads",
        "reward-peak",
        "lengthscale-tiny",
        "lengthscale-huge",
        "lengthscale-subnormal",
        "kernel-diagonal-overflow",
        "visit-width-tiny",
        "reward-width-tiny",
        "noise-sigma",
        "feature-dim-huge",
        "kernel-simulate",
        "kernel-optimize-pool",
    ],
)
def test_exit_code_1_names_the_rejected_key(
    tmp_path, capsys, monkeypatch, command, line, threads, key
):
    monkeypatch.setenv("CONSCIENT_SIM_THREADS", threads)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"world.total_ticks = 5\n{line}\n", encoding="utf-8")
    rc = run_command([command, "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err


@pytest.mark.parametrize(
    "command,threads,key",
    [
        ("simulate", "1", "world.content_graph"),
        ("optimize", "1", "world.content_graph"),
        ("optimize", "2", "world.content_graph"),
        ("simulate", "1", "world.style_graph"),
    ],
    ids=["simulate-1", "optimize-1", "optimize-2", "simulate-1-style"],
)
def test_malformed_graph_names_its_key_and_line(
    tmp_path, capfd, monkeypatch, command, threads, key
):
    monkeypatch.setenv("CONSCIENT_SIM_THREADS", threads)
    # a malformed line, and an edge list that holds no edge: both fail at load
    for edges, prefix in (("a b\nc\n", "line 2: "), ("# no edges here\n\n", "no edges")):
        (tmp_path / "bad.edges").write_text(edges, encoding="utf-8")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "world.total_ticks = 5\nga.population_size = 2\nga.generations = 1\n"
            f"{key} = bad.edges\n",
            encoding="utf-8",
        )
        out = tmp_path / "o"
        rc = run_command([command, "--config", str(cfg), "--seed", "1", "--out", str(out)])
        assert rc == 1
        # capfd, not capsys: it also sees what a pool worker writes to stderr
        err = capfd.readouterr().err
        assert err.splitlines()[0].startswith(f"error: {key}: {prefix}")
        assert "Traceback" not in err
        assert not out.exists()


def test_exit_code_1_when_the_run_does_not_fit_in_memory(tmp_path):
    # 16,384 fields of 128 x 128 need 2 GiB alone; the address-space limit is
    # set in the child, so the test process keeps its own
    cfg = tmp_path / "big.cfg"
    cfg.write_text("world.resolution = 128\nworld.n_agents = 16384\n", encoding="utf-8")
    out = tmp_path / "out"
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from conscient_sim.cli import run_command\n"
        "sys.exit(run_command(sys.argv[1:]))\n"
    )
    argv = ["simulate", "--config", str(cfg), "--seed", "1", "--out", str(out)]
    proc = subprocess.run(
        [sys.executable, "-c", child, *argv],
        capture_output=True,
        text=True,
        timeout=300,
        env=_child_env(),
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: out of memory"), proc.stderr
    for key in ("world.resolution", "world.n_agents", "world.total_ticks", "world.feature_dim"):
        assert key in lines[0]
    assert not out.exists()


def _optimize_child(*first_evaluation: str) -> str:
    """A `-c` script that runs `cli.main()` with `fitness` patched before the
    pool forks. The search's first evaluation, in whichever worker runs it,
    runs the statements `first_evaluation` before it scores; every other
    evaluation scores, then creates `<--out>.scored`."""
    return "".join(
        [
            "import os, signal, sys, time\n",
            "from conscient_sim import cli, optimizer\n",
            "evaluate = optimizer.fitness\n",
            "def fitness(*args, **kwargs):\n",
            "    try:\n",
            "        os.close(os.open(sys.argv[-1] + '.first', os.O_CREAT | os.O_EXCL))\n",
            "    except FileExistsError:\n",
            "        report = evaluate(*args, **kwargs)\n",
            "        os.close(os.open(sys.argv[-1] + '.scored', os.O_CREAT))\n",
            "        return report\n",
            *(f"    {statement}\n" for statement in first_evaluation),
            "    return evaluate(*args, **kwargs)\n",
            "optimizer.fitness = fitness\n",
            "cli.main()\n",
        ]
    )


def _run_optimize_child(tmp_path, *first_evaluation: str, **popen) -> subprocess.CompletedProcess:
    """`optimize` on 2 workers through `_optimize_child`, writing to `tmp_path / "out"`."""
    cfg = tmp_path / "ga.cfg"
    cfg.write_text("world.total_ticks = 10\nga.population_size = 2\n", encoding="utf-8")
    argv = ["optimize", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "out")]
    proc = subprocess.run(
        [sys.executable, "-c", _optimize_child(*first_evaluation), *argv],
        capture_output=True,
        text=True,
        timeout=300,
        env={**_child_env(), "CONSCIENT_SIM_THREADS": "2"},
        **popen,
    )
    assert (tmp_path / "out.first").exists()
    assert not (tmp_path / "out" / "ga_history.csv").exists()
    assert not (tmp_path / "out" / "manifest.json").exists()
    return proc


def test_a_dead_search_worker_ends_optimize_with_one_line(tmp_path):
    # one worker kills itself, as the OOM killer would, once the other has
    # scored and waits for work; the pool then sends that survivor SIGTERM,
    # which must end it without a word
    proc = _run_optimize_child(
        tmp_path,
        "deadline = time.monotonic() + 60",
        "while not os.path.exists(sys.argv[-1] + '.scored') and time.monotonic() < deadline:",
        "    time.sleep(0.01)",
        "os.kill(os.getpid(), signal.SIGKILL)",
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "error: a search worker process died, for example killed or out of memory"
    ], proc.stderr


def test_ctrl_c_ends_optimize_with_one_line(tmp_path):
    # the child leads its own process group, as a shell's foreground job does,
    # and a worker sends SIGINT to that whole group, as Ctrl-C would
    proc = _run_optimize_child(tmp_path, "os.killpg(0, signal.SIGINT)", start_new_session=True)
    assert proc.returncode == 130, proc.stderr
    assert proc.stderr.splitlines() == ["error: interrupted"], proc.stderr


def test_sigterm_ends_simulate_with_one_line_and_no_temp_file(tmp_path):
    # the child's trace writer sends the child SIGTERM after 50 rows, while
    # its temp file is open
    cfg = tmp_path / "run.cfg"
    cfg.write_text("world.total_ticks = 100\n", encoding="utf-8")
    out = tmp_path / "out"
    child = (
        "import os, signal\n"
        "from conscient_sim import cli\n"
        "write = cli.write_trace_csv\n"
        "def rows_until_sigterm(rows):\n"
        "    for k, row in enumerate(rows):\n"
        "        if k == 50:\n"
        "            os.kill(os.getpid(), signal.SIGTERM)\n"
        "        yield row\n"
        "cli.write_trace_csv = lambda path, rows: write(path, rows_until_sigterm(rows))\n"
        "cli.main()\n"
    )
    argv = ["simulate", "--config", str(cfg), "--seed", "1", "--out", str(out)]
    proc = subprocess.run(
        [sys.executable, "-c", child, *argv],
        capture_output=True,
        text=True,
        timeout=300,
        env=_child_env(),
    )
    assert proc.returncode == 143, proc.stderr
    assert proc.stderr.splitlines() == ["error: terminated"], proc.stderr
    assert os.listdir(out) == []


def test_a_temp_file_that_cannot_be_created_names_the_output_file(tmp_path, capsys, monkeypatch):
    # permission bits do not bind root, so the denial is patched in: creating
    # each temp file fails, as in a directory the user cannot write
    real_open = os.open

    def denied(path, *args, **kwargs):
        if str(path).endswith(".part"):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", denied)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("world.total_ticks = 5\n", encoding="utf-8")
    out = tmp_path / "out"
    rc = run_command(["simulate", "--config", str(cfg), "--seed", "1", "--out", str(out)])
    assert rc == 1
    trace = out / "trace.csv"
    assert capsys.readouterr().err.splitlines() == [f"error: [Errno 13] Permission denied: '{trace}'"]
    assert os.listdir(out) == []  # no temp file is left


def test_a_rename_that_fails_names_the_output_file_alone(tmp_path, capsys):
    # the rename into place fails when the output path is a directory; its
    # error would name the random temp file first, then the output
    cfg = tmp_path / "run.cfg"
    cfg.write_text("world.total_ticks = 5\n", encoding="utf-8")
    out = tmp_path / "out"
    trace = out / "trace.csv"
    trace.mkdir(parents=True)
    rc = run_command(["simulate", "--config", str(cfg), "--seed", "1", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{trace}'"]
    assert ".tmp-" not in err[0]
    assert os.listdir(out) == ["trace.csv"] and trace.is_dir()  # no .part is left


def test_simulate_writes_all_outputs(tmp_path, cfg_path, capsys):
    out = tmp_path / "out"
    rc = run_command(["simulate", "--config", cfg_path, "--seed", "7", "--out", str(out)])
    assert rc == 0
    for name in (
        "trace.csv",
        "interactions.csv",
        "dreams.csv",
        "percepts.csv",
        "metrics.csv",
        "manifest.json",
    ):
        assert (out / name).is_file(), name
    stdout = capsys.readouterr().out
    assert "interactions" in stdout and "photos" in stdout
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "simulate"
    assert manifest["master_seed"] == 7
    assert manifest["effective_config"]["world.master_seed"] == "7"
    assert manifest["effective_config"]["world.resolution"] == "8"
    assert manifest["arguments"] == {"config": cfg_path, "seed": 7, "out": str(out)}
    assert manifest["outputs"] == [
        "trace.csv",
        "interactions.csv",
        "dreams.csv",
        "percepts.csv",
        "metrics.csv",
    ]


def test_a_failed_write_leaves_no_manifest_beside_another_runs_files(tmp_path, capsys):
    # seed 2's percepts.csv is over the file-size limit, set in its child
    # process only; the files before it in write order are under it
    cfg = tmp_path / "run.cfg"
    cfg.write_text("world.total_ticks = 300\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = ["simulate", "--config", str(cfg), "--out", str(out), "--seed"]
    assert run_command([*argv, "1"]) == 0
    capsys.readouterr()

    def limit_file_size():
        resource.setrlimit(resource.RLIMIT_FSIZE, (70_000, 70_000))

    proc = subprocess.run(
        [sys.executable, "-m", "conscient_sim.cli", *argv, "2"],
        capture_output=True,
        text=True,
        timeout=300,
        preexec_fn=limit_file_size,
        env=_child_env(),
    )
    assert proc.returncode == 1
    # the write's error names the file it was writing
    assert proc.stderr == f"error: [Errno 27] File too large: '{out / 'percepts.csv'}'\n"
    # seed 2's trace.csv now lies beside seed 1's percepts.csv and metrics.csv
    manifest = out / "manifest.json"
    left = json.loads(manifest.read_text(encoding="utf-8")) if manifest.exists() else None
    assert left is None, f"a manifest names seed {left['master_seed']}"
    # without the limit the same run lands whole, under a manifest that names it
    assert run_command([*argv, "2"]) == 0
    capsys.readouterr()
    assert json.loads(manifest.read_text(encoding="utf-8"))["master_seed"] == 2


def test_simulate_seed_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "seeded.cfg"
    cfg.write_text(BASE_CONFIG + "world.master_seed = 5\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run_command(["simulate", "--config", str(cfg), "--seed", "99", "--out", str(out)]) == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["master_seed"] == 99


def test_simulate_reruns_are_byte_identical(tmp_path, cfg_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_command(["simulate", "--config", cfg_path, "--seed", "7", "--out", str(out1)]) == 0
    assert run_command(["simulate", "--config", cfg_path, "--seed", "7", "--out", str(out2)]) == 0
    capsys.readouterr()
    for name in ("trace.csv", "interactions.csv", "dreams.csv", "percepts.csv", "metrics.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_manifest_reproduces_the_run(tmp_path, cfg_path, capsys):
    out1 = tmp_path / "a"
    assert run_command(["simulate", "--config", cfg_path, "--seed", "7", "--out", str(out1)]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text(encoding="utf-8"))
    # a config rebuilt from the manifest echo drives an identical run
    rebuilt = tmp_path / "rebuilt.cfg"
    rebuilt.write_text(render_config(manifest["effective_config"]), encoding="utf-8")
    out2 = tmp_path / "b"
    assert run_command(["simulate", "--config", str(rebuilt), "--seed", "7", "--out", str(out2)]) == 0
    capsys.readouterr()
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()


def test_metrics_subcommand_matches_written_summary(tmp_path, cfg_path, capsys):
    out = tmp_path / "out"
    assert run_command(["simulate", "--config", cfg_path, "--seed", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    assert run_command(["metrics", "--trace", str(out / "trace.csv")]) == 0
    printed = capsys.readouterr().out.replace(" = ", ",")
    # the summarizer sees only the trace; the file came from the live run
    assert (out / "metrics.csv").read_text(encoding="utf-8") == "metric,value\n" + printed
    assert run_command(["metrics", "--trace", str(out / "missing.csv")]) == 1
    assert capsys.readouterr().err.startswith("error:")


_TRACE_ROW = "{},{},1,1,awake,0.5,0.5,0.5,0.5,0.0,0.1,{}\n"


@pytest.mark.parametrize(
    "rows, line, message",
    [
        # a partner equal to the row's own id
        (
            [(0, 0, ""), (0, 1, ""), (1, 0, "int:1:a1-p1"), (1, 1, "int:1:a1-p1")],
            5,
            "interaction token 'int:1:a1-p1' names its own agent",
        ),
        # a partner past the last agent in a later tick
        (
            [(0, 0, ""), (0, 1, ""), (1, 0, "int:7:a9-p1"), (1, 1, "int:0:a0-p1")],
            4,
            "interaction token 'int:7:a9-p1' names agent 7, but each tick holds agents 0..1",
        ),
        # a partner past the last agent in the first tick, whose count the next tick fixes
        (
            [(0, 0, "int:2:a2-p1"), (0, 1, "int:0:a0-p1"), (1, 0, ""), (1, 1, "")],
            2,
            "interaction token 'int:2:a2-p1' names agent 2, but each tick holds agents 0..1",
        ),
        # the same in a one-tick trace, whose count the end of the file fixes
        (
            [(0, 0, ""), (0, 1, "photo:a1-p1;int:3:a3-p1")],
            3,
            "interaction token 'int:3:a3-p1' names agent 3, but each tick holds agents 0..1",
        ),
        (
            [(0, 0, ""), (0, 1, ""), (1, 0, ""), (1, 1, "int:-1:a0-p1")],
            5,
            "interaction token 'int:-1:a0-p1' names agent -1, but each tick holds agents 0..1",
        ),
        # an interaction held by one partner's row only, the lower id's or the higher's
        (
            [(0, 0, ""), (0, 1, ""), (1, 0, "int:1:a1-p1"), (1, 1, "")],
            4,
            "interaction token 'int:1:a1-p1' has no partner token on agent 1's row",
        ),
        (
            [(0, 0, ""), (0, 1, ""), (1, 0, ""), (1, 1, "int:0:a0-p1")],
            5,
            "interaction token 'int:0:a0-p1' has no partner token on agent 0's row",
        ),
        # one row naming the same partner twice in a tick
        (
            [(0, 0, ""), (0, 1, ""), (1, 0, "int:1:a1-p1;int:1:a1-p2"), (1, 1, "int:0:a0-p1")],
            4,
            "interaction token 'int:1:a1-p2' names agent 1 again",
        ),
        # a token of no kind the writer emits
        (
            [(0, 0, ""), (0, 1, ""), (1, 0, "phot:a0-p1;bogus"), (1, 1, "")],
            4,
            "unknown event token 'phot:a0-p1'",
        ),
    ],
    ids=[
        "own-id",
        "later-tick",
        "first-tick",
        "one-tick",
        "negative",
        "one-sided-lower",
        "one-sided-higher",
        "duplicate",
        "unknown-token",
    ],
)
def test_metrics_rejects_interactions_with_absent_agents(tmp_path, capsys, rows, line, message):
    # an interaction is counted from the tokens on both partners' rows: a
    # partner the trace does not hold, a token without its mirror, a repeated
    # one or a token of an unknown kind would be miscounted without a word
    trace = tmp_path / "trace.csv"
    header = "tick,agent_id,i,j,mode,e_h,e_c,e_f,e_k,fatigue,field_value,event\n"
    trace.write_text(header + "".join(_TRACE_ROW.format(*r) for r in rows), encoding="utf-8")
    capsys.readouterr()
    assert run_command(["metrics", "--trace", str(trace)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: trace file {trace}, line {line}: {message}\n"


def test_dream_subcommand_replays_from_percept_log(tmp_path, cfg_path, capsys):
    sim_out = tmp_path / "sim"
    assert run_command(["simulate", "--config", cfg_path, "--seed", "7", "--out", str(sim_out)]) == 0
    d1, d2 = tmp_path / "d1", tmp_path / "d2"
    rc = run_command(
        ["dream", "--config", cfg_path, "--percept-log", str(sim_out / "percepts.csv"), "--out", str(d1)]
    )
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "6 frames" in stdout
    lines = (d1 / "dreams.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 6
    # bare frames: agent 0, tick = frame index from 1, no percept, no valence,
    # and each origin is that of a logged content percept of the frame's category
    rows = list(csv.DictReader(lines))
    assert [r["tick"] for r in rows] == [r["frame_index"] for r in rows] == list("123456")
    assert all(r["agent_id"] == "0" and r["percept_id"] == "" and r["valence"] == "0" for r in rows)
    with open(sim_out / "percepts.csv", encoding="utf-8", newline="") as fh:
        content = {
            (p["category"], p["i"], p["j"]) for p in csv.DictReader(fh) if p["kind"] != "style"
        }
    assert all((r["content_category"], r["origin_i"], r["origin_j"]) in content for r in rows)
    manifest = json.loads((d1 / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "dream"
    assert manifest["arguments"] == {
        "config": cfg_path,
        "percept_log": str(sim_out / "percepts.csv"),
        "out": str(d1),
    }
    assert manifest["outputs"] == ["dreams.csv"]
    # same log, same config: identical dream
    assert run_command(
        ["dream", "--config", cfg_path, "--percept-log", str(sim_out / "percepts.csv"), "--out", str(d2)]
    ) == 0
    capsys.readouterr()
    assert (d1 / "dreams.csv").read_bytes() == (d2 / "dreams.csv").read_bytes()
    # pins the graph seeding too: a wrong graph label walks other categories
    digest = hashlib.sha256((d1 / "dreams.csv").read_bytes()).hexdigest()
    assert digest == "580a8c8be2debd06cce70b9aaea3bb42954952742038980ec116d7a74f54d156"


def test_dream_subcommand_rejects_percepts_of_another_width(tmp_path, cfg_path, capsys):
    sim_out = tmp_path / "sim"
    assert run_command(["simulate", "--config", cfg_path, "--seed", "7", "--out", str(sim_out)]) == 0
    capsys.readouterr()
    log = sim_out / "percepts.csv"
    narrow_cfg = tmp_path / "narrow.cfg"
    narrow_cfg.write_text(BASE_CONFIG + "world.feature_dim = 4\n", encoding="utf-8")
    # a 16-wide log under a 4-wide config
    out = tmp_path / "d4"
    assert run_command(
        ["dream", "--config", str(narrow_cfg), "--percept-log", str(log), "--out", str(out)]
    ) == 1
    err = capsys.readouterr().err
    first_id = log.read_text(encoding="utf-8").splitlines()[1].split(",")[1]
    assert err.startswith(f"error: percept log {log}, line 2: percept {first_id}:")
    assert "16 features" in err and "world.feature_dim is 4" in err
    assert not (out / "dreams.csv").exists()
    # one 2-wide row in an otherwise matching log
    lines = log.read_text(encoding="utf-8").splitlines()
    cells = lines[-1].split(",")
    cells[-1] = "0.5;0.5"
    mixed = tmp_path / "mixed.csv"
    mixed.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n", encoding="utf-8")
    out = tmp_path / "d2"
    assert run_command(
        ["dream", "--config", cfg_path, "--percept-log", str(mixed), "--out", str(out)]
    ) == 1
    err = capsys.readouterr().err
    assert f"percept log {mixed}, line {len(lines)}: percept {cells[1]}: 2 features" in err
    assert "world.feature_dim is 16" in err
    assert not (out / "dreams.csv").exists()
    # a one-row log whose only row is 1 wide
    one = tmp_path / "one.csv"
    one.write_text(lines[0] + "\n0,p1,observed,dog,1,2,3,0.5\n", encoding="utf-8")
    out = tmp_path / "d1"
    assert run_command(
        ["dream", "--config", cfg_path, "--percept-log", str(one), "--out", str(out)]
    ) == 1
    assert capsys.readouterr().err.splitlines()[0] == (
        f"error: percept log {one}, line 2: percept p1: 1 features, but world.feature_dim is 16"
    )
    assert not out.exists()


def test_an_error_quoting_a_line_break_stays_on_one_line(tmp_path, cfg_path, capsys):
    # a quoted percept id may hold line breaks, and the message quotes the id
    log = tmp_path / "percepts.csv"
    log.write_text(
        'agent_id,id,kind,category,i,j,tick,features\n0,"p\r\n1",bogus,dog,1,2,3,0.5\n',
        encoding="utf-8",
        newline="",
    )
    argv = ["dream", "--config", cfg_path, "--percept-log", str(log), "--out", str(tmp_path / "d")]
    capsys.readouterr()
    assert run_command(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: percept log {log}, line 2: percept p\\r\\n1: unknown percept kind 'bogus'\n"


def test_dream_subcommand_reports_a_field_over_the_csv_limit(tmp_path, cfg_path, capsys):
    log = tmp_path / "percepts.csv"
    features = ";".join(["0.5"] * 50_000)  # 200,000 characters
    log.write_text(
        "agent_id,id,kind,category,i,j,tick,features\n"
        f"0,p1,observed,dog,1,2,3,{features}\n",
        encoding="utf-8",
    )
    out = tmp_path / "d"
    assert run_command(
        ["dream", "--config", cfg_path, "--percept-log", str(log), "--out", str(out)]
    ) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"percept log {log}, line 2:" in err
    assert not (out / "dreams.csv").exists()


def test_dream_subcommand_needs_populated_log(tmp_path, cfg_path, capsys):
    # a log without a usable content or style percept is rejected before any
    # output is written; so is a percept the config's world cannot hold
    header = "agent_id,id,kind,category,i,j,tick,features\n"
    features = ";".join(["0.5"] * 16)
    logs = {
        "no-content": (header, ": no content percepts to dream with"),
        "no-style": (
            header + f"0,p1,observed,dog,1,2,3,{features}\n",
            ": no style percepts to dream with",
        ),
        "zebra": (
            header + f"0,p1,observed,dog,1,2,3,{features}\n0,p2,observed,zebra,1,2,3,{features}\n",
            ", line 3: percept p2: category 'zebra' not in world.content_graph",
        ),
        "off-grid": (
            header + f"0,p1,observed,dog,99,-5,3,{features}\n",
            ", line 2: percept p1: origin (99, -5) is off the grid, but world.resolution is 8",
        ),
    }
    for name, (text, message) in logs.items():
        log = tmp_path / f"{name}.csv"
        log.write_text(text, encoding="utf-8")
        out = tmp_path / f"d-{name}"
        rc = run_command(
            ["dream", "--config", cfg_path, "--percept-log", str(log), "--out", str(out)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.splitlines()[0] == f"error: percept log {log}{message}"
        assert not out.exists()


def test_optimize_subcommand_writes_history(tmp_path, capsys):
    cfg = tmp_path / "opt.cfg"
    cfg.write_text(
        "world.resolution = 6\n"
        "world.total_ticks = 40\n"
        "ga.population_size = 3\n"
        "ga.generations = 2\n"
        "ga.eval_seeds = 11\n"
        "ga.movement_budget = 50\n",
        encoding="utf-8",
    )
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run_command(["optimize", "--config", str(cfg), "--seed", "3", "--out", str(out1)]) == 0
    stdout = capsys.readouterr().out
    assert "best fitness" in stdout
    lines = (out1 / "ga_history.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "generation,best_fitness,mean_fitness,best_genome"
    assert len(lines) == 1 + 2
    manifest = json.loads((out1 / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "optimize"
    assert manifest["arguments"] == {"config": str(cfg), "seed": 3, "out": str(out1)}
    assert manifest["outputs"] == ["ga_history.csv"]
    assert manifest["master_seed"] == 3
    results = manifest["results"]
    assert len(results["best_genome"]) == 13
    assert results["best_fitness"] >= 0.0
    assert run_command(["optimize", "--config", str(cfg), "--seed", "3", "--out", str(out2)]) == 0
    capsys.readouterr()
    assert (out1 / "ga_history.csv").read_bytes() == (out2 / "ga_history.csv").read_bytes()


def test_optimize_manifest_names_the_first_generation_that_reached_the_best(tmp_path, capsys):
    cfg = tmp_path / "opt.cfg"
    cfg.write_text(
        "world.resolution = 6\n"
        "world.total_ticks = 40\n"
        "ga.population_size = 3\n"
        "ga.generations = 4\n"
        "ga.eval_seeds = 11\n"
        "ga.movement_budget = 50\n",
        encoding="utf-8",
    )
    out = tmp_path / "o"
    assert run_command(["optimize", "--config", str(cfg), "--seed", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    with (out / "ga_history.csv").open(encoding="utf-8", newline="") as fh:
        history = list(csv.DictReader(fh))
    best = max(float(row["best_fitness"]) for row in history)
    first = next(row for row in history if float(row["best_fitness"]) == best)
    # the search's premise: the best arrives after generation 0, and an elite
    # carries it into a later row that ties it
    assert int(first["generation"]) > 0
    assert float(history[-1]["best_fitness"]) == best and history[-1] is not first
    results = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["results"]
    assert results["best_generation"] == int(first["generation"])
    assert results["best_fitness"] == best
    assert results["best_genome"] == [float(g) for g in first["best_genome"].split(";")]


def _declared_console_script() -> str:
    """The ``conscient-sim`` entry point as ``pyproject.toml`` declares it."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["conscient-sim"]


def _write_launcher(path: Path, spec: str) -> None:
    """Write the launcher an installer writes for a ``module:attr`` console script."""
    module, _, attr = spec.partition(":")
    assert module and attr.isidentifier(), f"malformed entry point {spec!r}"
    if " " in sys.executable or len(sys.executable) > 127:
        # too long or spaced for a shebang line: installers use this sh trampoline
        shebang = f"#!/bin/sh\n'''exec' \"{sys.executable}\" \"$0\" \"$@\"\n' '''"
    else:
        shebang = f"#!{sys.executable}"
    path.write_text(
        f"{shebang}\nimport sys\nfrom {module} import {attr}\n"
        f'if __name__ == "__main__":\n    sys.exit({attr}())\n',
        encoding="utf-8",
    )
    path.chmod(0o755)


def _check_console_script(exe: str, env: dict[str, str] | None = None) -> None:
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "simulate" in proc.stdout
    bad = subprocess.run([exe, "confabulate"], capture_output=True, text=True, env=env)
    assert bad.returncode == 2, bad.stderr


def test_console_script_is_installed(tmp_path):
    # the script an install puts on PATH, written from this checkout's
    # declaration and run against this checkout's sources
    launcher = tmp_path / "conscient-sim"
    _write_launcher(launcher, _declared_console_script())
    _check_console_script(str(launcher), _child_env())
    # an installed script, where one is on PATH, must behave the same
    exe = shutil.which("conscient-sim")
    if exe is not None:
        _check_console_script(exe)


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "conscient_sim.cli", "metrics", "--trace", "/nonexistent.csv"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
