"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root:  python3 -m pytest -q bench/test_smoke.py

Checks that every metric BENCHMARK.json names is emitted, with its unit, for
every workload in both modes, and that a corrupted pinned digest makes the
run report a failed operation and exit non-zero.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(workload, trace, *extra):
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(BENCH_DIR, "run.py"),
            "--workload", workload,
            "--seed", "1",
            "--seconds", "0.5",
            "--trace", str(trace),
            "--tiny",
            *extra,
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    rc, result = run_bench(workload, trace)
    assert rc == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_digest_counts_as_failure(tmp_path):
    with open(os.path.join(BENCH_DIR, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    digests = expected["tiny"]["reference"]["sha256"]
    digests["trace.csv"] = "0" * 64
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(expected))
    rc, result = run_bench("reference", 0, "--expected", str(corrupted))
    assert rc != 0
    assert result["correct"] is False
    assert result["failed"] >= 1
