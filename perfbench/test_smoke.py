"""Smoke test of the benchmark at its minimum length.

    python -m pytest perfbench/test_smoke.py

Runs every workload of ``BENCHMARK.json`` for one second with tracing off
and on, and checks that each run passes its own output checks and emits
every named metric with its unit; that the artifacts of the first ops
repeat exactly between the two runs of a seed; and that the benchmark
refuses to run without the source tree.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 7


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [*SPEC["command"], "--workload", workload, "--seed", str(SEED), "--seconds", "1",
            "--trace", str(trace)]
    argv[0] = sys.executable if argv[0] == "python3" else argv[0]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.fixture(scope="module")
def runs():
    out = {}
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            proc = bench(ROOT, w["name"], trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            out[w["name"], trace] = (json.loads(lines[-2])["report"], json.loads(lines[-1]))
    return out


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_with_its_unit(runs, workload, trace, key):
    _, result = runs[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if trace == 0:
        assert all(m["value"] != 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_artifacts_repeat_between_runs(runs, workload):
    untraced, _ = runs[workload, 0]
    traced, _ = runs[workload, 1]
    first = untraced["artifacts"]["first_cycle_sha256"]
    assert first and first == traced["artifacts"]["first_cycle_sha256"]
    a, b = untraced["artifacts"]["per_op_sha256"], traced["artifacts"]["per_op_sha256"]
    n = min(len(a), len(b))
    assert n >= 1 and a[:n] == b[:n]
    assert untraced["environment"]["seed"] == SEED


def test_refuses_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
