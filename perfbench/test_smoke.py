"""Smoke check of every benchmark workload at tiny sizes, with no timing bound.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs in its own process, as the benchmark runs it, once
untraced and once traced; the check is that every run passes the output
check and that the printed metrics are exactly the ones BENCHMARK.json
declares.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_and_checks_out(workload, trace, tmp_path):
    proc = _run(
        ROOT,
        "--workload", workload,
        "--seed", "7",
        "--seconds", "0",
        "--trace", str(trace),
        "--scale", "tiny",
        "--workdir", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    if trace:
        # layers every workload reaches
        for name in ("pipeline.init_s", "gateway.calls", "rag.index.calls", "sandbox.calls",
                     "knowledge.load.nodes", "recon.steps", "execution.attempts",
                     "report.bytes"):
            assert values[name] > 0, name
    else:
        assert all(value > 0 for value in values.values())


def test_refuses_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "engagement", "--seconds", "0", "--scale", "tiny")
    assert proc.returncode != 0
    assert proc.stdout == ""
