"""The benchmark's own tests: every workload at small size, with all its checks.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402


def _run(*arguments: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *arguments],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_small_run_is_correct_and_complete(workload: str, trace: str) -> None:
    completed = _run("--small", "--workload", workload, "--seed", "3",
                     "--seconds", "1", "--trace", trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def test_benchmark_json_names_the_printed_metrics() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_same_seed_gives_same_inputs() -> None:
    for workload in workloads.WORKLOADS:
        config = workloads.params(workload, small=True)
        first = workloads.generate(workload, config, seed=5, seconds=1)
        assert first == workloads.generate(workload, config, seed=5, seconds=1)
        assert first != workloads.generate(workload, config, seed=6, seconds=1)


def test_fails_without_the_program_sources(tmp_path: Path) -> None:
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = _run("--workload", "join-dedup", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
