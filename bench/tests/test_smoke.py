"""Smoke tests of the benchmark: every workload once at tiny sizes, the
hang guard, the golden digests and the refusal to run without sources.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_contract_lists_the_workloads():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_smoke(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
    assert "failed_frac = 0 " in proc.stdout
    assert '"src_lines"' in proc.stdout.splitlines()[0]
    expected = CONTRACT["per_layer"] if trace else CONTRACT["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_hang_guard_counts_a_killed_run_as_failed():
    proc = bench("--workload", "brute-oracle", "--seed", "3", "--seconds", "0",
                 "--scale", "smoke", "--timeout", "0.01")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert "timed out" in proc.stdout


def test_every_cli_invocation_and_cache_has_a_golden_digest():
    golden = workloads.load_golden()
    for scale, sizes in workloads.SIZES.items():
        for workload in workloads.WORKLOADS:
            for template in workloads.cli_pool(workload, scale):
                assert " ".join(template) in golden
            if "grid" in sizes[workload]:
                assert workloads.cache_key(sizes[workload]["grid"]) in golden


def test_same_seed_same_plan_and_equal_work_across_seeds():
    for workload in workloads.WORKLOADS:
        plan = workloads.make_plan(workload, 5)
        assert plan == workloads.make_plan(workload, 5)
        assert len(workloads.make_plan(workload, 6)) == len(plan)


def test_independent_oracles():
    eps = workloads.hz_recurrence(2, 5)
    assert [eps[(g, 5)] for g in range(3)] == [42, 420, 483]
    assert workloads.raw_word_count(9) == 674377
    assert len(workloads.polygon_signatures(8)) == 43


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "brute-oracle", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
