"""Self-test of the benchmark at smoke size (``run.py --scale smoke``).

Every workload runs untraced and traced; every metric ``BENCHMARK.json``
names is emitted with its unit; the exact per-layer counts repeat for a
fixed seed; inputs are a function of the seed; and a directory holding
only the benchmark exits non-zero without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Per-layer metrics that are counts, not times: equal across runs.
EXACT = (
    "server.bytes_per_answer",
    "core.union.probes_per_answer",
    "core.dynamic.weight_updates_per_op",
    "storage.wal_bytes_per_op",
)


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.6",
         "--trace", str(trace), "--scale", "smoke"],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def runs():
    """Every workload run untraced once and traced twice on one seed.

    Workloads run concurrently; one workload's runs run one after another
    (two traced runs of one seed would share a trace file).
    """
    def one_workload(workload):
        return workload, [run(workload, seed=3, trace=0),
                          run(workload, seed=5, trace=1),
                          run(workload, seed=5, trace=1)]

    with ThreadPoolExecutor(len(workloads.WORKLOADS)) as pool:
        return dict(pool.map(one_workload, workloads.WORKLOADS))


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(runs, workload):
    result = result_of(runs[workload][0])
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_emits_per_layer_metrics_and_counts_repeat(runs, workload):
    first, second = (result_of(proc) for proc in runs[workload][1:])
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in EXACT:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"]
    metrics = first["metrics"]
    assert metrics["server.bytes_per_answer"]["value"] > 0
    assert metrics["storage.wal_bytes_per_op"]["value"] > 0
    assert (metrics["core.union.probes_per_answer"]["value"] > 0) == (
        workloads.WORKLOADS[workload].union)
    assert (metrics["core.dynamic.weight_updates_per_op"]["value"] > 0) == (
        workloads.WORKLOADS[workload].dynamic)
    assert metrics["service.locked_reads"]["value"] == 0


def database_rows(workload, seed):
    database = workloads.generate_database(
        workload, workloads.SCALES["smoke"], seed)
    return {name: sorted(database.relation(name).rows)
            for name in database.names()}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS.values()),
                         ids=list(workloads.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(workload):
    workloads.require_source()
    scale = workloads.SCALES["smoke"]
    assert database_rows(workload, 1) == database_rows(workload, 1)
    assert database_rows(workload, 1) != database_rows(workload, 2)
    body = workloads.swap_body
    assert body(workload, scale, 1, 4) == body(workload, scale, 1, 4)
    assert body(workload, scale, 1, 4) != body(workload, scale, 2, 4)

    def stream(seed):
        rng = workloads.stream_rng(seed, workload, "loop0:reader")
        return [workloads.read_round(workload, workloads.ALL_READS, rng, 5_000)
                for __ in range(3)]

    assert stream(1) == stream(1) and stream(1) != stream(2)


def test_without_the_sources_it_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("cq_read", seed=1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
