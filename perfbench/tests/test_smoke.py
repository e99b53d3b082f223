"""Smoke runs of every workload, untraced and traced, at tiny size.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(os.path.dirname(HERE), "run.py")
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                         "BENCHMARK.json")

with open(BENCHMARK, encoding="utf-8") as handle:
    SPEC = json.load(handle)
with open(os.path.join(os.path.dirname(HERE), "workloads.json"),
          encoding="utf-8") as handle:
    WORKLOADS = [name for name, config in json.load(handle).items()
                 if "kind" in config]


def run(workload, trace, seed=3):
    completed = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_result(result, expected):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 2
    assert list(result["metrics"]) == [metric["name"] for metric in expected]
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    context, result = run(workload, trace=0)
    check_result(result, SPEC["end_to_end"])
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert context["check"]["passed"] is True
    assert context["machine"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert context["reference_kernel_before_s"] > 0
    assert context["reference_kernel_after_s"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    context, result = run(workload, trace=1)
    check_result(result, SPEC["per_layer"])
    metrics = {name: value["value"]
               for name, value in result["metrics"].items()}
    assert metrics["trace.traced_per_s"] > 0
    assert metrics["trace.untraced_per_s"] > 0
    assert metrics["campaign.chunk_latency_p50_s"] > 0
    if workload == "date16_mc_blocked":
        assert metrics["solvers.solve_batch_calls"] > 0
        assert metrics["coupled.solve_transient_block_self_s"] > 0
        assert metrics["solvers.factorize_misses"] > 0
    if workload == "ishigami_sobol_service":
        assert metrics["service.queue_ops"] > 0
        assert metrics["service.status_calls"] > 0
        assert metrics["service.http_request_p50_s"] > 0
    trace_file = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                              context["trace_file"])
    with open(trace_file, encoding="utf-8") as handle:
        first = json.loads(handle.readline())
    assert {"name", "start", "end", "parent", "job", "chunk"} <= set(first)
