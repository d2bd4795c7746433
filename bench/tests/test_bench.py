"""Tests of the benchmark itself (not of the package).

    PYTHONPATH=src python -m pytest -q bench/tests

Quick mode shrinks every workload so each run takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

workloads = run.import_package()

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + list(args)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def quick(workload: str, trace: int, seed: int = 3) -> dict:
    done = bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--quick")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_workload_list_and_reasons_match_benchmark_json():
    assert WORKLOAD_NAMES == list(workloads.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert workloads.WORKLOADS[entry["name"]](0, quick=True).why == entry["why"]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    metrics = quick(workload, trace=0)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_run_emits_every_per_layer_metric_and_exact_counts_repeat(workload):
    first = quick(workload, trace=1)["metrics"]
    assert list(first) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert first[m["name"]]["unit"] == m["unit"]
        assert math.isfinite(first[m["name"]]["value"])
    second = quick(workload, trace=1)["metrics"]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", "exact-checks", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# -- the checks flag corrupted outputs ------------------------------------------

def test_paper_check_flags_nan_metric_and_unbalanced_training_set():
    task = workloads.paper_grid(5, quick=True).tasks(0)[5]  # graph A, importance weights, marginal MMD
    out = task.run()
    assert task.check(out) == []
    bad = dict(out, report=dataclasses.replace(out["report"], accuracy=float("nan")))
    assert any("non-finite" in p for p in task.check(bad))
    ds = out["train_set"]
    bad = dict(out, train_set=ds.with_weights(np.ones(len(ds))))
    assert any("pair gap" in p for p in task.check(bad))


def test_exact_checks_flag_wrong_verdicts():
    assert workloads.check_search({"example_id": "C4", "found": False, "violations": 0}) == []
    assert workloads.check_search({"example_id": "C4", "found": True, "violations": 2})
    assert workloads.check_search({"example_id": "C2", "found": False, "violations": 0})
    assert workloads.check_control({"factorizes": False, "max_gap": 0.1})
    assert workloads.check_chain({"nodes": 6, "factorizes": False, "max_gap": 0.1})
    out = workloads._instance("A", 4)
    assert workloads.check_instance(out) == []
    bad = dict(out, bound=dataclasses.replace(out["bound"], bound_holds=False))
    assert any("exceeds epsilon" in p for p in workloads.check_instance(bad))
    f = dataclasses.replace(out["fairness"][0], premise_holds=True, conclusion_holds=False)
    assert any("premise holds" in p for p in workloads.check_instance(dict(out, fairness=[f])))


def test_sampled_check_flags_unequal_cells_and_wrong_weights():
    out = workloads._cbn_run(workloads.templates.graph_template("A").net, 4000, 2)
    assert workloads.check_sampled(out) == []
    m = workloads.Mechanism.SUBSAMPLE_MAJORITY
    y, z, w, table, chi2 = out["results"][m]
    bad = dict(out, results={m: (y, np.zeros_like(z), w, table, chi2)})
    assert any("unequal" in p for p in workloads.check_sampled(bad))
    iw = workloads.Mechanism.IMPORTANCE_WEIGHTS
    y, z, w, table, chi2 = out["results"][iw]
    bad = dict(out, results={iw: (y, z, np.ones_like(w), table, chi2)})
    assert any("pair gap" in p for p in workloads.check_sampled(bad))


# -- failure accounting ---------------------------------------------------------

def _fake_workload(run_fn):
    task = workloads.Task("fake", run_fn, lambda out: [])
    return workloads.Workload("fake", "test", lambda p: [task], lambda: None)


def test_runtime_warning_and_unexpected_error_count_as_failures():
    def warns():
        warnings.warn("overflow", RuntimeWarning)
        return {}

    def raises():
        raise ValueError("boom")

    for fn, text in ((warns, "RuntimeWarning"), (raises, "ValueError")):
        phase = run.run_tasks(_fake_workload(fn), seconds=0.0)
        assert phase["attempted"] == 1 and len(phase["failures"]) == 1
        assert text in phase["failures"][0] and phase["walls"] == []


def test_tail_is_the_highest_percentile_with_ten_tasks_beyond():
    timing = run.timing_metrics([float(i) for i in range(1, 101)])
    assert timing["task_s_tail"] == 90.0 and timing["tail_percentile"] == 90.0
    assert timing["task_s_p50"] == 50.5
