"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py

Checks that every workload prints every metric of BENCHMARK.json with its
unit, that outputs pass their checks, that the per-layer self times add up
to the traced command, that a tree without the package fails cleanly, and
that a stage-timing report row is complete.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RESULTS = os.path.join(ROOT, ".bench_work", "results")
SEED = 7

sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
import tracing  # noqa: E402
import workloads  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload: str, trace: int, cwd: str = ROOT, script: str = "bench/run.py"):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def _last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert all(line.startswith("#") for line in lines[:-1])
    return json.loads(lines[-1])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in _spec()["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_end_to_end_metrics(workload):
    proc = _run(workload, trace=0)
    result = _last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 3
    expected = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and metric["value"] > 0, name
    assert "fail_frac" in proc.stdout and "0 failed of" in proc.stdout


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_per_layer_metrics_add_up(workload):
    proc = _run(workload, trace=1)
    result = _last_json(proc)
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in metrics.values())

    with open(os.path.join(RESULTS, f"{workload}-seed{SEED}-trace1.json"),
              encoding="utf-8") as fh:
        full = json.load(fh)
    assert full["absent"] == []
    # The layers' self times cover the traced command, so their sum over
    # the untraced command time is 1 + the tracing overhead.
    overhead = metrics["trace_overhead_frac"]["value"]
    ratio = statistics.median(full["self_sum_s"]) / statistics.median(full["untraced_s"])
    assert abs(ratio - 1.0) <= abs(overhead) + 0.01
    if workload == "predict_bulk":
        assert metrics["gpr.gram_calls"]["value"] == 0
    else:
        assert metrics["gpr.gram_calls"]["value"] >= 1
        assert metrics["gpr.factor_tries"]["value"] >= metrics["gpr.gram_calls"]["value"]
    if workload == "sweep_tall":
        assert metrics["analysis.cell_s_p50"]["value"] > 0


def test_sweep_worker_spans_are_merged():
    from hdmrnet.cli import main

    work = os.path.join(ROOT, ".bench_work", "smoke-workers")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "spans"))
    data = os.path.join(work, "data.csv")
    assert main(["synth", "--kind", "morse_like", "--dim", "4", "--n", "300",
                 "--seed", str(SEED), "--out", data]) == 0
    tracer = tracing.Tracer(os.path.join(work, "spans"))
    assert tracer.install() == []
    try:
        with tracer.span("cli.main"):
            code = main(["sweep", "--data", data, "--d", "1,2", "--n-per-term", "2",
                         "--repeats", "2", "--train", "200", "--test", "100",
                         "--l", "0.3", "--seed", "1", "--jobs", "2",
                         "--out-dir", os.path.join(work, "out")])
    finally:
        tracer.uninstall()
    tracer.collect_worker_spans()
    shutil.rmtree(work)
    assert code == 0
    by_id = {s["id"]: s for s in tracer.spans}
    (sweep,) = [s for s in tracer.spans if s["name"] == "analysis.sweep"]
    grams = [s for s in tracer.spans if s["name"] == "gpr.gram_matrix"]
    assert len(grams) == 4
    for span in grams:
        assert span["pid"] != os.getpid()
        while span["pid"] != os.getpid():
            span = by_id[span["parent"]]
        assert span is sweep


def test_missing_function_is_reported_absent(monkeypatch):
    import hdmrnet.gpr

    monkeypatch.delattr(hdmrnet.gpr, "gram_matrix")
    tracer = tracing.Tracer()
    try:
        assert tracer.install() == ["gpr.gram_matrix"]
    finally:
        tracer.uninstall()


def test_missing_feature_chunk_is_reported_absent(monkeypatch):
    import hdmrnet.gpr
    import numpy as np

    monkeypatch.delattr(hdmrnet.gpr, "_FEATURE_CHUNK")
    tracer = tracing.Tracer()
    try:
        assert tracer.install() == ["gpr.gram_temp_bytes"]
    finally:
        tracer.uninstall()
    assert tracing.WORK["gpr.gram_matrix"]((np.zeros((3, 2)),), {}, None) == {"entries": 18}


def test_fails_without_sources():
    bare = os.path.join(ROOT, ".bench_work", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = _run("fit_coupled", trace=0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_stage_report_runs():
    import hdmrnet as hn
    import stages

    work = os.path.join(ROOT, ".bench_work", "smoke-stages")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        row = stages.stage_row(hn, 3, 2, 4, 100, 50, 1, os.path.join(work, "model.json"))
    finally:
        shutil.rmtree(work)
    assert row["absent"] == []
    for key in ("feature_map_s", "scaling_s", "gram_s", "solve_s", "predict_s",
                "model_bytes"):
        assert row[key] > 0, key
