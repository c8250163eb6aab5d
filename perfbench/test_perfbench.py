"""Self-test of the benchmark: catalog sync, result shape, exact repeats.

Run from the repository root (takes a few minutes; every case starts the
benchmark as its own process):

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from catalog import END_TO_END, PER_LAYER, WORKLOADS, WORKLOAD_NAMES  # noqa: E402

#: per-layer values that must repeat exactly between runs of one seed
EXACT = [
    m.name for m in PER_LAYER
    if m.unit in ("count", "cycles") or m.name.startswith("flow.hit_ratio")
]


def run(workload, trace, seed=3, seconds=1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def result(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    return out


def test_benchmark_json_matches_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert spec["workloads"] == [
        {"name": name, "why": why} for name, why in WORKLOADS
    ]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER
    ]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_counts_repeat_exactly(workload):
    first, second = result(workload, 1), result(workload, 1)
    for out in (first, second):
        assert list(out["metrics"]) == [m.name for m in PER_LAYER]
        # the layers' self times account for the traced op time
        assert out["metrics"]["trace.coverage"]["value"] > 0.95
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_end_to_end_metrics(workload):
    first, second = result(workload, 0), result(workload, 0)
    for out in (first, second):
        metrics = out["metrics"]
        assert list(metrics) == [m.name for m in END_TO_END]
        assert metrics["ops_ok_ratio"]["value"] == 1.0
        assert all(m["value"] > 0 for m in metrics.values())
    speedup = "model_speedup_vs_arm"
    assert first["metrics"][speedup] == second["metrics"][speedup]


def test_refuses_to_run_without_program_sources():
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run("dse-sweep", 0, cwd=bare)
        assert proc.returncode != 0
        assert "correct" not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_catalog_within_benchmark_limits():
    metrics = END_TO_END + PER_LAYER
    names = [m.name for m in metrics]
    assert len(set(names)) == len(names) and len(PER_LAYER) <= 128
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
               for name in names + list(WORKLOAD_NAMES))
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m.unit)
               for m in metrics)
    assert all(len(why) <= 200 for _, why in WORKLOADS)
    assert all(0 < m.bound <= 0.25 for m in END_TO_END)
