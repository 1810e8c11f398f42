"""Tiny-size runs of every workload, plus the tracer's arithmetic.

Run from the repository root::

    python3 -m pytest routebench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402

WORKLOADS = ("route-batch", "serve-open", "churn-evolve")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 1):
    cmd = [sys.executable, str(cwd / "routebench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True
    assert doc["failed"] == 0
    assert doc["attempted"] >= 1
    return doc


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    doc = _result(_run(workload, trace=0))
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in doc["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_layers_and_repeats_counts(workload):
    first = _result(_run(workload, trace=1))
    second = _result(_run(workload, trace=1))
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == declared
    assert first["metrics"]["bench.span_coverage_pct"]["value"] >= 90.0
    for name, unit in declared.items():
        if unit in ("count", "hops", "bits"):
            assert first["metrics"][name] == second["metrics"][name], name
    trace = json.loads((HERE / "out" / f"{workload}-seed1.trace.json").read_text())
    assert trace["traceEvents"] and all(e["ph"] == "X" for e in trace["traceEvents"])


def test_without_library_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "routebench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("route-batch", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_and_coverage():
    tracer = Tracer(enabled=True)
    with tracer.span("phase.one"):
        with tracer.span("outer"):
            with tracer.span("inner"):
                time.sleep(0.02)
            time.sleep(0.01)
        with tracer.untraced():
            with tracer.span("hidden"):
                time.sleep(0.01)
    names = [s.name for s in tracer.spans]
    assert names == ["phase.one", "outer", "inner", "bench.untraced"]
    self_s = tracer.self_times()
    outer = tracer.spans[1]
    assert self_s[outer.id] == pytest.approx(0.01, abs=0.008)
    assert 90.0 <= tracer.coverage() <= 100.0
    assert Tracer(enabled=False).span("x").__enter__() is None
