"""Smoke test of the benchmark harness: every workload at a tiny size.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

assert run.casplit_on_path()

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _check(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}
    json.dumps(result, allow_nan=False)


def test_declared_workloads_are_the_harness_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(name):
    result, lines = run.measure(workloads.make(name, tiny=True), seed=3, seconds=0, tiny=True)
    _check(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("failed_frac") for line in lines)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_per_layer_metrics_emitted_with_units(name):
    result, _ = run.measure_layers(workloads.make(name, tiny=True), seed=3, seconds=0)
    _check(result, SPEC["per_layer"])
    assert result["metrics"]["trace_overhead"]["value"] > 0


def test_traced_spans_leave_no_negative_self_time(tmp_path):
    from spans import STACK_CALLS, Tracer, instrumented
    wl = workloads.make("static-burst", tiny=True)
    wl.setup(tmp_path)
    tracer = Tracer()
    with instrumented(tracer), tracer.span("seed"):
        wl.body(1)
    runs = [s for s in tracer.walk() if s.name == "run"]
    assert len(runs) == wl.ops_per_body
    for span in tracer.walk():
        assert span.self_s >= 0.0, span.name
    for r in runs:
        assert {f"stack.{c}" for c in STACK_CALLS} <= set(r.per_slot)
        assert ("controller.decide" in r.per_slot) == (r.attrs["mode"] == "ca")


def test_command_line_prints_result_last():
    cmd = SPEC["command"] + ["--workload", "oracle-batch", "--seed", "2",
                             "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    _check(result, SPEC["end_to_end"])


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = SPEC["command"] + ["--workload", "static-burst", "--seed", "1",
                             "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
