"""Tests of the benchmark itself, on seconds-long ``tiny`` workloads.

Run from the root of a checkout::

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
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOAD_NAMES  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--size",
         "tiny", "--seconds", "0.5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, section):
    result = result_of(bench("--workload", workload, "--trace",
                             str(trace)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if section == "end_to_end":
            assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_counters_repeat_between_traced_runs(workload):
    runs = [result_of(bench("--workload", workload, "--trace", "1"))
            for _ in range(2)]
    counts = [{name: m["value"] for name, m in run["metrics"].items()
               if m["unit"] == "count"} for run in runs]
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_traced_run_reaches_every_layer_it_names():
    seen = {}
    for workload in WORKLOAD_NAMES:
        metrics = result_of(bench("--workload", workload, "--trace",
                                  "1"))["metrics"]
        seen[workload] = {n for n, m in metrics.items() if m["value"]}
    assert {"net.route_calls", "planner.place_calls",
            "verify.verify_strategy_s"} <= seen["geo-plan"]
    assert {"sim.events", "trace.records", "obs.timelines_s",
            "analysis.verdict_s", "modes.switches"} <= seen["geo-rehearse"]
    assert {"fuzz.candidates", "fuzz.run_p50_ms", "crypto.signs",
            "evidence.accepted"} <= seen["mesh-fuzz"]


def copy_benchmark(into: Path) -> Path:
    """BENCHMARK.json and perfbench/ alone, as in a bare checkout."""
    shutil.copy(ROOT / "BENCHMARK.json", into)
    shutil.copytree(HERE, into / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return into


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_wrong_pin_is_a_failed_operation(workload, tmp_path):
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    path = tmp_path / "perfbench" / "pins.json"
    pins = json.loads(path.read_text())
    pinned = pins["tiny"][workload]["42"]
    key = sorted(pinned)[0]
    pinned[key] = "deliberately wrong"
    path.write_text(json.dumps(pins))
    proc = bench("--workload", workload, cwd=tmp_path)
    result = result_of(proc)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert f"{key}: pinned 'deliberately wrong'" in proc.stderr
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_refuses_to_run_without_the_program(tmp_path):
    proc = bench("--workload", "geo-plan", cwd=copy_benchmark(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    tracer.span("outer", lambda: tracer.span("inner", sum, range(10**5)))
    table = tracer.layer_table()
    outer, inner = table["outer"], table["inner"]
    assert outer["calls"] == inner["calls"] == 1
    assert outer["self_s"] == pytest.approx(
        outer["total_s"] - inner["total_s"])
    assert inner["self_s"] == inner["total_s"]
