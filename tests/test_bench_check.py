"""Tests for ``tools/bench_check.py`` edge cases.

The BENCH_fuzz trajectory starts life empty, grows to one entry on the
first suite run, and gains scenarios over time — exactly the shapes the
checker must handle without a baseline to regress against.
"""

import json
import subprocess
import sys

from tools.bench_check import (
    EVENTS_PER_S_FLOOR,
    check,
    check_geo_floor,
    load_runs,
)

RATIO = ("best_events_per_s",)


def _run(sha, scenarios, golden=True):
    return {
        "git_sha": sha,
        "golden_match": golden,
        "cases": len(scenarios),
        "by_scenario": {name: {"best_events_per_s": value}
                        for name, value in scenarios.items()},
    }


def test_empty_trajectory_passes():
    assert check([], RATIO, 20.0) == ([], [])


def test_single_entry_has_no_baseline_and_reports_new():
    problems, new = check([_run("a", {"flood": 3.0})], RATIO, 20.0)
    assert problems == []
    assert new == ["flood: best_events_per_s"]


def test_new_scenario_is_announced_not_skipped():
    runs = [_run("a", {"flood": 3.0}),
            _run("b", {"flood": 3.1, "fuzz_find": 2.0})]
    problems, new = check(runs, RATIO, 20.0)
    assert problems == []
    assert new == ["fuzz_find: best_events_per_s"]


def test_regression_still_fails():
    runs = [_run("a", {"flood": 3.0}), _run("b", {"flood": 1.0})]
    problems, new = check(runs, RATIO, 20.0)
    assert len(problems) == 1
    assert "regressed" in problems[0]
    assert new == []


def test_broken_invariant_fails_even_without_baseline():
    problems, _ = check([_run("a", {"flood": 3.0}, golden=False)],
                        RATIO, 20.0)
    assert any("invariant" in p for p in problems)


def test_legacy_identity_verdict_still_counts():
    legacy = {"all_traces_identical": False, "by_scenario": {}}
    problems, _ = check([legacy], RATIO, 20.0)
    assert any("golden" in p for p in problems)


def test_cli_fails_on_golden_mismatch(tmp_path):
    # No metric moved and nothing is below a floor: the mismatch alone
    # fails the check.
    path = tmp_path / "BENCH_sim.json"
    path.write_text(json.dumps({
        "schema": 2,
        "runs": [_run("a", {"flood": 3.0}),
                 _run("b", {"flood": 3.0}, golden=False)]}))
    out = subprocess.run(
        [sys.executable, "tools/bench_check.py", "--path", str(path)],
        capture_output=True, text=True)
    assert out.returncode == 1
    assert "golden" in out.stderr


def test_cli_passes_on_one_entry_trajectory(tmp_path):
    path = tmp_path / "BENCH_sim.json"
    path.write_text(json.dumps({"schema": 2,
                                "runs": [_run("a", {"flood": 3.0})]}))
    out = subprocess.run(
        [sys.executable, "tools/bench_check.py", "--path", str(path),
         "--absolute"],
        capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "NEW flood: best_events_per_s" in out.stdout


def test_cli_rejects_unreadable_trajectory(tmp_path):
    path = tmp_path / "BENCH_sim.json"
    path.write_text("{not json")
    out = subprocess.run(
        [sys.executable, "tools/bench_check.py", "--path", str(path)],
        capture_output=True, text=True)
    assert out.returncode == 2


def test_load_runs_accepts_legacy_bare_aggregate(tmp_path):
    path = tmp_path / "BENCH_sim.json"
    path.write_text(json.dumps({"cases": 3, "by_scenario": {}}))
    assert len(load_runs(str(path))) == 1


def _geo_run(sha, max_nodes, scenarios):
    return {
        "git_sha": sha,
        "cases": len(scenarios),
        "max_nodes": max_nodes,
        "golden_match": True,
        "by_scenario": {
            name: {"n_nodes": nodes, "worst_events_per_s": rate}
            for name, (nodes, rate) in scenarios.items()
        },
    }


def test_geo_floor_ignores_smoke_entries():
    # A smoke entry never measures a >=100-node deployment; the floor
    # has nothing to bite on and must not fail it.
    runs = [_geo_run("a", 60, {"geo:3x20@n60": (60, 90_000)})]
    assert check_geo_floor(runs) == []


def test_geo_floor_fails_below_the_events_per_s_floor():
    runs = [_geo_run("a", 120, {"geo:4x30@n120": (120, 150_000)})]
    problems = check_geo_floor(runs)
    assert len(problems) == 1
    assert "floor" in problems[0]


def test_geo_floor_is_inclusive_at_the_bar():
    at_bar = [_geo_run("a", 120,
                       {"geo:4x30@n120": (120, EVENTS_PER_S_FLOOR)})]
    assert check_geo_floor(at_bar) == []
    below = [_geo_run("a", 120,
                      {"geo:4x30@n120": (120, EVENTS_PER_S_FLOOR - 1)})]
    assert len(check_geo_floor(below)) == 1


def test_geo_floor_passes_at_scale():
    # Smaller deployments are not held to the floor.
    runs = [_geo_run("a", 120, {"geo:3x20@n60": (60, 90_000),
                                "geo:4x30@n120": (120, 1_100_000)})]
    assert check_geo_floor(runs) == []


def test_geo_floor_rejects_inconsistent_entry():
    # max_nodes says a big deployment ran, but no scenario records one.
    runs = [_geo_run("a", 120, {"geo:3x8@n24": (24, 900_000)})]
    problems = check_geo_floor(runs)
    assert len(problems) == 1
    assert "records no" in problems[0]


def test_cli_fails_below_the_floor(tmp_path):
    path = tmp_path / "BENCH_sim.json"
    path.write_text(json.dumps({
        "schema": 2,
        "runs": [_geo_run("a", 120, {"geo:4x30@n120": (120, 92_715)})]}))
    out = subprocess.run(
        [sys.executable, "tools/bench_check.py", "--path", str(path)],
        capture_output=True, text=True)
    assert out.returncode == 1
    assert "floor" in out.stderr
