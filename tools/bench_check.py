#!/usr/bin/env python3
"""Guard the tracked BENCH trajectories against regressions.

``benchmarks/results/BENCH_sim.json`` is a *tracked* trajectory: every
suite run that exercises E19 (the engine-throughput experiment) appends
one entry (git sha, date, per-deployment events/sec — see
``tools/run_experiments.py``). Three checks apply:

* **golden match** — an invariant: a latest entry recording
  ``golden_match: false`` (some run diverged from the committed golden
  trace table, ``tests/golden/traces.json``) fails regardless of
  thresholds. A legacy entry's ``all_traces_identical: false`` fails
  the same way;
* **the throughput floor** — every >= 100-node deployment of the latest
  *full* entry (``max_nodes`` >= 100) must run at >= 185,000 events/s:
  twice the committed single-loop reference of the retired sharding
  experiment (3,250,710 events in 35.06 s on ``geo:4x30``,
  ``benchmarks/results/geo_stats.jsonl``). An absolute bar, so the
  trajectory can never drift below it in 20% steps; smoke entries have
  no such deployment and pass;
* **absolute metrics** (``best_events_per_s``,
  ``best_sweep_events_per_s``, ``best_pool_speedup``) — only checked
  with ``--absolute``, against the best earlier entry. Wall-clock
  throughput on shared CI runners is advice, not ground truth; enable
  this locally on a quiet machine.

The ratio metrics earlier entries carry (``best_speedup_full``,
``best_speedup_milestones``, ``best_speedup_batched``) divided by
reference engine columns that no longer exist; they are retired, and
so is ``BENCH_geo.json`` (the sharded-engine ratios, kept as a frozen
record).

``benchmarks/results/BENCH_bounds.json`` is the second tracked
trajectory (static recovery bounds, appended by full-grid E21 runs) and
gets the same treatment with the polarity flipped:

* **soundness** is an invariant — a latest entry whose ``all_sound`` is
  false, or any scenario recording ``sound: false``, fails regardless
  of thresholds;
* **tightness ratios** (per scenario and fault class, bound over worst
  empirical recovery) are *lower*-is-better: the baseline is the best
  (smallest) earlier ratio and a >20% increase fails — a bound that
  drifts looser certifies less while still passing soundness.

Usage:  python tools/bench_check.py [--absolute] [--threshold PCT]
                [--path FILE] [--bounds-path FILE]

Exit codes: 0 ok (or fewer than two comparable entries), 1 regression or
broken invariant, 2 unreadable trajectory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_PATH = os.path.join(REPO, "benchmarks", "results",
                            "BENCH_sim.json")
DEFAULT_BOUNDS_PATH = os.path.join(REPO, "benchmarks", "results",
                                   "BENCH_bounds.json")

ABSOLUTE_METRICS = ("best_events_per_s", "best_sweep_events_per_s",
                    "best_pool_speedup")

#: Engine throughput floor on >= 100-node deployments, events/s:
#: 2 x 3,250,710 events / 35.06 s (the retired single-loop reference).
EVENTS_PER_S_FLOOR = 185_000
FLOOR_NODES = 100


def load_runs(path: str) -> list:
    with open(path) as f:
        payload = json.load(f)
    if isinstance(payload, dict) and isinstance(payload.get("runs"), list):
        return payload["runs"]
    if isinstance(payload, dict) and payload.get("cases"):
        # Legacy schema 1: a single bare aggregate, usable as baseline.
        return [payload]
    raise ValueError("no runs in trajectory")


def scenario_metrics(run: dict, metrics) -> dict:
    """{(scenario, metric): value} for every present, non-null metric."""
    out = {}
    for scenario, entry in (run.get("by_scenario") or {}).items():
        for metric in metrics:
            value = entry.get(metric)
            if value:
                out[(scenario, metric)] = value
    return out


def check(runs: list, metrics, threshold_pct: float) -> tuple:
    """``(problems, new)`` comparing the last run to the best baseline.

    The baseline per (scenario, metric) is the *maximum* over all
    earlier entries — a slow run appended yesterday must not become an
    excuse for being slow today. A scenario the baseline measured but
    the latest run didn't is skipped (smoke entries measure a subset of
    the full sweep); a (scenario, metric) present **only** in the latest
    run is returned in ``new`` so a freshly added trajectory column is
    announced, never silently ignored. An empty or one-entry trajectory
    has no baseline to regress against and passes cleanly.
    """
    if not runs:
        return [], []
    latest = runs[-1]
    problems = []
    if (latest.get("golden_match") is False
            or latest.get("all_traces_identical") is False):
        problems.append("latest entry: runs diverged from the golden "
                        "trace table (invariant broken — this is a bug, "
                        "not a perf regression)")
    current = scenario_metrics(latest, metrics)
    if len(runs) < 2:
        new = [f"{scenario}: {metric}"
               for scenario, metric in sorted(current)]
        return problems, new
    baseline: dict = {}
    for run in runs[:-1]:
        for key, value in scenario_metrics(run, metrics).items():
            baseline[key] = max(baseline.get(key, 0), value)
    floor = 1.0 - threshold_pct / 100.0
    for key, base in sorted(baseline.items()):
        value = current.get(key)
        if value is None:
            continue
        if value < base * floor:
            scenario, metric = key
            problems.append(
                f"{scenario}: {metric} regressed {base} -> {value} "
                f"(>{threshold_pct:.0f}% below baseline)")
    new = [f"{scenario}: {metric}"
           for scenario, metric in sorted(set(current) - set(baseline))]
    return problems, new


def bounds_ratios(run: dict) -> dict:
    """{(scenario, fault_class): tightness} for one bounds entry."""
    out = {}
    for scenario, entry in (run.get("by_scenario") or {}).items():
        for fault_class, ratio in (entry.get("class_tightness")
                                   or {}).items():
            if ratio:
                out[(scenario, fault_class)] = ratio
    return out


def check_bounds(runs: list, threshold_pct: float) -> tuple:
    """``(problems, new)`` for the static-bounds trajectory.

    Soundness is an unconditional invariant of the latest entry;
    tightness ratios are lower-is-better, compared against the best
    (smallest) earlier ratio per (scenario, class) — a loose run
    appended yesterday must not become an excuse for being loose today.
    """
    if not runs:
        return [], []
    latest = runs[-1]
    problems = []
    if latest.get("all_sound") is False:
        problems.append("latest bounds entry: soundness violated "
                        "(an empirical recovery escaped its static "
                        "bound — this is a bug, not a regression)")
    for scenario, entry in sorted((latest.get("by_scenario")
                                   or {}).items()):
        if entry.get("sound") is False:
            problems.append(f"{scenario}: static bound UNSOUND in "
                            f"latest entry")
    current = bounds_ratios(latest)
    if len(runs) < 2:
        new = [f"{scenario}: tightness[{fault_class}]"
               for scenario, fault_class in sorted(current)]
        return problems, new
    baseline: dict = {}
    for run in runs[:-1]:
        for key, value in bounds_ratios(run).items():
            baseline[key] = min(baseline.get(key, value), value)
    ceiling = 1.0 + threshold_pct / 100.0
    for key, base in sorted(baseline.items()):
        value = current.get(key)
        if value is None:
            continue
        if value > base * ceiling:
            scenario, fault_class = key
            problems.append(
                f"{scenario}: tightness[{fault_class}] loosened "
                f"{base} -> {value} (>{threshold_pct:.0f}% above "
                f"baseline)")
    new = [f"{scenario}: tightness[{fault_class}]"
           for scenario, fault_class in sorted(set(current)
                                               - set(baseline))]
    return problems, new


def check_geo_floor(runs: list) -> list:
    """The absolute events/s floor on the latest *full* entry.

    Smoke entries (no >=100-node deployment measured) carry the golden
    invariant but have nothing for the floor to bite on; they pass. A
    full entry whose >=100-node throughput dipped below the floor fails
    regardless of how earlier entries moved.
    """
    if not runs:
        return []
    latest = runs[-1]
    if (latest.get("max_nodes") or 0) < FLOOR_NODES:
        return []
    problems = []
    big = {name: entry
           for name, entry in (latest.get("by_scenario") or {}).items()
           if (entry.get("n_nodes") or 0) >= FLOOR_NODES}
    if not big:
        return [f"latest entry claims max_nodes="
                f"{latest.get('max_nodes')} but records no "
                f">={FLOOR_NODES}-node scenario"]
    for name, entry in sorted(big.items()):
        value = entry.get("worst_events_per_s")
        if value is None or value < EVENTS_PER_S_FLOOR:
            problems.append(
                f"{name}: engine at {value} events/s < "
                f"{EVENTS_PER_S_FLOOR:,} floor")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--path", default=DEFAULT_PATH, metavar="FILE",
                        help="sim trajectory file (default: "
                             "benchmarks/results/BENCH_sim.json)")
    parser.add_argument("--bounds-path", default=DEFAULT_BOUNDS_PATH,
                        metavar="FILE",
                        help="static-bounds trajectory file (default: "
                             "benchmarks/results/BENCH_bounds.json)")
    parser.add_argument("--threshold", type=float, default=20.0,
                        metavar="PCT",
                        help="allowed regression in percent (default 20)")
    parser.add_argument("--absolute", action="store_true",
                        help="also check absolute events/sec metrics "
                             "(off by default: wall clock on shared "
                             "runners is advice, not ground truth)")
    args = parser.parse_args()

    try:
        runs = load_runs(args.path)
    except (OSError, ValueError) as exc:
        print(f"bench_check: cannot read trajectory {args.path}: {exc}",
              file=sys.stderr)
        return 2

    metrics = ABSOLUTE_METRICS if args.absolute else ()
    problems, new = check(runs, metrics, args.threshold)
    problems += check_geo_floor(runs)
    if not runs:
        print("bench_check: trajectory has no entries yet; nothing to "
              "compare")
        return 0
    latest = runs[-1]
    print(f"bench_check: {len(runs)} trajectory entries; latest "
          f"{latest.get('git_sha', '?')} ({latest.get('date_utc', '?')}, "
          f"{latest.get('cases', 0)} cases)")
    for entry in new:
        print(f"bench_check: NEW {entry} (no earlier baseline; "
              f"becomes one next run)")
    try:
        bounds_runs = load_runs(args.bounds_path)
    except (OSError, ValueError) as exc:
        print(f"bench_check: cannot read bounds trajectory "
              f"{args.bounds_path}: {exc}", file=sys.stderr)
        return 2
    bounds_problems, bounds_new = check_bounds(bounds_runs,
                                               args.threshold)
    problems += bounds_problems
    if bounds_runs:
        b_latest = bounds_runs[-1]
        print(f"bench_check: {len(bounds_runs)} bounds entries; latest "
              f"{b_latest.get('git_sha', '?')} "
              f"({b_latest.get('date_utc', '?')}, "
              f"{len(b_latest.get('by_scenario') or {})} scenarios, "
              f"all_sound={b_latest.get('all_sound')})")
    for entry in bounds_new:
        print(f"bench_check: NEW {entry} (no earlier baseline; "
              f"becomes one next run)")
    if problems:
        for p in problems:
            print(f"bench_check: FAIL {p}", file=sys.stderr)
        return 1
    print(f"bench_check: OK (golden traces matched; >= "
          f"{FLOOR_NODES}-node deployments above the "
          f"{EVENTS_PER_S_FLOOR:,} events/s floor; bounds sound, no "
          f"tightness more than {args.threshold:.0f}% above baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
