#!/usr/bin/env python3
"""Regenerate every experiment and collate the tables into one report.

First statically verifies the mode graphs the experiments rely on
(``repro verify --strict`` on the canonical scenarios) — a benchmark
number produced from an unsound strategy is worse than no number. Then
runs the benchmark suite (which writes ``benchmarks/results/*.txt``) and
stitches the results into ``benchmarks/results/REPORT.txt`` in experiment
order — the file EXPERIMENTS.md quotes from.

The suite is sharded per benchmark file: ``--jobs N`` runs up to N
pytest shards concurrently, and one strategy cache (``--cache DIR``,
default ``benchmarks/.strategy_cache``; ``--no-cache`` disables) is
threaded through every shard via ``$REPRO_STRATEGY_CACHE``, so a rerun
with a warm cache skips all replanning. Two machine-readable perf
trajectories land next to the report:

* ``BENCH_suite.json`` — wall time per experiment file and for the
  whole suite, with the jobs/cache configuration that produced them;
* ``BENCH_planner.json`` — aggregated offline-planning stats (prepares,
  cache hit rate, plans computed vs memoised, plans/sec) from the
  ``planner_stats.jsonl`` stream the benchmark harness appends to;
* ``BENCH_obs.json`` — aggregated recovery-timeline observability
  (per-fault-kind phase spans, phase-sum integrity, dropped-message
  counters) from the ``obs_stats.jsonl`` stream;
* ``BENCH_sim.json`` — the *tracked* engine-throughput trajectory: one
  entry appended per suite run that exercised E19 (git sha, date,
  per-deployment events/sec, sweep and pool columns, golden-trace
  verdicts) aggregated from the ``sim_stats.jsonl`` stream. Unlike the
  other BENCH files this one is committed, so ``tools/bench_check.py``
  can fail CI on a golden mismatch or on throughput below the floor;
* ``BENCH_mc.json`` — aggregated bounded model-checking results
  (campaigns by expectation, paths explored, dedup hit-rate, pruning
  ratio, states/sec, replay-confirmation counts) from the
  ``mc_stats.jsonl`` stream that E18 appends to;
* ``BENCH_fuzz.json`` — aggregated coverage-guided fuzzing results
  (campaigns by expectation, scripts evaluated, coverage keys,
  violating scripts found/minimised/replay-confirmed, runs/sec) from
  the ``fuzz_stats.jsonl`` stream that E20 appends to;
* ``BENCH_bounds.json`` — the *tracked* static-bounds trajectory: one
  entry appended per suite run whose E21 sweep ran the full benchmark
  grid (soundness verdicts and per-class tightness ratios per
  scenario) aggregated from the ``bounds_stats.jsonl`` stream. Like
  ``BENCH_sim.json`` it is committed, so ``tools/bench_check.py`` can
  fail CI when soundness breaks or tightness regresses.

``BENCH_geo.json`` and ``geo_stats.jsonl`` are the frozen record of the
retired region-sharding experiment (E22); nothing appends to them.

Usage:  python tools/run_experiments.py [--jobs N] [--only SUBSTR]
                [--cache DIR | --no-cache] [--skip-run] [--skip-verify]
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(REPO, "benchmarks", "results")
PLANNER_STATS = os.path.join(RESULTS, "planner_stats.jsonl")
OBS_STATS = os.path.join(RESULTS, "obs_stats.jsonl")
SIM_STATS = os.path.join(RESULTS, "sim_stats.jsonl")
MC_STATS = os.path.join(RESULTS, "mc_stats.jsonl")
FUZZ_STATS = os.path.join(RESULTS, "fuzz_stats.jsonl")
BOUNDS_STATS = os.path.join(RESULTS, "bounds_stats.jsonl")
CACHE_ENV_VAR = "REPRO_STRATEGY_CACHE"
DEFAULT_CACHE = os.path.join(REPO, "benchmarks", ".strategy_cache")

ORDER = [
    "e1_recovery_bound",
    "e2_replica_cost",
    "e3_timeliness",
    "e4_mixed_criticality",
    "e5_adversary_pacing",
    "e5_budget_rule",
    "e6_latency_decomposition",
    "e7_planner_scalability",
    "e8_plant_inertia",
    "e8_closed_loop",
    "e9_omission_blame",
    "e9_targeted_omission",
    "e10_evidence_flooding",
    "e11_ablation_plan_distance",
    "e12_ablation_placement",
    "e13_ablation_strategic",
    "e14_clock_sync",
    "e14_rogue_clock",
    "e15_resource_dependence",
    "e16_link_faults",
    "e18_model_check",
    "e19_batched_core",
    "e20_fuzz",
    "e21_static_bounds",
]


#: Scenarios whose strategies the experiments simulate; each is verified
#: with ``repro verify --strict`` before any benchmark runs. The fourth
#: element lists waived findings: avionics' n2 is *provably* never
#: attributable (its omission declarers tie with a co-charged innocent),
#: which the bounds analyzer reports as ``bound.unachievable`` — a
#: documented property of that deployment, not a defect to re-discover
#: per run.
VERIFY_SCENARIOS = [
    ("industrial", "fullmesh:7", 1, []),
    ("avionics", "mesh:3x3", 1, ["bound.unachievable:n2"]),
]


def suite_env(cache_dir: str) -> dict:
    """The environment every verification/benchmark subprocess gets."""
    env = dict(os.environ)
    src = os.path.join(REPO, "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    # Empty string = caching disabled (the harness honours set-but-empty).
    env[CACHE_ENV_VAR] = cache_dir
    return env


def preflight_verify(env: dict) -> int:
    """Statically verify the canonical experiment strategies."""
    for workload, topology, f, waivers in VERIFY_SCENARIOS:
        print(f"verifying mode graph: {workload} on {topology} (f={f})...")
        cmd = [sys.executable, "-m", "repro", "verify", "--strict",
               "--workload", workload, "--topology", topology,
               "--f", str(f)]
        for waiver in waivers:
            cmd += ["--waive", waiver]
        proc = subprocess.run(cmd, cwd=REPO, env=env)
        if proc.returncode != 0:
            print(f"static verification FAILED for {workload} on "
                  f"{topology}; refusing to benchmark an unsound "
                  f"strategy", file=sys.stderr)
            return proc.returncode
    return 0


def benchmark_files(only: str) -> list:
    """Benchmark shards, optionally filtered by ``--only``.

    ``only`` is a comma-separated list of substrings; a file runs when
    any of them matches its basename (``--only e18,e19`` reruns just the
    model-checking and engine-throughput experiments).
    """
    files = sorted(glob.glob(os.path.join(REPO, "benchmarks", "test_*.py")))
    needles = [n.strip() for n in only.split(",") if n.strip()]
    if needles:
        files = [f for f in files
                 if any(n in os.path.basename(f) for n in needles)]
    return files


def run_shard(path: str, env: dict) -> dict:
    """One pytest shard: a single benchmark file, timed wall-to-wall."""
    rel = os.path.relpath(path, REPO)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", rel, "--benchmark-only", "-q",
         "-p", "no:cacheprovider"],
        cwd=REPO, env=env, capture_output=True, text=True,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
    return {"file": rel, "wall_s": round(wall, 3),
            "returncode": proc.returncode}


def run_suite(files: list, jobs: int, env: dict) -> dict:
    start = time.perf_counter()
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            shards = list(pool.map(lambda p: run_shard(p, env), files))
    else:
        shards = [run_shard(p, env) for p in files]
    return {
        "jobs": jobs,
        "cache": env.get(CACHE_ENV_VAR) or None,
        "total_wall_s": round(time.perf_counter() - start, 3),
        "experiments": shards,
    }


def aggregate_planner_stats() -> dict:
    """Collapse the harness's per-prepare jsonl into one summary."""
    records = _read_jsonl(PLANNER_STATS)
    hits = sum(1 for r in records if r.get("cache_hit"))
    # Only prepares that consulted a cache (key recorded) enter the rate;
    # E7 deliberately plans uncached to measure raw planner cost.
    cached = sum(1 for r in records if r.get("cache_key"))
    computed = sum(r.get("plans_computed", 0) for r in records)
    memoised = sum(r.get("plans_memoised", 0) for r in records)
    planning_wall = sum(r.get("wall_s", 0.0) for r in records)
    prepares = len(records)
    return {
        "prepares": prepares,
        "cache_hits": hits,
        "cache_misses": cached - hits,
        "cache_hit_rate": round(hits / cached, 3) if cached else None,
        "plans_computed": computed,
        "plans_memoised": memoised,
        "plans_total": sum(r.get("plans_total", 0) for r in records),
        "planning_wall_s": round(planning_wall, 3),
        "plans_per_sec": (round((computed + memoised) / planning_wall, 1)
                          if planning_wall > 0 else None),
        "jobs_seen": sorted({r.get("jobs", 1) for r in records}),
    }


def _read_jsonl(path: str) -> list:
    records = []
    try:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if line:
                    records.append(json.loads(line))
    except OSError:
        pass
    return records


def aggregate_obs_stats() -> dict:
    """Collapse the harness's per-run timeline jsonl into one summary.

    Groups per fault kind: count, min/max end-to-end recovery, and the
    worst observed span per phase; plus suite-wide phase-sum integrity
    (every timeline's spans must sum to its total — the invariant the
    obs layer guarantees by construction) and the union of
    ``messages_dropped`` counters seen across runs.
    """
    records = _read_jsonl(OBS_STATS)
    by_kind: dict = {}
    sum_mismatches = 0
    dropped: dict = {}
    for r in records:
        phases = r.get("phases", {})
        total = r.get("total_us", 0)
        if sum(phases.values()) != total:
            sum_mismatches += 1
        entry = by_kind.setdefault(r.get("fault_kind", "?"), {
            "timelines": 0,
            "min_total_us": None,
            "max_total_us": 0,
            "worst_phase_us": {},
        })
        entry["timelines"] += 1
        entry["min_total_us"] = (total if entry["min_total_us"] is None
                                 else min(entry["min_total_us"], total))
        entry["max_total_us"] = max(entry["max_total_us"], total)
        for phase, span in phases.items():
            entry["worst_phase_us"][phase] = max(
                entry["worst_phase_us"].get(phase, 0), span)
        for key, value in (r.get("messages_dropped") or {}).items():
            dropped[key] = dropped.get(key, 0) + value
    return {
        "timelines": len(records),
        "phase_sum_mismatches": sum_mismatches,
        "by_fault_kind": {k: by_kind[k] for k in sorted(by_kind)},
        "messages_dropped": dropped,
        "experiments_seen": sorted({r.get("experiment", "?")
                                    for r in records}),
    }


def aggregate_sim_stats() -> dict:
    """Collapse E19's per-case jsonl into one engine-throughput summary.

    Groups per scenario@deployment: events/sec (best + worst across
    seeds, so a lucky run can't mask a regression), sweep events/sec,
    pool speedups with the core count that produced them, verify-memo
    effectiveness, and whether *every* case reproduced the golden trace
    table — the invariant the engine is never allowed to trade away.
    """
    records = _read_jsonl(SIM_STATS)
    by_scenario: dict = {}
    for r in records:
        key = r.get("scenario", "?")
        if r.get("n_nodes"):
            key = f"{key}@n{r['n_nodes']}"
        entry = by_scenario.setdefault(key, {
            "cases": 0,
            "n_nodes": r.get("n_nodes", 0),
            "sim_events": 0,
            "best_events_per_s": None,
            "worst_events_per_s": None,
            "best_sweep_events_per_s": None,
            "best_pool_speedup": None,
            "pool_cores": None,
            "memo_hits": 0,
            "memo_misses": 0,
        })
        entry["cases"] += 1
        entry["sim_events"] = max(entry["sim_events"],
                                  r.get("sim_events", 0))
        rate = r.get("events_per_s")
        if rate is not None:
            best, worst = entry["best_events_per_s"], \
                entry["worst_events_per_s"]
            entry["best_events_per_s"] = (rate if best is None
                                          else max(best, rate))
            entry["worst_events_per_s"] = (rate if worst is None
                                           else min(worst, rate))
        for col, best in (("sweep_events_per_s", "best_sweep_events_per_s"),
                          ("pool_speedup", "best_pool_speedup")):
            value = r.get(col)
            if value is not None:
                entry[best] = (value if entry[best] is None
                               else max(entry[best], value))
        if r.get("pool_speedup") is not None:
            entry["pool_cores"] = r.get("cores")
        for col in ("memo_hits", "memo_misses"):
            entry[col] += r.get(col, 0)
    for entry in by_scenario.values():
        lookups = entry["memo_hits"] + entry["memo_misses"]
        entry["memo_hit_rate"] = (round(entry["memo_hits"] / lookups, 3)
                                  if lookups else None)
    return {
        "cases": len(records),
        "golden_match": all(r.get("golden_match") for r in records)
        if records else None,
        "max_nodes": max((r.get("n_nodes", 0) for r in records),
                         default=0),
        "by_scenario": {k: by_scenario[k] for k in sorted(by_scenario)},
        "experiments_seen": sorted({r.get("experiment", "?")
                                    for r in records}),
    }


def aggregate_mc_stats() -> dict:
    """Collapse E18's per-campaign jsonl into one model-checking summary.

    Groups campaigns by their expectation label: ``certify`` campaigns
    must all come out certified with zero violations, ``violate``
    campaigns must all exhibit replay-confirmed counterexamples — the
    CI mc-smoke job asserts both from this file. Dedup hit-rate and
    pruning ratio are aggregated over all explored paths (not averaged
    per campaign) so tiny smoke campaigns cannot skew them.
    """
    records = _read_jsonl(MC_STATS)
    by_expect: dict = {}
    for r in records:
        entry = by_expect.setdefault(r.get("expect", "?"), {
            "campaigns": 0,
            "certified": 0,
            "paths": 0,
            "distinct_states": 0,
            "dedup_hits": 0,
            "pruned": 0,
            "violating_paths": 0,
            "replay_confirmed": 0,
            "best_states_per_sec": 0.0,
        })
        entry["campaigns"] += 1
        entry["certified"] += 1 if r.get("certified") else 0
        for col in ("paths", "distinct_states", "dedup_hits", "pruned",
                    "violating_paths", "replay_confirmed"):
            entry[col] += r.get(col, 0)
        entry["best_states_per_sec"] = max(
            entry["best_states_per_sec"],
            round(r.get("states_per_sec") or 0.0, 1))
    for entry in by_expect.values():
        entry["dedup_hit_rate"] = (
            round(entry["dedup_hits"] / entry["paths"], 3)
            if entry["paths"] else None)
        denominator = entry["pruned"] + entry["paths"]
        entry["prune_ratio"] = (round(entry["pruned"] / denominator, 3)
                                if denominator else None)
    return {
        "campaigns": len(records),
        "paths": sum(r.get("paths", 0) for r in records),
        "by_expectation": {k: by_expect[k] for k in sorted(by_expect)},
        "experiments_seen": sorted({r.get("experiment", "?")
                                    for r in records}),
    }


def aggregate_fuzz_stats() -> dict:
    """Collapse E20's per-campaign jsonl into one fuzzing summary.

    Groups campaigns by their expectation label: ``find`` campaigns (a
    deliberately tightened recovery budget) must all surface at least
    one minimised, replay-confirmed violating script, ``clean``
    campaigns (the planned budget) must find none — the CI fuzz-smoke
    job asserts both from this file.
    """
    records = _read_jsonl(FUZZ_STATS)
    by_expect: dict = {}
    for r in records:
        entry = by_expect.setdefault(r.get("expect", "?"), {
            "campaigns": 0,
            "found": 0,
            "scripts_evaluated": 0,
            "coverage_keys": 0,
            "violating_scripts": 0,
            "counterexamples": 0,
            "replay_confirmed": 0,
            "best_runs_per_sec": 0.0,
        })
        entry["campaigns"] += 1
        entry["found"] += 1 if r.get("found") else 0
        for col in ("scripts_evaluated", "violating_scripts",
                    "counterexamples", "replay_confirmed"):
            entry[col] += r.get(col, 0)
        entry["coverage_keys"] = max(entry["coverage_keys"],
                                     r.get("coverage_keys", 0))
        entry["best_runs_per_sec"] = max(
            entry["best_runs_per_sec"],
            round(r.get("runs_per_sec") or 0.0, 1))
    return {
        "campaigns": len(records),
        "scripts_evaluated": sum(r.get("scripts_evaluated", 0)
                                 for r in records),
        "by_expectation": {k: by_expect[k] for k in sorted(by_expect)},
        "experiments_seen": sorted({r.get("experiment", "?")
                                    for r in records}),
    }


def aggregate_bounds_stats() -> dict:
    """Collapse E21's per-scenario jsonl into one static-bounds summary.

    Soundness is aggregated over *every* row (grid sweeps, corpus and
    mc-counterexample replays alike); per-scenario tightness is taken
    only from full-grid rows — smoke grids are too sparse for their
    worst-empirical denominators to be comparable, so a smoke run
    contributes soundness evidence but no tightness baseline.
    """
    records = _read_jsonl(BOUNDS_STATS)
    by_scenario: dict = {}
    for r in records:
        if r.get("grid") != "full":
            continue
        by_scenario[r.get("scenario", "?")] = {
            "sound": bool(r.get("sound")),
            "checked": r.get("checked", 0),
            "skipped_unachievable": r.get("skipped_unachievable", 0),
            "R_us": r.get("R_us"),
            "class_tightness": r.get("class_tightness", {}),
        }
    return {
        "rows": len(records),
        "timelines_checked": sum(r.get("checked", 0) for r in records),
        "all_sound": all(r.get("sound") for r in records)
        if records else None,
        "by_scenario": {k: by_scenario[k] for k in sorted(by_scenario)},
        "experiments_seen": sorted({r.get("experiment", "?")
                                    for r in records}),
    }


def write_json(path: str, payload: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO, capture_output=True, text=True, timeout=10,
        )
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def update_sim_trajectory(path: str, aggregate: dict) -> bool:
    """Append this suite run's aggregate to the tracked trajectory.

    ``BENCH_sim.json`` is committed (the other BENCH files are
    regenerated scratch): ``{"schema": 2, "runs": [entry, ...]}``, one
    entry per suite run that actually produced sim measurements, stamped
    with the git sha and UTC date that produced it. Runs that exercised
    no sim benchmark (e.g. ``--only e7``) append nothing, so a filtered
    rerun can never dilute the trajectory with empty entries. A legacy
    schema-1 file (a bare aggregate dict) is adopted as the first entry.
    Returns True when an entry was appended.
    """
    if not aggregate.get("cases"):
        return False
    try:
        with open(path) as f:
            existing = json.load(f)
    except (OSError, ValueError):
        existing = None
    if isinstance(existing, dict) and isinstance(existing.get("runs"),
                                                 list):
        runs = existing["runs"]
    elif isinstance(existing, dict) and existing.get("cases"):
        runs = [{"git_sha": "unknown", "date_utc": None, **existing}]
    else:
        runs = []
    from datetime import datetime, timezone
    runs.append({
        "git_sha": git_sha(),
        "date_utc": datetime.now(timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        **aggregate,
    })
    write_json(path, {"schema": 2, "runs": runs})
    return True


def update_bounds_trajectory(path: str, aggregate: dict) -> bool:
    """Append this suite run's static-bounds aggregate to the tracked
    trajectory.

    Mirrors :func:`update_sim_trajectory`: ``BENCH_bounds.json`` is
    committed, ``{"schema": 1, "runs": [entry, ...]}``, one entry per
    suite run whose E21 sweep produced *full-grid* tightness rows.
    Smoke-only runs (the CI bounds-smoke job) append nothing — their
    sparse grids would dilute the tightness baseline with incomparable
    denominators. Returns True when an entry was appended.
    """
    if not aggregate.get("by_scenario"):
        return False
    try:
        with open(path) as f:
            existing = json.load(f)
    except (OSError, ValueError):
        existing = None
    if isinstance(existing, dict) and isinstance(existing.get("runs"),
                                                 list):
        runs = existing["runs"]
    else:
        runs = []
    from datetime import datetime, timezone
    runs.append({
        "git_sha": git_sha(),
        "date_utc": datetime.now(timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        **aggregate,
    })
    write_json(path, {"schema": 1, "runs": runs})
    return True


def collate_report(only: str) -> int:
    missing = []
    sections = []
    for name in ORDER:
        path = os.path.join(RESULTS, f"{name}.txt")
        if not os.path.exists(path):
            missing.append(name)
            continue
        with open(path) as f:
            sections.append(f.read().rstrip("\n"))

    report_path = os.path.join(RESULTS, "REPORT.txt")
    with open(report_path, "w") as f:
        f.write(
            "Reproduction report - Fault Tolerance and the Five-Second "
            "Rule (HotOS XV, 2015)\n"
            "Generated by tools/run_experiments.py; see EXPERIMENTS.md "
            "for claim-by-claim analysis.\n"
        )
        f.write("\n\n".join(sections))
        f.write("\n")
    print(f"report written to {report_path} "
          f"({len(sections)} experiments)")
    if missing:
        print(f"WARNING: missing results: {', '.join(missing)}",
              file=sys.stderr)
        # A filtered run legitimately regenerates only a subset.
        return 0 if only else 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="benchmark shards to run concurrently "
                             "(one pytest process per benchmark file)")
    parser.add_argument("--only", default="", metavar="SUBSTRS",
                        help="run only benchmark files whose name "
                             "contains any of the comma-separated "
                             "substrings (e.g. e7 or e18,e19)")
    parser.add_argument("--cache", default=DEFAULT_CACHE, metavar="DIR",
                        help="shared strategy cache directory "
                             "(default: benchmarks/.strategy_cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the strategy cache (replan "
                             "everything)")
    parser.add_argument("--skip-run", action="store_true",
                        help="collate existing results without re-running")
    parser.add_argument("--skip-verify", action="store_true",
                        help="skip the static mode-graph verification "
                             "pre-flight")
    args = parser.parse_args()
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    cache_dir = "" if args.no_cache else args.cache
    env = suite_env(cache_dir)

    if not args.skip_verify and not args.skip_run:
        rc = preflight_verify(env)
        if rc != 0:
            return rc

    if not args.skip_run:
        files = benchmark_files(args.only)
        if not files:
            print(f"no benchmark files match --only {args.only!r}",
                  file=sys.stderr)
            return 2
        os.makedirs(RESULTS, exist_ok=True)
        # Fresh planning/obs/sim/mc/fuzz-stats streams for this run.
        for stream in (PLANNER_STATS, OBS_STATS, SIM_STATS, MC_STATS,
                       FUZZ_STATS, BOUNDS_STATS):
            with open(stream, "w"):
                pass
        print(f"running {len(files)} benchmark shards "
              f"(jobs={args.jobs}, cache="
              f"{cache_dir or 'disabled'})...")
        suite = run_suite(files, args.jobs, env)
        write_json(os.path.join(RESULTS, "BENCH_suite.json"), suite)
        write_json(os.path.join(RESULTS, "BENCH_planner.json"),
                   aggregate_planner_stats())
        write_json(os.path.join(RESULTS, "BENCH_obs.json"),
                   aggregate_obs_stats())
        appended = update_sim_trajectory(
            os.path.join(RESULTS, "BENCH_sim.json"),
            aggregate_sim_stats())
        if appended:
            print("BENCH_sim.json: trajectory entry appended "
                  "(tracked file — commit it to extend the baseline)")
        write_json(os.path.join(RESULTS, "BENCH_mc.json"),
                   aggregate_mc_stats())
        write_json(os.path.join(RESULTS, "BENCH_fuzz.json"),
                   aggregate_fuzz_stats())
        bounds_appended = update_bounds_trajectory(
            os.path.join(RESULTS, "BENCH_bounds.json"),
            aggregate_bounds_stats())
        if bounds_appended:
            print("BENCH_bounds.json: trajectory entry appended "
                  "(tracked file — commit it to extend the baseline)")
        print(f"suite: {suite['total_wall_s']}s wall over "
              f"{len(files)} shards; perf trajectory in "
              f"BENCH_suite.json / BENCH_planner.json / "
              f"BENCH_obs.json / BENCH_sim.json / BENCH_mc.json / "
              f"BENCH_fuzz.json / BENCH_bounds.json")
        failed = [s for s in suite["experiments"] if s["returncode"] != 0]
        if failed:
            print("benchmark shards failed: "
                  + ", ".join(s["file"] for s in failed), file=sys.stderr)
            return 1

    return collate_report(args.only)


if __name__ == "__main__":
    sys.exit(main())
