"""Shared helpers for the experiment benchmarks.

Every benchmark regenerates one experiment from DESIGN.md §3: it runs the
system(s), renders the experiment's table or series with
:mod:`repro.analysis.reporting`, writes it to ``benchmarks/results/``, and
asserts the qualitative shape of the paper's claim. Timing is reported via
pytest-benchmark (single round — the experiments are deterministic, so
statistical repetition buys nothing).
"""

from __future__ import annotations

import dataclasses
import os
from typing import Optional

from repro import BTRConfig, BTRSystem
from repro.faults import SingleFaultAdversary
from repro.net import full_mesh_topology
from repro.perf import CACHE_ENV_VAR
from repro.perf.timing import append_jsonl
from repro.workload import industrial_workload

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Standard single-fault time for the 50 ms industrial workload.
FAULT_AT = 220_000

#: Per-prepare planning stats, appended by :func:`prepared_btr`;
#: ``tools/run_experiments.py`` truncates it before a suite run and
#: aggregates it into ``BENCH_planner.json`` afterwards.
PLANNER_STATS_PATH = os.path.join(RESULTS_DIR, "planner_stats.jsonl")

#: Per-run observability stats (fault timelines + drop counters),
#: appended by :func:`record_obs`; ``tools/run_experiments.py``
#: aggregates it into ``BENCH_obs.json`` after a suite run.
OBS_STATS_PATH = os.path.join(RESULTS_DIR, "obs_stats.jsonl")

#: Per-case engine-throughput stats (events/sec, sweep and pool
#: columns, memo hits, golden verdicts), appended by :func:`record_sim`
#: from the E19 benchmark; ``tools/run_experiments.py`` folds it into
#: the *committed* ``BENCH_sim.json`` trajectory.
SIM_STATS_PATH = os.path.join(RESULTS_DIR, "sim_stats.jsonl")

#: Per-campaign model-checking stats (paths, dedup hit-rate, pruning
#: ratio, states/sec), appended by :func:`record_mc` from the E18
#: benchmark; ``tools/run_experiments.py`` aggregates it into
#: ``BENCH_mc.json``.
MC_STATS_PATH = os.path.join(RESULTS_DIR, "mc_stats.jsonl")

#: Per-campaign fuzzing stats (scripts evaluated, coverage size,
#: violations found/confirmed, runs/sec), appended by
#: :func:`record_fuzz` from the E20 benchmark;
#: ``tools/run_experiments.py`` aggregates it into ``BENCH_fuzz.json``.
FUZZ_STATS_PATH = os.path.join(RESULTS_DIR, "fuzz_stats.jsonl")

#: Per-scenario static-bound soundness/tightness stats (timelines
#: checked, dominance verdict, per-class tightness ratios), appended by
#: :func:`record_bounds` from the E21 benchmark;
#: ``tools/run_experiments.py`` folds it into the *committed*
#: ``BENCH_bounds.json`` trajectory that ``tools/bench_check.py`` gates.
BOUNDS_STATS_PATH = os.path.join(RESULTS_DIR, "bounds_stats.jsonl")


def harness_cache_dir() -> Optional[str]:
    """The strategy-cache directory the benchmarks share.

    ``$REPRO_STRATEGY_CACHE`` wins when set (``run_experiments.py``
    threads one directory through every experiment shard; setting it
    empty disables caching); otherwise ``benchmarks/.strategy_cache``,
    so repeated local pytest runs of experiments that reuse the
    canonical (industrial, fullmesh:7, f=1) scenario stop re-planning
    it from scratch.
    """
    value = os.environ.get(CACHE_ENV_VAR)
    if value is not None:
        return value.strip() or None
    return os.path.join(os.path.dirname(__file__), ".strategy_cache")


def record_planning(system: BTRSystem, label: Optional[str] = None) -> None:
    """Append one prepare()'s planning stats to the jsonl stream."""
    stats = getattr(system, "plan_stats", None)
    if stats is None:
        return
    if label is None:
        label = os.environ.get("PYTEST_CURRENT_TEST", "adhoc").split(" ")[0]
    append_jsonl(PLANNER_STATS_PATH, {"experiment": label,
                                      **stats.to_dict()})


def record_obs(result, label: Optional[str] = None,
               timelines=None) -> list:
    """Append one run's reconstructed fault timelines to the obs stream.

    Returns the timelines so experiments can assert on them (notably the
    phase-sum invariant) without reconstructing twice.
    """
    from repro.obs import reconstruct_timelines

    if timelines is None:
        timelines = reconstruct_timelines(result)
    if label is None:
        label = os.environ.get("PYTEST_CURRENT_TEST", "adhoc").split(" ")[0]
    counters = (result.metrics or {}).get("counters", {})
    dropped = {k: v for k, v in counters.items()
               if k.startswith("messages_dropped")}
    for timeline in timelines:
        append_jsonl(OBS_STATS_PATH, {
            "experiment": label,
            "messages_dropped": dropped,
            **timeline.to_dict(),
        })
    return timelines


def record_sim(row: dict, label: Optional[str] = None) -> None:
    """Append one online-runtime measurement to the sim stats stream."""
    if label is None:
        label = os.environ.get("PYTEST_CURRENT_TEST", "adhoc").split(" ")[0]
    append_jsonl(SIM_STATS_PATH, {"experiment": label, **row})


def record_mc(row: dict, label: Optional[str] = None) -> None:
    """Append one model-checking campaign's stats to the mc stream."""
    if label is None:
        label = os.environ.get("PYTEST_CURRENT_TEST", "adhoc").split(" ")[0]
    append_jsonl(MC_STATS_PATH, {"experiment": label, **row})


def record_fuzz(row: dict, label: Optional[str] = None) -> None:
    """Append one fuzz campaign's stats to the fuzz stream."""
    if label is None:
        label = os.environ.get("PYTEST_CURRENT_TEST", "adhoc").split(" ")[0]
    append_jsonl(FUZZ_STATS_PATH, {"experiment": label, **row})


def record_bounds(row: dict, label: Optional[str] = None) -> None:
    """Append one scenario's static-bound stats to the bounds stream."""
    if label is None:
        label = os.environ.get("PYTEST_CURRENT_TEST", "adhoc").split(" ")[0]
    append_jsonl(BOUNDS_STATS_PATH, {"experiment": label, **row})


def write_result(name: str, text: str) -> None:
    """Persist an experiment's rendered table for EXPERIMENTS.md."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as f:
        f.write(text)
    print(text)


def one_shot(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark and return its
    result (deterministic experiments need no statistical repetition)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def prepared_btr(workload=None, n_nodes: int = 7, f: int = 1,
                 seed: int = 42, bandwidth: float = 1e8,
                 config: Optional[BTRConfig] = None) -> BTRSystem:
    """A prepared BTR system, planned through the shared strategy cache.

    The cache key covers every planning input (workload, topology, f,
    seed, planner config and version), so threading one cache through
    all benchmarks is safe: experiments that reuse a scenario hit, every
    other configuration misses and plans as before.
    """
    workload = workload or industrial_workload()
    topology = full_mesh_topology(n_nodes, bandwidth=bandwidth)
    config = config or BTRConfig(f=f, seed=seed)
    if config.cache is None:
        config = dataclasses.replace(config, cache=harness_cache_dir())
    system = BTRSystem(workload, topology, config)
    system.prepare()
    record_planning(system)
    return system


def single_fault(kind: str, at: int = FAULT_AT,
                 node: Optional[str] = None) -> SingleFaultAdversary:
    return SingleFaultAdversary(at=at, kind=kind, node=node)
