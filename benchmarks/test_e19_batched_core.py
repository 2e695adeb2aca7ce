"""E19 — Engine throughput: one runtime, pinned by golden traces.

The runtime has one execution path: the batched emitters (periodic
heartbeat/evidence fan-outs as one heap event per (sender, arrival)
group, pooled messages, coalesced timers) on one tuple-heap event loop,
with the signature verify memo. This experiment measures its throughput
on every deployment the golden trace table covers at scale —

* the industrial workload on ``fullmesh:7`` (40 periods) and
  ``fullmesh:15`` (30 periods) under the ``single_commission``,
  ``checker_host_crash`` and ``flood_plus_fault`` scenarios, seeds 42
  and 43;
* the stretched industrial workload on the geo deployments ``geo:3x20``,
  ``geo:6x20`` and ``geo:4x30`` (8 periods, gateway crash plus WAN
  brownout).

**The gate.** Every row's full-mode and milestone-mode runs must
reproduce the committed golden rows (``tests/golden/traces.json``:
trace fingerprint and ``events_executed``), and so must the sweep and
pool columns. This replaces the reference columns earlier versions of
this experiment (and E17/E22) compared against: the engines they ran are
gone, their agreement on every row is what the table recorded.

**The clocks** (milestone traces, one process): engine events/sec; the
in-process multi-seed sweep (``run_sweep``: two seeds sharing one
prepared system); and on geo rows the process-pool sweep
(``run_sweep_pool``) against the serial sweep of the same seeds. The
pool speedup is gated only where parallelism exists (>= 2 cores).

**The floor** (full sweep): >= 185,000 events/s on every >= 100-node
deployment — twice the committed single-loop reference of the retired
sharding experiment (3,250,710 events in 35.06 s on ``geo:4x30``,
``benchmarks/results/geo_stats.jsonl``). ``tools/bench_check.py``
enforces the same floor on the committed ``BENCH_sim.json`` trajectory.

Environment knobs (used by the CI engine-smoke job):

* ``REPRO_E19_SWEEP=smoke`` — ``single_commission`` on ``fullmesh:7``
  and ``geo:3x20`` (with the pool), seed 42; the golden gate is always
  enforced, no wall-clock assertions.
"""

import os

from harness import harness_cache_dir, one_shot, record_sim, write_result
from repro.analysis import format_table
from repro.perf import (
    GeoSweepSpec,
    online_stats,
    run_sweep,
    run_sweep_pool,
    trace_fingerprint,
)
from repro.perf.timing import Stopwatch
from tools import golden

#: (golden topology, scenario or None for geo rows, seeds, pool).
SWEEP_FULL = [
    *[("fullmesh:7", name, (42, 43), False)
      for name, _ in golden.ENGINE_SCENARIOS],
    *[("fullmesh:15", name, (42, 43), False)
      for name, _ in golden.ENGINE_SCENARIOS],
    ("geo:3x20", None, (42, 43), False),
    ("geo:6x20", None, (42,), False),
    ("geo:4x30", None, (42, 43), True),
]
SWEEP_SMOKE = [("fullmesh:7", "single_commission", (42,), False),
               ("geo:3x20", None, (42,), True)]

#: Seeds of the pool column (enough work per worker for the process
#: start and rebuild to amortise).
POOL_SEEDS = (42, 43, 44, 45)

#: Absolute throughput floor on >= 100-node deployments, events/s:
#: 2 x 3,250,710 events / 35.06 s (the retired single-loop reference).
EVENTS_PER_S_FLOOR = 185_000
FLOOR_NODES = 100

#: Pool parallelism is gated only where it physically exists.
POOL_GATE = 1.5


def smoke() -> bool:
    return os.environ.get("REPRO_E19_SWEEP") == "smoke"


def golden_row(topology: str, scenario: str, seed: int, mode: str) -> dict:
    for row in golden.load():
        if (row.get("topology"), row.get("scenario"), row.get("seed"),
                row["trace_mode"]) == (topology, scenario, seed, mode):
            return row
    raise LookupError(f"no golden row for {topology} {scenario} "
                      f"s{seed} {mode}")


def matches(row: dict, fingerprint: str, events: int) -> bool:
    return (fingerprint, events) == (row["fingerprint"],
                                     row["events_executed"])


def run_case(topology: str, scenario: str, seed: int, pool: bool) -> dict:
    full = golden_row(topology, scenario, seed, "full")
    miles = golden_row(topology, scenario, seed, "milestones")
    n_nodes = golden.nodes_of(full)

    # --- The gate: the full-mode run reproduces its golden row. ---
    golden_ok = matches(full, *golden.run_row(full))

    # --- The clocks: milestone trace, the benchmark configuration. ---
    system = golden.prepared(miles)
    watch = Stopwatch()
    result = golden.execute(system, miles)
    wall = watch.elapsed_s()
    events = system.sim.events_executed
    golden_ok &= matches(miles, trace_fingerprint(result.trace), events)
    crypto = online_stats(system)
    batches = system.batch_runtime.stats()

    # --- The sweep: a sibling seed shares the prepared system. ---
    sweep = run_sweep(system, (seed, seed + 1000), miles["periods"],
                      scenario=miles["scenario"])
    golden_ok &= sweep[0].fingerprint == miles["fingerprint"]
    sweep_wall = sum(run.wall_s for run in sweep)
    sweep_events = sum(run.result.metrics["gauges"]["sim_events_executed"]
                       for run in sweep)

    row = {
        "scenario": miles["scenario"],
        "topology": topology,
        "n_nodes": n_nodes,
        "f": miles["f"],
        "n_periods": miles["periods"],
        "seed": seed,
        "sim_events": events,
        "wall_s": round(wall, 4),
        "events_per_s": round(events / wall) if wall else None,
        "sweep_events_per_s": (round(sweep_events / sweep_wall)
                               if sweep_wall else None),
        "batches_fired": batches["batches_fired"],
        "entries_batched": batches["entries_batched"],
        "signs": crypto["signs"],
        "verifies": crypto["verifies"],
        "memo_hits": crypto["memo"]["hits"],
        "memo_misses": crypto["memo"]["misses"],
    }

    # --- The pool: per-seed fingerprints survive the process boundary.
    if pool:
        regions, per_region = topology.partition(":")[2].split("x")
        spec = GeoSweepSpec(regions=int(regions),
                            nodes_per_region=int(per_region),
                            stretch=miles["stretch"], f=miles["f"],
                            n_periods=miles["periods"],
                            scenario=miles["scenario"],
                            cache=harness_cache_dir() or None,
                            trace_mode="milestones")
        watch = Stopwatch()
        serial = run_sweep(system, POOL_SEEDS, miles["periods"],
                           scenario=miles["scenario"])
        serial_s = watch.elapsed_s()
        serial_fps = {run.seed: run.fingerprint for run in serial}
        golden_ok &= serial_fps[seed] == miles["fingerprint"]
        cores = os.cpu_count() or 1
        watch = Stopwatch()
        out = run_sweep_pool(spec, POOL_SEEDS,
                             workers=min(len(POOL_SEEDS), max(cores, 2)))
        pool_s = watch.elapsed_s()
        for entry in out["runs"]:
            golden_ok &= entry["fingerprint"] == serial_fps[entry["seed"]]
        row.update({
            "pool_seeds": len(POOL_SEEDS),
            "pool_workers": out["workers"],
            "pooled": out["pooled"],
            "cores": cores,
            "wall_serial_sweep_s": round(serial_s, 4),
            "wall_pool_sweep_s": round(pool_s, 4),
            "pool_speedup": round(serial_s / pool_s, 2) if pool_s else None,
        })
    row["golden_match"] = bool(golden_ok)
    return row


def run_experiment():
    cases = []
    for topology, scenario, seeds, pool in (SWEEP_SMOKE if smoke()
                                            else SWEEP_FULL):
        if scenario is None:
            scenario = topology
        for seed in seeds:
            case = run_case(topology, scenario, seed, pool)
            record_sim(case, label=f"e19:{scenario}@{topology}:s{seed}")
            cases.append(case)
    return cases


def test_e19_batched_core(benchmark):
    cases = one_shot(benchmark, run_experiment)

    rows = [[
        c["scenario"], c["n_nodes"], c["seed"], f"{c['sim_events']:,}",
        f"{c['events_per_s']:,}", f"{c['sweep_events_per_s']:,}",
        (f"{c['pool_speedup']:.2f}x@{c['pool_workers']}w"
         if c.get("pool_speedup") else "-"),
        f"{c['entries_batched']}/{c['batches_fired']}",
        f"{c['memo_hits']}/{c['memo_hits'] + c['memo_misses']}",
        "match" if c["golden_match"] else "MISMATCH",
    ] for c in cases]
    write_result("e19_batched_core", format_table(
        "E19: engine throughput (industrial workload on full meshes, "
        "stretched industrial on geo deployments; milestone traces; "
        "full and milestone traces checked against the golden table)",
        ["scenario", "n", "seed", "sim events", "ev/s", "ev/s sweep",
         "pool", "batched entries/events", "memo hits/lookups",
         "golden"],
        rows,
    ))

    for c in cases:
        assert c["golden_match"], (
            f"{c['scenario']} seed={c['seed']}: run diverged from the "
            f"golden trace table")
        # Batching must actually coalesce: strictly fewer heap events
        # than batched entries.
        assert c["batches_fired"] < c["entries_batched"]
        assert c["memo_hits"] > 0
    if not smoke():
        big = [c for c in cases if c["n_nodes"] >= FLOOR_NODES]
        assert big, "full sweep must include a >=100-node deployment"
        for c in big:
            assert c["events_per_s"] >= EVENTS_PER_S_FLOOR, (
                f"{c['scenario']}: {c['events_per_s']:,} events/s under "
                f"the {EVENTS_PER_S_FLOOR:,} floor")
        for c in cases:
            if c.get("pooled") and c.get("cores", 1) >= 2:
                assert c["pool_speedup"] >= POOL_GATE, (
                    f"{c['scenario']}: pool sweep {c['pool_speedup']}x "
                    f"< {POOL_GATE}x on {c['cores']} cores")
