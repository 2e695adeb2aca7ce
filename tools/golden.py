#!/usr/bin/env python3
"""Golden trace fingerprints: the runtime's behaviour, pinned by data.

``tests/golden/traces.json`` holds one row per run of a fixed matrix:
what to run (workload, topology, fault or scenario, seed, periods,
trace mode) and what the run must produce — the
:func:`~repro.perf.fastpath.trace_fingerprint` of its trace and the
engine's ``events_executed`` gauge. The matrix covers

* E1: each fault kind on the industrial ``fullmesh:7`` deployment;
* E17 and E19: the engine-throughput scenarios on ``fullmesh:7`` and
  ``fullmesh:15``;
* E22: the ``geo:RxM`` deployments (stretched industrial workload);
* one run driven by a delaying delivery hook (the model checker's path);
* the replays of the committed ``corpus/`` counterexamples;

each E* row in both the ``full`` and ``milestones`` trace modes.

Usage::

    python -m tools.golden          # check every row (minutes, ~1 GB)
    python -m tools.golden --write  # regenerate the table

``tests/test_golden_traces.py`` checks the rows below 100 nodes.

The table was first generated while the runtime still had four engine
variants (the unmemoised reference path, the per-message fast path, the
batched core and, for geo rows, the region-sharded core); all of them
agreed on every row. Regenerating it is a deliberate act: a changed
fingerprint means the runtime now behaves differently, and the
regeneration belongs in CHANGES.md with the reason.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_PATH = os.path.join(REPO, "tests", "golden", "traces.json")
CORPUS_DIR = os.path.join(REPO, "corpus")

TRACE_MODES = ("full", "milestones")
#: E1's deployment: one fault per kind at 220 ms, 30 periods.
E1_KINDS = ("commission", "crash", "omission", "timing", "equivocation")
E1_FAULT_AT = 220_000
#: E17/E19's scenario set: (scenario, f).
ENGINE_SCENARIOS = (("single_commission", 1), ("checker_host_crash", 1),
                    ("flood_plus_fault", 2))
#: E22's geo deployments: (regions, nodes per region, seeds).
GEO_CASES = ((3, 20, (42, 43)), (6, 20, (42,)), (4, 30, (42, 43)))
GEO_STRETCH = 10
GEO_PERIODS = 8
#: The model-checker row: commission on the smallest deployment with
#: three deliveries held back (delivery index, extra delay in us).
MC_DELIVERIES = ((2, 500), (9, 3_000), (40, 12_000))


def matrix() -> List[dict]:
    """Every row's run description, in table order (no results)."""
    rows: List[dict] = []
    for mode in TRACE_MODES:
        for kind in E1_KINDS:
            rows.append({"id": f"e1:{kind}:{mode}", "workload": "industrial",
                         "topology": "fullmesh:7", "f": 1, "seed": 42,
                         "periods": 30, "trace_mode": mode, "fault": kind})
        for label, nodes, periods in (("e17", 7, 40), ("e19", 15, 30)):
            for scenario, f in ENGINE_SCENARIOS:
                for seed in (42, 43):
                    rows.append({
                        "id": f"{label}:{scenario}:s{seed}:{mode}",
                        "workload": "industrial",
                        "topology": f"fullmesh:{nodes}", "f": f,
                        "seed": seed, "periods": periods,
                        "trace_mode": mode, "scenario": scenario})
        for regions, per_region, seeds in GEO_CASES:
            shape = f"{regions}x{per_region}"
            for seed in seeds:
                rows.append({
                    "id": f"e22:geo:{shape}:s{seed}:{mode}",
                    "workload": "industrial", "stretch": GEO_STRETCH,
                    "topology": f"geo:{shape}", "f": 1, "seed": seed,
                    "periods": GEO_PERIODS, "trace_mode": mode,
                    "scenario": f"geo:{shape}"})
    rows.append({"id": "mc:pipeline:commission:full", "workload": "pipeline",
                 "topology": "fullmesh:4", "f": 1, "seed": 7,
                 "periods": 17, "trace_mode": "full", "fault": "commission",
                 "fault_at": 40_000,
                 "deliveries": [list(d) for d in MC_DELIVERIES]})
    for name in sorted(os.listdir(CORPUS_DIR)):
        if name.endswith(".json"):
            rows.append({"id": f"corpus:{name[:-len('.json')]}",
                         "corpus": name, "trace_mode": "full"})
    return rows


def nodes_of(row: dict) -> int:
    """Node count of a row's deployment (corpus rows read their meta)."""
    topology = row.get("topology") or _corpus_meta(row)["meta"]["topology"]
    kind, _, arg = topology.partition(":")
    if kind in ("geo", "mesh"):
        a, b = arg.split("x")
        return int(a) * int(b)
    return int(arg)


def _corpus_meta(row: dict) -> dict:
    with open(os.path.join(CORPUS_DIR, row["corpus"])) as f:
        return json.load(f)


def prepared(row: dict):
    """A prepared system on the deployment a row describes."""
    from repro import BTRConfig, BTRSystem
    from repro.cli import WORKLOADS, make_topology
    from repro.workload import stretched_workload

    spec = row
    if "corpus" in row:
        spec = _corpus_meta(row)["meta"]
    graph = WORKLOADS[spec["workload"]]()
    if row.get("stretch", 1) > 1:
        graph = stretched_workload(graph, row["stretch"])
    config = BTRConfig(f=spec["f"], seed=spec["seed"],
                       trace_mode=row["trace_mode"])
    system = BTRSystem(graph, make_topology(spec["topology"], 1e8), config)
    system.prepare()
    return system


def execute(system, row: dict):
    """Run a row on its prepared system; returns the RunResult."""
    from repro.faults import SingleFaultAdversary, stage
    from repro.mc import DeliveryPerturbation, replay_counterexample

    if "corpus" in row:
        return replay_counterexample(system, _corpus_meta(row))[1]
    hook = None
    if "deliveries" in row:
        hook = DeliveryPerturbation(tuple(tuple(d)
                                          for d in row["deliveries"]))
    if "scenario" in row:
        scenario = stage(row["scenario"], system)
        return system.run(row["periods"], adversary=scenario.script,
                          link_script=scenario.link_script or None,
                          delivery_hook=hook)
    adversary = SingleFaultAdversary(at=row.get("fault_at", E1_FAULT_AT),
                                     kind=row["fault"])
    return system.run(row["periods"], adversary=adversary,
                      delivery_hook=hook)


def run_row(row: dict) -> Tuple[str, int]:
    """Run one row; returns ``(trace fingerprint, events executed)``."""
    from repro.perf import trace_fingerprint

    system = prepared(row)
    result = execute(system, row)
    return trace_fingerprint(result.trace), system.sim.events_executed


def load(path: str = GOLDEN_PATH) -> List[dict]:
    with open(path) as f:
        return json.load(f)["rows"]


def check(rows: List[dict]) -> List[str]:
    """Re-run every row; one line per mismatch."""
    problems = []
    for row in rows:
        fingerprint, events = run_row(row)
        if (fingerprint, events) != (row["fingerprint"],
                                     row["events_executed"]):
            problems.append(
                f"{row['id']}: fingerprint {fingerprint[:12]} events "
                f"{events}, golden {row['fingerprint'][:12]} events "
                f"{row['events_executed']}")
    return problems


def generate() -> List[dict]:
    """Run the matrix; one row per run, results included."""
    rows = []
    for spec in matrix():
        fingerprint, events = run_row(spec)
        row = dict(spec, fingerprint=fingerprint, events_executed=events)
        print(f"{row['id']}: {fingerprint[:12]} events {events}",
              flush=True)
        rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="regenerate the table (record why in "
                             "CHANGES.md)")
    args = parser.parse_args(argv)
    if args.write:
        rows = generate()
        os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
        with open(GOLDEN_PATH, "w") as f:
            json.dump({"schema": 1, "rows": rows}, f, indent=1)
            f.write("\n")
        print(f"wrote {len(rows)} rows to {GOLDEN_PATH}")
        return 0
    problems = check(load())
    for problem in problems:
        print(f"golden: MISMATCH {problem}", file=sys.stderr)
    print(f"golden: {'FAIL' if problems else 'OK'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
