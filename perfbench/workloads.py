"""The three benchmark workloads, driven through the public ``repro`` API.

Each workload turns the benchmark seed into inputs (workload graph,
topology, config and, for fuzzing, campaign parameters), sets up once,
and then repeats one *operation*:

* ``geo-plan``: a cold ``BTRSystem.prepare(strict=True)`` of the
  stretched industrial workload on ``geo:3x20`` -- planning plus static
  verification, no simulation;
* ``geo-rehearse``: stage the ``geo:3x12`` scenario (gateway crash plus
  WAN brownout) on a prepared system, run 24 periods with the default
  full trace, then rebuild the recovery timelines and check the
  Definition 3.1 verdict;
* ``mesh-fuzz``: one ``run_fuzz_campaign`` on ``fullmesh:8`` with
  ``f=2`` -- the paper's kR adversary (k <= f) as many short runs.

Only ``f``, ``seed``, the workload, the topology and the scenario are
set; every engine-selection field of ``BTRConfig`` keeps its default.
The ``repro`` modules are looked up by attribute at call time, so the
traced run can wrap them from outside.

Importing this module imports ``repro``: the caller times the import.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

import repro
import repro.analysis as analysis
import repro.faults as faults
import repro.fuzz as fuzz
import repro.net as net
import repro.obs as obs
import repro.workload as wl
from repro.core.planner.serialize import strategy_to_json
from repro.perf import shared_prepare, trace_fingerprint

#: Workload sizes. ``full`` is what the benchmark measures; ``tiny``
#: exercises the same code paths in about a second, for the benchmark's
#: own tests.
SIZES: Dict[str, Dict[str, Dict[str, int]]] = {
    "geo-plan": {
        "full": {"regions": 3, "per_region": 20},
        "tiny": {"regions": 2, "per_region": 4},
    },
    "geo-rehearse": {
        "full": {"regions": 3, "per_region": 12, "periods": 24},
        "tiny": {"regions": 3, "per_region": 4, "periods": 24},
    },
    "mesh-fuzz": {
        "full": {"nodes": 8, "f": 2, "generations": 4, "batch": 8},
        "tiny": {"nodes": 5, "f": 1, "generations": 1, "batch": 2},
    },
}

#: Periods and deadlines of the industrial workload are stretched this
#: much so WAN latencies fit (the geo deployment recipe).
GEO_STRETCH = 10
#: Bandwidth of every geo link, bits/s (the geo deployment recipe).
GEO_BANDWIDTH = 1e8
#: Seed of the fuzz campaign's candidate genomes.
FUZZ_SEED = 7


def strategy_sha256(strategy) -> str:
    return hashlib.sha256(strategy_to_json(strategy).encode()).hexdigest()


@dataclass
class Operation:
    """The outcome of one operation: checked values plus timings."""

    #: Wall time of the operation proper on ``Workload.clock``, s.
    seconds: float
    #: Values compared against the pins and across operations.
    values: Dict[str, Any]
    #: Extra timings/sizes the metrics are derived from.
    timings: Dict[str, float] = field(default_factory=dict)


class Workload:
    """Common shape: inputs from the seed, setup, a repeatable operation."""

    name = ""

    def __init__(self, seed: int, size: str = "full") -> None:
        self.seed = seed
        self.shape = SIZES[self.name][size]
        #: Filled by setup(): the strategy hash of the deployment.
        self.strategy_hash: Optional[str] = None
        #: Wall time of the cold prepare done in setup(), if any.
        self.setup_plan_s: Optional[float] = None
        #: Recorded, never checked (not yet stable across processes).
        self.trace_fingerprint: Optional[str] = None
        #: The clock operations are timed with; the timed run swaps in
        #: one that leaves out its host-speed samples.
        self.clock: Callable[[], float] = perf_counter

    def config(self) -> repro.BTRConfig:
        return repro.BTRConfig(f=1, seed=self.seed)

    def setup(self) -> None:
        """Everything before the first operation."""

    def inputs(self) -> tuple:
        raise NotImplementedError

    def operation(self) -> Operation:
        raise NotImplementedError

    def invariant_failures(self, values: Dict[str, Any]) -> List[str]:
        """Checks that hold on every seed, pinned or not."""
        return []

    def unit_seconds(self, op: Operation) -> float:
        """Host seconds per unit of work (``op_s``)."""
        return op.seconds

    def summary(self, ops: List[Operation]) -> Dict[str, tuple]:
        """Workload-specific figures for the readable report:
        name -> (value, unit). ``plan_s`` is the cold prepare of setup."""
        return {"plan_s": (self.setup_plan_s, "s")}

    def provenance(self) -> Dict[str, Any]:
        return {"config": repr(self.config()),
                "strategy_sha256": self.strategy_hash,
                "trace_fingerprint": self.trace_fingerprint}


class GeoWorkload(Workload):
    """The geo deployment recipe: stretched industrial workload on a
    multi-region topology."""

    def inputs(self) -> tuple:
        return (wl.stretched_workload(wl.industrial_workload(),
                                      GEO_STRETCH),
                net.geo_topology(self.shape["regions"],
                                 self.shape["per_region"],
                                 bandwidth=GEO_BANDWIDTH),
                self.config())


class GeoPlan(GeoWorkload):
    """Cold strict planning of a 60-node geo deployment."""

    name = "geo-plan"

    def setup(self) -> None:
        """Only the inputs: every operation plans from scratch."""
        self.inputs()

    def operation(self) -> Operation:
        system = repro.BTRSystem(*self.inputs())
        start = self.clock()
        budget = system.prepare(strict=True)
        seconds = self.clock() - start
        self.strategy_hash = strategy_sha256(system.strategy)
        return Operation(seconds, {
            "plans": len(system.strategy),
            "budget_us": budget.total_us,
            "strategy_sha256": self.strategy_hash,
        })

    def summary(self, ops: List[Operation]) -> Dict[str, tuple]:
        """The operation is the cold (strict) prepare."""
        return {"plan_s": (statistics.median(op.seconds for op in ops),
                           "s")}


class GeoRehearse(GeoWorkload):
    """A full-trace fault rehearsal on a prepared 36-node geo system."""

    name = "geo-rehearse"

    def __init__(self, seed: int, size: str = "full") -> None:
        super().__init__(seed, size)
        self.scenario = f"geo:{self.shape['regions']}x" \
                        f"{self.shape['per_region']}"
        self.system = None
        self.budget = None

    def setup(self) -> None:
        self.system = repro.BTRSystem(*self.inputs())
        start = self.clock()
        self.budget = self.system.prepare()
        self.setup_plan_s = self.clock() - start
        self.strategy_hash = strategy_sha256(self.system.strategy)

    def operation(self) -> Operation:
        system = self.system
        start = self.clock()
        scenario = faults.stage(self.scenario, system)
        run_start = self.clock()
        result = system.run(self.shape["periods"],
                            adversary=scenario.script,
                            link_script=scenario.link_script or None)
        run_s = self.clock() - run_start
        timelines = obs.reconstruct_timelines(result)
        verdict = analysis.btr_verdict(result, self.budget.total_us)
        seconds = self.clock() - start
        milestones = timelines[0].milestones if timelines else {}
        values = {
            "events_executed": system.sim.events_executed,
            "outputs": len(result.outputs()),
            "mode_switches": len(result.mode_switches()),
            "verdict_holds": verdict.holds,
            "timelines": len(timelines),
            "conviction_us": milestones.get("conviction"),
            "switch_boundary_us": milestones.get("switch_boundary"),
        }
        if self.trace_fingerprint is None:
            self.trace_fingerprint = trace_fingerprint(result.trace)
        return Operation(seconds, values, {
            "run_s": run_s, "simulated_s": result.duration_us / 1e6})

    def summary(self, ops: List[Operation]) -> Dict[str, tuple]:
        speed = statistics.median(op.timings["simulated_s"]
                                  / op.timings["run_s"] for op in ops)
        return dict(super().summary(ops), sim_speed=(speed, "sim-s/s"))

    def invariant_failures(self, values: Dict[str, Any]) -> List[str]:
        failures = []
        if values["verdict_holds"] is not True:
            failures.append("Definition 3.1 verdict does not hold")
        if values["timelines"] != 1 or values["conviction_us"] is None:
            failures.append("the crashed gateway was not convicted")
        return failures


class MeshFuzz(Workload):
    """A kR fuzz campaign (k <= f) on an 8-node full mesh."""

    name = "mesh-fuzz"

    def config(self) -> repro.BTRConfig:
        return repro.BTRConfig(f=self.shape["f"], seed=self.seed)

    def inputs(self) -> tuple:
        return (wl.industrial_workload(),
                net.full_mesh_topology(self.shape["nodes"]),
                self.config())

    def params(self):
        """The campaign is part of the workload: its genome seed is
        fixed, and the benchmark seed drives the deployment's run seed."""
        return fuzz.FuzzParams(max_injections=self.shape["f"],
                               generations=self.shape["generations"],
                               batch=self.shape["batch"], seed=FUZZ_SEED)

    def setup(self) -> None:
        """The cold prepare the campaign adopts: ``run_fuzz_campaign``
        prepares a milestone-trace system through ``shared_prepare``, so
        the same call here leaves every operation the same, warm work."""
        workload, topology, config = self.inputs()
        system = repro.BTRSystem(workload, topology,
                                 replace(config, trace_mode="milestones"))
        start = self.clock()
        shared_prepare(system)
        self.setup_plan_s = self.clock() - start
        self.strategy_hash = strategy_sha256(system.strategy)

    def operation(self) -> Operation:
        workload, topology, config = self.inputs()
        params = self.params()
        start = self.clock()
        report, stats = fuzz.run_fuzz_campaign(workload, topology, config,
                                               params)
        seconds = self.clock() - start
        digest = hashlib.sha256(json.dumps(
            report, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        return Operation(seconds, {
            "report_sha256": digest,
            "found": report["found"],
            "candidates": report["evaluated"],
            "coverage_keys": len(report["coverage"]),
        }, {"candidates": stats.runs})

    def unit_seconds(self, op: Operation) -> float:
        """A fuzz operation's unit of work is one candidate."""
        return op.seconds / op.timings["candidates"]

    def summary(self, ops: List[Operation]) -> Dict[str, tuple]:
        rate = statistics.median(op.timings["candidates"] / op.seconds
                                 for op in ops)
        return dict(super().summary(ops), fuzz_runs_per_s=(rate, "1/s"))

    def invariant_failures(self, values: Dict[str, Any]) -> List[str]:
        if values["found"] is not False:
            return ["campaign found a kR violation with k <= f"]
        return []

    def provenance(self) -> Dict[str, Any]:
        record = super().provenance()
        record["fuzz_params"] = repr(self.params())
        return record


WORKLOADS = {cls.name: cls for cls in (GeoPlan, GeoRehearse, MeshFuzz)}
