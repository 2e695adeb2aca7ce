"""Strategy serialization: the artifact installed on every node.

§4.1: "Some representation of the strategy is then installed in each node,
so that correct nodes will have a consistent view of it at runtime." This
module is that representation: a JSON-stable encoding of a complete
:class:`~repro.core.planner.strategy.Strategy` — every plan's workload,
augmented graph, assignment, timetable, and routes — with a lossless
round-trip, so the offline planner can run on a workstation and the result
can be shipped to (simulated) nodes, diffed, or archived with a deployment.
"""

from __future__ import annotations

import json
from typing import Optional

from ...sched.synthesis import GlobalSchedule
from ...sched.table import NodeSchedule, PlannedTransmission, ScheduleEntry
from ...workload.criticality import Criticality
from ...workload.dataflow import DataflowGraph, Flow
from ...workload.task import Task
from .plan import Plan
from .strategy import Strategy


def _graph_to_dict(graph: DataflowGraph) -> dict:
    return {
        "name": graph.name,
        "period": graph.period,
        "tasks": [
            {"name": t.name, "wcet": t.wcet,
             "criticality": t.criticality.value,
             "state_bits": t.state_bits}
            for t in graph.tasks.values()
        ],
        "flows": [
            {"name": f.name, "src": f.src, "dst": f.dst,
             "size_bits": f.size_bits, "deadline": f.deadline,
             "criticality": f.criticality.value if f.criticality else None}
            for f in graph.flows
        ],
        "sources": sorted(graph.sources),
        "sinks": sorted(graph.sinks),
    }


def _graph_from_dict(data: dict) -> DataflowGraph:
    return DataflowGraph(
        period=data["period"],
        tasks=[
            Task(name=t["name"], wcet=t["wcet"],
                 criticality=Criticality(t["criticality"]),
                 state_bits=t["state_bits"])
            for t in data["tasks"]
        ],
        flows=[
            Flow(name=f["name"], src=f["src"], dst=f["dst"],
                 size_bits=f["size_bits"], deadline=f["deadline"],
                 criticality=(Criticality(f["criticality"])
                              if f["criticality"] else None))
            for f in data["flows"]
        ],
        sources=data["sources"],
        sinks=data["sinks"],
        name=data["name"],
    )


def _timetable_to_dict(schedule: GlobalSchedule) -> dict:
    return {
        "period": schedule.period,
        "assignment": dict(schedule.assignment),
        "node_schedules": {
            node: [[e.task, e.start, e.finish] for e in ns]
            for node, ns in schedule.node_schedules.items()
        },
        "transmissions": [
            [t.flow, t.sender, t.receiver, t.link_id, t.start, t.arrival,
             t.size_bits]
            for t in schedule.transmissions
        ],
        "arrivals": dict(schedule.arrivals),
        "violations": list(schedule.violations),
    }


def _timetable_from_dict(data: dict) -> GlobalSchedule:
    node_schedules = {}
    for node, entries in data["node_schedules"].items():
        ns = NodeSchedule(node, data["period"])
        for task, start, finish in entries:
            ns.add(ScheduleEntry(task=task, start=start, finish=finish))
        node_schedules[node] = ns
    return GlobalSchedule(
        period=data["period"],
        assignment=dict(data["assignment"]),
        node_schedules=node_schedules,
        transmissions=[
            PlannedTransmission(flow=f, sender=s, receiver=r, link_id=l,
                                start=st, arrival=a, size_bits=b)
            for f, s, r, l, st, a, b in data["transmissions"]
        ],
        arrivals=dict(data["arrivals"]),
        violations=list(data["violations"]),
    )


def plan_to_dict(plan: Plan) -> dict:
    return {
        "pattern": sorted(plan.pattern),
        "workload": _graph_to_dict(plan.workload),
        "augmented": _graph_to_dict(plan.augmented),
        "assignment": dict(plan.assignment),
        "schedule": _timetable_to_dict(plan.schedule),
        "kept_levels": sorted(l.value for l in plan.kept_levels),
        "routes": {name: list(route)
                   for name, route in plan.routes.items()},
    }


def plan_from_dict(data: dict) -> Plan:
    return Plan(
        pattern=frozenset(data["pattern"]),
        workload=_graph_from_dict(data["workload"]),
        augmented=_graph_from_dict(data["augmented"]),
        assignment=dict(data["assignment"]),
        schedule=_timetable_from_dict(data["schedule"]),
        kept_levels={Criticality(v) for v in data["kept_levels"]},
        routes={name: list(route)
                for name, route in data["routes"].items()},
    )


FORMAT_VERSION = 1


def strategy_to_dict(strategy: Strategy) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "f": strategy.f,
        "covered_nodes": sorted(strategy.covered_nodes),
        "plans": [plan_to_dict(strategy.plan_for(pattern))
                  for pattern in strategy.patterns()],
    }


def strategy_from_dict(data: dict) -> Strategy:
    if data.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported strategy format {data.get('format_version')!r}"
        )
    plans = {}
    for plan_data in data["plans"]:
        plan = plan_from_dict(plan_data)
        plans[plan.pattern] = plan
    return Strategy(f=data["f"], plans=plans,
                    covered_nodes=set(data["covered_nodes"]))


def strategy_to_json(strategy: Strategy, indent: Optional[int] = None
                     ) -> str:
    return json.dumps(strategy_to_dict(strategy), indent=indent,
                      sort_keys=True)


def strategy_from_json(text: str) -> Strategy:
    return strategy_from_dict(json.loads(text))
