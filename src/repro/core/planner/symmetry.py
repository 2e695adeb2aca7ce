"""Structural fault-pattern symmetry: plan-once, rename-everywhere.

The planner's cost is combinatorial in (candidates, f) — one plan per
fault pattern. But on a *node-transitive* candidate set (the canonical
example: a uniform full mesh whose endpoint hosts are protected), every
pattern of the same size is isomorphic: renaming the faulty nodes maps
one planning problem onto another while preserving every quantity the
planner scores (loads, hop counts, lane rates, exposure). In that case
one canonical plan per pattern *size* suffices; every other pattern's
plan is the canonical plan under a node renaming.
:func:`~repro.core.planner.strategy.build_strategy` does exactly that
when asked to (``memo=True``).

This module provides the three pieces:

* :func:`candidates_symmetric` — the structural check. It is
  deliberately conservative: it demands that swapping any two candidates
  is a topology automorphism that fixes the endpoint hosts (equal node
  resources, identical neighbourhoods, attribute-identical links). If
  the check fails the memo is silently skipped and every plan is
  computed directly.
* :func:`pattern_permutation` — the canonical renaming from one pattern
  to another: order-preserving on the pattern members and on the
  surviving candidates separately, identity elsewhere. Order
  preservation matters: the placer breaks score ties by node name, and a
  monotone renaming of the survivors commutes with that tie-break.
* :func:`rename_plan` — applies a renaming to a finished
  :class:`~repro.core.planner.plan.Plan` (assignment, timetables,
  transmissions, routes), resolving link ids through the topology.

Correctness posture: memoised plans are *valid by symmetry*, and the
static verifier (``repro verify --strict``) accepts them like any other
plan — that audit is part of the test suite. With distance-minimising
placement (the default) the memoised strategy can differ from the
exhaustively-computed one: distance seeding scores each child against
the *shared* nominal plan, and that shared anchor is precisely what a
per-pattern renaming cannot preserve. A renamed plan is the plan the
placer would have produced had the nominal assignment been renamed too
— sound (the verifier and the recovery-budget accounting both operate
on the plans as stored) but possibly shipping more state per transition
than the exhaustive build. That trade is why the memo is an explicit
opt-in, and why it is the one planning option that changes which
artifact is produced (the strategy cache keys on it).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ...faults.patterns import FaultPattern
from ...net.topology import Topology
from ...sched.synthesis import GlobalSchedule
from ...sched.table import NodeSchedule, PlannedTransmission
from .plan import Plan


def _link_signature(topology: Topology, a: str, b: str) -> Tuple:
    """Attributes of the a–b link that planning is sensitive to."""
    link = topology.link_between(a, b)
    return (link.bandwidth_bps, link.propagation_us,
            link.loss_probability, len(link.endpoints))


def _node_signature(topology: Topology, node_id: str) -> Tuple:
    node = topology.nodes[node_id]
    lanes = tuple(sorted(
        (name, lane.speed) for name, lane in node.lanes.items()
    ))
    return (node.speed, lanes, node.is_source, node.is_sink)


def candidates_symmetric(topology: Topology,
                         candidates: Sequence[str]) -> bool:
    """True when every permutation of ``candidates`` is an automorphism.

    Sufficient conditions (checked pairwise; transpositions generate the
    full symmetric group):

    * no candidate hosts a workload endpoint;
    * all candidates have identical node resources (CPU speed, lane
      split, source/sink flags);
    * for every candidate pair (a, b): the neighbourhoods agree outside
      the pair (``N(a) - {b} == N(b) - {a}``), the pair is uniformly
      adjacent or non-adjacent across all pairs, and for every shared
      neighbour m the a–m and b–m links carry identical attributes.
    """
    members = sorted(candidates)
    if len(members) < 2:
        return len(members) == 1
    endpoint_hosts = set(topology.endpoint_map.values())
    if any(m in endpoint_hosts for m in members):
        return False

    first_sig = _node_signature(topology, members[0])
    if any(_node_signature(topology, m) != first_sig for m in members[1:]):
        return False

    neighbours = {m: set(topology.graph.neighbors(m)) for m in members}
    pair_adjacency = None
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            adjacent = b in neighbours[a]
            if pair_adjacency is None:
                pair_adjacency = adjacent
            elif adjacent != pair_adjacency:
                return False
            if neighbours[a] - {b} != neighbours[b] - {a}:
                return False
            shared = sorted(neighbours[a] - {b})
            for m in shared:
                if (_link_signature(topology, a, m)
                        != _link_signature(topology, b, m)):
                    return False
            if adjacent:
                # The a-b link itself maps to itself under the swap; its
                # attributes must match the other intra-candidate links,
                # which the uniform-adjacency loop covers via transitivity
                # against each shared candidate neighbour.
                for c in members:
                    if c in (a, b) or c not in neighbours[a]:
                        continue
                    if (_link_signature(topology, a, b)
                            != _link_signature(topology, a, c)):
                        return False
    return True


def pattern_permutation(candidates: Sequence[str],
                        source: FaultPattern,
                        target: FaultPattern) -> Dict[str, str]:
    """The canonical node renaming mapping ``source`` onto ``target``.

    Pattern members map in sorted order; surviving candidates map in
    sorted order; every other node (endpoint hosts, protected nodes) is
    fixed. Monotonicity on the survivors is what keeps the placer's
    name-based tie-breaks consistent under the renaming.
    """
    if len(source) != len(target):
        raise ValueError("patterns must have equal size")
    members = sorted(candidates)
    rest_source = [n for n in members if n not in source]
    rest_target = [n for n in members if n not in target]
    sigma = dict(zip(sorted(source), sorted(target)))
    sigma.update(zip(rest_source, rest_target))
    return sigma


def _rename_schedule(schedule: GlobalSchedule, sigma: Dict[str, str],
                     topology: Topology) -> GlobalSchedule:
    node_schedules = {}
    for node, ns in schedule.node_schedules.items():
        renamed = sigma.get(node, node)
        node_schedules[renamed] = NodeSchedule(
            renamed, ns.period, entries=list(ns.entries))
    transmissions: List[PlannedTransmission] = []
    for t in schedule.transmissions:
        sender = sigma.get(t.sender, t.sender)
        receiver = sigma.get(t.receiver, t.receiver)
        transmissions.append(PlannedTransmission(
            flow=t.flow, sender=sender, receiver=receiver,
            link_id=topology.link_between(sender, receiver).link_id,
            start=t.start, arrival=t.arrival, size_bits=t.size_bits,
        ))
    return GlobalSchedule(
        period=schedule.period,
        assignment={inst: sigma.get(n, n)
                    for inst, n in schedule.assignment.items()},
        node_schedules=node_schedules,
        transmissions=transmissions,
        arrivals=dict(schedule.arrivals),
        violations=list(schedule.violations),
    )


def rename_plan(plan: Plan, sigma: Dict[str, str],
                topology: Topology) -> Plan:
    """``plan`` under the node renaming ``sigma``.

    Workload/augmented graphs and kept levels carry no node names and
    are shared with the source plan (plans are immutable once built).
    """
    pattern = frozenset(sigma.get(n, n) for n in plan.pattern)
    return Plan(
        pattern=pattern,
        workload=plan.workload,
        augmented=plan.augmented,
        assignment={inst: sigma.get(n, n)
                    for inst, n in plan.assignment.items()},
        schedule=_rename_schedule(plan.schedule, sigma, topology),
        kept_levels=set(plan.kept_levels),
        routes={flow: [sigma.get(n, n) for n in route]
                for flow, route in plan.routes.items()},
    )
