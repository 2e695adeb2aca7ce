"""The per-node BTR agent.

Each node runs one :class:`NodeAgent` that implements the node's whole
runtime behaviour:

* **dispatch** — execute the active plan's schedule table each period
  (replicas compute; checkers compare, forward, and detect);
* **data plane** — sign, send, and forward flow messages hop-by-hop on the
  reserved DATA lanes;
* **detection** — timing judgement on every delivery, omission checks per
  expected flow copy, checker comparison/re-execution, audit of upstream
  forwarders, and the equivocation-investigation protocol;
* **evidence plane** — validate-then-forward flooding on EVIDENCE lanes,
  slander accounting, blame tracking and attribution;
* **mode switching** — deterministic switch boundaries, state transfer on
  STATE lanes, and post-switch declaration suppression.

A compromised node's agent consults its installed
:class:`~repro.faults.behaviors.FaultBehavior` at every output decision
point; its resources stay enforced by the substrate.
"""

from __future__ import annotations

import weakref
import zlib
from typing import Dict, List, Optional, Set, Tuple

from ...crypto.authenticator import AuthenticatedStatement
from ...crypto.signatures import Signature
from ...faults.behaviors import FaultBehavior
from ...sim.message import Message, MessageKind
from ...sim.trace import (
    EvidenceAccepted,
    EvidenceGenerated,
    EvidenceRejected,
    FaultInjected,
    ModeSwitchCompleted,
    ModeSwitchStarted,
    OutputProduced,
    PathDeclared,
    TaskExecuted,
    TaskShed,
)
from ...workload.task import compute_output, sensor_reading
from ..detector.checker import (
    audit_forward,
    build_forward_statement,
    build_output_statement,
    run_check,
)
from ..detector.omission import BlameTracker
from ..detector.timing import SELF_INCRIMINATING, SUSPICIOUS_ARRIVAL
from ..evidence.distributor import EvidenceLog
from ..evidence.records import (
    ATTRIBUTION,
    COMMISSION,
    EQUIVOCATION,
    Evidence,
    EvidenceValidator,
    FORWARD_MISMATCH,
    TIMING,
    make_declaration,
)
from ..modes.switcher import ModeSwitcher
from ..modes.transition import compute_transition
from ..planner import naming
from ..planner.plan import Plan

#: Wire size of small control messages (fetch requests/responses).
CONTROL_BITS = 1_024
#: Periods to wait for a state transfer before rebuilding locally.
STATE_TIMEOUT_PERIODS = 2


class NodeAgent:
    """Runtime state machine for one node."""

    def __init__(self, system, node) -> None:
        self.system = system
        self.node = node
        self.node_id = node.node_id
        self.config = system.config
        #: Static topology: the sorted neighbour list never changes
        #: mid-run, so it is computed once per agent instead of
        #: re-sorting the adjacency on every broadcast/heartbeat.
        self._neighbors = tuple(system.topology.neighbors(self.node_id))
        #: The batched emitters (:mod:`repro.perf.batchcore`): fan-outs
        #: go out as one heap event per (sender, arrival) group, and
        #: hot-path messages come from their pool.
        self._batch = system.batch_runtime
        self.behavior: FaultBehavior = FaultBehavior()
        self.switcher = ModeSwitcher(
            system.strategy, system.workload.period, system.switch_lead_us,
            metrics=system.metrics,
        )
        self.plan: Plan = system.strategy.nominal
        #: Declarations older than this describe a previous plan regime
        #: (pre-switch cascades); neither local blame accounting nor
        #: attribution validation may use them.
        self._blame_cutoff = 0
        period = system.workload.period
        #: Declarations may support an attribution only if made within
        #: this window before its detected_at (accumulation + confusion).
        attribution_freshness = (
            (self.config.blame_slot_threshold
             + self.config.suppress_periods + 2) * period
            + system.budget.settling_us
        )
        #: Evidence older than this on receipt is dropped outright: the
        #: anti-backdating half of the freshness defence.
        self._evidence_staleness = (4 * period + system.switch_lead_us
                                    + system.budget.settling_us)
        # The validator and the blame tracker call back into this agent
        # through weak method references: bound methods would make every
        # run's agents, evidence logs and signed statements one reference
        # cycle, which lingers until a full garbage collection.
        roster_lookup = weakref.WeakMethod(self._roster_lookup)
        node_alive = weakref.WeakMethod(self._node_alive)
        self.validator = EvidenceValidator(
            system.directory,
            roster_lookup=lambda base: roster_lookup()(base),
            attribution_threshold=self.config.blame_slot_threshold,
            period=period,
            timing_slack=self.config.timing.slack_us,
            attribution_freshness_us=attribution_freshness,
        )
        self.log = EvidenceLog(self.node_id, self.validator,
                               slander_threshold=self.config.slander_threshold,
                               metrics=system.metrics)
        self.blame = BlameTracker(
            slot_threshold=self.config.blame_slot_threshold,
            min_declarers=self.config.blame_min_declarers,
            liveness=lambda node: node_alive()(node),
            metrics=system.metrics,
        )
        #: origin -> time of last flooded heartbeat (liveness signal for
        #: the link-vs-node disambiguation in blame attribution).
        self._last_heartbeat: Dict[str, int] = {}
        self._heartbeats_seen: Set[Tuple[str, int]] = set()
        #: (flow_copy, period) -> received statement.
        self.inbox: Dict[Tuple[str, int], AuthenticatedStatement] = {}
        #: Instances blocked on state transfer/rebuild.
        self.pending_state: Set[str] = set()
        #: No omission declarations before this time (switch confusion).
        self.suppress_until = 0
        #: Signature cache: one statement per (logical flow, period).
        self._sign_cache: Dict[Tuple[str, int], AuthenticatedStatement] = {}
        #: Replicas that failed to substantiate their inputs: demoted from
        #: the forward fast path until the next mode change.
        self.demoted: Set[str] = set()
        #: (suspect instance, period) -> flow copies still unsubstantiated.
        self._investigations: Dict[Tuple[str, int], Set[str]] = {}
        #: Plan-dependent evidence rejected mid-switch; retried after the
        #: next mode change, when the plans should agree again.
        self._retry_evidence: List[Evidence] = []
        #: (sender, period) -> control records whose verification this
        #: node has already paid for (per-sender CPU quota, §4.3).
        self._ctrl_quota: Dict[Tuple[str, int], int] = {}
        #: Flow copies this node is the final consumer of (per plan), as
        #: ``(planned arrival, [flow copies])`` groups.
        self._expected_groups: List[Tuple[int, List[str]]] = []
        self._refresh_expected()
        node.add_handler(self._on_message)

    # ------------------------------------------------------------ plan info

    @property
    def sim(self):
        return self.system.sim

    @property
    def period(self) -> int:
        return self.system.workload.period

    def _local_offset(self, k: int) -> int:
        """Period-relative time by this node's *local* clock — what the
        node can honestly attest in a signed statement. Correct nodes stay
        within the sync bound of true time; rogue clocks do not."""
        return self.node.clock.read(self.sim.now) - k * self.period

    def _roster_lookup(self, base: str) -> Optional[dict]:
        roster = {
            inst: host for inst, host in self.plan.assignment.items()
            if naming.base_task(inst) == base
        }
        return roster or None

    def _final_consumer_node(self, flow) -> Optional[str]:
        if flow.dst in self.plan.augmented.tasks:
            return self.plan.assignment.get(flow.dst)
        return self.system.topology.endpoint_map.get(flow.dst)

    def _refresh_expected(self) -> None:
        # Grouped by planned arrival: the omission wait is a constant, so
        # expectations sharing a planned arrival share a check time and
        # coalesce into one heap event per period. Group order and
        # within-group order follow the augmented flow order, preserving
        # the per-expectation execution order (consecutive-seq argument,
        # see _exec_groups).
        groups: List[Tuple[int, List[str]]] = []
        by_arrival: Dict[int, List[str]] = {}
        for flow in self.plan.augmented.flows:
            if self._final_consumer_node(flow) != self.node_id:
                continue
            arrival = self.plan.planned_arrival(flow.name)
            if arrival is None:
                continue
            bucket = by_arrival.get(arrival)
            if bucket is None:
                bucket = []
                by_arrival[arrival] = bucket
                groups.append((arrival, bucket))
            bucket.append(flow.name)
        self._expected_groups = groups

    # ------------------------------------------------------- fault injection

    def compromise(self, behavior: FaultBehavior) -> None:
        self.behavior = behavior
        self.node.compromised = True
        behavior.on_activate(self)
        self.system.trace.record(FaultInjected(
            time=self.sim.now, node=self.node_id, fault_kind=behavior.kind,
        ))

    # ------------------------------------------------------------ period tick

    def on_period_start(self, k: int) -> None:
        if self.node.crashed:
            return
        period_start = k * self.period
        self._emit_sources(k)
        self._schedule_exec_groups(k, period_start)
        self._schedule_omission_checks(k)
        self._schedule_sink_audits(k)
        self._emit_heartbeat(k)
        if self.behavior.fabricates_evidence():
            self._flood_bogus_evidence(k)

    # --------------------------------------------------------------- sources

    def _emit_sources(self, k: int) -> None:
        hosted = {
            source for source, host
            in self.system.topology.endpoint_map.items()
            if host == self.node_id
            and source in self.plan.augmented.sources
        }
        if not hosted:
            return
        # Emit in the augmented graph's flow order — the schedule
        # synthesizer serialized the source lanes in exactly this order,
        # so any other order would reshuffle lane queueing and break the
        # timetable (a small reading queued behind a large one misses its
        # consumer's slot).
        #
        # Two passes: build every frame's payload in flow order and sign
        # the uncached ones in one authenticator pass
        # (:meth:`AuthenticatedStatement.make_batch` — bit-identical
        # tags, one ``signs`` count per statement), then send the copies
        # in the same flow order. Signing schedules nothing, so the split
        # is trace-identical to sign-then-send per flow.
        emissions = []
        pending_keys = []
        pending_payloads = []
        cache = self._sign_cache
        for flow in self.plan.augmented.flows:
            if flow.src not in hosted:
                continue
            value = sensor_reading(flow.src, k)
            base = naming.base_flow(flow.name)
            payload = build_forward_statement(
                flow=base, period=k, value=value,
                send_offset=self.behavior.claimed_send_offset(
                    self._local_offset(k), 0),
            )
            key = (base, k, payload.get("value"))
            emissions.append((flow.name, key))
            if key not in cache and key not in pending_keys:
                pending_keys.append(key)
                pending_payloads.append(payload)
        if pending_payloads:
            signed = AuthenticatedStatement.make_batch(
                self.system.directory, self.node_id, pending_payloads)
            for key, stmt in zip(pending_keys, signed):
                cache[key] = stmt
        for flow_copy, key in emissions:
            self._send_copy(flow_copy, cache[key], k)

    # ------------------------------------------------------------- execution

    def _execute_instance(self, instance: str, k: int) -> None:
        if self.node.crashed or instance in self.pending_state:
            return
        if self.plan.assignment.get(instance) != self.node_id:
            return  # plan changed between scheduling and execution
        base = naming.base_task(instance)
        slot = self.plan.schedule.slot_for(instance)
        trace = self.system.trace
        if trace.wants(TaskExecuted):
            trace.record(TaskExecuted(
                time=self.sim.now, node=self.node_id, task=instance,
                period_index=k, duration=slot.duration if slot else 0,
            ))
        else:
            trace.tally(TaskExecuted)
        if naming.is_checker(instance):
            self._run_checker(instance, base, k)
        else:
            self._run_replica(instance, base, k)

    def _exec_groups(self):
        """Static ``(finish, [instances])`` groups for this node under
        the current plan, in the reference emission order. Grouping
        equal finish times is order-preserving: the reference loop's
        schedules carry consecutive sequence numbers (no foreign
        schedule interleaves the loop), so members at one finish time
        fire back-to-back in emission order either way, and members at
        different times are ordered by time regardless of seq. Memoised
        on the plan object like the other plan-riding memos."""
        memo = self.plan.__dict__.get("_exec_groups")
        if memo is None:
            memo = {}
            self.plan.__dict__["_exec_groups"] = memo
        groups = memo.get(self.node_id)
        if groups is None:
            groups = []
            by_finish = {}
            for instance in self.plan.instances_on(self.node_id):
                slot = self.plan.schedule.slot_for(instance)
                if slot is None:
                    continue
                bucket = by_finish.get(slot.finish)
                if bucket is None:
                    bucket = []
                    by_finish[slot.finish] = bucket
                    groups.append((slot.finish, bucket))
                bucket.append(instance)
            memo[self.node_id] = groups
        return groups

    def _schedule_exec_groups(self, k: int, period_start: int) -> None:
        """Per-instance execution timers, one heap event per distinct
        slot finish time."""
        pending = self.pending_state
        for finish, instances in self._exec_groups():
            if pending:
                live = [i for i in instances if i not in pending]
                if not live:
                    continue
            else:
                live = instances
            if len(live) == 1:
                self.sim.call_at(
                    period_start + finish,
                    lambda inst=live[0], kk=k:
                        self._execute_instance(inst, kk))
            else:
                self.sim.call_at(
                    period_start + finish,
                    lambda insts=live, kk=k:
                        self._execute_group(insts, kk))

    def _execute_group(self, instances, k: int) -> None:
        # One heap pop stands for len(instances) scheduled executions;
        # the events-executed gauge counts each of them.
        self.sim.events_executed += len(instances) - 1
        for instance in instances:
            self._execute_instance(instance, k)

    # -- replica ----------------------------------------------------------

    def _replica_inputs(self, instance: str, base: str, k: int
                        ) -> Optional[List[int]]:
        suffix = f"r{naming.replica_index(instance)}"
        values = []
        for flow in self.plan.workload.inputs_of(base):
            copy = naming.flow_copy_name(flow.name, suffix)
            stmt = self.inbox.get((copy, k))
            if stmt is None:
                return None
            values.append(stmt.statement.get("value"))
        return values

    def _run_replica(self, instance: str, base: str, k: int) -> None:
        values = self._replica_inputs(instance, base, k)
        if values is None:
            return  # missing inputs; the checker masks with siblings
        value = compute_output(base, k, values)
        value = self.behavior.corrupt_value(base, k, value)
        planned = self.plan.schedule.slot_for(instance)
        planned_offset = planned.finish if planned else 0
        actual_offset = self._local_offset(k)
        payload = build_output_statement(
            task=base, instance=instance, period=k, value=value,
            input_values=values,
            send_offset=self.behavior.claimed_send_offset(
                actual_offset, planned_offset),
        )
        stmt = AuthenticatedStatement.make(self.system.directory,
                                           self.node_id, payload)
        # One statement, several recipients: own checker + audit copies.
        for flow in self.plan.augmented.flows:
            if flow.src != instance:
                continue
            self._send_copy(flow.name, stmt, k)

    # -- checker ----------------------------------------------------------

    def _checker_replica_statements(self, base: str, k: int
                                    ) -> Dict[str, AuthenticatedStatement]:
        statements = {}
        r = self.config.f + 1
        for i in range(r):
            copy = naming.replica_output_flow(base, i)
            stmt = self.inbox.get((copy, k))
            if stmt is not None:
                statements[naming.replica_name(base, i)] = stmt
        return statements

    def _checker_own_inputs(self, base: str, k: int
                            ) -> Tuple[Optional[List[int]],
                                       List[AuthenticatedStatement]]:
        values: List[int] = []
        stmts: List[AuthenticatedStatement] = []
        for flow in self.plan.workload.inputs_of(base):
            copy = naming.flow_copy_name(flow.name, "c")
            stmt = self.inbox.get((copy, k))
            if stmt is None:
                return None, []
            values.append(stmt.statement.get("value"))
            stmts.append(stmt)
        return values, stmts

    def _reconstruct_inputs_from_audits(self, base: str, k: int
                                        ) -> Optional[List[int]]:
        """Best-effort input reconstruction when the upstream *checker*
        went silent: the upstream replicas' audit copies carry candidate
        values for exactly the missing edge. Pick per edge the plurality
        among available audit copies (≤ f wrong with one honest present —
        good enough to keep the pipeline flowing; conviction-grade checks
        still require proper statements)."""
        values: List[int] = []
        r = self.config.f + 1
        for flow in self.plan.workload.inputs_of(base):
            own = self.inbox.get((naming.flow_copy_name(flow.name, "c"), k))
            if own is not None:
                values.append(own.statement.get("value"))
                continue
            if flow.src not in self.plan.workload.tasks:
                return None  # source-host edge: no audits exist
            candidates: List[int] = []
            for i in range(r):
                stmt = self.inbox.get(
                    (naming.flow_copy_name(flow.name, f"a{i}"), k))
                if stmt is not None:
                    candidates.append(stmt.statement.get("value"))
            if not candidates:
                return None
            counts: Dict[int, int] = {}
            for value in candidates:
                counts[value] = counts.get(value, 0) + 1
            values.append(max(sorted(counts), key=lambda v: counts[v]))
        return values

    def _run_checker(self, instance: str, base: str, k: int) -> None:
        expected = [naming.replica_name(base, i)
                    for i in range(self.config.f + 1)]
        # Demoted replicas lose fast-path priority: their unsubstantiated
        # values are only used when nothing better arrived.
        expected.sort(key=lambda inst: (inst in self.demoted,
                                        naming.replica_index(inst)))
        replica_stmts = self._checker_replica_statements(base, k)
        own_values, own_stmts = self._checker_own_inputs(base, k)
        outcome = run_check(base, k, expected, replica_stmts, own_values)

        self._audit_upstream_forwarders(base, k)

        forward_value = outcome.forward_value
        was_reconstructed = False
        if forward_value is None:
            # All replicas silent — typically because the *upstream
            # checker's host* died and starved them. The audit copies from
            # the upstream replicas carry the missing values: reconstruct
            # the inputs and re-execute, so one dead forwarding point does
            # not stall the whole downstream pipeline (and spray omission
            # blame over its innocent members).
            reconstructed = self._reconstruct_inputs_from_audits(base, k)
            if reconstructed is not None:
                forward_value = compute_output(base, k, reconstructed)
                was_reconstructed = True

        if forward_value is not None:
            self._forward_value(instance, base, k, forward_value,
                                reconstructed=was_reconstructed)

        if self.behavior.suppresses_detection():
            return

        for convicted in outcome.convicted:
            stmt = replica_stmts[convicted]
            host = self.plan.assignment.get(convicted)
            if host is None:
                continue
            self._emit_evidence(COMMISSION, host,
                                [stmt] + list(own_stmts))
        for suspect in outcome.investigate:
            self._start_investigation(suspect, base, k)

    def _forward_value(self, instance: str, base: str, k: int,
                       value: int, reconstructed: bool = False) -> None:
        planned = self.plan.schedule.slot_for(instance)
        planned_offset = planned.finish if planned else 0
        actual_offset = self._local_offset(k)
        for flow in self.plan.workload.outputs_of(base):
            flow_base = flow.name
            if flow.dst in self.plan.workload.tasks:
                suffixes = [f"r{i}" for i in range(self.config.f + 1)] + ["c"]
            else:
                suffixes = ["out"]
            for suffix in suffixes:
                copy = naming.flow_copy_name(flow_base, suffix)
                receiver = self._copy_receiver_node(copy)
                sent_value = self.behavior.corrupt_value(
                    base, k, value, receiver=receiver)
                payload = build_forward_statement(
                    flow=flow_base, period=k, value=sent_value,
                    send_offset=self.behavior.claimed_send_offset(
                        actual_offset, planned_offset),
                    reconstructed=reconstructed,
                )
                stmt = self._sign_cached(flow_base, k, payload)
                self._send_copy(copy, stmt, k)

    def _copy_receiver_node(self, copy: str) -> Optional[str]:
        for flow in self.plan.augmented.flows:
            if flow.name == copy:
                return self._final_consumer_node(flow)
        return None

    def _sign_cached(self, flow_base: str, k: int, payload: dict
                     ) -> AuthenticatedStatement:
        # Honest nodes sign one statement per (flow, period). Equivocators
        # produce several (the cache key includes the value), which is the
        # contradiction the investigation protocol later proves.
        key = (flow_base, k, payload.get("value"))
        cached = self._sign_cache.get(key)
        if cached is None:
            cached = AuthenticatedStatement.make(self.system.directory,
                                                 self.node_id, payload)
            self._sign_cache[key] = cached
        return cached

    # -- audit of upstream forwarders --------------------------------------

    def _audit_upstream_forwarders(self, base: str, k: int) -> None:
        if self.behavior.suppresses_detection():
            return
        r = self.config.f + 1
        for flow in self.plan.workload.inputs_of(base):
            if flow.src not in self.plan.workload.tasks:
                continue  # source-host flows have no replica audit
            fwd = self.inbox.get((naming.flow_copy_name(flow.name, "c"), k))
            if fwd is None:
                continue
            audits = {}
            for i in range(r):
                stmt = self.inbox.get(
                    (naming.flow_copy_name(flow.name, f"a{i}"), k))
                if stmt is not None:
                    audits[naming.replica_name(flow.src, i)] = stmt
            expected = [naming.replica_name(flow.src, i) for i in range(r)]
            if audit_forward(fwd, audits, expected):
                accused = self.plan.assignment.get(
                    naming.checker_name(flow.src))
                if accused is not None:
                    self._emit_evidence(
                        FORWARD_MISMATCH, accused,
                        [fwd] + [audits[i] for i in expected],
                    )

    # -- sink-side auditing --------------------------------------------------

    def _schedule_sink_audits(self, k: int) -> None:
        """Sink hosts audit every actuator command against the producing
        replicas' audit copies at the end of the period — the one edge
        with no downstream checker (§4.1's checking tasks cover
        task-to-task edges; the actuators themselves cannot check)."""
        if self.behavior.suppresses_detection():
            return
        mine = [
            flow for flow in self.plan.workload.sink_flows()
            if self.system.topology.endpoint_map.get(flow.dst)
            == self.node_id
        ]
        if not mine:
            return
        self.sim.call_at(
            (k + 1) * self.period - 1,
            lambda kk=k, flows=mine: self._audit_sink_outputs(flows, kk),
        )

    def _audit_sink_outputs(self, flows, k: int) -> None:
        if self.node.crashed or self.sim.now < self.suppress_until:
            return
        r = self.config.f + 1
        for flow in flows:
            if flow.src not in self.plan.workload.tasks:
                continue
            fwd = self.inbox.get((naming.flow_copy_name(flow.name, "out"),
                                  k))
            if fwd is None:
                continue
            audits = {}
            for i in range(r):
                stmt = self.inbox.get(
                    (naming.flow_copy_name(flow.name, f"a{i}"), k))
                if stmt is not None:
                    audits[naming.replica_name(flow.src, i)] = stmt
            expected = [naming.replica_name(flow.src, i) for i in range(r)]
            if audit_forward(fwd, audits, expected):
                accused = self.plan.assignment.get(
                    naming.checker_name(flow.src))
                if accused is not None:
                    self._emit_evidence(
                        FORWARD_MISMATCH, accused,
                        [fwd] + [audits[i] for i in expected],
                    )

    # -- equivocation investigation ----------------------------------------

    def _start_investigation(self, suspect_instance: str, base: str,
                             k: int) -> None:
        host = self.plan.assignment.get(suspect_instance)
        if host is None or (suspect_instance, k) in self._investigations:
            return
        index = naming.replica_index(suspect_instance)
        outstanding: Set[str] = set()
        for flow in self.plan.workload.inputs_of(base):
            copy = naming.flow_copy_name(flow.name, f"r{index}")
            outstanding.add(copy)
            request = Message(
                src=self.node_id, dst=host, kind=MessageKind.CONTROL,
                payload=("fetch_req", copy, naming.base_flow(flow.name), k,
                         self.node_id),
                size_bits=CONTROL_BITS,
            )
            self.system.send_routed(self, request, self.plan)
        if not outstanding:
            return
        self._investigations[(suspect_instance, k)] = outstanding
        self.sim.call_after(
            self.period,
            lambda: self._investigation_timeout(suspect_instance, base, k),
        )

    def _investigation_timeout(self, suspect: str, base: str, k: int
                               ) -> None:
        """A replica that cannot substantiate its inputs within one period
        is demoted from the fast path, and the path to its host is declared
        problematic — a correct replica always answers, so persistent
        silence converges on its host via blame attribution."""
        outstanding = self._investigations.pop((suspect, k), None)
        if not outstanding or self.node.crashed:
            return
        self.demoted.add(suspect)
        index = naming.replica_index(suspect)
        if index is not None:
            self._declare_path(naming.replica_output_flow(base, index), k)

    def _handle_fetch_request(self, copy: str, base: str, k: int,
                              requester: str) -> None:
        if self.behavior.suppresses_detection() and self.node.compromised:
            return  # compromised nodes ignore investigation duties
        stmt = self.inbox.get((copy, k))
        if stmt is None:
            return
        response = Message(
            src=self.node_id, dst=requester, kind=MessageKind.CONTROL,
            payload=("fetch_resp", copy, base, k, stmt),
            size_bits=CONTROL_BITS + stmt.wire_bits(),
        )
        self.system.send_routed(self, response, self.plan)

    def _handle_fetch_response(self, copy: str, base: str, k: int,
                               stmt: AuthenticatedStatement) -> None:
        if not stmt.valid(self.system.directory):
            return
        for key, outstanding in list(self._investigations.items()):
            outstanding.discard(copy)
            if not outstanding:
                del self._investigations[key]
        mine = self.inbox.get((naming.flow_copy_name(base, "c"), k))
        if mine is None:
            return
        if (mine.signer == stmt.signer
                and mine.statement.get("flow") == stmt.statement.get("flow")
                and mine.statement.get("period") == stmt.statement.get("period")
                and mine.statement.get("value") != stmt.statement.get("value")):
            self._emit_evidence(EQUIVOCATION, stmt.signer, [mine, stmt])

    # --------------------------------------------------------- data plane

    def _send_copy(self, flow_copy: str, stmt: AuthenticatedStatement,
                   k: int) -> None:
        route = self.plan.routes.get(flow_copy)
        if not route:
            return
        # (flow, final consumer) are pure functions of the immutable
        # plan + static topology; memoised on the plan object like the
        # timing-window lookups (see detector.timing).
        memo = self.plan.__dict__.get("_send_copy_memo")
        if memo is None:
            memo = {}
            self.plan.__dict__["_send_copy_memo"] = memo
        entry = memo.get(flow_copy)
        if entry is None:
            flow = next((f for f in self.plan.augmented.flows
                         if f.name == flow_copy), None)
            final = (self._final_consumer_node(flow)
                     if flow is not None else None)
            entry = (flow, final)
            memo[flow_copy] = entry
        flow, final = entry
        if flow is None or final is None:
            return
        if self.behavior.drops_message(flow_copy, k, final):
            return
        if final != self.node_id:
            # Pooled on the transmit path: the delivery/drop paths
            # release the message once its journey ends. Local deliveries
            # keep a plain Message (nothing releases them).
            message = self._batch.pool.acquire(
                self.node_id, final, MessageKind.DATA,
                ("data", flow_copy, k, stmt), flow.size_bits,
                flow=flow_copy,
            )
        else:
            message = Message(
                src=self.node_id, dst=final, kind=MessageKind.DATA,
                payload=("data", flow_copy, k, stmt),
                size_bits=flow.size_bits, flow=flow_copy,
            )
        delay = self.behavior.delay_send(flow_copy, k)
        if final == self.node_id:
            self.sim.call_after(max(1, delay),
                                lambda: self.node.deliver(message,
                                                          self.sim.now))
            return
        next_hop = self._next_hop_cached(flow_copy)
        if next_hop is None:
            return
        if delay > 0:
            self.sim.call_after(
                delay, lambda: self.system.transmit(self.node_id, next_hop,
                                                    message))
        else:
            self.system.transmit(self.node_id, next_hop, message)

    def _next_hop_cached(self, flow_copy: str) -> Optional[str]:
        """Memoised ``plan.next_hop(flow_copy, self.node_id)`` — routes
        are fixed per plan, and the uncached version is an O(route) list
        scan issued per data send/forward."""
        memo = self.plan.__dict__.get("_next_hop_memo")
        if memo is None:
            memo = {}
            self.plan.__dict__["_next_hop_memo"] = memo
        key = (flow_copy, self.node_id)
        try:
            return memo[key]
        except KeyError:
            hop = self.plan.next_hop(flow_copy, self.node_id)
            memo[key] = hop
            return hop

    def _forward_data(self, message: Message) -> None:
        """Intermediate hop: pass the message along its planned route."""
        _, flow_copy, k, _stmt = message.payload
        if self.behavior.drops_message(flow_copy, k, message.dst):
            return
        next_hop = self._next_hop_cached(flow_copy)
        if next_hop is None:
            return
        delay = self.behavior.delay_send(flow_copy, k)
        if delay > 0:
            self.sim.call_after(
                delay, lambda: self.system.transmit(self.node_id, next_hop,
                                                    message))
        else:
            self.system.transmit(self.node_id, next_hop, message)

    # ------------------------------------------------------------ deliveries

    def _on_message(self, message: Message, at: int) -> None:
        kind = message.kind
        if kind == MessageKind.DATA:
            self._on_data(message, at)
        elif kind in (MessageKind.EVIDENCE, MessageKind.BOGUS):
            self._on_evidence_message(message)
        elif kind == MessageKind.CONTROL:
            self._on_control(message)
        elif kind == MessageKind.STATE:
            self._on_state(message)

    def _on_data(self, message: Message, at: int) -> None:
        payload = message.payload
        if not (isinstance(payload, tuple) and payload[0] == "data"):
            return
        _, flow_copy, k, stmt = payload
        if message.dst != self.node_id:
            self._forward_data(message)
            return
        if not isinstance(stmt, AuthenticatedStatement):
            return
        if not stmt.valid(self.system.directory):
            return  # unauthenticated data is ignored outright
        self.inbox[(flow_copy, k)] = stmt
        self._judge_timing(flow_copy, stmt, k, at)
        self._maybe_record_output(flow_copy, stmt, k, at)

    def _judge_timing(self, flow_copy: str, stmt: AuthenticatedStatement,
                      k: int, at: int) -> None:
        if self.behavior.suppresses_detection():
            return
        if at < self.suppress_until:
            return  # transition confusion: schedules are shifting
        offset = stmt.statement.get("send_offset")
        if offset is None:
            return
        arrival_offset = at - k * self.period
        slack = self.config.timing.slack_us
        if not -slack <= offset <= self.period + slack:
            # Grossly invalid claimed send time: self-incriminating,
            # plan-independent — transferable evidence.
            self._emit_evidence(TIMING, stmt.signer, [stmt])
            return
        verdict = self.config.timing.judge(
            self.plan, stmt.statement.get("flow", flow_copy), flow_copy,
            offset, arrival_offset,
        )
        if verdict in (SELF_INCRIMINATING, SUSPICIOUS_ARRIVAL):
            # Wrong slot within the period: real, but only provable
            # relative to a plan — route through path declarations.
            self._declare_path(flow_copy, k)

    def _maybe_record_output(self, flow_copy: str,
                             stmt: AuthenticatedStatement, k: int,
                             at: int) -> None:
        if not flow_copy.endswith("@out"):
            return  # audit copies to the sink host are not commands
        flow = next((f for f in self.plan.augmented.flows
                     if f.name == flow_copy), None)
        if flow is None or flow.dst not in self.plan.augmented.sinks:
            return
        base = naming.base_flow(flow_copy)
        criticality = self.plan.workload.flow_criticality(
            self.plan.workload.flow(base))
        self.system.trace.record(OutputProduced(
            time=at, sink=flow.dst, flow=base, period_index=k,
            value=stmt.statement.get("value"),
            deadline=k * self.period + (flow.deadline or self.period),
            criticality=criticality.value,
        ))

    # --------------------------------------------------------- omission

    def _schedule_omission_checks(self, k: int) -> None:
        if self.behavior.suppresses_detection():
            return
        period_start = k * self.period
        wait = (self.config.timing.arrival_slack_us
                + self.config.omission_grace_us)
        for arrival, copies in self._expected_groups:
            if len(copies) == 1:
                self.sim.call_at(
                    period_start + arrival + wait,
                    lambda c=copies[0], kk=k: self._check_arrival(c, kk))
            else:
                self.sim.call_at(
                    period_start + arrival + wait,
                    lambda cs=copies, kk=k:
                        self._check_arrival_group(cs, kk))

    def _check_arrival_group(self, copies, k: int) -> None:
        # One heap pop stands for len(copies) scheduled checks.
        self.sim.events_executed += len(copies) - 1
        for flow_copy in copies:
            self._check_arrival(flow_copy, k)

    def _check_arrival(self, flow_copy: str, k: int) -> None:
        if self.node.crashed or (flow_copy, k) in self.inbox:
            return
        if self.sim.now < self.suppress_until:
            return
        if self._producer_starved(flow_copy, k):
            # The producer provably had nothing to send: an upstream
            # outage starved it. Blame belongs upstream (where the broken
            # @c edge is declared), not on the starved innocent.
            return
        self._declare_path(flow_copy, k)

    def _producer_starved(self, flow_copy: str, k: int) -> bool:
        """Was ``flow_copy``'s producer a replica starved by an upstream
        outage this period? Replicas read their inputs from the upstream
        checker; if this node's own copy of that edge is missing or
        arrived flagged ``reconstructed`` (the upstream checker signed an
        admission that its stage's replicas were starved), the producer
        cannot have produced.

        For audit copies the producer's input edges terminate at *its*
        checker, not here, so this conservatively excuses them whenever
        the producer has any task-fed input — the authoritative omission
        detector for a silent replica is its own checker, which sees the
        replica-output edge directly."""
        if naming.is_replica_output_flow(flow_copy):
            base_task, _ = naming.replica_output_parts(flow_copy)
        elif "@a" in flow_copy:
            base_flow = naming.base_flow(flow_copy)
            flow = next((f for f in self.plan.workload.flows
                         if f.name == base_flow), None)
            if flow is None or flow.src not in self.plan.workload.tasks:
                return False
            base_task = flow.src
        else:
            return False
        for input_flow in self.plan.workload.inputs_of(base_task):
            if input_flow.src not in self.plan.workload.tasks:
                continue  # source-host edges have no checker to die
            stmt = self.inbox.get(
                (naming.flow_copy_name(input_flow.name, "c"), k))
            if stmt is None or stmt.statement.get("reconstructed"):
                return True
        return False

    def _declare_path(self, flow_copy: str, k: int) -> None:
        route = self.plan.routes.get(flow_copy)
        if not route or len(route) < 1:
            return
        if set(route) & self.switcher.fault_set.snapshot():
            return  # known fault on the path; the switch is already coming
        self.system.trace.record(PathDeclared(
            time=self.sim.now, declarer=self.node_id, path=tuple(route),
            flow=naming.base_flow(flow_copy), period_index=k,
        ))
        decl = make_declaration(
            self.system.directory, self.node_id, route,
            naming.base_flow(flow_copy), k, self.sim.now,
        )
        if self.log.note_declaration(decl):
            self._handle_declaration(decl, from_neighbor=None)

    # ------------------------------------------------------ evidence plane

    def _emit_evidence(self, kind: str, accused: str,
                       statements: List[AuthenticatedStatement]) -> None:
        if self.behavior.suppresses_detection():
            return
        if accused in self.switcher.fault_set:
            return  # already known faulty; don't re-litigate
        evidence = Evidence.make(
            self.system.directory, kind, accused, self.node_id,
            detected_at=self.sim.now, statements=statements,
        )
        self.system.trace.record(EvidenceGenerated(
            time=self.sim.now, detector_node=self.node_id,
            accused_node=accused, fault_kind=kind,
            evidence_id=zlib.crc32(evidence.evidence_id.encode()),
        ))
        if self.log.note_evidence(evidence):
            self._handle_evidence(evidence, from_neighbor=None)

    def _handle_evidence(self, evidence: Evidence,
                         from_neighbor: Optional[str],
                         endorsement: Optional[Signature] = None) -> None:
        """Evaluate an already-noted record (dedup happens at receipt)."""
        if self.sim.now - evidence.detected_at > self._evidence_staleness:
            # Too old to act on: either a backdated harvest attempt or a
            # record that crawled here long after its recovery concluded.
            return
        decision = self.log.evaluate_evidence(evidence)
        if decision.reason == "bad_signature":
            self.system.trace.record(EvidenceRejected(
                time=self.sim.now, node=self.node_id,
                claimed_signer=evidence.detector, reason="bad_signature",
            ))
            # §4.3 endorsement rule: the record's claimed author is
            # unauthenticated, but whoever *endorsed and distributed* it
            # is not — and correct nodes validate before forwarding, so
            # endorsing junk is slander by the endorser.
            if endorsement is not None and self.system.directory.verify(
                    {"type": "endorse", "ref": evidence.evidence_id},
                    endorsement):
                implicated = self.log.count_slander(endorsement.signer)
                if implicated:
                    self._implicate(implicated, self.sim.now)
        elif decision.reason == "unsupported":
            self.system.trace.record(EvidenceRejected(
                time=self.sim.now, node=self.node_id,
                claimed_signer=evidence.detector, reason="unsupported",
            ))
        if decision.accept:
            self.system.trace.record(EvidenceAccepted(
                time=self.sim.now, node=self.node_id,
                accused_node=evidence.accused,
                evidence_id=zlib.crc32(evidence.evidence_id.encode()),
            ))
        if decision.reason == "unsupported_soft":
            self._retry_evidence.append(evidence)
        if decision.implicate:
            self._implicate(decision.implicate, evidence.detected_at)
        if decision.forward:
            self._broadcast(("evidence", evidence), evidence.wire_bits(),
                            exclude=from_neighbor)

    def _retry_soft_rejected(self, evidence: Evidence) -> None:
        """Re-submit a plan-dependent record after a mode switch."""
        if self.log.note_evidence(evidence):
            self.system.metrics.inc("evidence_retries")
            self._handle_evidence(evidence, from_neighbor=None)

    def _handle_declaration(self, decl: AuthenticatedStatement,
                            from_neighbor: Optional[str]) -> None:
        """Evaluate an already-noted declaration."""
        decision = self.log.evaluate_declaration(decl)
        if not decision.accept:
            return
        if decl.statement.get("declared_at", 0) >= self._blame_cutoff:
            self.blame.add_declaration(decl)
        for accused in self.blame.newly_attributable():
            if accused in self.switcher.fault_set:
                continue
            support = self._minimal_attribution_support(accused)
            if support is not None:
                self._emit_evidence(ATTRIBUTION, accused, support)
            else:
                # Not enough fresh corroboration yet: let later
                # declarations retry instead of leaving the mark sticky.
                self.blame.attributed.discard(accused)
        self._broadcast(("declaration", decl),
                        decl.wire_bits() + CONTROL_BITS,
                        exclude=from_neighbor)

    def _minimal_attribution_support(self, accused: str
                                     ) -> Optional[List[AuthenticatedStatement]]:
        """The smallest declaration set that proves an attribution:
        ``blame_slot_threshold`` distinct slots from >= 2 declarers.

        Keeping the record minimal matters operationally: every node on the
        flooding path verifies every statement on its reserved control
        lane, so oversized records delay the very mode switch the evidence
        is supposed to trigger.
        """
        candidates = [
            d for d in self.blame.supporting_declarations(
                accused, self.log.declarations)
            # Stale (pre-cutoff) declarations describe the previous regime;
            # validators reject bundles containing any, so never pick them.
            if d.statement.get("declared_at", 0) >= self._blame_cutoff
        ]
        # Validation counts distinct (path, period, declarer) slots, so
        # pick one declaration per slot.
        unique: List[AuthenticatedStatement] = []
        slot_keys = set()
        for decl in candidates:
            key = (tuple(decl.statement["path"]),
                   decl.statement["period"], decl.signer)
            if key not in slot_keys:
                slot_keys.add(key)
                unique.append(decl)
        by_declarer: Dict[str, List[AuthenticatedStatement]] = {}
        for decl in unique:
            by_declarer.setdefault(decl.signer, []).append(decl)
        if len(by_declarer) < self.config.blame_min_declarers:
            return None
        # One slot from each declarer first (corroboration), then fill up
        # to the slot threshold.
        support: List[AuthenticatedStatement] = []
        for signer in sorted(by_declarer)[: self.config.blame_min_declarers]:
            support.append(by_declarer[signer][0])
        seen = {id(s) for s in support}
        for decl in unique:
            if len(support) >= self.config.blame_slot_threshold:
                break
            if id(decl) not in seen:
                support.append(decl)
                seen.add(id(decl))
        if len(support) < self.config.blame_slot_threshold:
            return None
        return support

    def _broadcast(self, payload: tuple, bits: int,
                   exclude: Optional[str]) -> None:
        """Forward a control record to the neighbours, *endorsed*.

        §4.3: "If nodes are required to endorse evidence they distribute,
        invalid evidence can be counted as evidence against the signer."
        The endorsement is this node's signature over the record's id;
        receivers drop unendorsed records without any processing, and an
        endorser of improperly signed junk takes the slander charge that
        the junk's (unauthenticated) claimed author cannot.
        """
        if self.node.crashed:
            return
        record = payload[1]
        if isinstance(record, Evidence):
            ref = record.evidence_id
        else:
            ref = record.payload_digest()
        endorsement = self.system.directory.sign(
            self.node_id, {"type": "endorse", "ref": ref})
        # One frozen envelope shared by every per-neighbour copy: the
        # record is signed and immutable, so receivers can safely alias
        # it, and N neighbours cost one tuple build instead of N.
        envelope = payload + (endorsement,)
        self._batch.flood_messages(self, MessageKind.EVIDENCE, envelope,
                                   bits, exclude)

    def _on_evidence_message(self, message: Message) -> None:
        payload = message.payload
        if not isinstance(payload, tuple) or len(payload) != 3:
            return  # unendorsed records cost nothing: dropped outright
        tag, record, endorsement = payload
        # Hoisted: the deferred verification callbacks below must not
        # capture the message object — pooled messages are recycled as
        # soon as delivery dispatch returns.
        src = message.src
        # §4.3: nodes endorse what they distribute. The endorsement must
        # be by the forwarding hop itself; anything else is dropped before
        # any processing. (Whether the signature is *valid* is checked on
        # the control lane with the rest of the verification work.)
        if (not isinstance(endorsement, Signature)
                or endorsement.signer != src):
            return
        # Quota *before* the dedup mark: a record dropped for quota must
        # not be remembered as seen, or the copies arriving from other
        # neighbours (whose quota buckets are separate) would be discarded
        # and the record lost fleet-wide — during a declaration storm that
        # silently splits the fault sets. Senders dedup before forwarding,
        # so each sender charges each record to its bucket at most once.
        if tag == "evidence" and isinstance(record, Evidence):
            if not self._take_ctrl_quota(src, tag):
                return
            if not self.log.note_evidence(record):
                return
            cost = self.config.crypto.verify_us * (2 + len(record.statements))
            self.node.execute(
                self.sim, cost,
                callback=lambda: self._handle_evidence(
                    record, src, endorsement=endorsement),
                lane="ctrl",
            )
        elif tag == "declaration" and isinstance(record,
                                                 AuthenticatedStatement):
            if not self._take_ctrl_quota(src, tag):
                return
            if not self.log.note_declaration(record):
                return
            self.node.execute(
                self.sim, self.config.crypto.verify_us,
                callback=lambda: self._handle_declaration(record, src),
                lane="ctrl",
            )

    def _take_ctrl_quota(self, sender: str, tag: str) -> bool:
        """Per-sender, per-class verification quota: a flooding neighbour
        can fill its own reserved link lane, but it may not consume more
        than a fixed slice of this node's control CPU per period (§4.3).
        Bulk declarations and rare accusation evidence draw from separate
        buckets, so a declaration storm cannot crowd out an attribution."""
        key = (sender, tag, self.sim.now // self.period)
        spent = self._ctrl_quota.get(key, 0)
        if spent >= self.config.evidence_quota_per_sender:
            return False
        self._ctrl_quota[key] = spent + 1
        return True

    def _flood_bogus_evidence(self, k: int) -> None:
        behavior = self.behavior
        count = getattr(behavior, "records_per_period", 0)
        others = [n for n in self.system.topology.node_ids()
                  if n != self.node_id]
        proper = getattr(behavior, "proper_signatures", False)
        for i in range(count):
            accused = (getattr(behavior, "accused", None)
                       or others[(k + i) % len(others)])
            if proper:
                # Validly signed but unsupported: survives the cheap check,
                # dies in full validation, and counts against this signer.
                bogus = Evidence.make(
                    self.system.directory, COMMISSION, accused,
                    self.node_id, detected_at=self.sim.now + i,
                    statements=[],
                )
            else:
                payload = {
                    "type": "evidence", "kind": COMMISSION,
                    "accused": accused, "detector": self.node_id,
                    "detected_at": self.sim.now, "support": [],
                    "nonce": k * 1_000 + i,
                }
                envelope = AuthenticatedStatement(
                    statement=payload,
                    signature=self.system.directory.forge(self.node_id,
                                                          payload),
                )
                bogus = Evidence(
                    kind=COMMISSION, accused=accused, detector=self.node_id,
                    detected_at=self.sim.now, statements=(),
                    envelope=envelope,
                )
            self._broadcast(("evidence", bogus), bogus.wire_bits(),
                            exclude=None)

    # ---------------------------------------------------------- heartbeats

    def _node_alive(self, node: str) -> bool:
        """Control-plane liveness: heartbeat within the last ~3 periods."""
        last = self._last_heartbeat.get(node)
        return (last is not None
                and self.sim.now - last <= 3 * self.period)

    def _emit_heartbeat(self, k: int) -> None:
        """Flooded once-per-period life signal (tiny CONTROL frames).

        Blame attribution needs to know whether a charged node is alive on
        the control plane: a live endpoint of a dead link must not be
        convicted as a dead node. Crashed nodes stop heartbeating;
        compromised ones may keep beating to look alive, which only buys
        them the single-adjacency excuse — total omission breaks several
        adjacencies and is attributed regardless.
        """
        self._flood_heartbeat(self.node_id, k, exclude=None)

    def _flood_heartbeat(self, origin: str, k: int,
                         exclude: Optional[str]) -> None:
        if (origin, k) in self._heartbeats_seen:
            return
        self._heartbeats_seen.add((origin, k))
        if origin != self.node_id:
            self._last_heartbeat[origin] = self.sim.now
        if self.node.crashed:
            return
        # Vectorised fan-out: one heap event per distinct arrival time,
        # no Message objects for standard receivers.
        self._batch.flood_heartbeat(self, origin, k, exclude)

    # ----------------------------------------------------------- control

    def _on_control(self, message: Message) -> None:
        payload = message.payload
        if not isinstance(payload, tuple):
            return
        if payload[0] == "heartbeat":
            _, origin, k = payload
            self._flood_heartbeat(origin, k, exclude=message.src)
            return
        if message.dst != self.node_id:
            next_hop = self.system.next_hop_static(self.node_id, message.dst)
            if next_hop:
                self.system.transmit(self.node_id, next_hop, message)
            return
        if payload[0] == "fetch_req":
            _, copy, base, k, requester = payload
            self._handle_fetch_request(copy, base, k, requester)
        elif payload[0] == "fetch_resp":
            _, copy, base, k, stmt = payload
            self._handle_fetch_response(copy, base, k, stmt)
        elif payload[0] == "state_req":
            _, instance, requester = payload
            self._handle_state_request(instance, requester)

    # -------------------------------------------------------- mode switches

    def _implicate(self, accused: str, evidence_time: int) -> None:
        pending = self.switcher.on_implicated(accused, evidence_time,
                                              self.sim.now)
        if pending is None:
            return
        self.system.trace.record(ModeSwitchStarted(
            time=self.sim.now, node=self.node_id,
            from_mode=self.plan.mode, to_mode=pending.plan.mode,
            boundary=pending.at,
        ))
        # Confusion window: from now until well past the boundary, plans
        # across the fleet may disagree and migrated instances may still be
        # waiting for state — omission/timing judgements would implicate
        # innocents. The settling term covers worst-case state transfer.
        self.suppress_until = max(
            self.suppress_until,
            pending.at + self.config.suppress_periods * self.period
            + self.system.budget.settling_us,
        )
        self.sim.call_at(pending.at, self._adopt_current_target)

    def _adopt_current_target(self) -> None:
        if self.node.crashed:
            return
        target = self.system.strategy.plan_for(
            self.switcher.fault_set.snapshot())
        if target.mode == self.plan.mode:
            return
        self._apply_plan(target)

    def _apply_plan(self, new_plan: Plan) -> None:
        old_plan = self.plan
        faulty = set(self.switcher.fault_set.snapshot())
        transition = compute_transition(self.node_id, old_plan, new_plan,
                                        faulty)
        self.plan = new_plan
        self.switcher.adopt(new_plan)
        self._refresh_expected()
        self.demoted.clear()
        self._investigations.clear()
        # Re-evaluate plan-dependent evidence under the new plan. Soft
        # rejects were un-marked by the log, so retries go back through
        # the dedup gate — it filters copies queued from several
        # neighbours, which would otherwise be double-accepted here.
        pending_retry, self._retry_evidence = self._retry_evidence, []
        for evidence in pending_retry:
            self.sim.call_after(
                1, lambda ev=evidence: self._retry_soft_rejected(ev))
        self.suppress_until = max(
            self.suppress_until,
            self.sim.now + self.config.suppress_periods * self.period
            + self.system.budget.settling_us,
        )
        # Old-plan charges describe the old regime; restart blame fresh
        # and refuse declarations from before the confusion window ends.
        self.blame.reset_charges()
        self._blame_cutoff = self.suppress_until
        for fetch in transition.fetches:
            self.pending_state.add(fetch.instance)
            if fetch.source is None:
                self._rebuild_state(fetch.instance, fetch.bits)
            else:
                self._request_state(fetch.instance, fetch.source, fetch.bits)
        # Record criticality shedding once, from a single designated node
        # (all correct nodes shed identically; one record per task is
        # enough for the analysis layer).
        if self.node_id == min(self.system.topology.nodes):
            previously_shed = set(old_plan.shed_tasks(self.system.workload))
            for task in new_plan.shed_tasks(self.system.workload):
                if task in previously_shed:
                    continue
                self.system.trace.record(TaskShed(
                    time=self.sim.now, task=task,
                    criticality=self.system.workload.tasks[task]
                    .criticality.value,
                    mode=new_plan.mode,
                ))
        self.system.trace.record(ModeSwitchCompleted(
            time=self.sim.now, node=self.node_id, mode=new_plan.mode,
        ))

    def _rebuild_state(self, instance: str, bits: int) -> None:
        duration = max(1, int(bits / self.config.rebuild_bits_per_us))
        if self.node.crashed:
            return
        self.node.execute(
            self.sim, duration,
            callback=lambda: self.pending_state.discard(instance),
            lane="fg",
        )

    def _request_state(self, instance: str, source: str, bits: int) -> None:
        request = Message(
            src=self.node_id, dst=source, kind=MessageKind.CONTROL,
            payload=("state_req", instance, self.node_id),
            size_bits=CONTROL_BITS,
        )
        self.system.send_routed(self, request, self.plan)
        # Fallback: rebuild locally if the source never answers.
        deadline = self.sim.now + STATE_TIMEOUT_PERIODS * self.period
        self.sim.call_at(deadline, lambda: (
            self._rebuild_state(instance, bits)
            if instance in self.pending_state and not self.node.crashed
            else None
        ))

    def _handle_state_request(self, instance: str, requester: str) -> None:
        if self.behavior.suppresses_detection() and self.node.compromised:
            return
        task = self.plan.augmented.tasks.get(instance)
        bits = task.state_bits if task else 65536
        response = Message(
            src=self.node_id, dst=requester, kind=MessageKind.STATE,
            payload=("state_payload", instance), size_bits=max(bits, 1),
        )
        self.system.send_routed(self, response, self.plan)

    def _on_state(self, message: Message) -> None:
        payload = message.payload
        if not isinstance(payload, tuple) or payload[0] != "state_payload":
            return
        if message.dst != self.node_id:
            next_hop = self.system.next_hop_static(self.node_id, message.dst)
            if next_hop:
                self.system.transmit(self.node_id, next_hop, message)
            return
        self.pending_state.discard(payload[1])
