"""The runtime's batched emitters, pooled messages, and multi-seed sweeps.

The runtime (:class:`~repro.core.runtime.system.BTRSystem`) executes on
one event engine; this module holds the parts of it that remove the
*per-message heap event* for the traffic that dominates steady state,
plus the sweep functions that reuse one prepared system across seeds:

* **fan-out batching** — a heartbeat flood or evidence broadcast emits N
  single-hop copies whose deliveries would be scheduled back-to-back
  with consecutive sequence numbers. All copies that arrive at the same
  time are coalesced into ONE heap event (a :class:`_HeartbeatBatch` /
  :class:`_MessageBatch`) that dispatches the deliveries in emission
  order. This is order-preserving by construction: two coalesced
  entries have equal timestamps and no foreign event can hold a sequence
  number between theirs (the emission loop issues no other schedules),
  so the (time, seq) total order of *observable* work is that of one
  event per message. ``events_executed`` is bumped per logical delivery;

* **message/event pools** — fan-out and data-plane messages come from a
  :class:`~repro.sim.message.MessagePool` (released when they reach
  their final destination), heartbeats skip the message object entirely
  when the receiving node's handler chain is the standard agent one, and
  the batch events themselves are free-list recycled, so the
  steady-state loop allocates almost nothing;

* **multi-seed sweeps** — :func:`run_sweep` runs N seeds in one process
  against one prepared system: the frozen strategy (and every plan-riding
  memo: routes, send offsets, timing windows), the router's path cache,
  and the derived signing keys (module-level cache in
  :mod:`repro.crypto.signatures`) are shared across seeds instead of
  being rebuilt per run. :func:`run_sweep_pool` fans a geo sweep's seeds
  out over worker processes.

The behaviour is pinned by the golden trace table
(``tests/golden/traces.json``, see ``tools/golden.py``); see
docs/PERFORMANCE.md ("Runtime engine") and the E19 benchmark.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple

from ..sim.message import Message, MessageKind, MessagePool
from ..sim.trace import MessageDelivered, MessageDropped, MessageSent
from .fastpath import trace_fingerprint

#: Heartbeat frames are tiny fixed-size CONTROL messages (agent.py).
HEARTBEAT_BITS = 128


class _HeartbeatBatch:
    """One coalesced heap event delivering same-arrival heartbeat copies.

    Carries no :class:`Message` objects at all: the handler chain for a
    heartbeat is known (``_on_message`` -> ``_on_control`` -> re-flood),
    so when the receiver's handlers are exactly the standard agent
    dispatch the batch calls ``_flood_heartbeat`` directly. Receivers
    with custom handlers (tests attach observers) fall back to a real
    message dispatched through the normal handler loop.
    """

    __slots__ = ("runtime", "sender", "origin", "k", "arrival",
                 "rids", "nodes", "agents", "lost")

    def __init__(self, runtime: "BatchRuntime") -> None:
        self.runtime = runtime
        self.sender = ""
        self.origin = ""
        self.k = 0
        self.arrival = 0
        self.rids: List[str] = []
        self.nodes: List = []
        self.agents: List = []
        self.lost: List[bool] = []

    def __call__(self) -> None:
        runtime = self.runtime
        system = runtime.system
        sim = system.sim
        trace = system.trace
        retained = system._hops_retained
        metrics = system.metrics
        sender = self.sender
        origin = self.origin
        k = self.k
        arrival = self.arrival
        rids = self.rids
        nodes = self.nodes
        agents = self.agents
        lost = self.lost
        n = len(rids)
        # One engine pop stands for n logical deliveries; the
        # events-executed gauge counts each of them.
        sim.events_executed += n - 1
        runtime.batches_fired += 1
        runtime.entries_batched += n
        delivered = 0
        dropped = 0
        seen_key = (origin, k)
        for i in range(n):
            rid = rids[i]
            if lost[i]:
                if retained:
                    # Trace records are immutable fresh objects by design.
                    trace.record(MessageDropped(  # lint: ignore[allocation-in-loop]
                        time=arrival, src=sender, dst=rid, kind="control",
                        reason="link_loss",
                    ))
                else:
                    dropped += 1
                metrics.inc("messages_dropped", reason="link_loss")
                continue
            if retained:
                trace.record(MessageDelivered(  # lint: ignore[allocation-in-loop]
                    time=arrival, src=sender, dst=rid, kind="control",
                    flow=None,
                ))
            else:
                delivered += 1
            node = nodes[i]
            if node.crashed:
                continue
            agent = agents[i]
            if agent is not None:
                # Inlined seen-check: ~85% of steady-state deliveries are
                # duplicate copies whose reflood call would return on its
                # first line (and NOT refresh _last_heartbeat — only
                # first receipt does that).
                if seen_key in agent._heartbeats_seen:
                    continue
                agent._flood_heartbeat(origin, k, exclude=sender)
            else:
                # Non-standard handler chain: dispatch a real message so
                # observers see exactly what a per-message transmit
                # delivers.
                message = Message(  # lint: ignore[allocation-in-loop]
                    src=sender, dst=rid, kind=MessageKind.CONTROL,
                    payload=("heartbeat", origin, k),
                    size_bits=HEARTBEAT_BITS,
                )
                for handler in node._handlers:
                    handler(message, arrival)
        if delivered:
            system._tally_delivered += delivered
        if dropped:
            system._tally_dropped += dropped
        rids.clear()
        nodes.clear()
        agents.clear()
        lost.clear()
        runtime._hb_free.append(self)


class _MessageBatch:
    """One coalesced heap event delivering same-arrival pooled messages
    (evidence/declaration broadcast fan-out). Dispatch per entry is the
    inlined ``Node.deliver`` of the transmit path; messages are released to
    the pool once delivered at (or dropped short of) their final
    destination."""

    __slots__ = ("runtime", "sender", "arrival", "nodes", "messages",
                 "lost")

    def __init__(self, runtime: "BatchRuntime") -> None:
        self.runtime = runtime
        self.sender = ""
        self.arrival = 0
        self.nodes: List = []
        self.messages: List[Message] = []
        self.lost: List[bool] = []

    def __call__(self) -> None:
        runtime = self.runtime
        system = runtime.system
        sim = system.sim
        trace = system.trace
        retained = system._hops_retained
        metrics = system.metrics
        pool = runtime.pool
        sender = self.sender
        arrival = self.arrival
        nodes = self.nodes
        messages = self.messages
        lost = self.lost
        n = len(messages)
        sim.events_executed += n - 1
        runtime.batches_fired += 1
        runtime.entries_batched += n
        delivered = 0
        dropped = 0
        for i in range(n):
            message = messages[i]
            if lost[i]:
                if retained:
                    # Trace records are immutable fresh objects by design.
                    trace.record(MessageDropped(  # lint: ignore[allocation-in-loop]
                        time=arrival, src=sender, dst=message.dst,
                        kind=message.kind.value, reason="link_loss",
                    ))
                else:
                    dropped += 1
                metrics.inc("messages_dropped", reason="link_loss")
                pool.release(message)
                continue
            if retained:
                trace.record(MessageDelivered(  # lint: ignore[allocation-in-loop]
                    time=arrival, src=sender, dst=message.dst,
                    kind=message.kind.value, flow=message.flow,
                ))
            else:
                delivered += 1
            node = nodes[i]
            if not node.crashed:
                for handler in node._handlers:
                    handler(message, arrival)
            # The batched emitter only produces single-hop envelopes
            # (dst == the neighbour we just delivered to), so the message
            # is at its final destination; a handler that needed payload
            # fields after this point must have hoisted them (agent.py
            # does, for the deferred evidence callbacks).
            if message.dst == node.node_id:
                pool.release(message)
        if delivered:
            system._tally_delivered += delivered
        if dropped:
            system._tally_dropped += dropped
        nodes.clear()
        messages.clear()
        lost.clear()
        runtime._msg_free.append(self)


class BatchRuntime:
    """Per-run state of the batched emitters, owned by a
    :class:`~repro.core.runtime.system.BTRSystem`: the message pool, the
    batch-event free lists, and the per-node heartbeat dispatch
    shortcuts."""

    def __init__(self, system, pool_prealloc: int = 256) -> None:
        self.system = system
        self.pool = MessagePool(prealloc=pool_prealloc)
        self._hb_free: List[_HeartbeatBatch] = []
        self._msg_free: List[_MessageBatch] = []
        #: node_id -> agent when the node's handler chain is exactly the
        #: standard agent dispatch (heartbeats then skip Message objects),
        #: else None (generic fallback).
        self.hb_shortcut: Dict[str, Optional[object]] = {}
        #: Static per-sender emission plans (see :meth:`begin_run`).
        self._hb_plans: Dict[str, list] = {}
        self._ev_plans: Dict[str, list] = {}
        self.batches_fired = 0
        self.entries_batched = 0

    def begin_run(self, agents: Dict[str, object]) -> None:
        """Build the per-run static emission state; called by ``run()``
        after agent construction (handlers are registered in agent
        ``__init__``) and after ``lane_model.install()`` (the plans bind
        the run's Lane objects).

        The emission plan for one sender is its neighbour fan-out with
        everything that cannot change mid-run resolved ahead of time:
        the lane, the receiving node, the heartbeat dispatch shortcut,
        and — for the fixed-size heartbeat frame — the serialization
        duration itself. ``loss_probability`` is read live per emission
        (link scripts mutate it mid-run)."""
        self.hb_shortcut = {}
        self._hb_plans = {}
        self._ev_plans = {}
        self.batches_fired = 0
        self.entries_batched = 0
        topology = self.system.topology
        for node_id, agent in sorted(agents.items()):
            handlers = agent.node._handlers
            standard = (len(handlers) == 1
                        and handlers[0] == agent._on_message)
            self.hb_shortcut[node_id] = agent if standard else None
        for node_id, agent in sorted(agents.items()):
            # Setup-time plan construction, once per run — not the
            # steady-state loop the allocation rule protects.
            hb_plan = []  # lint: ignore[allocation-in-loop]
            ev_plan = []  # lint: ignore[allocation-in-loop]
            sender_node = topology.nodes[node_id]
            for neighbor in agent._neighbors:
                link = sender_node.link_to(neighbor)
                if link is None:
                    continue
                node = topology.nodes[neighbor]
                ctrl = link.lane_for(node_id, MessageKind.CONTROL)
                duration = int(round(HEARTBEAT_BITS
                                     / ctrl.rate_bits_per_us))
                if duration < 1:
                    duration = 1
                hb_plan.append((neighbor, link, ctrl, node,
                                self.hb_shortcut.get(neighbor), duration,
                                duration + link.propagation_us))
                ev_plan.append((neighbor, link,
                                link.lane_for(node_id,
                                              MessageKind.EVIDENCE),
                                node, link.propagation_us))
            self._hb_plans[node_id] = hb_plan
            self._ev_plans[node_id] = ev_plan

    # ------------------------------------------------------------ fan-out

    def flood_heartbeat(self, agent, origin: str, k: int,
                        exclude: Optional[str]) -> None:
        """Vectorised heartbeat fan-out: one lane reservation + trace
        entry per receiver, one heap event per distinct arrival time.
        RNG draws (lossy links) and the delivery hook are consulted per
        receiver in emission order, exactly like one transmit() per
        copy."""
        system = self.system
        sim = system.sim
        trace = system.trace
        retained = system._hops_retained
        hook = sim.delivery_hook
        rng_random = sim.rng.random
        sender = agent.node_id
        now = sim.now
        sent = 0
        groups: Dict[int, _HeartbeatBatch] = {}
        hb_free = self._hb_free
        for entry in self._hb_plans[sender]:
            neighbor = entry[0]
            if neighbor == exclude:
                continue
            link = entry[1]
            lane = entry[2]
            if retained:
                trace.record(MessageSent(  # lint: ignore[allocation-in-loop]
                    time=now, src=sender, dst=neighbor, kind="control",
                    size_bits=HEARTBEAT_BITS, flow=None,
                ))
            else:
                sent += 1
            # Inlined Lane.reserve with the precomputed constant duration
            # (the frame size and lane rate are fixed for the whole run).
            free = lane.next_free
            start = now if now >= free else free
            lane.next_free = start + entry[5]
            lane.bits_sent += HEARTBEAT_BITS
            arrival = start + entry[6]
            if hook is not None:
                arrival = hook(sender, neighbor, arrival)
            loss = link.loss_probability
            lost = loss > 0.0 and rng_random() < loss
            batch = groups.get(arrival)
            if batch is None:
                batch = (hb_free.pop() if hb_free
                         else _HeartbeatBatch(self))  # lint: ignore[allocation-in-loop]
                batch.sender = sender
                batch.origin = origin
                batch.k = k
                batch.arrival = arrival
                groups[arrival] = batch
                sim.schedule(arrival, batch)  # lint: ignore[engine-schedule-bypass]
            batch.rids.append(neighbor)
            batch.nodes.append(entry[3])
            batch.agents.append(entry[4])
            batch.lost.append(lost)
        if sent:
            system._tally_sent += sent

    def flood_messages(self, agent, kind: MessageKind, payload,
                       bits: int, exclude: Optional[str]) -> None:
        """Vectorised single-hop broadcast of one payload envelope to all
        neighbours (evidence/declaration flooding): pooled per-receiver
        messages, one heap event per distinct arrival time. Only called
        for EVIDENCE-lane traffic (the endorsed control records)."""
        system = self.system
        sim = system.sim
        trace = system.trace
        retained = system._hops_retained
        hook = sim.delivery_hook
        rng_random = sim.rng.random
        pool = self.pool
        sender = agent.node_id
        kind_value = kind._value_
        now = sim.now
        sent = 0
        groups: Dict[int, _MessageBatch] = {}
        msg_free = self._msg_free
        for entry in self._ev_plans[sender]:
            neighbor = entry[0]
            if neighbor == exclude:
                continue
            link = entry[1]
            lane = entry[2]
            if retained:
                trace.record(MessageSent(  # lint: ignore[allocation-in-loop]
                    time=now, src=sender, dst=neighbor, kind=kind_value,
                    size_bits=bits, flow=None,
                ))
            else:
                sent += 1
            free = lane.next_free
            start = now if now >= free else free
            duration = int(round(bits / lane.rate_bits_per_us))
            if duration < 1:
                duration = 1
            lane.next_free = start + duration
            lane.bits_sent += bits
            arrival = start + duration + entry[4]
            if hook is not None:
                arrival = hook(sender, neighbor, arrival)
            loss = link.loss_probability
            lost = loss > 0.0 and rng_random() < loss
            message = pool.acquire(sender, neighbor, kind, payload, bits)
            batch = groups.get(arrival)
            if batch is None:
                batch = (msg_free.pop() if msg_free
                         else _MessageBatch(self))  # lint: ignore[allocation-in-loop]
                batch.sender = sender
                batch.arrival = arrival
                groups[arrival] = batch
                sim.schedule(arrival, batch)  # lint: ignore[engine-schedule-bypass]
            batch.nodes.append(entry[3])
            batch.messages.append(message)
            batch.lost.append(lost)
        if sent:
            system._tally_sent += sent

    def stats(self) -> dict:
        return {
            "batches_fired": self.batches_fired,
            "entries_batched": self.entries_batched,
            "pool": self.pool.stats(),
        }


# --------------------------------------------------------------- sweeps

@dataclasses.dataclass
class SweepRun:
    """One seed's outcome inside a :func:`run_sweep` execution."""

    seed: int
    result: object          # RunResult
    wall_s: float
    fingerprint: str


def sibling_system(prototype, seed: int):
    """A prepared system for another seed, sharing the prototype's frozen
    planning artifacts: the strategy (with every plan-riding memo — routes,
    send offsets, timing windows), the recovery budget, the switch lead,
    the router's path cache, and the lane model. The key directory is
    rebuilt for the new seed (its master seed differs) but shares derived
    keys through the process-wide cache. The sibling's runs are
    byte-identical to a freshly constructed+prepared system on that seed
    (the batchcore tests and the E19 sweep column assert this)."""
    from ..core.runtime.system import BTRSystem

    config = dataclasses.replace(prototype.config, seed=seed)
    sibling = BTRSystem(prototype.workload, prototype.topology, config)
    sibling.router = prototype.router
    sibling.lane_model = prototype.lane_model
    sibling.strategy = prototype.strategy
    sibling.budget = prototype.budget
    sibling.switch_lead_us = prototype.switch_lead_us
    return sibling


def run_sweep(system, seeds, n_periods: int, scenario: Optional[str] = None,
              adversary=None, link_script=None) -> List[SweepRun]:
    """Run ``n_periods`` under each seed in one process, sharing the
    prepared strategy and every derived artifact across seeds.

    ``system`` must be prepared; its own seed reuses it directly, every
    other seed gets a :func:`sibling_system`. ``scenario`` (a name from
    :mod:`repro.faults.scenarios`) is staged per seed — scenario scripts
    are seed-relative; alternatively pass ``adversary``/``link_script``
    directly. Returns one :class:`SweepRun` per seed, in order, each with
    the run's trace fingerprint so callers can gate on byte-identity
    against independently constructed systems or the golden table.
    """
    from .timing import Stopwatch

    runs: List[SweepRun] = []
    for seed in seeds:
        target = (system if seed == system.config.seed
                  else sibling_system(system, seed))
        adv = adversary
        links = link_script
        if scenario is not None:
            from ..faults.scenarios import stage
            staged = stage(scenario, target)
            adv = staged.script
            links = staged.link_script or None
        # One allocation pair per *seed*, not per event — sweep driver
        # code, outside the steady-state loop.
        watch = Stopwatch()  # lint: ignore[allocation-in-loop]
        result = target.run(n_periods, adversary=adv, link_script=links)
        wall = watch.elapsed_s()
        runs.append(SweepRun(  # lint: ignore[allocation-in-loop]
            seed=seed, result=result, wall_s=wall,
            fingerprint=trace_fingerprint(result.trace),
        ))
    return runs


#: In-process memo of prepared planning artifacts, keyed by the full
#: planning-relevant configuration. Lets repeated campaigns/benchmarks in
#: one process (the mc layer re-prepares per campaign) share one
#: strategy+budget instead of re-planning.
_PREPARE_MEMO: Dict[tuple, tuple] = {}


def _prepare_key(system) -> tuple:
    """Everything prepare() reads, as a hashable key.

    Workload and topology are identified by the planner cache's content
    fingerprints (seed pinned to 0 — planning never consumes the run
    seed, so sweeps share across seeds); the normalised config repr
    covers every tunable the budget/switch-lead computations read.
    ``cache``/``planner_jobs`` are normalised away because they change
    how the artifact is obtained, never what it is; ``symmetry_memo``
    stays in the key because a memoised strategy is a different artifact.
    """
    from .cache import strategy_cache_key

    cfg = system.config
    structural = strategy_cache_key(system.workload, system.topology,
                                    cfg.f, 0)
    return (structural,
            repr(dataclasses.replace(cfg, seed=0, cache=None,
                                     planner_jobs=1)))


def shared_prepare(system):
    """``system.prepare()`` through an in-process memo: a second system
    with identical planning inputs adopts the first's frozen strategy,
    budget, and switch lead without re-planning. The memo shares the
    exact objects, so plan-riding memos stay warm across campaigns."""
    key = _prepare_key(system)
    entry = _PREPARE_MEMO.get(key)
    if entry is not None:
        strategy, budget, switch_lead = entry
        system.strategy = strategy
        system.budget = budget
        system.switch_lead_us = switch_lead
        return budget
    budget = system.prepare()
    _PREPARE_MEMO[key] = (system.strategy, budget, system.switch_lead_us)
    return budget


# ------------------------------------------------------------ pool sweep

#: Workload factories a pool worker can rebuild by name (callables do
#: not cross process boundaries; specs carry names only).
_WORKLOADS: Dict[str, Callable] = {}


def _workload_registry() -> Dict[str, Callable]:
    if not _WORKLOADS:
        from ..workload import (
            automotive_workload,
            avionics_workload,
            industrial_workload,
            pipeline_workload,
            power_grid_workload,
        )
        _WORKLOADS.update({
            "industrial": industrial_workload,
            "avionics": avionics_workload,
            "automotive": automotive_workload,
            "pipeline": pipeline_workload,
            "powergrid": power_grid_workload,
        })
    return _WORKLOADS


@dataclasses.dataclass(frozen=True)
class GeoSweepSpec:
    """A picklable recipe for one geo sweep configuration: everything a
    worker process needs to rebuild the system from scratch (names and
    numbers only — no callables, no live objects)."""

    workload: str = "industrial"
    #: Period/deadline stretch factor (see
    #: :func:`~repro.workload.stretched_workload`): geo WAN latencies
    #: do not fit inside millisecond CPS deadlines unstretched.
    stretch: int = 10
    regions: int = 3
    nodes_per_region: int = 8
    wan_latency: int = 5000
    wan_jitter: int = 0
    bandwidth: float = 1e8
    f: int = 1
    n_periods: int = 12
    seed: int = 42
    trace_mode: str = "milestones"
    cache: Optional[str] = None
    scenario: Optional[str] = None


def system_for_spec(spec: GeoSweepSpec):
    """Build (unprepared) the system a :class:`GeoSweepSpec` describes.

    Raises ValueError for a workload name the registry does not know.
    """
    from ..core.runtime.config import BTRConfig
    from ..core.runtime.system import BTRSystem
    from ..net.topology import geo_topology

    try:
        factory = _workload_registry()[spec.workload]
    except KeyError:
        raise ValueError(
            f"unknown workload {spec.workload!r}; pool sweeps rebuild "
            f"workloads by name ({sorted(_workload_registry())})"
        ) from None
    workload = factory()
    if spec.stretch > 1:
        from ..workload import stretched_workload
        workload = stretched_workload(workload, spec.stretch)
    topology = geo_topology(spec.regions, spec.nodes_per_region,
                            wan_latency=spec.wan_latency,
                            wan_jitter=spec.wan_jitter,
                            bandwidth=spec.bandwidth)
    config = BTRConfig(f=spec.f, seed=spec.seed, cache=spec.cache,
                       trace_mode=spec.trace_mode)
    return BTRSystem(workload, topology, config)


def _sweep_worker(spec: GeoSweepSpec, seeds: Tuple[int, ...]) -> List[dict]:
    """One worker's share of a pool sweep: rebuild, prepare (on-disk
    cache hit — the parent warmed it), run, ship back primitives only
    (RunResult traces are large and stay in the worker)."""
    spec = dataclasses.replace(spec, seed=seeds[0])
    system = system_for_spec(spec)
    shared_prepare(system)
    runs = run_sweep(system, seeds, spec.n_periods,
                     scenario=spec.scenario)
    return [
        {
            "seed": run.seed,
            "fingerprint": run.fingerprint,
            "wall_s": run.wall_s,
            "events": run.result.metrics["gauges"]["sim_events_executed"],
        }
        for run in runs
    ]


def run_sweep_pool(spec: GeoSweepSpec, seeds, workers: int) -> dict:
    """Fan a multi-seed geo sweep out over worker processes.

    Seeds are split into ``workers`` contiguous chunks; each worker
    rebuilds the system from ``spec``, prepares it against the shared
    on-disk strategy cache (the parent prepares first, so workers hit),
    and runs its chunk with :func:`run_sweep`. Results come back in the
    input seed order as primitive dicts (seed, trace fingerprint,
    wall seconds, events executed) — callers gate byte-identity on the
    fingerprints exactly as for an in-process sweep. Runs are
    independent per seed, so this is where a multi-seed sweep gets more
    than one core.

    If no process pool can be created (restricted sandboxes, missing
    semaphores) the sweep degrades to in-process execution and reports
    ``pooled: False`` — same results, no speedup, never a failure.
    """
    seeds = list(seeds)
    if not seeds:
        return {"runs": [], "workers": 0, "pooled": False}
    workers = max(1, min(workers, len(seeds)))
    base, extra = divmod(len(seeds), workers)
    chunks: List[Tuple[int, ...]] = []
    start = 0
    for index in range(workers):
        size = base + (1 if index < extra else 0)
        if size:
            chunks.append(tuple(seeds[start:start + size]))
        start += size
    # Warm the on-disk strategy cache once, before any worker starts.
    if spec.cache:
        shared_prepare(system_for_spec(spec))
    pooled = False
    results: List[List[dict]] = []
    if len(chunks) > 1:
        try:
            with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
                futures = [pool.submit(_sweep_worker, spec, chunk)
                           for chunk in chunks]
                results = [future.result() for future in futures]
                pooled = True
        except (OSError, ValueError, ImportError):
            results = []
    if not results:
        results = [_sweep_worker(spec, chunk) for chunk in chunks]
    by_seed = {row["seed"]: row for rows in results for row in rows}
    return {
        "runs": [by_seed[seed] for seed in seeds],
        "workers": len(chunks),
        "pooled": pooled,
    }
