"""Timing-fault detection (§4.2): doing the right thing at the wrong time.

Every data message carries its sender's signed, period-relative send offset.
Senders sign **once per logical flow and period** — all copies of a flow
carry the same statement, which is what makes equivocation provable (two
different signed values for one (flow, period) slot).

The plan fixes when each statement should be handed to the MAC: the
producing instance's slot finish (or period start, for sensor readings at a
source host). The receiver judges incoming messages against::

    [planned_handoff - slack, planned_handoff + slack]

Two cases:

* the *claimed* send offset is outside the window → the statement is
  self-incriminating, transferable timing evidence;
* the claimed offset is fine but the message actually arrived too late →
  the sender may be lying about its clock; that cannot be proven to third
  parties, so it degrades to a path declaration (the omission route).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..planner import naming
from ..planner.plan import Plan

OK = "ok"
SELF_INCRIMINATING = "self_incriminating"
SUSPICIOUS_ARRIVAL = "suspicious_arrival"


def planned_send_offset(plan: Plan, flow_name: str) -> Optional[int]:
    """Planned period-relative handoff time of a logical flow.

    ``flow_name`` may be a logical (base) flow name or a concrete copy; all
    copies share the producer and therefore the handoff time. Returns None
    when the flow is unknown to this plan (e.g. shed).
    """
    producer: Optional[str] = None
    for flow in plan.augmented.flows:
        if flow.name == flow_name or naming.base_flow(flow.name) == flow_name:
            producer = flow.src
            break
    if producer is None:
        return None
    if producer not in plan.augmented.tasks:
        return 0  # a source endpoint: readings are handed off at period start
    slot = plan.schedule.slot_for(producer)
    return slot.finish if slot is not None else None


def planned_send_offset_cached(plan: Plan, flow_name: str) -> Optional[int]:
    """Memoised :func:`planned_send_offset`.

    The offset is a pure function of the plan (immutable once built), so
    the memo — stored on the plan object itself, keyed by flow name —
    can never go stale. The uncached scan is O(flows) and is issued per
    delivery judgement, which makes it one of the online hot spots.
    """
    memo = plan.__dict__.get("_send_offset_memo")
    if memo is None:
        memo = {}
        plan.__dict__["_send_offset_memo"] = memo
    try:
        return memo[flow_name]
    except KeyError:
        offset = planned_send_offset(plan, flow_name)
        memo[flow_name] = offset
        return offset


@dataclass(frozen=True)
class TimingPolicy:
    """Window slack parameters."""

    #: Allowed deviation of the *claimed* send offset from the plan.
    slack_us: int = 500
    #: Allowed deviation of the *actual* arrival from the plan.
    arrival_slack_us: int = 1_000

    def send_window(self, plan: Plan,
                    flow_name: str) -> Optional[Tuple[int, int]]:
        """Accepted period-relative handoff offsets for a logical flow
        (memoised per plan; see :func:`planned_send_offset_cached`)."""
        planned = planned_send_offset_cached(plan, flow_name)
        if planned is None:
            return None
        return planned - self.slack_us, planned + self.slack_us

    def arrival_deadline(self, plan: Plan, flow_copy: str) -> Optional[int]:
        """Latest acceptable period-relative arrival of a concrete copy."""
        arrival = plan.planned_arrival(flow_copy)
        if arrival is None:
            return None
        return arrival + self.arrival_slack_us

    def judge(self, plan: Plan, flow_name: str, flow_copy: str,
              claimed_send_offset: int, actual_arrival_offset: int) -> str:
        """Classify one delivery. ``flow_name`` is the logical flow in the
        signed statement; ``flow_copy`` is the concrete copy delivered."""
        window = self.send_window(plan, flow_name)
        if window is not None:
            earliest, latest = window
            if not earliest <= claimed_send_offset <= latest:
                return SELF_INCRIMINATING
        deadline = self.arrival_deadline(plan, flow_copy)
        if deadline is not None and actual_arrival_offset > deadline:
            return SUSPICIOUS_ARRIVAL
        return OK
