"""Links with finite bandwidth, static allocation, and FEC-masked losses.

The paper's system model assumes links whose bandwidth is *statically
allocated* between the attached nodes — the hardware-MAC / bus-guardian
defence against babbling idiots. We model that directly: each link divides
its raw bandwidth into **lanes**. A lane is identified by ``(sender,
traffic_class)`` and owns a fixed fraction of the link. A sender can never
consume another sender's share, no matter how it misbehaves, which is exactly
the guarantee the bus guardian provides.

Transmissions on a lane are serialized (a lane is a single queue); the
transmission delay of a message is ``size_bits / lane_rate`` plus the link's
propagation delay. Losses: the paper assumes FEC masks transmission errors,
so the default residual loss probability is zero; a nonzero value exercises
the loss-tolerance paths in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from .engine import Simulator
from .message import Message, MessageKind


class ReservationError(Exception):
    """Raised when lane shares on a link would exceed its capacity."""


@dataclass
class Lane:
    """A statically allocated slice of a link for one (sender, class)."""

    sender: str
    kind: MessageKind
    share: float            # fraction of the link's raw bandwidth
    rate_bits_per_us: float
    next_free: int = 0      # earliest time the lane can start a new frame
    bits_sent: int = 0

    def reserve(self, now: int, size_bits: int) -> int:
        """Serialize one frame on this lane; returns the serialization
        end time (arrival is this plus the link's propagation delay).

        Exactly the math of :meth:`Link.transmit`; the batched emitters
        (:mod:`repro.perf.batchcore`) call it per receiver so the
        vectorised fan-out cannot drift from the per-message reference.
        """
        start = now if now >= self.next_free else self.next_free
        duration = int(round(size_bits / self.rate_bits_per_us))
        if duration < 1:
            duration = 1
        self.next_free = start + duration
        self.bits_sent += size_bits
        return start + duration


class Link:
    """A point-to-point or shared link with guarded bandwidth lanes."""

    def __init__(
        self,
        link_id: str,
        endpoints: tuple[str, ...],
        bandwidth_bps: float,
        propagation_us: int = 10,
        loss_probability: float = 0.0,
        region: Optional[str] = None,
        is_wan: bool = False,
    ) -> None:
        if len(endpoints) < 2:
            raise ValueError("a link needs at least two endpoints")
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.link_id = link_id
        self.endpoints = tuple(endpoints)
        self.bandwidth_bps = bandwidth_bps
        self.propagation_us = propagation_us
        self.loss_probability = loss_probability
        #: Region tag for intra-region links (geo topologies); None for
        #: flat deployments and for inter-region (WAN) links.
        self.region = region
        #: True for inter-region links; their latency dominates the
        #: intra-region delays (``geo_topology`` enforces that).
        self.is_wan = is_wan
        self._lanes: Dict[Tuple[str, MessageKind], Lane] = {}
        self._allocated = 0.0

    # ---------------------------------------------------------------- lanes

    def allocate_lane(self, sender: str, kind: MessageKind, share: float) -> Lane:
        """Reserve ``share`` of this link for (sender, kind).

        Raises :class:`ReservationError` if total allocation would exceed 1.
        Re-allocating an existing lane adjusts its share.
        """
        if sender not in self.endpoints:
            raise ReservationError(f"{sender} is not attached to {self.link_id}")
        if share <= 0:
            raise ReservationError(f"share must be positive, got {share}")
        key = (sender, kind)
        existing = self._lanes.get(key)
        new_total = self._allocated - (existing.share if existing else 0.0) + share
        if new_total > 1.0 + 1e-9:
            raise ReservationError(
                f"link {self.link_id} over-allocated: {new_total:.3f} > 1.0"
            )
        rate = self.bandwidth_bps * share / 1e6  # bits per µs
        lane = Lane(sender=sender, kind=kind, share=share, rate_bits_per_us=rate)
        if existing:
            lane.next_free = existing.next_free
            lane.bits_sent = existing.bits_sent
        self._lanes[key] = lane
        self._allocated = new_total
        return lane

    def lane(self, sender: str, kind: MessageKind) -> Optional[Lane]:
        return self._lanes.get((sender, kind))

    def release_lane(self, sender: str, kind: MessageKind) -> None:
        lane = self._lanes.pop((sender, kind), None)
        if lane:
            self._allocated -= lane.share

    @property
    def allocated_fraction(self) -> float:
        return self._allocated

    def reset(self) -> None:
        """Clear per-run lane state (queues, counters); keep allocations."""
        for lane in self._lanes.values():
            lane.next_free = 0
            lane.bits_sent = 0

    # ----------------------------------------------------------- transmit

    def lane_for(self, sender: str, kind: MessageKind):
        """The reserved lane for ``(sender, kind)``.

        Same error contract as :meth:`transmit`; exposed so the runtime
        can resolve the lane once per edge and inline the serialization
        math instead of re-looking it up per message.
        """
        lane = self._lanes.get((sender, kind))
        if lane is None:
            raise ReservationError(
                f"no lane for ({sender}, {kind.value}) on {self.link_id}"
            )
        return lane

    def transmission_time(self, sender: str, kind: MessageKind, size_bits: int) -> int:
        """Pure transmission (serialization) delay on the sender's lane, µs."""
        lane = self._lanes.get((sender, kind))
        if lane is None:
            raise ReservationError(
                f"no lane for ({sender}, {kind.value}) on {self.link_id}"
            )
        return max(1, int(round(size_bits / lane.rate_bits_per_us)))

    def transmit(
        self,
        sim: Simulator,
        message: Message,
        sender: str,
        receiver: str,
        deliver: Callable[[Message, int], None],
        on_drop: Optional[Callable[[Message], None]] = None,
    ) -> int:
        """Send ``message`` from ``sender`` to ``receiver`` over this link.

        Serializes on the sender's lane, applies propagation delay, and
        invokes ``deliver(message, arrival_time)`` via the simulator. Returns
        the scheduled arrival time. The residual (post-FEC) loss probability
        is applied per transmission; dropped frames invoke ``on_drop``.
        """
        if receiver not in self.endpoints:
            raise ReservationError(
                f"{receiver} is not attached to {self.link_id}"
            )
        lane = self._lanes.get((sender, message.kind))
        if lane is None:
            raise ReservationError(
                f"no lane for ({sender}, {message.kind.value}) on {self.link_id}"
            )
        start = max(sim.now, lane.next_free)
        duration = max(1, int(round(message.size_bits / lane.rate_bits_per_us)))
        lane.next_free = start + duration
        lane.bits_sent += message.size_bits
        arrival = start + duration + self.propagation_us
        if sim.delivery_hook is not None:
            arrival = sim.delivery_hook(sender, receiver, arrival)

        lost = (
            self.loss_probability > 0.0
            and sim.rng.random() < self.loss_probability
        )
        if lost:
            if on_drop is not None:
                sim.call_at(arrival, lambda: on_drop(message))
            return arrival
        sim.call_at(arrival, lambda: deliver(message, arrival))
        return arrival

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Link({self.link_id}, endpoints={self.endpoints}, "
            f"bw={self.bandwidth_bps:.0f}bps, alloc={self._allocated:.2f})"
        )
