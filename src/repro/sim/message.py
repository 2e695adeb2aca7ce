"""Message and frame types exchanged between nodes.

Messages are the unit of transmission on links. Every message carries an
explicit size in bits — bandwidth accounting is exact, which is what lets the
planner reserve link capacity and the evidence distributor guarantee a
bounded distribution time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional


class MessageKind(Enum):
    """Coarse traffic classes, used for bandwidth reservation lanes."""

    DATA = "data"           # workload dataflow traffic
    EVIDENCE = "evidence"   # fault evidence distribution (control plane)
    STATE = "state"         # task state transfer during mode changes
    CONTROL = "control"     # mode-change coordination, heartbeats
    BOGUS = "bogus"         # adversarial junk (classified on inspection)


_message_ids = itertools.count(1)


@dataclass
class Message:
    """A unicast message between two nodes.

    Attributes
    ----------
    src, dst:
        Node identifiers (strings). ``dst`` is the *final* destination;
        multi-hop routing re-transmits the same message per hop.
    kind:
        Traffic class (determines which bandwidth lane is charged).
    payload:
        Arbitrary application content. Must be treated as opaque by the
        network layers.
    size_bits:
        Wire size, including headers and signatures.
    flow:
        Dataflow-graph flow name for DATA traffic, else None.
    signature:
        Optional (signer, tag) pair attached by :mod:`repro.crypto`.
    """

    src: str
    dst: str
    kind: MessageKind
    payload: Any
    size_bits: int
    flow: Optional[str] = None
    signature: Optional[tuple] = None
    #: Sender's local-clock timestamp at send time (for timing checks).
    sent_at_local: Optional[int] = None
    msg_id: int = field(default_factory=lambda: next(_message_ids))

    def sized(self, extra_bits: int) -> "Message":
        """Return a copy with ``extra_bits`` added to the wire size."""
        copy = Message(
            src=self.src, dst=self.dst, kind=self.kind, payload=self.payload,
            size_bits=self.size_bits + extra_bits, flow=self.flow,
            signature=self.signature, sent_at_local=self.sent_at_local,
        )
        return copy


class MessagePool:
    """Free-list recycling of :class:`Message` objects for the hot path.

    The batched emitters (:mod:`repro.perf.batchcore`) route single-hop
    fan-out traffic and data-plane sends through one of these per run:
    ``acquire`` reuses a released instance when one is available (fresh
    ``msg_id``, all fields overwritten) and falls back to normal
    construction when the pool is dry — growth, not failure, is the
    exhaustion behaviour, and the growth counters let tests pin it.

    Safety: only the delivery paths release, and only when the message
    reached its *final* destination (``dst == receiver``), so a pooled
    message still travelling a multi-hop route is never recycled under
    an in-flight reference. Double release is a no-op (``_pooled`` flag).
    """

    def __init__(self, prealloc: int = 0) -> None:
        self._free: list = []
        #: Messages handed out over the pool's lifetime.
        self.acquired = 0
        #: Acquisitions served from the free list (the rest allocated).
        self.reused = 0
        #: High-water mark of the free list.
        self.peak_free = 0
        for _ in range(prealloc):
            # Intentional: preallocation is the one loop that SHOULD
            # allocate — it is how the steady state avoids doing so.
            message = Message(  # lint: ignore[allocation-in-loop]
                src="", dst="", kind=MessageKind.CONTROL,
                payload=None, size_bits=0)
            message._pooled = False
            self._free.append(message)
        self.preallocated = prealloc
        self.peak_free = len(self._free)

    def acquire(self, src: str, dst: str, kind: MessageKind, payload,
                size_bits: int, flow=None) -> Message:
        """A message with the given fields, recycled when possible."""
        self.acquired += 1
        free = self._free
        if free:
            self.reused += 1
            message = free.pop()
            message.src = src
            message.dst = dst
            message.kind = kind
            message.payload = payload
            message.size_bits = size_bits
            message.flow = flow
            message.signature = None
            message.sent_at_local = None
            message.msg_id = next(_message_ids)
        else:
            message = Message(src=src, dst=dst, kind=kind, payload=payload,
                              size_bits=size_bits, flow=flow)
        message._pooled = True
        return message

    def release(self, message: Message) -> None:
        """Return a delivered (or dropped) message to the free list."""
        if not getattr(message, "_pooled", False):
            return
        message._pooled = False
        message.payload = None  # drop the payload ref; statements outlive
        self._free.append(message)
        if len(self._free) > self.peak_free:
            self.peak_free = len(self._free)

    def stats(self) -> dict:
        return {
            "acquired": self.acquired,
            "reused": self.reused,
            "allocated": self.acquired - self.reused,
            "preallocated": self.preallocated,
            "free": len(self._free),
            "peak_free": self.peak_free,
        }
