"""Online-runtime crypto memo + trace fingerprints.

The runtime's crypto work follows what real BFT implementations do —
PBFT batches authenticators and Zyzzyva's speculative path exists
precisely to avoid redundant per-receiver crypto work. Three mechanisms,
none of which changes a trace byte (the golden trace table pins this):

* statement canonicalization caching — each
  :class:`~repro.crypto.authenticator.AuthenticatedStatement` serializes
  its payload exactly once per lifetime; ``sign``, ``verify``,
  ``payload_digest`` and ``wire_bits`` all reuse the bytes
  (implemented on the statement itself; see ``crypto/authenticator.py``);
* :class:`VerifyMemo` — a positive-only memo of signature verification
  results keyed by ``(signer, tag, payload_digest)``, consulted by
  :meth:`~repro.crypto.signatures.KeyDirectory.verify_statement` so a
  statement broadcast to N correct receivers pays the HMAC once.
  Forged or otherwise invalid results are **never cached**: a miss
  always recomputes, so a forgery can never be laundered into validity
  by a cache hit;
* trace recording modes (``full`` / ``milestones`` / ``counts-only``,
  implemented in :mod:`repro.sim.trace`) — benchmark sweeps that only
  need recovery milestones skip per-hop event allocation entirely.

This module is deliberately import-light (stdlib only): the crypto layer
imports it lazily, so nothing here may reach back into ``repro.*``.

Determinism: the memo stores only results that are pure functions of its
key; eviction (when the memo exceeds ``max_entries``) drops the oldest
half in insertion order — no wall clock, no randomness (the determinism
lint restricts this file like the sim/core layers).
"""

from __future__ import annotations

import hashlib
from itertools import islice
from typing import Dict, Iterable, Tuple

#: Memo key: (claimed signer, signature tag, payload digest). The digest
#: is the statement's cached content digest, so building the key costs
#: nothing beyond the tuple itself.
MemoKey = Tuple[str, str, str]

#: Default memo capacity. A run's working set is one entry per distinct
#: (statement, signer) pair in flight; 64k entries comfortably covers the
#: benchmark sweeps while bounding memory under evidence-flooding attacks.
DEFAULT_MEMO_ENTRIES = 1 << 16


class VerifyMemo:
    """Positive-only memo of HMAC verification results.

    Only *successful* verifications are stored — a forged signature is
    re-verified (and re-rejected) every time it is seen, so no bug in
    eviction or key construction can ever turn an invalid record valid.
    Negative results are deliberately not cached either: under an
    evidence-flooding attack each bogus record is unique, so negative
    entries would only grow the memo without ever hitting (the runtime's
    per-sender quota already bounds how many forgeries a node verifies).

    Eviction is deterministic: when full, the oldest half of the entries
    (dict insertion order) is dropped. Two identical runs therefore make
    identical memo decisions at every step.
    """

    __slots__ = ("max_entries", "hits", "misses", "evictions", "_valid")

    def __init__(self, max_entries: int = DEFAULT_MEMO_ENTRIES) -> None:
        if max_entries < 2:
            raise ValueError("verify memo needs max_entries >= 2")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._valid: Dict[MemoKey, bool] = {}

    def hit(self, key: MemoKey) -> bool:
        """True iff ``key`` is a known-valid signature. Counts the lookup."""
        if key in self._valid:
            self.hits += 1
            return True
        self.misses += 1
        return False

    def add_valid(self, key: MemoKey) -> None:
        """Record a *successful* verification (the only kind stored)."""
        if len(self._valid) >= self.max_entries:
            drop = len(self._valid) // 2
            for stale in list(islice(self._valid, drop)):
                del self._valid[stale]
            self.evictions += drop
        self._valid[key] = True

    def clear(self) -> None:
        """Forget everything (called at the start of each run so runs
        stay independent — a memo warmed by run A must not change what
        run B pays for, even though the verdicts would be identical)."""
        self._valid.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._valid)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        """Fraction of lookups served from the memo (0.0 when unused)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> Dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._valid),
            "hit_rate": round(self.hit_rate(), 4),
        }


def trace_fingerprint(events: Iterable) -> str:
    """A content hash of a trace (or any iterable of trace events).

    The golden trace table (``tests/golden/traces.json``) and the
    determinism tests compare runs by this fingerprint: dataclass
    ``repr`` covers every field, and the events iterate in record order,
    so two traces fingerprint equal iff they are event-for-event,
    field-for-field identical.

    Trace fields are strings, integers, tuples, ``None`` and
    insertion-ordered dicts — nothing whose rendering depends on the
    per-process string-hash salt (evidence ids are ``zlib.crc32``
    digests, and the ``builtin-hash`` lint rule keeps ``hash()`` out of
    the package). So the fingerprint is the same across processes and
    ``PYTHONHASHSEED`` values: the ``geo:3x4`` rehearsal fingerprints
    ``8a240a2c…`` under hash seeds 0 and 1, and the tier-1 suite and CI
    rerun the golden table under both. Equality across Python versions
    is left to the CI matrix (3.10 and 3.12) to decide.
    """
    h = hashlib.sha256()
    for event in events:
        h.update(repr(event).encode())
        h.update(b"\n")
    return h.hexdigest()


def online_stats(system) -> Dict[str, object]:
    """One run's online-runtime counters, pulled off a finished system.

    Returns sign/verify HMAC counts from the system's
    :class:`~repro.crypto.signatures.KeyDirectory` plus the verify-memo
    stats. The E19 benchmark records these per case into
    ``sim_stats.jsonl``.
    """
    directory = system.directory
    return {
        "signs": directory.signs,
        "verifies": directory.verifies,
        "memo": directory.verify_memo.stats(),
    }
