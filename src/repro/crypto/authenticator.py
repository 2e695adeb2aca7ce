"""Hash digests and authenticated message records.

Evidence records carry *signed statements* — e.g. "node X sent value v for
flow f in period k at local time t". An :class:`AuthenticatedStatement`
bundles the statement payload with its signature and knows its wire size, so
the evidence distributor can account for bandwidth precisely.

Statements are immutable, so the canonical byte string and its digest are
computed at most once per statement lifetime and cached on the instance;
``sign``, ``verify``, dedup keys, and ``wire_bits`` all reuse the same
bytes instead of re-running ``json.dumps`` per call site.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any

from .signatures import KeyDirectory, Signature, canonical_bytes


def digest(payload: Any) -> str:
    """A short deterministic content digest (used for dedup and receipts)."""
    return hashlib.sha256(canonical_bytes(payload)).hexdigest()[:16]


def _digest_of(canonical: bytes) -> str:
    return hashlib.sha256(canonical).hexdigest()[:16]


@dataclass(frozen=True)
class AuthenticatedStatement:
    """A statement plus the signature of the node that made it.

    The payload dict is treated as frozen after construction (nothing in
    the runtime mutates a signed statement — doing so would invalidate
    the signature anyway), which is what makes the canonical-bytes and
    digest caches sound.
    """

    statement: dict
    signature: Signature

    @classmethod
    def make(cls, directory: KeyDirectory, signer: str,
             statement: dict) -> "AuthenticatedStatement":
        canonical = canonical_bytes(statement)
        stmt = cls(statement=statement,
                   signature=directory.sign_bytes(signer, canonical))
        object.__setattr__(stmt, "_canonical", canonical)
        return stmt

    @classmethod
    def make_batch(cls, directory: KeyDirectory, signer: str,
                   statements) -> "list[AuthenticatedStatement]":
        """Sign several statements by one signer in one authenticator
        pass (:meth:`KeyDirectory.sign_bytes_batch`): the runtime uses
        this for a source host's per-period sensor frames. The
        resulting statements are indistinguishable from per-call
        :meth:`make` — same tags, same cached canonical bytes."""
        canonicals = [canonical_bytes(s) for s in statements]
        signatures = directory.sign_bytes_batch(signer, canonicals)
        out = []
        for statement, canonical, signature in zip(statements, canonicals,
                                                   signatures):
            stmt = cls(statement=statement, signature=signature)
            object.__setattr__(stmt, "_canonical", canonical)
            out.append(stmt)
        return out

    def canonical(self) -> bytes:
        """The canonical serialization, computed at most once."""
        cached = self.__dict__.get("_canonical")
        if cached is None:
            cached = canonical_bytes(self.statement)
            object.__setattr__(self, "_canonical", cached)
        return cached

    def payload_digest(self) -> str:
        """``digest(self.statement)``, computed at most once."""
        cached = self.__dict__.get("_digest")
        if cached is None:
            cached = _digest_of(self.canonical())
            object.__setattr__(self, "_digest", cached)
        return cached

    def valid(self, directory: KeyDirectory) -> bool:
        return directory.verify_statement(self)

    @property
    def signer(self) -> str:
        return self.signature.signer

    def wire_bits(self) -> int:
        """Approximate wire size: canonical payload + signature."""
        return len(self.canonical()) * 8 + Signature.WIRE_BITS
