"""Simulated digital signatures.

The paper's evidence machinery needs signatures with the usual properties:
only the keyholder can produce a valid tag, anyone can verify, and evidence
is transferable. Inside a simulation, HMAC over a per-node secret gives
exactly this — the fault injectors only hand compromised nodes *their own*
keys, so a compromised node cannot forge statements by correct nodes, which
is the property all of §4.2–4.3 rests on.

CPU cost of signing/verifying is charged separately in *simulated* time via
:class:`~repro.crypto.costs.CryptoCosts`; the Python-level HMAC here is just
the soundness mechanism.
"""

from __future__ import annotations

import hashlib
import hmac
import json
from dataclasses import dataclass
from typing import Any, Dict


class SignatureError(Exception):
    """Raised when signing is attempted with an unknown identity."""


def canonical_bytes(payload: Any) -> bytes:
    """Deterministic serialization for signing.

    JSON with sorted keys; tuples become lists; unsupported objects are
    rejected rather than silently repr'd, so two nodes can never disagree on
    the byte string being signed.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=_reject).encode()


def _reject(obj: Any) -> Any:
    raise TypeError(f"unsignable object in payload: {type(obj).__name__}")


@dataclass(frozen=True)
class Signature:
    """A (signer, tag) pair attached to a message or evidence record."""

    signer: str
    tag: str

    #: Wire size of one signature, in bits (Ed25519-like: 64 bytes).
    WIRE_BITS = 512


#: Derived keys shared across directories in one process, keyed by
#: (master_seed, node_id). Key derivation is a pure function of the key
#: string, so multi-seed sweeps (:func:`repro.perf.batchcore.run_sweep`)
#: and repeated benchmark systems on the same seed share the SHA-256
#: work instead of re-deriving per directory.
_DERIVED_KEYS: Dict[tuple, bytes] = {}


class KeyDirectory:
    """Per-node signing keys, derived deterministically from a master seed.

    The directory object plays both roles of a deployed PKI: nodes sign with
    their private key (the HMAC secret) and verify using the public mapping.
    Access control is enforced by the fault injectors — only the behaviour
    running *as* node X calls ``sign(X, ...)``.
    """

    def __init__(self, master_seed: int = 0) -> None:
        # Lazy import: repro.perf.__init__ pulls in the offline planner
        # stack, which would be a circular import at crypto module load
        # time.
        from ..perf.fastpath import VerifyMemo

        self._master_seed = master_seed
        self._keys: Dict[str, bytes] = {}
        #: Per-signer HMAC prototypes (key schedule pre-applied): every
        #: sign/verify pays ``copy()+update()`` instead of the two
        #: key-block compressions (tags are bit-identical to a fresh
        #: ``hmac.new``; see :meth:`sign_bytes_batch`).
        self._hmac_protos: Dict[str, "hmac.HMAC"] = {}
        #: HMAC computations actually performed (memo hits excluded).
        self.signs = 0
        self.verifies = 0
        #: Positive-only memo of statement verifications (see
        #: :meth:`verify_statement`).
        self.verify_memo = VerifyMemo()

    def begin_run(self) -> None:
        """Reset per-run state (memo + counters) so runs stay independent."""
        self.signs = 0
        self.verifies = 0
        self.verify_memo.clear()

    def register(self, node_id: str) -> None:
        """Provision a key for ``node_id`` (idempotent)."""
        if node_id not in self._keys:
            cache_key = (self._master_seed, node_id)
            key = _DERIVED_KEYS.get(cache_key)
            if key is None:
                key = hashlib.sha256(
                    f"key:{self._master_seed}:{node_id}".encode()
                ).digest()
                _DERIVED_KEYS[cache_key] = key
            self._keys[node_id] = key

    def knows(self, node_id: str) -> bool:
        return node_id in self._keys

    def sign(self, signer: str, payload: Any) -> Signature:
        return self.sign_bytes(signer, canonical_bytes(payload))

    def sign_bytes(self, signer: str, canonical: bytes) -> Signature:
        """Sign an already-canonicalized payload."""
        key = self._keys.get(signer)
        if key is None:
            raise SignatureError(f"no key registered for {signer!r}")
        self.signs += 1
        mac = self._proto(signer, key).copy()
        mac.update(canonical)
        return Signature(signer=signer, tag=mac.hexdigest())

    def _proto(self, signer: str, key: bytes) -> "hmac.HMAC":
        proto = self._hmac_protos.get(signer)
        if proto is None:
            proto = hmac.new(key, digestmod=hashlib.sha256)
            self._hmac_protos[signer] = proto
        return proto

    def sign_bytes_batch(self, signer: str,
                         canonicals) -> "list[Signature]":
        """Sign a batch of canonical payloads in one authenticator pass.

        HMAC's per-message cost splits into the key schedule (hashing the
        ipad/opad key blocks) and the message pass; a cached prototype
        with the key schedule pre-applied makes a batch of N cost one
        schedule plus N ``copy()+update()`` message passes. The tags are
        bit-identical to :meth:`sign_bytes` — ``HMAC.copy()`` forks the
        inner state exactly — and ``signs`` still counts every item, so
        the crypto accounting stays honest about logical signatures.
        """
        key = self._keys.get(signer)
        if key is None:
            raise SignatureError(f"no key registered for {signer!r}")
        proto = self._proto(signer, key)
        signatures = []
        for canonical in canonicals:
            self.signs += 1
            mac = proto.copy()
            mac.update(canonical)
            signatures.append(Signature(signer=signer, tag=mac.hexdigest()))
        return signatures

    def verify(self, payload: Any, signature: Signature) -> bool:
        """True iff ``signature`` is a valid tag by its claimed signer."""
        return self.verify_bytes(canonical_bytes(payload), signature)

    def verify_bytes(self, canonical: bytes, signature: Signature) -> bool:
        """Verify against an already-canonicalized payload."""
        key = self._keys.get(signature.signer)
        if key is None:
            return False
        self.verifies += 1
        mac = self._proto(signature.signer, key).copy()
        mac.update(canonical)
        return hmac.compare_digest(mac.hexdigest(), signature.tag)

    def verify_statement(self, stmt) -> bool:
        """Verify an :class:`AuthenticatedStatement` through the memo.

        The memo key is ``(signer, tag, payload_digest)`` — everything
        the HMAC check depends on — and only *valid* results are stored,
        so a forged signature is recomputed (and rejected) on every call
        and can never be served as valid from the cache. The statement's
        cached canonical bytes are verified, never re-serialized.
        """
        memo = self.verify_memo
        sig = stmt.signature
        key = (sig.signer, sig.tag, stmt.payload_digest())
        if memo.hit(key):
            return True
        ok = self.verify_bytes(stmt.canonical(), sig)
        if ok:
            memo.add_valid(key)
        return ok

    def forge(self, claimed_signer: str, payload: Any) -> Signature:
        """An *invalid* signature claiming to be from ``claimed_signer``.

        Used only by fault injectors to model fabricated evidence; verify()
        rejects it.
        """
        bogus = hashlib.sha256(
            b"forged:" + canonical_bytes(payload)
        ).hexdigest()
        return Signature(signer=claimed_signer, tag=bogus)
