"""The runtime's crypto memo and trace modes: same run, less work.

``repro.perf.fastpath`` (the verify memo and trace fingerprints) and the
trace recording modes promise the same run for less work. These tests
pin that promise from four sides —

* determinism property: every trace mode produces the same milestone
  events, the same recovery timelines and the same event census as the
  full trace, across seeds;
* verify-memo semantics: forged or invalid signatures are never cached,
  eviction is deterministic;
* canonicalization caching: one serialization per statement lifetime;
* trace modes: reduced modes keep the census and refuse reconstruction
  they cannot support.
"""

import pytest

from repro import BTRConfig, BTRSystem
from repro.core.evidence.records import Evidence
from repro.crypto.authenticator import AuthenticatedStatement
from repro.crypto.signatures import KeyDirectory, Signature, canonical_bytes
from repro.faults.scenarios import stage
from repro.net import full_mesh_topology
from repro.obs import REQUIRED_KINDS
from repro.obs.recovery import reconstruct_timelines
from repro.perf.fastpath import VerifyMemo
from repro.sim.trace import MILESTONE_KINDS, TRACE_MODES, Trace, MessageSent
from repro.workload import industrial_workload

N_PERIODS = 12


def run_scenario(seed: int, mode: str,
                 scenario: str = "single_commission"):
    system = BTRSystem(
        industrial_workload(),
        full_mesh_topology(7, bandwidth=1e8),
        BTRConfig(f=1, seed=seed, trace_mode=mode),
    )
    system.prepare()
    scn = stage(scenario, system)
    result = system.run(N_PERIODS, adversary=scn.script,
                        link_script=scn.link_script)
    return system, result


def milestone_reprs(trace) -> list:
    return [repr(e) for e in trace if type(e) in MILESTONE_KINDS]


class TestDeterminismProperty:
    """Same seed => same observable run, whatever the trace mode."""

    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_fastpath_and_trace_modes_agree(self, seed):
        full_sys, full = run_scenario(seed, mode="full")
        mi_sys, miles = run_scenario(seed, mode="milestones")

        # The milestone trace is exactly the milestone-kind subsequence
        # of the full trace — same events, same fields, same order.
        assert milestone_reprs(miles.trace) == milestone_reprs(full.trace)

        # Recovery timelines (detect/convict/.../residual spans) agree.
        full_tl = [t.to_dict() for t in reconstruct_timelines(full)]
        mi_tl = [t.to_dict() for t in reconstruct_timelines(miles)]
        assert mi_tl == full_tl
        assert sum(t.phase_sum() for t in reconstruct_timelines(miles)) \
            == sum(t.phase_sum() for t in reconstruct_timelines(full))

        # The event census is mode-independent (tallies fill the gap)...
        assert miles.trace.kind_counts() == full.trace.kind_counts()
        # ...and the simulation itself executed the same event sequence.
        assert full_sys.sim.events_executed == mi_sys.sim.events_executed
        # The memo absorbed repeat verifications in both runs alike.
        assert full_sys.directory.verify_memo.hits > 0
        assert (full_sys.directory.verify_memo.stats()
                == mi_sys.directory.verify_memo.stats())

    def test_counts_only_keeps_census_but_refuses_timelines(self):
        _, full = run_scenario(42, mode="full")
        _, counts = run_scenario(42, mode="counts-only")
        assert counts.trace.kind_counts() == full.trace.kind_counts()
        assert len(counts.trace) == 0
        with pytest.raises(ValueError, match="trace_mode"):
            reconstruct_timelines(counts)


class TestVerifyMemo:
    def directory(self) -> KeyDirectory:
        directory = KeyDirectory(master_seed=7)
        directory.register("n1")
        directory.register("n2")
        return directory

    def test_repeat_verification_hits_memo_once_per_statement(self):
        directory = self.directory()
        stmt = AuthenticatedStatement.make(directory, "n1", {"flow": "a", "period": 3})
        assert all(stmt.valid(directory) for _ in range(5))
        memo = directory.verify_memo
        assert memo.misses == 1
        assert memo.hits == 4
        # Only the miss performed HMAC work.
        assert directory.verifies == 1

    def test_forged_signature_is_never_cached(self):
        directory = self.directory()
        payload = {"flow": "a", "period": 3}
        forged = AuthenticatedStatement(
            statement=payload, signature=directory.forge("n1", payload))
        for _ in range(4):
            assert not forged.valid(directory)
        # Every attempt recomputed the HMAC; nothing was stored.
        assert directory.verifies == 4
        assert directory.verify_memo.hits == 0
        assert len(directory.verify_memo._valid) == 0

    def test_wrong_signer_tag_is_recomputed(self):
        directory = self.directory()
        stmt = AuthenticatedStatement.make(directory, "n1", {"flow": "b", "period": 1})
        assert stmt.valid(directory)  # miss: stores the honest statement
        assert stmt.valid(directory)  # hit
        # Same tag, different claimed signer: invalid, and stays invalid
        # on every retry even though the honest statement is cached.
        crossed = AuthenticatedStatement(
            statement=stmt.statement,
            signature=Signature(signer="n2", tag=stmt.signature.tag))
        assert not crossed.valid(directory)
        assert not crossed.valid(directory)
        assert directory.verify_memo.hits == 1  # only the honest repeat

    def test_eviction_is_deterministic_and_bounded(self):
        memo = VerifyMemo(max_entries=4)
        keys = [("n", f"tag{i}", f"d{i}") for i in range(5)]
        for key in keys:
            assert not memo.hit(key)
            memo.add_valid(key)
        # Inserting the 5th evicted the oldest half (insertion order).
        assert memo.evictions == 2
        assert len(memo._valid) <= memo.max_entries
        assert not memo.hit(keys[0])
        assert not memo.hit(keys[1])
        assert memo.hit(keys[4])

    def test_begin_run_clears_memo_and_counters(self):
        directory = self.directory()
        stmt = AuthenticatedStatement.make(directory, "n1", {"x": 1})
        assert stmt.valid(directory) and stmt.valid(directory)
        directory.begin_run()
        assert directory.signs == 0
        assert directory.verifies == 0
        assert directory.verify_memo.hits == 0
        assert len(directory.verify_memo._valid) == 0


class TestCanonicalizationCaching:
    def test_one_serialization_per_statement_lifetime(self, monkeypatch):
        import repro.crypto.authenticator as auth_mod

        calls = []

        def counting(payload):
            calls.append(payload)
            return canonical_bytes(payload)

        monkeypatch.setattr(auth_mod, "canonical_bytes", counting)
        directory = KeyDirectory(master_seed=7)
        directory.register("n1")
        stmt = AuthenticatedStatement.make(directory, "n1", {"flow": "f", "period": 9})
        assert len(calls) == 1  # serialized once, at make()
        # Everything downstream reuses the cached bytes/digest.
        stmt.wire_bits()
        stmt.wire_bits()
        stmt.payload_digest()
        stmt.payload_digest()
        assert stmt.valid(directory) and stmt.valid(directory)
        assert len(calls) == 1

    def test_evidence_id_reuses_statement_digest(self, monkeypatch):
        import repro.crypto.authenticator as auth_mod

        directory = KeyDirectory(master_seed=7)
        for node in ("n1", "n2"):
            directory.register(node)
        s1 = AuthenticatedStatement.make(directory, "n1", {"flow": "f", "value": 1})
        s2 = AuthenticatedStatement.make(directory, "n1", {"flow": "f", "value": 2})

        calls = []

        def counting(payload):
            calls.append(payload)
            return canonical_bytes(payload)

        monkeypatch.setattr(auth_mod, "canonical_bytes", counting)
        evidence = Evidence.make(directory, kind="equivocation",
                                 accused="n1", detector="n2",
                                 detected_at=100, statements=[s1, s2])
        _ = evidence.evidence_id
        _ = evidence.evidence_id
        # The envelope is a fresh statement (one serialization); the
        # support digests and evidence_id all come from cached digests.
        assert len(calls) == 1


class TestTraceModes:
    def test_mode_validation(self):
        with pytest.raises(ValueError, match="trace mode"):
            Trace(mode="everything")
        with pytest.raises(ValueError, match="trace_mode"):
            BTRConfig(trace_mode="everything")
        assert TRACE_MODES == ("full", "milestones", "counts-only")

    def test_required_kinds_are_retained_in_milestones_mode(self):
        assert set(REQUIRED_KINDS) <= MILESTONE_KINDS
        trace = Trace(mode="milestones")
        for kind in REQUIRED_KINDS:
            assert trace.retains(kind)

    def test_tally_merges_into_census(self):
        trace = Trace(mode="milestones")
        trace.record(MessageSent(time=1, src="a", dst="b", kind="data",
                                 size_bits=8))
        trace.tally(MessageSent, 4)
        assert len(trace) == 0
        assert trace.count(MessageSent) == 5
        assert trace.kind_counts() == {"MessageSent": 5}
