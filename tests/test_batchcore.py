"""The batched emitters: same behaviour, fewer heap events.

The runtime's batched emitters (``repro.perf.batchcore``) coalesce
fan-out deliveries into one heap event per (sender, arrival) group.
These tests pin what that must not change, from four sides —

* dispatch: the heartbeat shortcut (no Message objects for standard
  receivers) and the generic handler-chain dispatch produce the same
  full trace and ``events_executed`` gauge, across scenarios and seeds,
  while the batch machinery demonstrably engages (fewer heap pops than
  logical deliveries);
* trace modes: the reduced modes keep the census and the milestone
  subsequence exactly as the full trace records them;
* message pools: exhaustion grows the pool (never fails), growth is
  visible in the counters, recycling actually happens, and a warm pool
  carries across runs of one system — all without perturbing the trace;
* sweeps and shared preparation: :func:`run_sweep` over shared frozen
  plans is byte-identical to freshly constructed+prepared systems per
  seed, and :func:`shared_prepare` hands the *same* strategy object to
  identically-configured systems without re-planning.

The absolute behaviour is pinned by the golden trace table
(``tests/test_golden_traces.py``).
"""

import pytest

from repro import BTRConfig, BTRSystem
from repro.faults.scenarios import stage
from repro.net import full_mesh_topology
from repro.perf.batchcore import (BatchRuntime, run_sweep, shared_prepare,
                                  _PREPARE_MEMO, _prepare_key)
from repro.perf.fastpath import trace_fingerprint
from repro.sim.trace import MILESTONE_KINDS
from repro.workload import industrial_workload

N_PERIODS = 12


def build_system(seed: int, mode: str = "full", f: int = 1,
                 n_nodes: int = 7) -> BTRSystem:
    system = BTRSystem(
        industrial_workload(),
        full_mesh_topology(n_nodes, bandwidth=1e8),
        BTRConfig(f=f, seed=seed, trace_mode=mode),
    )
    system.prepare()
    return system


def run_scenario(seed: int, mode: str = "full",
                 scenario: str = "single_commission", f: int = 1):
    system = build_system(seed, mode, f=f)
    scn = stage(scenario, system)
    result = system.run(N_PERIODS, adversary=scn.script,
                        link_script=scn.link_script)
    return system, result


def milestone_reprs(trace) -> list:
    return [repr(e) for e in trace if type(e) in MILESTONE_KINDS]


class TestByteIdentity:
    """The heartbeat shortcut and the generic dispatch agree."""

    @pytest.mark.parametrize("scenario,f", [
        ("single_commission", 1),
        ("checker_host_crash", 1),
        ("flood_plus_fault", 2),
    ])
    @pytest.mark.parametrize("seed", [42, 43])
    def test_full_trace_fingerprints_agree(self, monkeypatch, scenario, f,
                                           seed):
        short_sys, short = run_scenario(seed, scenario=scenario, f=f)
        assert all(short_sys.batch_runtime.hb_shortcut.values())

        # An observer handler on every node takes each receiver off the
        # heartbeat shortcut: batches then dispatch real messages
        # through the handler chain.
        observed = []
        begin_run = BatchRuntime.begin_run

        def observing_begin_run(runtime, agents):
            for agent in agents.values():
                agent.node.add_handler(
                    lambda message, at: observed.append(at))
            begin_run(runtime, agents)

        monkeypatch.setattr(BatchRuntime, "begin_run", observing_begin_run)
        gen_sys, gen = run_scenario(seed, scenario=scenario, f=f)
        assert not any(gen_sys.batch_runtime.hb_shortcut.values())
        assert observed

        assert (trace_fingerprint(gen.trace)
                == trace_fingerprint(short.trace))
        # The engine gauge counts *logical* deliveries, so it matches
        # whichever dispatch delivered them.
        assert gen_sys.sim.events_executed == short_sys.sim.events_executed
        assert gen.final_modes == short.final_modes
        # The batch machinery actually engaged: many logical entries rode
        # on fewer physical heap events.
        stats = short_sys.batch_runtime.stats()
        assert stats["entries_batched"] > 0
        assert stats["batches_fired"] < stats["entries_batched"]
        assert stats["entries_batched"] < short_sys.sim.events_executed

    @pytest.mark.parametrize("mode", ["milestones", "counts-only"])
    def test_reduced_modes_keep_census_and_milestones(self, mode):
        _, full = run_scenario(42, mode="full")
        red_sys, reduced = run_scenario(42, mode=mode)
        # Tallies fill the gap left by unretained per-hop records.
        assert reduced.trace.kind_counts() == full.trace.kind_counts()
        if mode == "milestones":
            assert (milestone_reprs(reduced.trace)
                    == milestone_reprs(full.trace))
        else:
            assert len(reduced.trace) == 0
        assert red_sys.batch_runtime.stats()["entries_batched"] > 0


class TestMessagePool:
    """Exhaustion grows the pool; recycling keeps the steady state
    allocation-free; none of it is observable in the trace."""

    def test_exhaustion_grows_pool_without_perturbing_trace(self):
        _, ref = run_scenario(42, scenario="flood_plus_fault")
        system = build_system(42)
        # Pre-install a runtime with a pool far too small for the
        # evidence flood: exhaustion must grow it, not fail.
        system.batch_runtime = BatchRuntime(system, pool_prealloc=2)
        scn = stage("flood_plus_fault", system)
        result = system.run(N_PERIODS, adversary=scn.script,
                            link_script=scn.link_script)
        assert trace_fingerprint(result.trace) == trace_fingerprint(ref.trace)
        stats = system.batch_runtime.pool.stats()
        # The flood acquired far more messages than were preallocated...
        assert stats["acquired"] > stats["preallocated"] == 2
        # ...growth allocated beyond the prealloc
        assert stats["allocated"] > 0
        # ...and released messages were actually recycled.
        assert stats["reused"] > 0
        assert stats["peak_free"] >= 2

    def test_warm_pool_carries_across_runs(self):
        system = build_system(42)
        scn = stage("flood_plus_fault", system)

        def one_run():
            return system.run(N_PERIODS, adversary=scn.script,
                              link_script=scn.link_script)

        first = one_run()
        pool = system.batch_runtime.pool
        after_first = pool.stats()
        second = one_run()
        after_second = pool.stats()
        # Re-running the same system is deterministic...
        assert (trace_fingerprint(second.trace)
                == trace_fingerprint(first.trace))
        # ...and the second run is served mostly from the free list the
        # first run populated: reuse grows, allocation barely does.
        reused_delta = after_second["reused"] - after_first["reused"]
        allocated_delta = (after_second["allocated"]
                           - after_first["allocated"])
        assert reused_delta > 0
        assert allocated_delta < reused_delta


class TestSweep:
    """run_sweep shares the frozen plans across seeds and stays
    byte-identical to independently prepared systems."""

    def test_sweep_matches_fresh_reference_per_seed(self):
        seeds = (42, 43, 44)
        system = build_system(42)
        runs = run_sweep(system, seeds, N_PERIODS,
                         scenario="single_commission")
        assert [r.seed for r in runs] == list(seeds)
        for run in runs:
            _, ref = run_scenario(run.seed)
            assert run.fingerprint == trace_fingerprint(ref.trace)
            assert run.fingerprint == trace_fingerprint(run.result.trace)
            assert run.wall_s >= 0.0

    def test_sweep_siblings_share_frozen_artifacts(self):
        system = build_system(42)
        from repro.perf.batchcore import sibling_system

        sibling = sibling_system(system, 43)
        assert sibling.strategy is system.strategy
        assert sibling.budget is system.budget
        assert sibling.router is system.router
        assert sibling.config.seed == 43
        # Per-seed state is the sibling's own.
        assert sibling.directory is not system.directory


class TestSharedPrepare:
    def test_identical_inputs_share_the_strategy_object(self):
        first = BTRSystem(
            industrial_workload(), full_mesh_topology(7, bandwidth=1e8),
            BTRConfig(f=1, seed=42))
        _PREPARE_MEMO.pop(_prepare_key(first), None)
        budget_first = shared_prepare(first)
        second = BTRSystem(
            industrial_workload(), full_mesh_topology(7, bandwidth=1e8),
            BTRConfig(f=1, seed=99))
        budget_second = shared_prepare(second)
        # The memo hands over the exact objects — plan-riding memos on
        # the strategy stay warm — and the run seed is not in the key.
        assert second.strategy is first.strategy
        assert budget_second is budget_first

    def test_different_f_misses_the_memo(self):
        base = BTRSystem(
            industrial_workload(), full_mesh_topology(7, bandwidth=1e8),
            BTRConfig(f=1, seed=42))
        other = BTRSystem(
            industrial_workload(), full_mesh_topology(7, bandwidth=1e8),
            BTRConfig(f=2, seed=42))
        assert _prepare_key(base) != _prepare_key(other)
        shared_prepare(base)
        shared_prepare(other)
        assert other.strategy is not base.strategy
