"""Geo-scale execution: geo topologies and scenarios, stretched
workloads, sweep hygiene and the process-pool sweep.

The file keeps the name it had while it also tested the region-sharded
executor, which is gone: geo deployments now run on the one runtime
engine (its behaviour is pinned by ``tests/test_golden_traces.py``). What
stays is pinned here from five sides —

* sweep identity: a sibling sharing a prepared system's frozen plan
  reproduces a freshly prepared system's full trace, per geo scenario
  and seed, and a delivery hook is consulted at every delivery point;
* geo topologies: regions partition the node set into connected local
  meshes joined by WAN links strictly slower than zero; flat layouts
  are refused;
* the pool sweep: worker processes (started with ``spawn``, so nothing
  is inherited from the parent's memory) reproduce the serial sweep's
  per-seed fingerprints on a run long enough to emit evidence;
* sweep hygiene: scenario link scripts must not leak residual loss
  into later runs over the shared topology;
* geo scenarios and stretched workloads: shape validation and the
  period/deadline stretch.
"""

import dataclasses
import functools
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import repro.perf.batchcore as batchcore
from repro import BTRConfig, BTRSystem
from repro.faults.scenarios import ScenarioError, geo_scenario, stage
from repro.net import full_mesh_topology, geo_topology
from repro.net.topology import TopologyError
from repro.perf.batchcore import (
    GeoSweepSpec,
    run_sweep,
    run_sweep_pool,
    system_for_spec,
)
from repro.perf.fastpath import trace_fingerprint
from repro.sim.trace import EvidenceGenerated, MessageSent
from repro.workload import industrial_workload, stretched_workload

#: Long enough for the gateway crash (at 2.2 s, 0.5 s periods) to be
#: detected and flooded as evidence.
N_PERIODS = 12

SPEC = GeoSweepSpec(regions=3, nodes_per_region=4, n_periods=N_PERIODS,
                    trace_mode="full", scenario="geo:3x4")


@pytest.fixture(scope="module")
def proto():
    """One prepared geo system; variants share its frozen plan."""
    system = system_for_spec(SPEC)
    system.prepare()
    return system


def variant(proto, seed=42):
    """A prepared system on another seed, sharing the prototype's
    planning artifacts."""
    config = dataclasses.replace(proto.config, seed=seed)
    system = BTRSystem(proto.workload, proto.topology, config)
    system.router = proto.router
    system.lane_model = proto.lane_model
    system.strategy = proto.strategy
    system.budget = proto.budget
    system.switch_lead_us = proto.switch_lead_us
    return system


def run_one(system, scenario=SPEC.scenario):
    scn = stage(scenario, system)
    return system.run(N_PERIODS, adversary=scn.script,
                      link_script=scn.link_script or None)


# ------------------------------------------------------- byte identity


class TestByteIdentity:
    """Shared frozen plans change nothing a run records."""

    def test_scenario_seed_matrix(self, proto):
        for scenario in ("gateway_crash", "wan_brownout"):
            for seed in (42, 202):
                shared = run_one(variant(proto, seed=seed), scenario)
                fresh_sys = system_for_spec(
                    dataclasses.replace(SPEC, seed=seed))
                fresh_sys.prepare()
                fresh = run_one(fresh_sys, scenario)
                assert (trace_fingerprint(shared.trace)
                        == trace_fingerprint(fresh.trace)), (scenario, seed)


# ------------------------------------------------------- geo topologies


@settings(max_examples=15, deadline=None)
@given(regions=st.integers(min_value=2, max_value=4),
       npr=st.integers(min_value=2, max_value=5),
       gateways=st.integers(min_value=1, max_value=2))
def test_property_geo_partitions_connected_with_positive_lookahead(
        regions, npr, gateways):
    topo = geo_topology(regions, npr, gateways=gateways)
    names = topo.region_names()
    assert len(names) == regions
    # Regions partition the node set into connected local meshes.
    seen = []
    for name in names:
        members = sorted(topo.regions[name])
        assert len(members) == npr
        local = topo.graph.subgraph(members)
        assert nx.is_connected(local)
        seen.extend(members)
    assert sorted(seen) == sorted(topo.node_ids())
    # Every WAN link crosses regions, and the fastest one is strictly
    # slower than zero (the conservative lookahead a partitioned
    # execution would rely on).
    wan = topo.wan_links()
    assert wan
    for link in wan:
        a, b = link.endpoints
        assert topo.nodes[a].region != topo.nodes[b].region
    assert topo.min_wan_latency_us() == min(
        link.propagation_us for link in wan) > 0


class TestPlanning:
    """Geo planning inputs."""

    def test_flat_topology_is_refused(self):
        # One region is a flat deployment, and WAN links as fast as
        # local ones would make regions indistinguishable from one mesh.
        with pytest.raises(TopologyError, match=">= 2 regions"):
            geo_topology(1, 4)
        with pytest.raises(TopologyError, match="must be >= 10x"):
            geo_topology(2, 4, wan_latency=100, propagation=50)

    def test_min_wan_latency_requires_wan_links(self):
        with pytest.raises(TopologyError, match="no WAN links"):
            full_mesh_topology(4, bandwidth=1e8).min_wan_latency_us()


# ------------------------------------------------------- delivery hooks


class TestDeliveryHooks:
    def test_delaying_hook_composes_byte_identically(self, proto):
        """Every delivery point — per-message transmits and each
        receiver of a batched fan-out — consults the hook exactly once,
        and a hook that delays by zero changes nothing."""
        calls = []

        def hook(sender, receiver, arrival):
            calls.append((sender, receiver))
            return arrival

        plain = run_one(variant(proto))
        system = variant(proto)
        scn = stage(SPEC.scenario, system)
        hooked = system.run(N_PERIODS, adversary=scn.script,
                            link_script=scn.link_script or None,
                            delivery_hook=hook)
        assert (trace_fingerprint(hooked.trace)
                == trace_fingerprint(plain.trace))
        assert len(calls) == hooked.trace.count(MessageSent)


# ------------------------------------------------------------ pool sweep


class TestPoolSweep:
    def test_pool_matches_serial_reference(self, proto, tmp_path,
                                           monkeypatch):
        seeds = (42, 202)
        serial = run_sweep(proto, seeds, N_PERIODS, scenario=SPEC.scenario)
        # The gateway crash is detected and flooded: fingerprints cover
        # evidence records, not only fault-free traffic.
        for run in serial:
            assert run.result.trace.count(EvidenceGenerated) > 0
        fingerprints = {run.seed: run.fingerprint for run in serial}
        # Spawned workers start from a fresh interpreter (their own
        # string-hash salt, nothing inherited from this process).
        monkeypatch.setattr(batchcore, "ProcessPoolExecutor",
                            functools.partial(
                                ProcessPoolExecutor,
                                mp_context=multiprocessing.get_context(
                                    "spawn")))
        spec = dataclasses.replace(SPEC, cache=str(tmp_path))
        out = run_sweep_pool(spec, seeds, workers=2)
        assert [row["seed"] for row in out["runs"]] == list(seeds)
        for row in out["runs"]:
            assert row["fingerprint"] == fingerprints[row["seed"]], \
                row["seed"]
        assert out["workers"] == 2

    def test_empty_seed_list_is_a_noop(self):
        out = run_sweep_pool(SPEC, (), workers=4)
        assert out == {"runs": [], "workers": 0, "pooled": False}

    def test_unknown_workload_is_refused(self):
        spec = dataclasses.replace(SPEC, workload="nope")
        with pytest.raises(ValueError, match="unknown workload"):
            system_for_spec(spec)


# ------------------------------------------------------- sweep hygiene


class TestSweepHygiene:
    def test_link_scripts_restore_residual_loss(self, proto):
        system = variant(proto)
        link = system.topology.wan_links()[0]
        before = link.loss_probability
        system.run(N_PERIODS,
                   link_script=[(100_000, link.link_id, 0.5)])
        assert link.loss_probability == before

    def test_sibling_runs_are_order_independent(self, proto):
        solo = run_one(variant(proto, seed=202))
        run_one(variant(proto, seed=101))
        again = run_one(variant(proto, seed=202))
        assert (trace_fingerprint(again.trace)
                == trace_fingerprint(solo.trace))


# --------------------------------------------------------- geo scenarios


class TestGeoScenarios:
    def test_shape_mismatch_is_refused(self, proto):
        with pytest.raises(ScenarioError, match="does not match"):
            geo_scenario(proto, 4, 4)
        with pytest.raises(ScenarioError, match="does not match"):
            geo_scenario(proto, 3, 20)

    def test_flat_topology_is_refused(self):
        system = BTRSystem(
            industrial_workload(), full_mesh_topology(5, bandwidth=1e8),
            BTRConfig(f=1, seed=1))
        with pytest.raises(ScenarioError, match="no regions"):
            geo_scenario(system, 3, 4)
        with pytest.raises(ScenarioError, match="no WAN links"):
            stage("wan_brownout", system)

    def test_any_geo_name_pattern_stages(self, proto):
        scn = stage("geo:3x4", proto)
        assert scn.name == "geo:3x4"
        assert scn.script.injections
        assert scn.link_script
        victim = scn.script.injections[0].node
        browned = proto.topology.links[scn.link_script[0][1]]
        assert victim not in browned.endpoints
        with pytest.raises(ScenarioError):
            stage("geo:9x9", proto)


# ------------------------------------------------------ stretched loads


class TestStretchedWorkload:
    def test_stretch_scales_periods_and_deadlines_only(self):
        base = industrial_workload()
        slow = stretched_workload(base, 10)
        assert slow.period == base.period * 10
        assert slow.name == f"{base.name}x10"
        base_flows = {f.name: f for f in base.flows}
        for flow in slow.flows:
            ref = base_flows[flow.name]
            if ref.deadline is None:
                assert flow.deadline is None
            else:
                assert flow.deadline == ref.deadline * 10
        assert {t.name: t.wcet for t in slow.tasks.values()} \
            == {t.name: t.wcet for t in base.tasks.values()}

    def test_stretch_of_one_is_identity(self):
        base = industrial_workload()
        assert stretched_workload(base, 1) is base

    def test_stretch_below_one_is_refused(self):
        from repro.workload import WorkloadError
        with pytest.raises(WorkloadError):
            stretched_workload(industrial_workload(), 0)
