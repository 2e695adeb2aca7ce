"""Tests for the bounded model checker (``repro.mc`` / ``repro check``).

The campaign tests all run the smallest config the placement rules
admit — ``pipeline`` on ``fullmesh:4`` with f=1 (f+1 replicas plus a
checker need three distinct non-victim hosts) — with tight bounds so
the whole file stays in CI-smoke territory.
"""

import json

import pytest

from repro.core.runtime.config import BTRConfig
from repro.core.runtime.system import BTRSystem
from repro.mc import (
    Cell,
    CheckParams,
    DeliveryPerturbation,
    cell_script,
    replay_counterexample,
    run_campaign,
    state_fingerprint,
)
from repro.mc.choices import validate_schedule
from repro.mc.counterexample import counterexample_from_dict
from repro.net import full_mesh_topology
from repro.sim.engine import SimulationError, Simulator
from repro.workload import pipeline_workload


def small_system(**config_kw):
    config = BTRConfig(f=1, trace_mode="milestones", **config_kw)
    system = BTRSystem(pipeline_workload(), full_mesh_topology(4), config)
    system.prepare()
    return system


def tiny_params(**kw):
    defaults = dict(kinds=("crash",), ticks=1, max_depth=1, branch=2,
                    max_paths=40)
    defaults.update(kw)
    return CheckParams(**defaults)


def run_tiny(params=None, **campaign_kw):
    return run_campaign(pipeline_workload(), full_mesh_topology(4),
                        BTRConfig(f=1), params or tiny_params(),
                        **campaign_kw)


# ------------------------------------------------------------ choice space


def test_cell_validation():
    assert Cell().fault_free
    assert Cell("n1", "crash", 40_000).label() == "n1/crash@40000"
    with pytest.raises(ValueError):
        Cell(victim="n1")  # partial triple
    with pytest.raises(ValueError):
        Cell("n1", "crash", -5)


def test_cell_round_trips_through_dict():
    for cell in (Cell(), Cell("n2", "commission", 44_000)):
        assert Cell.from_dict(cell.to_dict()) == cell


def test_cell_script_is_worker_independent():
    cell = Cell("n1", "commission", 40_000)
    a = cell_script(cell, seed=3)
    b = cell_script(cell, seed=3)
    assert [(i.time, i.node, i.behavior.kind) for i in a] \
        == [(i.time, i.node, i.behavior.kind) for i in b]
    assert cell_script(Cell(), seed=3).faulty_nodes == []


def test_validate_schedule_rejects_malformed():
    validate_schedule(((0, 1000), (3, 2000)))
    with pytest.raises(ValueError):
        validate_schedule(((3, 1000), (3, 2000)))  # not increasing
    with pytest.raises(ValueError):
        validate_schedule(((0, -5),))  # hooks may never accelerate


# ------------------------------------------------------------- engine hook


def test_delivery_hook_delays_chosen_deliveries():
    hook = DeliveryPerturbation(((1, 500),), record=True)
    assert hook("a", "b", 100) == 100   # index 0: untouched
    assert hook("a", "c", 200) == 700   # index 1: +500
    assert hook("b", "c", 300) == 300
    assert hook.observed == [(0, "a", "b", 100), (1, "a", "c", 200),
                             (2, "b", "c", 300)]


def test_engine_rejects_scheduling_into_the_past():
    sim = Simulator(seed=1)
    sim.schedule(10, lambda: sim.schedule(5, lambda: None))
    with pytest.raises(SimulationError):
        sim.run_until(20)
    with pytest.raises(SimulationError):
        sim.call_at(2, lambda: None)


def test_system_run_applies_delivery_hook():
    system = small_system()
    base = system.run(n_periods=6)
    hook = DeliveryPerturbation((), record=True)
    observed_run = system.run(n_periods=6, delivery_hook=hook)
    assert hook.count > 0  # the hook saw the run's deliveries
    assert state_fingerprint(observed_run) == state_fingerprint(base)


# -------------------------------------------------------------- fingerprint


def test_state_fingerprint_collapses_harmless_perturbation():
    """A small delay that changes no slot verdict, no switch, and no
    final state lands on the parent fingerprint — the dedup soundness
    argument in miniature."""
    system = small_system()
    base = system.run(n_periods=6)
    nudged = system.run(n_periods=6,
                        delivery_hook=DeliveryPerturbation(((0, 50),)))
    assert state_fingerprint(nudged) == state_fingerprint(base)


def test_state_fingerprint_separates_faulty_from_nominal():
    system = small_system()
    base = system.run(n_periods=8)
    faulty = system.run(n_periods=8,
                        adversary=cell_script(
                            Cell("n1", "crash", 40_000), seed=0))
    assert state_fingerprint(faulty) != state_fingerprint(base)


# ----------------------------------------------------------------- campaign


def test_campaign_certifies_sufficient_R():
    report, stats = run_tiny()
    assert report["certified"]
    assert report["totals"]["violating_paths"] == 0
    assert report["totals"]["truncated_cells"] == 0
    assert report["totals"]["paths"] > 0
    assert stats.paths == report["totals"]["paths"]


def test_campaign_dedup_is_nontrivial():
    params = tiny_params(kinds=("crash", "commission"), ticks=2,
                         max_depth=2, max_paths=60)
    report, _ = run_tiny(params)
    totals = report["totals"]
    assert totals["dedup_hits"] > 0
    assert totals["distinct_states"] < totals["paths"]


def test_campaign_byte_identical_across_worker_counts():
    params = tiny_params(kinds=("crash", "commission"), ticks=2,
                         max_depth=2, max_paths=60)
    serial, _ = run_tiny(params)
    try:
        parallel, pstats = run_tiny(
            CheckParams(**{**params.__dict__, "workers": 4}))
    except (OSError, ValueError, ImportError):
        pytest.skip("process pools unavailable in this environment")
    if pstats.pool_fallback:
        pytest.skip("worker pool could not be created")
    assert json.dumps(serial, sort_keys=True) \
        == json.dumps(parallel, sort_keys=True)


def test_campaign_underprovisioned_R_yields_confirmed_counterexample():
    params = tiny_params(kinds=("commission",), R_us=30_000)
    report, _ = run_tiny(params)
    assert not report["certified"]
    artifacts = [c["counterexample"] for c in report["cells"]
                 if c.get("counterexample")]
    assert artifacts, "under-provisioned R must produce a counterexample"
    for artifact in artifacts:
        assert artifact["replay_confirmed"]
        assert artifact["violations"]
        # Minimised: the fault alone breaks a 30ms bound here, so the
        # shortest-prefix schedule is empty.
        assert artifact["deliveries"] == []
        cell, deliveries = counterexample_from_dict(artifact)
        assert not cell.fault_free
        assert deliveries == ()


def test_counterexample_replays_through_normal_run_path():
    params = tiny_params(kinds=("commission",), R_us=30_000)
    report, _ = run_tiny(params)
    artifact = next(c["counterexample"] for c in report["cells"]
                    if c.get("counterexample"))
    # Round-trip through JSON: the artifact is a portable file format.
    artifact = json.loads(json.dumps(artifact))
    system = small_system()
    violations, result = replay_counterexample(system, artifact)
    assert violations
    assert violations[0].invariant == "recovery-bound"
    assert result.fault_times()  # the fault really was injected


def test_counterexample_from_dict_rejects_malformed():
    with pytest.raises(ValueError):
        counterexample_from_dict([])
    with pytest.raises(ValueError):
        counterexample_from_dict({"version": 1})
    good = {"version": 99, "cell": {}, "fault_script": {},
            "deliveries": [], "n_periods": 1, "R_us": 1, "k": 1,
            "seed": 0, "violations": []}
    with pytest.raises(ValueError):
        counterexample_from_dict(good)  # wrong version


def test_pruning_changes_no_verdicts():
    """Sleep-set pruning is a search optimisation: the violation set
    must be identical with and without it."""
    base = dict(kinds=("commission",), ticks=1, max_depth=2, branch=2,
                max_paths=80, R_us=30_000)

    def verdicts(report):
        return [(c["cell"], v["violations"])
                for c in report["cells"] for v in c["violating"]]

    pruned, _ = run_tiny(CheckParams(**base, prune=True))
    unpruned, _ = run_tiny(CheckParams(**base, prune=False))
    assert verdicts(pruned) == verdicts(unpruned)
    assert pruned["totals"]["paths"] <= unpruned["totals"]["paths"]


def test_truncated_campaign_is_not_certified():
    params = tiny_params(kinds=("crash", "commission"), ticks=2,
                         max_depth=3, branch=3, max_paths=2)
    report, _ = run_tiny(params)
    assert report["totals"]["truncated_cells"] > 0
    assert not report["certified"]
