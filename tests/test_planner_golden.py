"""Golden strategy hashes: planner output is pinned byte for byte.

Each case plans a fixed deployment with ``BTRSystem.prepare()`` and
hashes the serialized strategy (``strategy_to_json``). The hashes were
taken from the planner before its routing, dataflow and placement
lookups were optimised; any change that alters a plan, a route
tie-break or the serialization shows up here. A deliberate planner
change bumps ``PLANNER_VERSION`` and regenerates this table.

``GOLDEN_MEMO`` pins the symmetry-memoised strategies
(``BTRConfig(symmetry_memo=True)``) the same way. Their hashes were
taken from the process fan-out builder that first hosted the memo, so
the memo's level loop reproduces that builder byte for byte.
"""

import hashlib

import pytest

import repro
import repro.net as net
import repro.workload as wl
from repro.core.planner.serialize import strategy_to_json
from repro.core.planner.strategy import PLANNER_VERSION

#: Link bandwidth of every case, bit/s (the CLI default).
BANDWIDTH = 1e8
#: Period stretch of the geo deployment recipe.
GEO_STRETCH = 10

#: name -> (workload, topology, f, plans, budget µs, strategy SHA-256).
GOLDEN = {
    "industrial-fullmesh:5-f1": (
        wl.industrial_workload,
        lambda: net.full_mesh_topology(5, bandwidth=BANDWIDTH), 1,
        4, 594786,
        "c1fe841ffe7623eb5cfa719acda80593ee1f93009bc08bbe050857f44cc65175"),
    "avionics-mesh:3x3-f1": (
        wl.avionics_workload,
        lambda: net.mesh_topology(3, 3, bandwidth=BANDWIDTH), 1,
        8, 368161,
        "a131d18c86ebc2e59beea20d54b27c85bd8373ee76baec78ebd9b95e149e11de"),
    "industrial-fullmesh:8-f2": (
        wl.industrial_workload,
        lambda: net.full_mesh_topology(8, bandwidth=BANDWIDTH), 2,
        22, 766290,
        "3086a432c5a1d5fa5d8c9cc494a9d06a10d75f05421b715225190d2d3d01e579"),
    "stretched-industrial-geo:2x4-f1": (
        lambda: wl.stretched_workload(wl.industrial_workload(),
                                      GEO_STRETCH),
        lambda: net.geo_topology(2, 4, bandwidth=BANDWIDTH), 1,
        7, 5638489,
        "c7fefe6f4860699e586b3a1d2d3affc8a789f2e0cb2a2a58ac783358907bdd30"),
    "stretched-industrial-geo:3x20-f1": (
        lambda: wl.stretched_workload(wl.industrial_workload(),
                                      GEO_STRETCH),
        lambda: net.geo_topology(3, 20, bandwidth=BANDWIDTH), 1,
        59, 5638386,
        "2f8a5ef2ef5387ff1b5a2c59dd04d8aaf63a465b5abd570d09c73c2136d0d29b"),
}

#: Same layout as ``GOLDEN``, prepared with ``symmetry_memo=True``.
GOLDEN_MEMO = {
    "industrial-fullmesh:6-f1-memo": (
        wl.industrial_workload,
        lambda: net.full_mesh_topology(6, bandwidth=BANDWIDTH), 1,
        5, 599599,
        "6f662f348560fa583a0ba72888a7b526e2b56fcc48269fa85bb3c1ac57342cdf"),
    "industrial-fullmesh:6-f2-memo": (
        wl.industrial_workload,
        lambda: net.full_mesh_topology(6, bandwidth=BANDWIDTH), 2,
        11, 774686,
        "a9da4b94b39dd1f9a3e11a5f0f100545ef5c8b22c6d1f1a4ee576fcc3cf09de1"),
    "industrial-fullmesh:10-f2-memo": (
        wl.industrial_workload,
        lambda: net.full_mesh_topology(10, bandwidth=BANDWIDTH), 2,
        37, 773662,
        "efa68a86932dc9621873e9ee69cbf3ef924bbe241f5f26eea6559c8d1b3e9284"),
}


def test_planner_version_matches_the_golden_table():
    assert PLANNER_VERSION == 2


def prepared_row(row, memo=False):
    """(plans, budget µs, strategy SHA-256) of one table row."""
    workload, topology, f = row[:3]
    system = repro.BTRSystem(workload(), topology(),
                             repro.BTRConfig(f=f, symmetry_memo=memo))
    budget = system.prepare()
    digest = hashlib.sha256(
        strategy_to_json(system.strategy).encode()).hexdigest()
    return len(system.strategy), budget.total_us, digest


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_strategy_is_byte_identical_to_golden(name):
    assert prepared_row(GOLDEN[name]) == GOLDEN[name][3:]


@pytest.mark.parametrize("name", sorted(GOLDEN_MEMO))
def test_memo_strategy_is_byte_identical_to_golden(name):
    assert prepared_row(GOLDEN_MEMO[name], memo=True) == GOLDEN_MEMO[name][3:]
