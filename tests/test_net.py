"""Tests for topologies, routing, and bandwidth reservation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import (
    ReservationManager,
    Router,
    RoutingError,
    Topology,
    TopologyError,
    bus_topology,
    dual_star_topology,
    full_mesh_topology,
    geo_topology,
    line_topology,
    mesh_topology,
    ring_topology,
    star_topology,
)
from repro.sim import Link, MessageKind, Node, ReservationError, ms


# ----------------------------------------------------------------- topology


@pytest.mark.parametrize("factory,args,n_nodes", [
    (line_topology, (4,), 4),
    (ring_topology, (5,), 5),
    (star_topology, (4,), 5),          # 4 leaves + hub
    (bus_topology, (6,), 6),
    (mesh_topology, (2, 3), 6),
    (full_mesh_topology, (4,), 4),
    (dual_star_topology, (4,), 6),     # 4 leaves + 2 hubs
])
def test_builders_produce_connected_graphs(factory, args, n_nodes):
    topo = factory(*args)
    assert len(topo.nodes) == n_nodes
    assert topo.is_connected()


def test_builders_reject_degenerate_sizes():
    with pytest.raises(TopologyError):
        line_topology(1)
    with pytest.raises(TopologyError):
        ring_topology(2)
    with pytest.raises(TopologyError):
        bus_topology(1)


def test_duplicate_node_rejected():
    topo = Topology()
    topo.add_node(Node("a"))
    with pytest.raises(TopologyError):
        topo.add_node(Node("a"))


def test_link_with_unknown_endpoint_rejected():
    topo = Topology()
    topo.add_node(Node("a"))
    with pytest.raises(TopologyError):
        topo.add_link(Link("l", ("a", "ghost"), 1e6))


def test_bus_is_a_clique_in_routing_graph():
    topo = bus_topology(4)
    router = Router(topo)
    assert router.hop_count("n0", "n3") == 1


def test_ring_survives_single_node_loss():
    topo = ring_topology(6)
    assert topo.is_connected(excluding={"n2"})


def test_line_partitions_on_interior_loss():
    topo = line_topology(5)
    assert not topo.is_connected(excluding={"n2"})


def test_dual_star_survives_hub_loss():
    topo = dual_star_topology(5)
    assert topo.is_connected(excluding={"sw0"})


def test_endpoint_placement():
    topo = line_topology(3)
    topo.place_endpoint("sensor", "n0")
    assert topo.node_of_endpoint("sensor") == "n0"
    with pytest.raises(TopologyError):
        topo.node_of_endpoint("ghost")
    with pytest.raises(TopologyError):
        topo.place_endpoint("x", "ghost")


def test_round_robin_placement_marks_roles():
    topo = line_topology(4)
    topo.place_endpoints_round_robin(["s1", "s2"], ["k1"])
    assert topo.node_of_endpoint("s1") in topo.nodes
    src_node = topo.nodes[topo.node_of_endpoint("s1")]
    assert src_node.is_source
    sink_node = topo.nodes[topo.node_of_endpoint("k1")]
    assert sink_node.is_sink


# ------------------------------------------------------------------ routing


def test_shortest_path_on_line():
    topo = line_topology(5)
    router = Router(topo)
    assert router.route("n0", "n4") == ["n0", "n1", "n2", "n3", "n4"]
    assert router.hop_count("n0", "n4") == 4


def test_route_to_self():
    topo = line_topology(3)
    router = Router(topo)
    assert router.route("n1", "n1") == ["n1"]
    assert router.hops("n1", "n1") == []


def test_route_avoids_excluded_nodes():
    topo = ring_topology(6)
    router = Router(topo)
    direct = router.route("n0", "n2")
    assert direct == ["n0", "n1", "n2"]
    detour = router.route("n0", "n2", excluding={"n1"})
    assert "n1" not in detour
    assert detour[0] == "n0" and detour[-1] == "n2"


def test_route_raises_when_partitioned():
    topo = line_topology(5)
    router = Router(topo)
    with pytest.raises(RoutingError):
        router.route("n0", "n4", excluding={"n2"})


def test_route_unknown_endpoint_raises():
    topo = line_topology(3)
    router = Router(topo)
    with pytest.raises(RoutingError):
        router.route("n0", "ghost")


def test_links_on_route():
    topo = line_topology(4)
    router = Router(topo)
    assert router.links_on_route("n0", "n3") == ["l0", "l1", "l2"]


def test_route_cache_and_invalidate():
    topo = line_topology(4)
    router = Router(topo)
    first = router.route("n0", "n3")
    assert router.route("n0", "n3") is first  # cached object
    router.invalidate()
    assert router.route("n0", "n3") == first  # recomputed, equal


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=3, max_value=12))
def test_property_full_mesh_routes_are_single_hop(n):
    topo = full_mesh_topology(n)
    router = Router(topo)
    assert router.hop_count("n0", f"n{n - 1}") == 1


def _random_topology(n, edges):
    """``n`` nodes plus the drawn links (possibly disconnected)."""
    topo = Topology(name=f"random{n}")
    for i in range(n):
        topo.add_node(Node(f"n{i}"))
    for k, (a, b) in enumerate(sorted(edges)):
        topo.add_link(Link(f"l{k}", (f"n{a}", f"n{b}"), 1e6))
    return topo


@st.composite
def _topologies(draw):
    kind = draw(st.sampled_from(["ring", "line", "mesh", "geo", "random"]))
    if kind == "ring":
        return ring_topology(draw(st.integers(3, 9)))
    if kind == "line":
        return line_topology(draw(st.integers(2, 9)))
    if kind == "mesh":
        return mesh_topology(draw(st.integers(1, 3)), draw(st.integers(2, 4)))
    if kind == "geo":
        return geo_topology(draw(st.integers(2, 3)), draw(st.integers(2, 4)))
    n = draw(st.integers(2, 9))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] < p[1])
    return _random_topology(n, draw(st.sets(pairs, max_size=2 * n)))


def _or_routing_error(call, *args):
    try:
        return call(*args)
    except RoutingError:
        return RoutingError


@settings(max_examples=150, deadline=None)
@given(topo=_topologies(), data=st.data())
def test_property_hop_count_matches_route_length(topo, data):
    """Distance-map hop counts equal the networkx route length, or both
    raise, for any excluded set: one holding ``src`` or ``dst``, or one
    that partitions the graph."""
    nodes = topo.node_ids()
    hop_router, route_router = Router(topo), Router(topo)
    for _ in range(6):
        src = data.draw(st.sampled_from(nodes))
        dst = data.draw(st.sampled_from(nodes))
        excluding = data.draw(st.sets(st.sampled_from(nodes)))
        if data.draw(st.booleans()):
            excluding |= {data.draw(st.sampled_from([src, dst]))}
        hops = _or_routing_error(hop_router.hop_count, src, dst, excluding)
        path = _or_routing_error(route_router.route, src, dst, excluding)
        assert hops == (RoutingError if path is RoutingError
                        else len(path) - 1)


def test_hop_count_edge_cases_follow_route():
    topo = line_topology(5)
    router = Router(topo)
    # An excluded endpoint is still allowed, as in route().
    assert router.hop_count("n0", "n2", {"n0", "n2"}) == 2
    assert router.hop_count("n1", "n1", {"n1"}) == 0
    # A partition and an unknown endpoint raise like route().
    for src, dst, excluding in (("n0", "n4", {"n2"}),
                                ("n0", "ghost", None),
                                ("ghost", "n0", None)):
        with pytest.raises(RoutingError):
            router.hop_count(src, dst, excluding)


def test_hop_count_sees_new_link_after_invalidate():
    topo = line_topology(5)
    router = Router(topo)
    assert router.hop_count("n0", "n4") == 4
    with pytest.raises(RoutingError):
        router.hop_count("n0", "n4", {"n2"})
    topo.add_link(Link("shortcut", ("n0", "n4"), 1e6))
    router.invalidate()
    assert router.hop_count("n0", "n4") == 1
    assert router.hop_count("n0", "n4", {"n2"}) == 1
    assert router.hop_count("n1", "n4", {"n2"}) == 2


# -------------------------------------------------------------- reservation


def test_reservation_allocates_lanes_along_path():
    topo = line_topology(3, bandwidth=1e6)
    router = Router(topo)
    mgr = ReservationManager(topo, router, headroom=1.0)
    res = mgr.reserve_path("n0", "n2", MessageKind.DATA,
                           bits_per_period=10_000, period=ms(100))
    assert res.path == ["n0", "n1", "n2"]
    # 10k bits / 0.1 s = 100 kbps on a 1 Mbps link = 0.1 share.
    assert topo.links["l0"].lane("n0", MessageKind.DATA).share == pytest.approx(0.1)
    assert topo.links["l1"].lane("n1", MessageKind.DATA).share == pytest.approx(0.1)


def test_reservations_accumulate_per_sender():
    topo = line_topology(2, bandwidth=1e6)
    mgr = ReservationManager(topo, Router(topo), headroom=1.0)
    mgr.reserve_path("n0", "n1", MessageKind.DATA, 10_000, ms(100))
    mgr.reserve_path("n0", "n1", MessageKind.DATA, 10_000, ms(100))
    assert topo.links["l0"].lane("n0", MessageKind.DATA).share == pytest.approx(0.2)


def test_admission_control_rejects_overload():
    topo = line_topology(2, bandwidth=1e6)
    mgr = ReservationManager(topo, Router(topo), headroom=1.0)
    mgr.reserve_path("n0", "n1", MessageKind.DATA, 90_000, ms(100))
    with pytest.raises(ReservationError):
        mgr.reserve_path("n0", "n1", MessageKind.DATA, 20_000, ms(100))


def test_failed_reservation_commits_nothing():
    # Second hop is saturated; first hop must not be charged either.
    topo = line_topology(3, bandwidth=1e6)
    mgr = ReservationManager(topo, Router(topo), headroom=1.0)
    # Saturate l1 via a reservation from n1.
    mgr.reserve_path("n1", "n2", MessageKind.DATA, 95_000, ms(100))
    before = mgr.total_share("l0")
    with pytest.raises(ReservationError):
        mgr.reserve_path("n0", "n2", MessageKind.DATA, 20_000, ms(100))
    assert mgr.total_share("l0") == before


def test_headroom_scales_share():
    topo = line_topology(2, bandwidth=1e6)
    mgr = ReservationManager(topo, Router(topo), headroom=2.0)
    mgr.reserve_path("n0", "n1", MessageKind.DATA, 10_000, ms(100))
    assert topo.links["l0"].lane("n0", MessageKind.DATA).share == pytest.approx(0.2)


def test_invalid_headroom_rejected():
    topo = line_topology(2)
    with pytest.raises(ValueError):
        ReservationManager(topo, Router(topo), headroom=0.5)


def test_control_plane_reservation_covers_all_links():
    topo = ring_topology(4)
    mgr = ReservationManager(topo, Router(topo))
    mgr.reserve_control_plane(0.2)
    for link in topo.links.values():
        for sender in link.endpoints:
            assert link.lane(sender, MessageKind.EVIDENCE) is not None
            assert link.lane(sender, MessageKind.CONTROL) is not None


def test_release_all_frees_data_lanes_keeps_control():
    topo = line_topology(2, bandwidth=1e6)
    mgr = ReservationManager(topo, Router(topo), headroom=1.0)
    mgr.reserve_control_plane(0.1)
    mgr.reserve_path("n0", "n1", MessageKind.DATA, 10_000, ms(100))
    mgr.release_all()
    assert topo.links["l0"].lane("n0", MessageKind.DATA) is None
    assert topo.links["l0"].lane("n0", MessageKind.EVIDENCE) is not None
    # Capacity is actually free again.
    mgr.reserve_path("n0", "n1", MessageKind.DATA, 80_000, ms(100))


def test_reservation_respects_excluded_nodes():
    topo = ring_topology(5, bandwidth=1e7)
    mgr = ReservationManager(topo, Router(topo), headroom=1.0)
    res = mgr.reserve_path("n0", "n2", MessageKind.DATA, 1_000, ms(100),
                           excluding={"n1"})
    assert "n1" not in res.path
