"""Static routing over a topology.

CPS networks are statically configured, so routes are computed once (shortest
path by hop count, deterministic tie-breaking) and cached. When nodes fail,
the mode's plan routes around them: :meth:`Router.route` accepts an
``excluding`` set and finds paths that avoid those nodes.

:meth:`Router.hop_count` only needs the *length* of a shortest path, which
does not depend on how ties between equal-length paths are broken. So it
reads a plain BFS distance map per ``(src, excluding)`` instead of asking
networkx for a path per destination; :meth:`Router.route` stays the one
source of actual paths.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

import networkx as nx

from .topology import Topology


class RoutingError(Exception):
    """Raised when no route exists (partition, excluded nodes)."""


class Router:
    """Shortest-path routing with failure-aware recomputation."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._cache: Dict[Tuple[str, str, FrozenSet[str]], List[str]] = {}
        #: (src, excluding) -> hop distance of every node reachable from
        #: ``src`` through non-excluded intermediate hops.
        self._distances: Dict[Tuple[str, FrozenSet[str]],
                              Dict[str, int]] = {}

    def route(
        self, src: str, dst: str, excluding: Optional[set] = None
    ) -> List[str]:
        """Node path from ``src`` to ``dst`` (inclusive), avoiding
        ``excluding``. Intermediate hops never include excluded nodes;
        ``src``/``dst`` themselves are allowed regardless (a plan never asks
        a faulty node for anything, but routing shouldn't hide that bug)."""
        key = (src, dst, frozenset(excluding or ()))
        if key in self._cache:
            return self._cache[key]
        graph = self.topology.graph
        if excluding:
            keep = [n for n in graph.nodes
                    if n not in excluding or n in (src, dst)]
            graph = graph.subgraph(keep)
        if src not in graph or dst not in graph:
            raise RoutingError(f"unknown endpoint: {src} or {dst}")
        try:
            # Deterministic: nx BFS order is stable given node insert order.
            path = nx.shortest_path(graph, src, dst)
        except nx.NetworkXNoPath:
            raise RoutingError(
                f"no route {src} -> {dst} excluding {sorted(excluding or ())}"
            ) from None
        self._cache[key] = path
        return path

    def hop_count(self, src: str, dst: str,
                  excluding: Optional[set] = None) -> int:
        """``len(route(src, dst, excluding)) - 1``, from a cached BFS
        distance map. An excluded or unreachable ``dst`` goes through
        :meth:`route`, which allows an excluded endpoint and raises
        :class:`RoutingError` for the rest."""
        barred = frozenset(excluding or ())
        key = (src, barred)
        distances = self._distances.get(key)
        if distances is None:
            distances = self._distances[key] = self._bfs(src, barred)
        hops = distances.get(dst)
        if hops is None:
            return len(self.route(src, dst, excluding)) - 1
        return hops

    def _bfs(self, src: str, barred: FrozenSet[str]) -> Dict[str, int]:
        """Hop distances from ``src``; excluded nodes are never entered
        (``src`` itself is always allowed, as in :meth:`route`)."""
        adjacency = self.topology.graph.adj
        if src not in adjacency:
            return {}
        distances = {src: 0}
        frontier = [src]
        hops = 0
        while frontier:
            hops += 1
            reached = []
            for node in frontier:
                for neighbor in adjacency[node]:
                    if neighbor in distances or neighbor in barred:
                        continue
                    distances[neighbor] = hops
                    reached.append(neighbor)
            frontier = reached
        return distances

    def hops(self, src: str, dst: str,
             excluding: Optional[set] = None) -> List[Tuple[str, str]]:
        """(sender, receiver) pairs along the route."""
        path = self.route(src, dst, excluding)
        return list(zip(path[:-1], path[1:]))

    def links_on_route(self, src: str, dst: str,
                       excluding: Optional[set] = None) -> List[str]:
        """Link ids traversed along the route."""
        return [
            self.topology.link_between(a, b).link_id
            for a, b in self.hops(src, dst, excluding)
        ]

    def wan_crossings(self, src: str, dst: str,
                      excluding: Optional[set] = None) -> int:
        """How many WAN (inter-region) links the route traverses.

        Zero on flat topologies and for intra-region routes. The geo
        scenarios and the sharded executor's stats use this to tell
        region-local traffic (which sharding runs without coordination)
        from cross-region traffic (which rides the lookahead horizon).
        """
        return sum(
            1 for a, b in self.hops(src, dst, excluding)
            if self.topology.link_between(a, b).is_wan
        )

    def invalidate(self) -> None:
        """Drop the route and distance caches (topology mutated)."""
        self._cache.clear()
        self._distances.clear()
