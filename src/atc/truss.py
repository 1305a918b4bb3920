"""Edge supports, truss decomposition, and (k,d)-truss maintenance.

A k-truss is a subgraph where every edge closes at least k-2 triangles.
One edge-peeling loop serves both jobs: decomposition runs it once per
level k = 3, 4, ... (Wang & Cheng, PVLDB 2012), maintenance runs it
between query-distance rounds.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

from .graph import (
    Graph,
    Subgraph,
    UNREACHABLE,
    bfs_distances,
    induced_subgraph,
    query_distance,
)

QUERY_NODE_PRUNED = "query_node_pruned"
QUERY_NODES_DISCONNECTED = "query_nodes_disconnected"


def edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def compute_supports(h: Subgraph) -> dict[tuple[int, int], int]:
    """Exact triangle count per live edge."""
    sup = {}
    for u, v in h.edges():
        sup[(u, v)] = len(h.adj[u] & h.adj[v])
    return sup


def _peel_edges(h: Subgraph, sup: dict, thr: int, pending: deque,
                events: Optional[list]) -> None:
    """Delete the queued edges of h, each queued with support below thr;
    each triangle partner of a deleted edge loses one support and is queued
    when it drops below thr.  `sup` holds exactly h's edges, before and
    after.  Deletions are appended to `events` as ("e", u, v) in order.
    """
    while pending:
        e = pending.popleft()
        if e not in sup:
            continue  # queued twice, or its vertex was dropped
        u, v = e
        del sup[e]
        common = h.adj[u] & h.adj[v]
        h.remove_edge(u, v)
        if events is not None:
            events.append(("e", u, v))
        for w in common:
            for other in (edge_key(u, w), edge_key(v, w)):
                sup[other] -= 1
                if sup[other] < thr:
                    pending.append(other)


def truss_decompose(h: Subgraph):
    """Peel level by level; returns (edge_trussness, vertex_trussness).

    tau(e) is the largest k such that some k-truss of h contains e: the
    edges the level-k peel (threshold k-2) deletes have trussness k-1.
    Vertex trussness is the max over incident edges; isolated vertices get 0.
    """
    work = h.copy()
    sup = compute_supports(work)
    edge_tau: dict[tuple[int, int], int] = {}
    k = 2
    while sup:
        k += 1
        peeled: list = []
        _peel_edges(work, sup, k - 2,
                    deque(e for e, s in sup.items() if s < k - 2), peeled)
        for _, u, v in peeled:
            edge_tau[(u, v)] = k - 1
    vertex_tau = {v: 0 for v in h.vertices}
    for (u, v), t in edge_tau.items():
        if t > vertex_tau[u]:
            vertex_tau[u] = t
        if t > vertex_tau[v]:
            vertex_tau[v] = t
    return edge_tau, vertex_tau


@dataclass
class KdTruss:
    """Result of (k,d)-truss maintenance; subgraph is None when invalid."""
    subgraph: Optional[Subgraph]
    k: int
    d: int
    valid: bool
    reason: Optional[str] = None


def _query_verdict(h: Subgraph, qs: list[int], d: int):
    """(query distances, None) when every query node is in h within
    distance d of the others, else (None, why not)."""
    if any(not h.has_vertex(q) for q in qs):
        return None, QUERY_NODE_PRUNED
    dist, _ = query_distance(h, qs)
    if any(dist[q] > d for q in qs):
        if any(dist[q] == UNREACHABLE for q in qs):
            return None, QUERY_NODES_DISCONNECTED
        return None, QUERY_NODE_PRUNED
    return dist, None


def maintain_kd_truss(h: Subgraph, query_nodes: Iterable[int], k: int, d: int,
                      events: Optional[list] = None) -> KdTruss:
    """Prune h in place to its maximal sub-(k,d)-truss around the query
    nodes; a caller that needs h afterwards passes h.copy().

    Alternates edge-support peeling (threshold k-2) and query-distance rounds
    (threshold d, distances recomputed inside the surviving subgraph) until a
    fixpoint.  Invalid when a query node gets pruned or the query nodes end
    up in different components; the two cases are reported distinctly.

    Deletion events ("e", u, v) / ("v", v) are appended to `events` in the
    exact order applied, so the run can be replayed.
    """
    qs = sorted(set(query_nodes))
    sup = compute_supports(h)
    thr = k - 2
    pending = deque(sorted(e for e, s in sup.items() if s < thr))
    while True:
        _peel_edges(h, sup, thr, pending, events)
        dist, reason = _query_verdict(h, qs, d)
        if reason is not None:
            return KdTruss(None, k, d, False, reason)
        far = sorted(v for v, dv in dist.items() if dv > d)
        if not far:
            return KdTruss(h, k, d, True)
        for v in far:
            ns = sorted(h.adj[v])
            for u in ns:
                del sup[edge_key(u, v)]
            # each pair of still-adjacent former neighbours loses triangle v
            for i, a in enumerate(ns):
                for b in ns[i + 1:]:
                    e = (a, b)
                    if e in sup:
                        sup[e] -= 1
                        if sup[e] < thr:
                            pending.append(e)
            h.remove_vertex(v)
            if events is not None:
                events.append(("v", v))


def maximal_kd_truss(g: Graph | Subgraph, query_nodes: Iterable[int], k: int,
                     d: int) -> KdTruss:
    """Maximal (k,d)-truss of the d-ball around the query nodes."""
    qs = sorted(set(query_nodes))
    base = Subgraph.full(g) if isinstance(g, Graph) else g
    dist, reason = _query_verdict(base, qs, d)
    if reason is not None:
        return KdTruss(None, k, d, False, reason)
    h = induced_subgraph(base, [v for v, dv in dist.items() if dv <= d])
    return maintain_kd_truss(h, qs, k, d)


def max_trussness_connecting(g: Graph | Subgraph, query_nodes: Iterable[int]):
    """Largest k with one connected k-truss containing all query nodes.

    Returns (k_max, subgraph).  For a single isolated query node, k_max is
    the vertex trussness 0 and the subgraph is the vertex alone.
    """
    qs = sorted(set(query_nodes))
    h = Subgraph.full(g) if isinstance(g, Graph) else g
    for q in qs:
        if not h.has_vertex(q):
            raise ValueError(f"query node {q} not in graph")
    reach = bfs_distances(h.adj, qs[0])
    if any(q not in reach for q in qs):
        raise ValueError("query nodes are disconnected")
    edge_tau, vertex_tau = truss_decompose(h)
    if len(qs) == 1 and vertex_tau[qs[0]] == 0:
        return 0, induced_subgraph(h, qs)
    tau_max = max(edge_tau.values(), default=2)
    for k in range(tau_max, 1, -1):
        adj: dict[int, set[int]] = {}
        for (u, v), t in edge_tau.items():
            if t >= k:
                adj.setdefault(u, set()).add(v)
                adj.setdefault(v, set()).add(u)
        if any(q not in adj for q in qs):
            continue
        comp = bfs_distances(adj, qs[0])
        if all(q in comp for q in qs):
            sub_adj = {v: ns for v, ns in adj.items() if v in comp}
            m = sum(len(s) for s in sub_adj.values()) // 2
            return k, Subgraph(h.parent, sub_adj, m)
    raise ValueError("no k-truss connects the query nodes")


def diameter(h: Subgraph):
    """Exact hop diameter via all-sources BFS; UNREACHABLE if disconnected."""
    n = h.num_vertices()
    if n <= 1:
        return 0
    best = 0
    for v in h.vertices:
        dist = bfs_distances(h.adj, v)
        if len(dist) < n:
            return UNREACHABLE
        ecc = max(dist.values())
        if ecc > best:
            best = ecc
    return best


def replay_events(base: Subgraph, events: Iterable) -> Subgraph:
    """Re-apply a deletion log to a copy of `base`."""
    h = base.copy()
    for ev in events:
        if ev[0] == "v":
            h.remove_vertex(ev[1])
        else:
            h.remove_edge(ev[1], ev[2])
    return h


def is_kd_truss(h: Subgraph, query_nodes: Iterable[int], k: int, d: int) -> bool:
    """From-scratch check of all four (k,d)-truss conditions."""
    qs = sorted(set(query_nodes))
    if any(not h.has_vertex(q) for q in qs):
        return False
    sup = compute_supports(h)
    if any(s < k - 2 for s in sup.values()):
        return False
    first = next(iter(h.vertices))
    if len(bfs_distances(h.adj, first)) != h.num_vertices():
        return False
    _, val = query_distance(h, qs)
    return val <= d
