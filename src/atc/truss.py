"""Edge supports, truss decomposition, and (k,d)-truss maintenance.

A k-truss is a subgraph where every edge closes at least k-2 triangles.
One edge-peeling loop serves two jobs: decomposition, for the index, runs
it once per level k = 3, 4, ... (Wang & Cheng, PVLDB 2012), and (k,d)-truss
maintenance runs it between query-distance rounds.  The densest connecting
truss is maintenance, once per level it tries; local search peels on
from it with the supports that level counted.  The maximal (k,d)-truss
around the query nodes is maintenance too, started from only the part of G
that a walk from the query nodes reaches along triangle-supported edges, so
no distance is computed outside that walk.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

from .graph import (
    Graph,
    Subgraph,
    induced_subgraph,
    query_distance,
    source_distances,
)

# the one failure reason: no (k,d)-truss holds the query nodes
NO_KD_TRUSS = "no_kd_truss"


def edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def compute_supports(h: Graph | Subgraph) -> dict[tuple[int, int], int]:
    """Exact triangle count per live edge."""
    adj = h.copy().adj if isinstance(h, Graph) else h.adj  # sets, not tuples
    sup = {}
    for u, v in h.edges():
        sup[(u, v)] = len(adj[u] & adj[v])
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


def truss_decompose(h: Graph | Subgraph) -> dict[tuple[int, int], int]:
    """Peel level by level; returns the trussness of every edge of h.

    tau(e) is the largest k such that some k-truss of h contains e: the
    edges the level-k peel (threshold k-2) deletes have trussness k-1.
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
    return edge_tau


@dataclass
class KdTruss:
    """Result of (k,d)-truss maintenance; subgraph is None when invalid."""
    subgraph: Optional[Subgraph]
    valid: bool
    sup: Optional[dict] = None  # the subgraph's edge supports, when valid


def _drop_vertex(h: Subgraph, sup: dict, v: int, thr: int, pending: list,
                 events: Optional[list]) -> None:
    """Delete v from h and its edges from `sup`; each pair of still-adjacent
    former neighbours loses triangle v and is queued when it drops below thr.
    """
    ns = sorted(h.adj[v])
    for u in ns:
        del sup[edge_key(u, v)]
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


def maintain_kd_truss(h: Subgraph, query_nodes: Iterable[int], k: int, d: int,
                      events: Optional[list] = None, sup: Optional[dict] = None,
                      drop: Iterable[int] = ()) -> KdTruss:
    """Prune h in place to its maximal sub-(k,d)-truss around the query
    nodes; a caller that needs h afterwards passes h.copy().

    First deletes the vertices in `drop`.  Then alternates edge-support
    peeling (threshold k-2) and query-distance rounds (threshold d,
    distances recomputed inside the surviving subgraph) until a fixpoint.
    Invalid when a query node gets pruned or is farther than d from
    another, disconnected included.

    `sup`, when given, must hold h's edge supports with none below k-2, as
    a valid result's `sup` does; it is kept equal to the supports of h and
    returned in the result, so a caller pruning h again need not count them.
    Without it the supports are counted here.

    Deletion events ("e", u, v) / ("v", v) are appended to `events` in the
    exact order applied, so the run can be replayed.
    """
    qs = sorted(set(query_nodes))
    thr = k - 2
    if sup is None:
        sup = compute_supports(h)
        weak = [e for e, s in sup.items() if s < thr]
    else:
        weak = []
    for v in drop:
        _drop_vertex(h, sup, v, thr, weak, events)
    # every edge below thr is in `weak`, so this is the order of a recount;
    # a repeat, or an edge a later drop deleted, is skipped by the peel
    pending = deque(sorted(weak))
    while True:
        _peel_edges(h, sup, thr, pending, events)
        if not all(map(h.has_vertex, qs)):
            return KdTruss(None, False)
        dist, _ = query_distance(h, qs)
        if any(dist[q] > d for q in qs):
            return KdTruss(None, False)
        far = sorted(v for v, dv in dist.items() if dv > d)
        if not far:
            return KdTruss(h, True, sup=sup)
        for v in far:
            _drop_vertex(h, sup, v, thr, pending, events)


def _walk(g: Graph | Subgraph, qs: list[int], k: int, d: int) -> Subgraph:
    """The subgraph g induces on what a walk from all query nodes at once
    reaches, d edges out, along edges that pass two triangle tests, with
    supports counted in g.

    The first test is a support of at least k-2.  The second asks that in
    k-2 of those triangles both other edges pass the first too; it stops
    the walk at a bridge into another dense region whose triangles lean on
    edges the first peel removes.  An edge with at least 2(k-2) triangles
    skips it: it could fail only if k-1 of them had a failing side, and in
    a dense region the test would count most supports twice.
    """
    nb: dict[int, set[int]] = {}  # touched vertex -> its neighbours
    tri: dict[tuple[int, int], int] = {}  # touched edge -> its support

    def nbrs(u):
        if u not in nb:
            nb[u] = set(g.adj[u])
        return nb[u]

    def support(u, v):
        e = edge_key(u, v)
        if e not in tri:
            tri[e] = len(nbrs(u) & nbrs(v))
        return tri[e]

    def passes(u, v):
        s = support(u, v)
        if s < k - 2 or s >= 2 * (k - 2):
            return s >= k - 2
        return sum(1 for w in nbrs(u) & nbrs(v)
                   if support(u, w) >= k - 2 and support(v, w) >= k - 2) >= k - 2

    reach = list(qs)  # grows while walked, one level at a time
    seen = set(qs)
    lo, level = 0, 0
    while lo < len(reach) and level < d:
        hi, level = len(reach), level + 1
        for u in reach[lo:hi]:
            for v in nbrs(u):
                if v not in seen and passes(u, v):
                    seen.add(v)
                    reach.append(v)
        lo = hi
    adj = {u: nbrs(u) for u in reach}  # the last level was not walked from
    if len(seen) < g.num_vertices():  # else every neighbour was reached
        for nu in adj.values():
            nu &= seen
    return Subgraph(g.parent, adj, sum(map(len, adj.values())) // 2)


def maximal_kd_truss(g: Graph | Subgraph, query_nodes: Iterable[int], k: int,
                     d: int) -> KdTruss:
    """Maximal (k,d)-truss T of the d-ball, the vertices within distance d
    of every query node, or its absence.  g is only read.

    Each edge of T closes k-2 triangles inside T, so it passes both tests
    of `_walk` with supports counted in g (the containment argument of
    Huang et al., SIGMOD 2014), and each vertex of T is within d of the
    query nodes along T's edges, so the walk reaches all of T.  T is
    unique, and maintenance from any subgraph holding it ends at it, or
    fails where there is no T: the result does not depend on the start, so
    it is the walk in g, and no distance is computed outside that.  At
    k <= 2 every edge passes, so the walk would take in the union of the
    query nodes' own d-balls; one sweep over g finds the d-ball instead,
    and maintenance starts from that.
    """
    qs = sorted(set(query_nodes))
    if not all(map(g.has_vertex, qs)):
        return KdTruss(None, False)
    if k > 2:
        return maintain_kd_truss(_walk(g, qs, k, d), qs, k, d)
    dist, _ = query_distance(g, qs)
    ball = induced_subgraph(g, [v for v, dv in dist.items() if dv <= d])
    return maintain_kd_truss(ball, qs, k, d)


def max_trussness_connecting(h: Subgraph, query_nodes: Iterable[int],
                             edge_tau: dict[tuple[int, int], int]):
    """Largest k with one connected k-truss of h containing all query nodes.

    `edge_tau` bounds each edge's trussness in h from above, as trussness in
    a graph containing h does: a k-truss of h is one there too (Huang et al.,
    SIGMOD 2014).  So each level k, from the query nodes' bound down,
    maintains only the first query node's component of the edges bounded by
    >= k, as a (k, d)-truss with d its size: no distance in it exceeds that,
    so the rounds drop exactly the vertices the query nodes cannot reach.

    Returns (k_max, subgraph, its edge supports), none of them below
    k_max-2.  For a single isolated query node, k_max is the vertex
    trussness 0 and the subgraph is the vertex alone.
    """
    qs = sorted(set(query_nodes))
    for q in qs:
        if not h.has_vertex(q):
            raise ValueError(f"query node {q} not in graph")
    top = min(max((edge_tau[edge_key(q, v)] for v in h.adj[q]), default=0)
              for q in qs)
    if top == 0 and len(qs) == 1:
        return 0, induced_subgraph(h, qs), {}
    for k in range(top, 1, -1):
        adj: dict[int, set[int]] = {}
        reach = [qs[0]]  # grows while walked: qs[0]'s component of edges >= k
        for u in reach:
            if u not in adj:
                adj[u] = {v for v in h.adj[u] if edge_tau[edge_key(u, v)] >= k}
                reach.extend(adj[u] - adj.keys())
        if any(q not in adj for q in qs):
            continue  # peeling only removes edges
        comp = Subgraph(h.parent, adj, sum(len(s) for s in adj.values()) // 2)
        kd = maintain_kd_truss(comp, qs, k, len(adj))
        if kd.valid and comp.adj[qs[0]]:
            return k, comp, kd.sup
    raise ValueError("query nodes are disconnected")


def diameter(h: Subgraph):
    """Exact hop diameter: the largest distance of any vertex to all the
    others, from one sweep with every vertex a source; UNREACHABLE if h is
    disconnected."""
    if h.num_vertices() <= 1:
        return 0
    return max(source_distances(h.adj, h.vertices).values())


def is_kd_truss(h: Graph | Subgraph, query_nodes: Iterable[int], k: int,
                d: int) -> bool:
    """From-scratch check of all four (k,d)-truss conditions; false without
    query nodes."""
    qs = sorted(set(query_nodes))
    if not qs or any(not h.has_vertex(q) for q in qs):
        return False
    if any(s < k - 2 for s in compute_supports(h).values()):
        return False
    # a vertex some query node cannot reach reads UNREACHABLE: <= d implies connected
    return query_distance(h, qs)[1] <= d
