"""Index-accelerated local search: the k-truss component, Steiner seeding,
majority-guided expansion, and bad-query handling.

With an explicit k, the candidate is the first query node's component of
the edges of index trussness >= k, as in the k-truss index of Huang et al.
(SIGMOD 2014), when it holds every query node within eta vertices.  Under
k_d_auto, or past eta, the Steiner seed connects the query nodes under the
attribute truss distance (edges in high-trussness regions of the relevant
projections are cheaper) and is expanded by repeatedly inserting the most
promising frontier vertex until the size cap.  Either candidate is cut to
its densest truss around the query nodes (peeled from the index's
trussness) and shrunk by bulk peeling.
"""
from __future__ import annotations

import dataclasses
import heapq
import time
from dataclasses import dataclass
from fractions import Fraction

from .graph import (
    Graph,
    QuerySpec,
    Subgraph,
    induced_subgraph,
    query_distance,
)
from .greedy import NoFeasibleCommunity, SearchResult, bulk_search
from .index import ATIndex, NOT_IN_PROJECTION
from .score import majority_from_breakdown, score_of_vertices
from .truss import (NO_KD_TRUSS, edge_key, maintain_kd_truss,
                    max_trussness_connecting, maximal_kd_truss)

# minimum possible trussness, used for edges absent from a projection
TAU_FLOOR = 2


def _shortfall(idx: ATIndex, e: tuple[int, int], query_attrs) -> int:
    """Total trussness shortfall of e below tau_max in G and the projections."""
    u, v = e
    shortfall = idx.tau_max - idx.structural_edge(u, v)
    for w in query_attrs:
        tau = idx.attribute_edge(w, u, v)
        if tau == NOT_IN_PROJECTION:
            tau = TAU_FLOOR
        shortfall += idx.tau_max - tau
    return shortfall


def _dijkstra(g: Graph, source: int, weight, targets) -> tuple[dict, dict]:
    """Shortest paths under positive integer edge weights, until every
    target is settled.

    Ties break lexicographically on (weight, hop count, parent id) so paths
    are deterministic.  Returns (cost map, parent map) of the settled
    vertices; a settled vertex's parent is settled before it, so the path
    to every settled vertex is final.
    """
    best: dict[int, tuple] = {source: (0, 0, -1)}
    costs: dict[int, int] = {}
    parent: dict[int, int | None] = {}
    left = set(targets)
    heap = [(0, 0, -1, source)]
    while heap and left:
        cost, hops, par, v = heapq.heappop(heap)
        if v in costs:
            continue
        costs[v] = cost
        parent[v] = par if par >= 0 else None
        left.discard(v)
        for u in g.adj[v]:
            if u in costs:
                continue
            cand = (cost + weight(v, u), hops + 1, v)
            if u not in best or cand < best[u]:
                best[u] = cand
                heapq.heappush(heap, (*cand, u))
    return costs, parent


@dataclass
class SteinerSeed:
    vertices: frozenset[int]
    edges: tuple


def steiner_seed(g: Graph, idx: ATIndex, q: QuerySpec) -> SteinerSeed:
    """2-approximate Steiner tree over V_q under attribute truss distance.

    Metric closure over the terminals, its minimum spanning tree, expansion
    back to graph paths, then pruning of non-terminal leaves.  Edge weights
    are the distances times gamma's denominator, integers with the same
    order and ties; each terminal's Dijkstra stops once it has settled every
    later terminal, the only closure entries it contributes.
    """
    q.check_ids(g)
    terminals = sorted(q.query_nodes)
    gamma = Fraction(q.gamma)
    attrs = sorted(q.query_attrs)
    wcache: dict[tuple[int, int], int] = {}

    def weight(u, v):
        e = edge_key(u, v)
        w = wcache.get(e)
        if w is None:
            w = gamma.denominator + gamma.numerator * _shortfall(idx, e, attrs)
            wcache[e] = w
        return w

    closure = []
    parents = {}
    for i, a in enumerate(terminals[:-1]):
        later = terminals[i + 1:]
        costs, parents[a] = _dijkstra(g, a, weight, later)
        for b in later:
            if b not in costs:
                raise NoFeasibleCommunity(NO_KD_TRUSS)
            closure.append((costs[b], a, b))
    union_edges: set[tuple[int, int]] = set()
    for a, b in _kruskal((a, b) for _, a, b in sorted(closure)):
        # expand closure edge (a,b) to the graph path found from terminal a
        v = b
        while v != a:
            p = parents[a][v]
            union_edges.add(edge_key(p, v))
            v = p
    # spanning tree of the union, then prune non-terminal leaves
    tree = _kruskal(sorted(union_edges, key=lambda e: (weight(*e), e)))
    adj: dict[int, set[int]] = {}
    for u, v in tree:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    term = set(terminals)
    changed = True
    while changed:
        changed = False
        for v in sorted(adj):
            if v not in term and len(adj[v]) <= 1:
                for u in adj.pop(v):
                    adj[u].discard(v)
                changed = True
    final = {edge_key(u, v) for u, ns in adj.items() for v in ns}
    return SteinerSeed(frozenset(adj.keys()) | term, tuple(sorted(final)))


def _kruskal(ordered_edges):
    """The edges of a minimum spanning forest, given edges in weight order."""
    comp: dict[int, int] = {}

    def find(x):
        comp.setdefault(x, x)
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    out = []
    for u, v in ordered_edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            comp[ru] = rv
            out.append((u, v))
    return out


def expand_candidate(g: Graph, idx: ATIndex, seed: SteinerSeed,
                     q: QuerySpec) -> Subgraph:
    """Grow the seed one vertex at a time, up to eta members, crossing only
    edges of trussness >= k in G, as every edge of the answer has (Huang et
    al., SIGMOD 2014); under k_d_auto, k is chosen later, so all are crossed.

    Frontier vertices are ranked by (passes the majority test, number of
    covered query attributes, structural trussness, lowest id); all induced
    edges are added at the end.  The first two keys depend only on the set
    of query attributes a vertex covers, so the frontier is bucketed by that
    set, each bucket a heap on the last two keys.

    The covered sets are tried largest first, and the first size with a set
    that passes the majority test gives the pick: its passing set with the
    best top (a set whose top is no better is not tested).  When none
    passes, the largest set with the best top wins.  A superset covers at
    least as much, so the test is monotone in the set and an insertion
    usually takes one test.
    """
    members = set(seed.vertices)
    bd = score_of_vertices(g, members, q.query_attrs)
    qattrs = frozenset(q.query_attrs)
    buckets: dict[frozenset[int], list[tuple[int, int]]] = {}
    by_size: list[frozenset[int]] = []  # the keys of buckets, largest first
    reached = set(members)

    def reach_from(v):
        for u in g.adj[v]:
            if u not in reached and (q.k_d_auto or idx.structural_edge(v, u) >= q.k):
                reached.add(u)
                cov = qattrs.intersection(g.attrs[u])
                heap = buckets.get(cov)
                if heap is None:
                    heap = buckets[cov] = []
                    by_size.append(cov)
                    by_size.sort(key=len, reverse=True)
                heapq.heappush(heap, (-idx.structural_vertex(u), u))

    for v in members:
        reach_from(v)
    while len(members) < q.eta and buckets:
        cov = None
        for c in by_size:
            if cov is not None and len(c) < len(cov):
                break
            if ((cov is None or buckets[c][0] < buckets[cov][0])
                    and majority_from_breakdown(c, bd)):
                cov = c
        if cov is None:
            cov = min(by_size, key=lambda c: (-len(c), buckets[c][0]))
        heap = buckets[cov]
        _, v = heapq.heappop(heap)
        if not heap:
            del buckets[cov]
            by_size.remove(cov)
        members.add(v)
        bd.add_vertex(g, v)
        reach_from(v)
    return induced_subgraph(g, members)


def k_component(g: Graph, idx: ATIndex, v: int, k: int, cap: int):
    """v's component of the edges of index trussness >= k in G, or None
    once it passes cap vertices."""
    comp = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        for w in g.adj[u]:
            if w not in comp and idx.structural_edge(u, w) >= k:
                if len(comp) == cap:
                    return None
                comp.add(w)
                stack.append(w)
    return comp


def locatc_search(g: Graph, idx: ATIndex, q: QuerySpec) -> SearchResult:
    """k-truss component of the first query node (or, under k_d_auto or
    past eta, Steiner seed -> expansion) -> densest connecting truss ->
    bulk peel, started from that truss."""
    t0 = time.perf_counter()
    q.check_ids(g)
    if not q.query_attrs:  # the union of the query nodes' attributes
        q = dataclasses.replace(q, query_attrs=frozenset().union(
            *(g.attrs[v] for v in q.query_nodes)))
    comp = None if q.k_d_auto else k_component(
        g, idx, min(q.query_nodes), q.k, q.eta)
    if comp is None:
        gt = expand_candidate(g, idx, steiner_seed(g, idx, q), q)
    elif q.query_nodes <= comp:
        gt = induced_subgraph(g, comp)
    else:  # a (k,d)-truss holding V_q is a connected k-truss of G: inside comp
        raise NoFeasibleCommunity(NO_KD_TRUSS)
    k_max, gt, sup = max_trussness_connecting(gt, q.query_nodes, idx.edge_truss)
    if q.k_d_auto:
        q = dataclasses.replace(q, k=max(2, k_max),
                                d=query_distance(gt, q.query_nodes)[1])
    # the core holds the maximal (k, d)-truss; for k <= k_max (always under
    # k_d_auto) it is a k-truss, so maintenance from it, in place, with its
    # supports, peels no edge; above k_max the supports are recounted
    start = maintain_kd_truss(gt, q.query_nodes, q.k, q.d,
                              sup=sup if q.k <= k_max else None)
    res, _ = bulk_search(gt, q, start)
    return dataclasses.replace(res, algo="local",
                               wall_time=time.perf_counter() - t0)


ZERO_SCORE = "zero_score"  # W_q appears nowhere in the maximal (k,d)-truss


@dataclass
class QueryClassification:
    reason: str | None  # None for a good query
    suggestions: list  # [(query node tuple, attribute id tuple), ...]


def classify_query(g: Graph, q: QuerySpec) -> QueryClassification:
    """Bad when no (k,d)-truss contains V_q or none of W_q appears in it.

    For bad queries, partitions the query nodes into per-community suggested
    queries by repeatedly seeding from one remaining node.
    """
    q.check_ids(g)
    kd = maximal_kd_truss(g, q.query_nodes, q.k, q.d)
    reason = None if kd.valid else NO_KD_TRUSS
    if kd.valid and q.query_attrs and not score_of_vertices(
            g, kd.subgraph.vertices, q.query_attrs).squares:
        reason = ZERO_SCORE
    if reason is None:
        return QueryClassification(None, [])

    suggestions = []
    remaining = sorted(q.query_nodes)
    while remaining:
        seed_node = remaining[0]
        kd0 = maximal_kd_truss(g, [seed_node], q.k, q.d)
        inside = set(kd0.subgraph.vertices) if kd0.valid else {seed_node}
        nodes = tuple(v for v in remaining if v in inside)
        cover = score_of_vertices(g, inside, q.query_attrs).cover
        attrs = tuple(sorted(w for w, c in cover.items() if c))
        suggestions.append((nodes, attrs))
        remaining = [v for v in remaining if v not in set(nodes)]
    return QueryClassification(reason, suggestions)
