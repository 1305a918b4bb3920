"""Index-accelerated local search: Steiner seeding, majority-guided
expansion, auto parameter setting, and bad-query handling.

The Steiner seed connects the query nodes under the attribute truss distance
(edges in high-trussness regions of the relevant projections are cheaper),
the seed is expanded by repeatedly inserting the most promising frontier
vertex until the size cap, and bulk peeling then shrinks the candidate.
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
from .truss import edge_key, max_trussness_connecting, maximal_kd_truss

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


def attribute_truss_distance(idx: ATIndex, e: tuple[int, int],
                             query_attrs, gamma: Fraction) -> Fraction:
    """1 + gamma * total trussness shortfall of e across G and the projections."""
    return 1 + gamma * _shortfall(idx, e, sorted(query_attrs))


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
    weight: Fraction


def steiner_seed(g: Graph, idx: ATIndex, q: QuerySpec) -> SteinerSeed:
    """2-approximate Steiner tree over V_q under attribute truss distance.

    Metric closure over the terminals, its minimum spanning tree, expansion
    back to graph paths, then pruning of non-terminal leaves.  Edge weights
    are the distances times gamma's denominator, integers with the same
    order and ties; each terminal's Dijkstra stops once it has settled every
    later terminal, the only closure entries it contributes.
    """
    for w in q.query_attrs:
        g.vertices_with(w)  # raises UnknownAttributeError
    terminals = sorted(q.query_nodes)
    if len(terminals) == 1:
        return SteinerSeed(frozenset(terminals), (), Fraction(0))
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
                raise NoFeasibleCommunity("query_nodes_disconnected")
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
    total = Fraction(sum(weight(u, v) for u, v in final), gamma.denominator)
    return SteinerSeed(frozenset(adj.keys()) | term, tuple(sorted(final)), total)


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
    """Grow the seed one vertex at a time, up to eta members.

    Frontier vertices are ranked by (passes the majority test, number of
    covered query attributes, structural trussness, lowest id); all induced
    edges are added at the end.  The first two keys depend only on the set
    of query attributes a vertex covers, so the frontier is bucketed by that
    set, each bucket a heap on the last two keys, and an insertion tests the
    majority once per bucket.
    """
    members = set(seed.vertices)
    bd = score_of_vertices(g, members, q.query_attrs)
    qattrs = frozenset(q.query_attrs)
    buckets: dict[frozenset[int], list[tuple[int, int]]] = {}
    reached = set(members)

    def reach_from(v):
        for u in g.adj[v]:
            if u not in reached:
                reached.add(u)
                heapq.heappush(buckets.setdefault(qattrs.intersection(g.attrs[u]), []),
                               (-idx.structural_vertex(u), u))

    for v in members:
        reach_from(v)
    while len(members) < q.eta and buckets:
        cov = min(buckets, key=lambda c: (not majority_from_breakdown(c, bd),
                                          -len(c), buckets[c][0]))
        heap = buckets[cov]
        _, v = heapq.heappop(heap)
        if not heap:
            del buckets[cov]
        members.add(v)
        bd.add_vertex(g, v)
        reach_from(v)
    return induced_subgraph(g, members)


def autocomplete_attrs(g: Graph, query_nodes) -> frozenset[int]:
    out: set[int] = set()
    for v in query_nodes:
        out.update(g.attrs[v])
    return frozenset(out)


def locatc_search(g: Graph, idx: ATIndex, q: QuerySpec) -> SearchResult:
    """Steiner seed -> expansion -> max-trussness restriction -> bulk peel."""
    t0 = time.perf_counter()
    if not q.query_attrs:
        q = dataclasses.replace(q, query_attrs=autocomplete_attrs(g, q.query_nodes))
    seed = steiner_seed(g, idx, q)
    gt = expand_candidate(g, idx, seed, q)
    k_max, core = max_trussness_connecting(gt, q.query_nodes)
    if k_max >= 2:
        gt = core
    if q.k_d_auto:
        k = max(2, k_max)
        _, d = query_distance(gt, q.query_nodes)
    else:
        k, d = q.k, q.d
    try:
        res, _ = bulk_search(gt, q, k=k, d=d)
    except NoFeasibleCommunity:
        if q.k_d_auto and k > 3:
            res, _ = bulk_search(gt, q, k=k - 1, d=d)
        else:
            raise
    return dataclasses.replace(res, algo="local",
                               wall_time=time.perf_counter() - t0)


GOOD = "good"
BAD = "bad"


@dataclass
class QueryClassification:
    status: str
    reason: str | None
    suggestions: list  # [(query node tuple, attribute id tuple), ...]


def classify_query(g: Graph, idx: ATIndex | None, q: QuerySpec) -> QueryClassification:
    """Bad when no (k,d)-truss contains V_q or none of W_q appears in it.

    For bad queries, partitions the query nodes into per-community suggested
    queries by repeatedly seeding from one remaining node.
    """
    kd = maximal_kd_truss(g, q.query_nodes, q.k, q.d)
    reason = None
    if not kd.valid:
        reason = kd.reason
    elif q.query_attrs:
        present = any(w in g.attrs[v]
                      for v in kd.subgraph.vertices for w in q.query_attrs)
        if not present:
            reason = "zero_score"
    if reason is None:
        return QueryClassification(GOOD, None, [])

    suggestions = []
    remaining = sorted(q.query_nodes)
    while remaining:
        seed_node = remaining[0]
        kd0 = maximal_kd_truss(g, [seed_node], q.k, q.d)
        if kd0.valid:
            inside = set(kd0.subgraph.vertices)
            nodes = tuple(v for v in remaining if v in inside)
            attrs = tuple(sorted(w for w in q.query_attrs
                                 if any(w in g.attrs[v] for v in inside)))
        else:
            nodes = (seed_node,)
            attrs = tuple(sorted(set(q.query_attrs) & set(g.attrs[seed_node])))
        suggestions.append((nodes, attrs))
        remaining = [v for v in remaining if v not in set(nodes)]
    return QueryClassification(BAD, reason, suggestions)
