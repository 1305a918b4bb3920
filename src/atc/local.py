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


def attribute_truss_distance(idx: ATIndex, e: tuple[int, int],
                             query_attrs, gamma: Fraction) -> Fraction:
    """1 + gamma * total trussness shortfall of e across G and the projections."""
    u, v = e
    shortfall = idx.tau_max - idx.structural_edge(u, v)
    for w in sorted(query_attrs):
        tau = idx.attribute_edge(w, u, v)
        if tau == NOT_IN_PROJECTION:
            tau = TAU_FLOOR
        shortfall += idx.tau_max - tau
    return 1 + gamma * shortfall


def _dijkstra(g: Graph, source: int, weight) -> tuple[dict, dict]:
    """Shortest paths under rational edge weights.

    Ties break lexicographically on (weight, hop count, parent id) so paths
    are deterministic.  Returns (cost map, parent map).
    """
    best: dict[int, tuple] = {source: (Fraction(0), 0, -1)}
    parent = {source: None}
    heap = [(Fraction(0), 0, -1, source)]
    done = set()
    while heap:
        cost, hops, par, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        parent[v] = par if par >= 0 else None
        for u in g.adj[v]:
            if u in done:
                continue
            cand = (cost + weight(v, u), hops + 1, v)
            if u not in best or cand < best[u]:
                best[u] = cand
                heapq.heappush(heap, (*cand, u))
    costs = {v: t[0] for v, t in best.items() if v in done}
    return costs, parent


@dataclass
class SteinerSeed:
    vertices: frozenset[int]
    edges: tuple
    weight: Fraction


def steiner_seed(g: Graph, idx: ATIndex, q: QuerySpec) -> SteinerSeed:
    """2-approximate Steiner tree over V_q under attribute truss distance.

    Metric closure over the terminals, its minimum spanning tree, expansion
    back to graph paths, then pruning of non-terminal leaves.
    """
    for w in q.query_attrs:
        g.vertices_with(w)  # raises UnknownAttributeError
    terminals = sorted(q.query_nodes)
    if len(terminals) == 1:
        return SteinerSeed(frozenset(terminals), (), Fraction(0))
    wcache: dict[tuple[int, int], Fraction] = {}

    def weight(u, v):
        e = edge_key(u, v)
        w = wcache.get(e)
        if w is None:
            w = attribute_truss_distance(idx, e, q.query_attrs, q.gamma)
            wcache[e] = w
        return w

    costs = {}
    parents = {}
    for t in terminals:
        costs[t], parents[t] = _dijkstra(g, t, weight)
    closure = []
    for i, a in enumerate(terminals):
        for b in terminals[i + 1:]:
            if b not in costs[a]:
                raise NoFeasibleCommunity("query_nodes_disconnected")
            closure.append((costs[a][b], a, b))
    closure.sort()
    # Kruskal on the closure
    comp = {t: t for t in terminals}

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    union_edges: set[tuple[int, int]] = set()
    picked = 0
    for _, a, b in closure:
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        comp[ra] = rb
        picked += 1
        # expand closure edge (a,b) to the graph path found from terminal a
        v = b
        while v != a:
            p = parents[a][v]
            union_edges.add(edge_key(p, v))
            v = p
        if picked == len(terminals) - 1:
            break
    # spanning tree of the union, then prune non-terminal leaves
    tree = _mst_of_edges(union_edges, weight)
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
    total = sum((weight(u, v) for u, v in final), Fraction(0))
    return SteinerSeed(frozenset(adj.keys()) | term, tuple(sorted(final)), total)


def _mst_of_edges(edges, weight):
    ordered = sorted(edges, key=lambda e: (weight(*e), e))
    comp: dict[int, int] = {}

    def find(x):
        comp.setdefault(x, x)
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    out = []
    for u, v in ordered:
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
    edges are added at the end.
    """
    members = set(seed.vertices)
    bd = score_of_vertices(g, members, q.query_attrs)
    qattrs = frozenset(q.query_attrs)
    frontier = set()
    for v in members:
        frontier.update(u for u in g.adj[v] if u not in members)
    covered = {}

    def key(v):
        cov = covered.get(v)
        if cov is None:
            cov = qattrs.intersection(g.attrs[v])
            covered[v] = cov
        return (not majority_from_breakdown(cov, bd),
                -len(cov), -idx.structural_vertex(v), v)

    while len(members) < q.eta and frontier:
        v = min(frontier, key=key)
        frontier.discard(v)
        members.add(v)
        bd.add_vertex(g, v)
        frontier.update(u for u in g.adj[v] if u not in members)
    return induced_subgraph(g, members)


def auto_params(gt: Subgraph, query_nodes) -> tuple[int, int]:
    """(k, d) from the candidate graph: largest connecting trussness and its
    query distance."""
    k, _ = max_trussness_connecting(gt, query_nodes)
    _, d = query_distance(gt, query_nodes)
    return max(2, k), d


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
    for _ in range(len(remaining)):
        if not remaining:
            break
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
        if not nodes:
            nodes = (seed_node,)
        suggestions.append((nodes, attrs))
        remaining = [v for v in remaining if v not in set(nodes)]
    return QueryClassification(BAD, reason, suggestions)
