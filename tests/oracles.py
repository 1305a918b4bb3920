"""Independent brute-force oracles used to check the library.

The oracles are deliberately naive (full recomputation, exhaustive
enumeration) and share no code with the package under test beyond the
Graph container and the index's lookups.  The score helpers after
`oracle_score` and `brute_force_atc` are the exception: test-only entry
points over the package's own score breakdowns, kept here because no
library code calls them.
"""
from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction

from atc.graph import Graph, Subgraph, UNREACHABLE, induced_subgraph, query_distance
from atc.greedy import SearchResult
from atc.index import NOT_IN_PROJECTION
from atc.score import (
    ScoreBreakdown,
    contribution_from_breakdown,
    majority_from_breakdown,
    score_of_vertices,
)
from atc.truss import diameter, is_kd_truss


def adj_of(h) -> dict[int, set[int]]:
    """Plain dict-of-sets adjacency from a Graph or Subgraph."""
    return {v: set(ns) for v, ns in h.adj.items()}


def oracle_supports(adj: dict[int, set[int]]) -> dict[tuple[int, int], int]:
    """Triangle counts per edge by full triple enumeration."""
    sup = {}
    vs = sorted(adj)
    for u in vs:
        for v in adj[u]:
            if u >= v:
                continue
            count = 0
            for w in vs:
                if w != u and w != v and w in adj[u] and w in adj[v]:
                    count += 1
            sup[(u, v)] = count
    return sup


def _prune_at(adj: dict[int, set[int]], k: int) -> set[tuple[int, int]]:
    """Edges surviving repeated removal of edges in < k-2 triangles."""
    adj = {v: set(ns) for v, ns in adj.items()}
    changed = True
    while changed:
        changed = False
        for u in sorted(adj):
            for v in sorted(adj[u]):
                if u < v and len(adj[u] & adj[v]) < k - 2:
                    adj[u].discard(v)
                    adj[v].discard(u)
                    changed = True
    return {(u, v) for u in adj for v in adj[u] if u < v}


def oracle_truss(adj: dict[int, set[int]]) -> dict[tuple[int, int], int]:
    """tau(e) = max k whose pruning fixpoint still contains e."""
    tau = {(u, v): 2 for u in adj for v in adj[u] if u < v}
    k = 3
    while True:
        alive = _prune_at(adj, k)
        if not alive:
            return tau
        for e in alive:
            tau[e] = k
        k += 1


def oracle_max_trussness_connecting(h, query_nodes):
    """(k, adjacency) of the densest connected truss of h holding every query
    node, from scratch: decompose h, then scan the levels down from the top.

    A lone isolated query node gives (0, {q: set()}).  ValueError for a
    query node outside h and for query nodes in different components.
    """
    adj = adj_of(h)
    qs = sorted(set(query_nodes))
    for q in qs:
        if q not in adj:
            raise ValueError(f"query node {q} not in graph")
    if any(oracle_all_pairs(adj)[(qs[0], q)] == UNREACHABLE for q in qs):
        raise ValueError("query nodes are disconnected")
    if len(qs) == 1 and not adj[qs[0]]:
        return 0, {qs[0]: set()}
    tau = oracle_truss(adj)
    for k in range(max(tau.values()), 1, -1):
        level: dict[int, set[int]] = {}
        for (u, v), t in tau.items():
            if t >= k:
                level.setdefault(u, set()).add(v)
                level.setdefault(v, set()).add(u)
        if any(q not in level for q in qs):
            continue
        ap = oracle_all_pairs(level)
        if all(ap[(qs[0], q)] != UNREACHABLE for q in qs):
            return k, {v: level[v] for v in level
                       if ap[(qs[0], v)] != UNREACHABLE}
    raise ValueError("no k-truss connects the query nodes")


def oracle_all_pairs(adj: dict[int, set[int]]):
    """Floyd-Warshall hop distances; UNREACHABLE for disconnected pairs."""
    vs = sorted(adj)
    dist = {(a, b): (0 if a == b else UNREACHABLE) for a in vs for b in vs}
    for u in vs:
        for v in adj[u]:
            dist[(u, v)] = 1
    for w in vs:
        for a in vs:
            daw = dist[(a, w)]
            if daw == UNREACHABLE:
                continue
            for b in vs:
                alt = daw + dist[(w, b)]
                if alt < dist[(a, b)]:
                    dist[(a, b)] = alt
    return dist


def oracle_query_distance(adj, query_nodes):
    """Per-vertex max distance to the query nodes via Floyd-Warshall."""
    ap = oracle_all_pairs(adj)
    return {v: max(ap[(v, q)] for q in query_nodes) for v in adj}


def oracle_maintain(adj: dict[int, set[int]], query_nodes, k: int, d: int):
    """Naive fixpoint: full support/distance recomputation every round.

    Returns (adjacency, valid, reason): the reason is None when valid, else
    "no_kd_truss", the one failure reason of the library.
    """
    adj = {v: set(ns) for v, ns in adj.items()}
    qs = sorted(set(query_nodes))
    while True:
        changed = False
        # step (i): peel low-support edges all the way to a fixpoint
        while True:
            weak = [e for e, s in oracle_supports(adj).items() if s < k - 2]
            if not weak:
                break
            for u, v in weak:
                adj[u].discard(v)
                adj[v].discard(u)
            changed = True
        if any(q not in adj for q in qs):
            return adj, False, "no_kd_truss"
        dist = oracle_query_distance(adj, qs)
        if any(dist[q] > d for q in qs):  # disconnected included
            return adj, False, "no_kd_truss"
        far = [v for v, dv in dist.items() if dv > d]
        for v in far:
            for u in adj.pop(v):
                adj[u].discard(v)
            changed = True
        if not changed:
            return adj, True, None


def oracle_maximal(adj: dict[int, set[int]], query_nodes, k: int, d: int):
    """maximal_kd_truss from the whole d-ball: it rules on the query
    distances of the whole graph first, then runs the fixpoint on the d-ball.

    Returns (adjacency, valid, reason) mirroring oracle_maintain; the
    adjacency is None when the whole graph already rules the query out.
    """
    qs = sorted(set(query_nodes))
    dist = oracle_query_distance(adj, qs)
    if any(dist[q] > d for q in qs):
        return None, False, "no_kd_truss"
    ball = {v for v, dv in dist.items() if dv <= d}
    return oracle_maintain({v: adj[v] & ball for v in ball}, qs, k, d)


def oracle_is_kd_truss(adj: dict[int, set[int]], query_nodes, k: int, d: int) -> bool:
    if not adj:
        return False
    qs = set(query_nodes)
    if not qs <= set(adj):
        return False
    if any(s < k - 2 for s in oracle_supports(adj).values()):
        return False
    ap = oracle_all_pairs(adj)
    vs = sorted(adj)
    if any(ap[(vs[0], v)] == UNREACHABLE for v in vs):
        return False
    return all(max(ap[(v, q)] for q in qs) <= d for v in vs)


def oracle_score(g: Graph, vertices, query_attrs) -> Fraction:
    vs = set(vertices)
    if not vs:
        return Fraction(0)
    total = 0
    for w in query_attrs:
        c = sum(1 for v in vs if w in g.attrs[v])
        total += c * c
    return Fraction(total, len(vs))


def attribute_score(h: Subgraph, query_attrs) -> ScoreBreakdown:
    return score_of_vertices(h.parent, h.vertices, query_attrs)


def score_contribution(h: Subgraph, v: int, query_attrs) -> int:
    """Sum over v's query attributes of (2*c_w - 1).

    Satisfies f(H-{v}) * (|V(H)|-1) = f(H) * |V(H)| - contribution exactly.
    """
    if not h.has_vertex(v):
        raise KeyError(v)
    return contribution_from_breakdown(h.parent, v, attribute_score(h, query_attrs))


def local_marginal_gain(h: Subgraph, v: int, query_attrs, k: int) -> Fraction:
    """Approximate marginal gain of deleting v: f(H) - f(H - P_H(v))."""
    if not h.has_vertex(v):
        raise KeyError(v)
    batch = [v, *(u for u in h.adj[v] if len(h.adj[u]) == k - 1)]
    if len(batch) >= h.num_vertices():
        raise ValueError("removal would empty the graph")
    return (attribute_score(h, query_attrs).score
            - oracle_score(h.parent, set(h.vertices).difference(batch), query_attrs))


def is_majority(h: Subgraph, attr_set, query_attrs) -> bool:
    """Whether attr_set covers the majority attributes of h.

    True iff sum over w in W_q ∩ attr_set of theta(H, w) >= f(H, W_q) / (2|V(H)|).
    """
    return majority_from_breakdown(set(attr_set), attribute_score(h, query_attrs))


def brute_force_atc(g: Graph, q) -> SearchResult | None:
    """Exhaustive optimum over all vertex supersets of V_q (n <= 14).

    A candidate counts when its induced subgraph is itself a connected
    k-truss containing V_q within query distance d.  Score ties go to the
    smaller vertex set, then lexicographically smallest.
    """
    if g.n > 14:
        raise ValueError("brute force capped at 14 vertices")
    qs = sorted(q.query_nodes)
    rest = [v for v in range(g.n) if v not in q.query_nodes]
    best = None  # (-score, size, sorted tuple)
    best_sub = None
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            vs = tuple(sorted(qs + list(extra)))
            h = induced_subgraph(g, vs)
            if not is_kd_truss(h, qs, q.k, q.d):
                continue
            score = score_of_vertices(g, vs, q.query_attrs).score
            key = (-score, len(vs), vs)
            if best is None or key < best:
                best = key
                best_sub = h
    if best is None:
        return None
    _, qd = query_distance(best_sub, qs)
    return SearchResult(
        vertices=frozenset(best_sub.vertices),
        edges=tuple(best_sub.sorted_edges()),
        score=-best[0],
        k=q.k, d=q.d, query_dist=qd, diameter=diameter(best_sub),
        algo="brute", iterations=0, wall_time=0.0)


def oracle_peel(g: Graph, q, bulk: bool):
    """The two greedy loops as basic_search and bulk_search ran them before
    they shared one loop, on from-scratch maintenance and Fraction scores.

    Basic deletes the non-query vertex of least (Q(H) - Q(H - v), id), with
    Q = f * |V| = sum_w c_w^2; bulk deletes the first ceil(eps/(1+eps)|V|)
    by (f(H) - f(H - P_H(v)), id), P_H(v) being v and its neighbours of
    degree k-1.  Returns (vertices, sorted edges, score, iterations,
    candidate scores), or None when no (k,d)-truss holds the query nodes.
    """
    qs, attrs, k, d = q.query_nodes, q.query_attrs, q.k, q.d
    h, valid, _ = oracle_maintain(adj_of(g), qs, k, d)
    if not valid:
        return None
    candidates, scores = [h], [oracle_score(g, h, attrs)]
    iterations = 0
    while True:
        cands = [v for v in h if v not in qs]
        if not cands:
            break
        size, f = len(h), scores[-1]
        if bulk:
            def gain(v):
                drop = {v} | {u for u in h[v] if len(h[u]) == k - 1}
                return f - oracle_score(g, set(h) - drop, attrs)
            cands.sort(key=lambda v: (gain(v), v))
            batch = cands[:max(1, math.ceil(q.epsilon / (1 + q.epsilon) * size))]
        else:
            def contribution(v):
                return f * size - oracle_score(g, set(h) - {v}, attrs) * (size - 1)
            batch = [min(cands, key=lambda v: (contribution(v), v))]
        iterations += 1
        rest = {v: ns.difference(batch) for v, ns in h.items() if v not in batch}
        rest, valid, _ = oracle_maintain(rest, qs, k, d)
        if not valid:
            break
        h = rest
        candidates.append(h)
        scores.append(oracle_score(g, h, attrs))
        if bulk and len(h) < k:
            break
    best = max(range(len(scores)), key=lambda i: (scores[i], i))
    h = candidates[best]
    edges = tuple(sorted((u, v) for u in h for v in h[u] if u < v))
    return frozenset(h), edges, scores[best], iterations, scores


def brute_force_atc_alt(g: Graph, q):
    """Second, independently structured exhaustive optimum.

    Iterates bitmasks over non-query vertices in descending numeric order
    and applies the tie-break by explicit comparison instead of tuple keys.
    Returns (vertex tuple, score) or None.
    """
    qs = sorted(q.query_nodes)
    rest = sorted(v for v in range(g.n) if v not in q.query_nodes)
    best_vs = None
    best_score = None
    base = adj_of(g)
    for mask in range((1 << len(rest)) - 1, -1, -1):
        vs = tuple(sorted(qs + [rest[i] for i in range(len(rest))
                                if mask >> i & 1]))
        keep = set(vs)
        adj = {v: base[v] & keep for v in vs}
        if not oracle_is_kd_truss(adj, qs, q.k, q.d):
            continue
        score = oracle_score(g, vs, q.query_attrs)
        if best_score is None:
            best_vs, best_score = vs, score
            continue
        if score > best_score:
            better = True
        elif score < best_score:
            better = False
        elif len(vs) != len(best_vs):
            better = len(vs) < len(best_vs)
        else:
            better = vs < best_vs
        if better:
            best_vs, best_score = vs, score
    if best_vs is None:
        return None
    return best_vs, best_score


def oracle_steiner_opt(g: Graph, weight, terminals) -> Fraction:
    """Exhaustive optimal Steiner weight: min spanning-tree weight over all
    connected vertex supersets of the terminals (valid since an optimal
    Steiner tree is an MST of its own vertex set)."""
    terminals = sorted(set(terminals))
    rest = [v for v in range(g.n) if v not in terminals]
    best = None
    base = adj_of(g)
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            vs = set(terminals) | set(extra)
            edges = [(u, v) for u in vs for v in base[u] & vs if u < v]
            # Kruskal
            comp = {v: v for v in vs}

            def find(x):
                while comp[x] != x:
                    comp[x] = comp[comp[x]]
                    x = comp[x]
                return x

            total = Fraction(0)
            joined = 0
            for u, v in sorted(edges, key=lambda e: (weight(*e), e)):
                ru, rv = find(u), find(v)
                if ru != rv:
                    comp[ru] = rv
                    total += weight(u, v)
                    joined += 1
            if joined != len(vs) - 1:
                continue  # disconnected superset
            if best is None or total < best:
                best = total
    return best


def result_adj(res) -> dict[int, set[int]]:
    """Adjacency of a SearchResult's community (its own edge set, which may
    be sparser than the induced subgraph after peeling)."""
    adj = {v: set() for v in res.vertices}
    for u, v in res.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def rand_graph(rng, n, p, n_attrs=0, attr_p=0.4) -> Graph:
    """Random attributed graph on external ids 0..n-1."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return _with_attrs(rng, edges, n, n_attrs, attr_p)


def block_graph(rng, blocks, size, p_in, p_out, n_attrs=0, attr_p=0.4) -> Graph:
    """Dense random blocks in a sparse random background, on external ids
    0..blocks*size-1: vertices u and v share block u // size, and a pair is
    an edge with probability p_in inside a block and p_out across."""
    n = blocks * size
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < (p_in if u // size == v // size else p_out)]
    return _with_attrs(rng, edges, n, n_attrs, attr_p)


def _with_attrs(rng, edges, n, n_attrs, attr_p) -> Graph:
    """The graph on edges and ids 0..n-1, each vertex holding each of
    n_attrs labels with probability attr_p."""
    g = Graph.from_edges(edges, extra_vertices=range(n))
    if n_attrs:
        labels = [f"w{i}" for i in range(n_attrs)]
        table = {}
        for v in range(n):
            table[v] = [lab for lab in labels if rng.random() < attr_p]
        g.attach_attributes(table)
    return g


def oracle_majority(attr_set, size, cover) -> bool:
    """The majority test with Fractions: sum over attr_set of theta(H, w) >=
    f(H) / (2|V(H)|), where theta(H, w) = c_w / |V(H)|."""
    if size == 0:
        return False
    theta_sum = Fraction(sum(c for w, c in cover.items() if w in attr_set), size)
    score = Fraction(sum(c * c for c in cover.values()), size)
    return theta_sum >= score / (2 * size)


def oracle_expand(g: Graph, idx, seed_vertices, q, floor=None) -> set[int]:
    """Members after majority-guided expansion, rescanning the whole frontier
    with Fraction majority tests at every insertion.

    A vertex joins the frontier across an edge of index trussness >= floor.
    By default that is the search's rule: q.k, or every edge under
    k_d_auto; floor=0 expands unpruned.
    """
    if floor is None:
        floor = 0 if q.k_d_auto else q.k

    def strong(v):
        return {u for u in g.adj[v] if u not in members
                and idx.edge_truss[(min(u, v), max(u, v))] >= floor}

    members = set(seed_vertices)
    cover = {w: sum(1 for v in members if w in g.attrs[v]) for w in q.query_attrs}
    frontier = set().union(*map(strong, members))

    def key(v):
        cov = set(q.query_attrs) & set(g.attrs[v])
        return (not oracle_majority(cov, len(members), cover),
                -len(cov), -idx.vertex_truss[v], v)

    while len(members) < q.eta and frontier:
        v = min(frontier, key=key)
        frontier.discard(v)
        members.add(v)
        for w in g.attrs[v]:
            if w in cover:
                cover[w] += 1
        frontier.update(strong(v))
    return members


def oracle_truss_distance(idx, e, query_attrs, gamma) -> Fraction:
    """1 + gamma * trussness shortfall of e below tau_max in G and in the
    projection of each query attribute (2 where e is absent)."""
    shortfall = idx.tau_max - idx.edge_truss[e]
    for w in query_attrs:
        shortfall += idx.tau_max - idx.attr_edge_truss[w].get(e, 2)
    return 1 + gamma * shortfall


def oracle_steiner_seed(g: Graph, idx, q):
    """(vertices, edges) of the Steiner seed: a whole-graph Fraction
    Dijkstra from every terminal, Kruskal on the metric closure, the union of
    the closure paths, its spanning tree, then non-terminal leaves pruned.
    None when two terminals are disconnected."""
    terminals = sorted(q.query_nodes)
    if len(terminals) == 1:
        return frozenset(terminals), ()

    def weight(u, v):
        return oracle_truss_distance(idx, (min(u, v), max(u, v)), q.query_attrs, q.gamma)

    costs, parents = {}, {}
    for t in terminals:
        best = {t: (Fraction(0), 0, -1)}
        parent, done = {}, set()
        heap = [(Fraction(0), 0, -1, t)]
        while heap:
            cost, hops, par, v = heapq.heappop(heap)
            if v in done:
                continue
            done.add(v)
            parent[v] = par if par >= 0 else None
            for u in g.adj[v]:
                cand = (cost + weight(v, u), hops + 1, v)
                if u not in done and (u not in best or cand < best[u]):
                    best[u] = cand
                    heapq.heappush(heap, (*cand, u))
        costs[t] = {v: best[v][0] for v in done}
        parents[t] = parent
    closure = []
    for i, a in enumerate(terminals):
        for b in terminals[i + 1:]:
            if b not in costs[a]:
                return None
            closure.append((costs[a][b], a, b))
    union = set()
    joined = {t: {t} for t in terminals}
    picked = 0
    for _, a, b in sorted(closure):
        if joined[a] is joined[b]:
            continue
        merged = joined[a] | joined[b]
        for t in merged:
            joined[t] = merged
        picked += 1
        v = b
        while v != a:
            p = parents[a][v]
            union.add((min(p, v), max(p, v)))
            v = p
        if picked == len(terminals) - 1:
            break
    tree = {v: set() for e in union for v in e}
    linked = {v: {v} for v in tree}
    for u, v in sorted(union, key=lambda e: (weight(*e), e)):
        if linked[u] is not linked[v]:
            merged = linked[u] | linked[v]
            for x in merged:
                linked[x] = merged
            tree[u].add(v)
            tree[v].add(u)
    changed = True
    while changed:
        changed = False
        for v in sorted(tree):
            if v not in terminals and len(tree[v]) <= 1:
                for u in tree.pop(v):
                    tree[u].discard(v)
                changed = True
    edges = tuple(sorted({(min(u, v), max(u, v)) for u in tree for v in tree[u]}))
    return frozenset(tree) | frozenset(terminals), edges


def attribute_truss_distance(idx, e, query_attrs, gamma) -> Fraction:
    """The Steiner seed's edge weight through the index's lookups: 1 + gamma
    * total trussness shortfall of e across G and the projections."""
    u, v = e
    shortfall = idx.tau_max - idx.structural_edge(u, v)
    for w in sorted(query_attrs):
        tau = idx.attribute_edge(w, u, v)
        shortfall += idx.tau_max - (2 if tau == NOT_IN_PROJECTION else tau)
    return 1 + gamma * shortfall


def steiner_weight(idx, seed, q) -> Fraction:
    """Total attribute truss distance over a Steiner seed's edges."""
    return sum((attribute_truss_distance(idx, e, q.query_attrs, q.gamma)
                for e in seed.edges), Fraction(0))


def iteration_bound(n: int, k: int, epsilon: Fraction) -> int:
    """Upper bound on bulk iterations: ceil(log_{1+eps}(n/k))."""
    if n <= k:
        return 1
    return math.ceil(math.log(n / k) / math.log(1 + float(epsilon)))
