"""Independent brute-force oracles used to check the library.

Everything here is deliberately naive (full recomputation, exhaustive
enumeration) and shares no code with the package under test beyond the
Graph container.
"""
from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction

from atc.graph import Graph, UNREACHABLE


def adj_of(h) -> dict[int, set[int]]:
    """Plain dict-of-sets adjacency from a Graph or Subgraph."""
    if isinstance(h, Graph):
        return {v: set(h.adj[v]) for v in range(h.n)}
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

    Returns (adjacency, valid, reason) mirroring maintain_kd_truss.
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
        for q in qs:
            if q not in adj:
                return adj, False, "query_node_pruned"
        dist = oracle_query_distance(adj, qs)
        if any(dist[q] > d for q in qs):
            if any(dist[q] == UNREACHABLE for q in qs):
                return adj, False, "query_nodes_disconnected"
            return adj, False, "query_node_pruned"
        far = [v for v, dv in dist.items() if dv > d]
        for v in far:
            for u in adj.pop(v):
                adj[u].discard(v)
            changed = True
        if not changed:
            return adj, True, None


def oracle_maximal_reason(adj: dict[int, set[int]], query_nodes, k: int, d: int):
    """Why maximal_kd_truss finds nothing, or None: it rules on the query
    distances of the whole graph first, then runs the fixpoint on the d-ball,
    so a query pair too far apart is pruned even if peeling would cut it."""
    qs = sorted(set(query_nodes))
    dist = oracle_query_distance(adj, qs)
    if any(dist[q] == UNREACHABLE for q in qs):
        return "query_nodes_disconnected"
    if any(dist[q] > d for q in qs):
        return "query_node_pruned"
    ball = {v for v, dv in dist.items() if dv <= d}
    return oracle_maintain({v: adj[v] & ball for v in ball}, qs, k, d)[2]


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


def oracle_expand(g: Graph, idx, seed_vertices, q) -> set[int]:
    """Members after majority-guided expansion, rescanning the whole frontier
    with Fraction majority tests at every insertion."""
    members = set(seed_vertices)
    cover = {w: sum(1 for v in members if w in g.attrs[v]) for w in q.query_attrs}
    frontier = {u for v in members for u in g.adj[v] if u not in members}

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
        frontier.update(u for u in g.adj[v] if u not in members)
    return members


def oracle_truss_distance(idx, e, query_attrs, gamma) -> Fraction:
    """1 + gamma * trussness shortfall of e below tau_max in G and in the
    projection of each query attribute (2 where e is absent)."""
    shortfall = idx.tau_max - idx.edge_truss[e]
    for w in query_attrs:
        shortfall += idx.tau_max - idx.attr_edge_truss[w].get(e, 2)
    return 1 + gamma * shortfall


def oracle_steiner_seed(g: Graph, idx, q):
    """(vertices, edges, weight) of the Steiner seed: a whole-graph Fraction
    Dijkstra from every terminal, Kruskal on the metric closure, the union of
    the closure paths, its spanning tree, then non-terminal leaves pruned.
    None when two terminals are disconnected."""
    terminals = sorted(q.query_nodes)
    if len(terminals) == 1:
        return frozenset(terminals), (), Fraction(0)

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
    total = sum((weight(u, v) for u, v in edges), Fraction(0))
    return frozenset(tree) | frozenset(terminals), edges, total
