import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from atc.graph import Graph, Subgraph, UNREACHABLE, induced_subgraph
from atc.truss import (
    QUERY_NODE_PRUNED,
    QUERY_NODES_DISCONNECTED,
    compute_supports,
    diameter,
    is_kd_truss,
    maintain_kd_truss,
    max_trussness_connecting,
    maximal_kd_truss,
    replay_events,
    truss_decompose,
)

from oracles import (
    adj_of,
    oracle_all_pairs,
    oracle_is_kd_truss,
    oracle_maintain,
    oracle_maximal_reason,
    oracle_supports,
    oracle_truss,
    rand_graph,
)


def clique(n):
    return Graph.from_edges(itertools.combinations(range(n), 2))


class TestSupports:
    def test_triangle(self):
        g = clique(3)
        assert set(compute_supports(Subgraph.full(g)).values()) == {1}

    def test_three_triangle_edge(self):
        # edge (1,2) shares triangles with 0, 3 and 4: support 3
        g = Graph.from_edges(list(itertools.combinations([0, 1, 2, 3], 2))
                             + [(4, 1), (4, 2)])
        sup = compute_supports(Subgraph.full(g))
        assert sup[(g.internal(1), g.internal(2))] == 3

    @given(st.integers(0, 2**30))
    @settings(max_examples=30, deadline=None)
    def test_matches_triple_oracle(self, seed):
        g = rand_graph(random.Random(seed), 18, 0.25)
        assert compute_supports(Subgraph.full(g)) == oracle_supports(adj_of(g))


class TestTrussDecompose:
    def test_clique(self):
        for n in (3, 4, 5, 6):
            et, vt = truss_decompose(Subgraph.full(clique(n)))
            assert set(et.values()) == {n}
            assert set(vt.values()) == {n}

    def test_nested_truss_example(self):
        # K4 {q1,v1,v2,v3} plus v4 adjacent to v1,v2: tau(q1,v1) = 4, while
        # the triangle q1-v1-v2 taken alone is only a 3-truss.
        g = Graph.from_edges(list(itertools.combinations([0, 1, 2, 3], 2))
                             + [(4, 1), (4, 2)])
        et, vt = truss_decompose(Subgraph.full(g))
        assert et[tuple(sorted((g.internal(0), g.internal(1))))] == 4
        assert vt[g.internal(0)] == 4
        tri = induced_subgraph(g, [g.internal(0), g.internal(1), g.internal(2)])
        tri_et, _ = truss_decompose(tri)
        assert set(tri_et.values()) == {3}

    def test_isolated_vertex_trussness_zero(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2)], extra_vertices=[9])
        _, vt = truss_decompose(Subgraph.full(g))
        assert vt[g.internal(9)] == 0

    @given(st.integers(0, 2**30))
    @settings(max_examples=40, deadline=None)
    def test_matches_pruning_oracle(self, seed):
        rng = random.Random(seed)
        # dense draws reach many trussness levels
        g = rand_graph(rng, rng.randint(3, 18), rng.uniform(0.1, 0.9))
        et, _ = truss_decompose(Subgraph.full(g))
        assert et == oracle_truss(adj_of(g))

    @given(st.integers(0, 2**30))
    @settings(max_examples=20, deadline=None)
    def test_hierarchy(self, seed):
        g = rand_graph(random.Random(seed), 14, 0.35)
        et, _ = truss_decompose(Subgraph.full(g))
        if not et:
            return
        adj = adj_of(g)
        from oracles import _prune_at
        prev = None
        for k in range(2, max(et.values()) + 1):
            cur = _prune_at(adj, k)
            if prev is not None:
                assert cur <= prev
            prev = cur

    @given(st.integers(0, 2**30))
    @settings(max_examples=20, deadline=None)
    def test_min_degree_in_k_truss(self, seed):
        g = rand_graph(random.Random(seed), 14, 0.35)
        et, _ = truss_decompose(Subgraph.full(g))
        for k in set(et.values()):
            deg = {}
            for (u, v), t in et.items():
                if t >= k:
                    deg[u] = deg.get(u, 0) + 1
                    deg[v] = deg.get(v, 0) + 1
            assert all(x >= k - 1 for x in deg.values())


class TestMaintain:
    def test_fixpoint_unchanged(self):
        g = clique(5)
        h = Subgraph.full(g)
        kd = maintain_kd_truss(h, [0], 4, 1)
        assert kd.valid
        assert set(kd.subgraph.edges()) == set(Subgraph.full(g).edges())

    def test_tree_invalid_for_k3(self):
        g = Graph.from_edges([(0, 1), (1, 2), (1, 3)])
        kd = maintain_kd_truss(Subgraph.full(g), [g.internal(0)], 3, 5)
        # every edge peels, leaving the singleton query vertex
        assert kd.valid and kd.subgraph.num_vertices() == 1

    def test_query_node_pruned_reason(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        kd = maintain_kd_truss(Subgraph.full(g), [g.internal(0), g.internal(3)], 3, 1)
        assert not kd.valid
        assert kd.reason in (QUERY_NODE_PRUNED, QUERY_NODES_DISCONNECTED)

    def test_disconnected_reason(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        kd = maintain_kd_truss(Subgraph.full(g), [g.internal(0), g.internal(2)], 2, 5)
        assert not kd.valid and kd.reason == QUERY_NODES_DISCONNECTED

    @given(st.integers(0, 2**30))
    @settings(max_examples=40, deadline=None)
    def test_matches_naive_fixpoint_oracle(self, seed):
        rng = random.Random(seed)
        g = rand_graph(rng, rng.randint(3, 16), rng.uniform(0.15, 0.5))
        qs = rng.sample(range(g.n), rng.randint(1, 2))
        k = rng.randint(2, 5)
        d = rng.randint(1, 4)
        kd = maintain_kd_truss(Subgraph.full(g), qs, k, d)
        oadj, ovalid, oreason = oracle_maintain(adj_of(g), qs, k, d)
        assert kd.valid == ovalid
        if kd.valid:
            mine = {(u, v) for u, v in kd.subgraph.edges()}
            theirs = {(u, v) for u in oadj for v in oadj[u] if u < v}
            assert mine == theirs
            assert set(kd.subgraph.vertices) == set(oadj)
        else:
            assert kd.reason == oreason
        # the d-ball cut changes the reason at most, never the truss
        mk = maximal_kd_truss(g, qs, k, d)
        assert mk.valid == ovalid
        if mk.valid:
            assert set(mk.subgraph.edges()) == mine
            assert set(mk.subgraph.vertices) == set(oadj)
        else:
            assert mk.reason == oracle_maximal_reason(adj_of(g), qs, k, d)

    @given(st.integers(0, 2**30))
    @settings(max_examples=25, deadline=None)
    def test_events_replay_to_result(self, seed):
        rng = random.Random(seed)
        g = rand_graph(rng, 12, 0.3)
        base = Subgraph.full(g)
        events = []
        kd = maintain_kd_truss(base.copy(), [0], 3, 2, events=events)
        if kd.valid:
            replayed = replay_events(base, events)
            assert set(replayed.edges()) == set(kd.subgraph.edges())
            assert set(replayed.vertices) == set(kd.subgraph.vertices)

    def test_result_passes_is_kd_truss(self):
        rng = random.Random(99)
        for _ in range(30):
            g = rand_graph(rng, 14, 0.35)
            kd = maintain_kd_truss(Subgraph.full(g), [0], 3, 3)
            if kd.valid:
                assert is_kd_truss(kd.subgraph, [0], 3, 3)


class TestMaximalKdTruss:
    def test_k2_large_d_gives_component(self):
        g = Graph.from_edges([(0, 1), (1, 2), (3, 4)])
        kd = maximal_kd_truss(g, [g.internal(0)], 2, 10)
        assert kd.valid
        assert set(kd.subgraph.vertices) == {g.internal(i) for i in (0, 1, 2)}

    @given(st.integers(0, 2**30))
    @settings(max_examples=25, deadline=None)
    def test_equals_exhaustive_maximal(self, seed):
        """The maximal (k,d)-truss contains every feasible candidate set."""
        rng = random.Random(seed)
        g = rand_graph(rng, rng.randint(3, 9), 0.45)
        q = rng.randrange(g.n)
        k, d = rng.randint(2, 4), rng.randint(1, 3)
        kd = maximal_kd_truss(g, [q], k, d)
        base = adj_of(g)
        feasible_sets = []
        others = [v for v in range(g.n) if v != q]
        for r in range(len(others) + 1):
            for extra in itertools.combinations(others, r):
                vs = {q, *extra}
                adj = {v: base[v] & vs for v in vs}
                if oracle_is_kd_truss(adj, [q], k, d):
                    feasible_sets.append(vs)
        if not feasible_sets:
            # only the singleton could be feasible, and it always is for d>=0
            assert not kd.valid
            return
        assert kd.valid
        union = set().union(*feasible_sets)
        assert union <= set(kd.subgraph.vertices)
        assert oracle_is_kd_truss(adj_of(kd.subgraph), [q], k, d)


class TestMaxTrussnessConnecting:
    def test_clique(self):
        g = clique(5)
        k, sub = max_trussness_connecting(g, [0, 3])
        assert k == 5 and set(sub.vertices) == set(range(5))

    def test_single_node_vertex_trussness(self):
        g = Graph.from_edges(list(itertools.combinations([0, 1, 2, 3], 2))
                             + [(3, 4)])
        k, _ = max_trussness_connecting(g, [g.internal(0)])
        assert k == 4
        k2, _ = max_trussness_connecting(g, [g.internal(4)])
        assert k2 == 2

    def test_disconnected_error(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            max_trussness_connecting(g, [g.internal(0), g.internal(2)])

    @given(st.integers(0, 2**30))
    @settings(max_examples=30, deadline=None)
    def test_descending_k_oracle(self, seed):
        rng = random.Random(seed)
        g = rand_graph(rng, rng.randint(4, 14), 0.4)
        vs = sorted(adj_of(g))
        ap = oracle_all_pairs(adj_of(g))
        pool = [v for v in vs if g.adj[v]]
        if len(pool) < 2:
            return
        a, b = rng.sample(pool, 2)
        if ap[(a, b)] == UNREACHABLE:
            with pytest.raises(ValueError):
                max_trussness_connecting(g, [a, b])
            return
        k, sub = max_trussness_connecting(g, [a, b])
        tau = oracle_truss(adj_of(g))
        best = 2
        for kk in range(max(tau.values()), 1, -1):
            adj = {}
            for (u, v), t in tau.items():
                if t >= kk:
                    adj.setdefault(u, set()).add(v)
                    adj.setdefault(v, set()).add(u)
            if a in adj and b in adj:
                sap = oracle_all_pairs(adj)
                if sap[(a, b)] != UNREACHABLE:
                    best = kk
                    break
        assert k == best
        # returned subgraph is a connected k-truss containing both
        assert oracle_is_kd_truss(adj_of(sub), [a, b], k, 10**6)


class TestDiameter:
    def test_path(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        assert diameter(Subgraph.full(g)) == 3

    def test_clique(self):
        assert diameter(Subgraph.full(clique(5))) == 1

    def test_disconnected(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        assert diameter(Subgraph.full(g)) == UNREACHABLE

    @given(st.integers(0, 2**30))
    @settings(max_examples=20, deadline=None)
    def test_matches_all_pairs(self, seed):
        g = rand_graph(random.Random(seed), 15, 0.3)
        ap = oracle_all_pairs(adj_of(g))
        expect = max(ap.values()) if g.n > 1 else 0
        assert diameter(Subgraph.full(g)) == expect
