import importlib
import itertools
import pkgutil
import random

import pytest
from hypothesis import given, settings, strategies as st

import atc
from atc import graph, truss
from atc.graph import (Graph, QuerySpec, Subgraph, UNREACHABLE, induced_subgraph,
                       query_distance)
from atc.greedy import (CandidateTrace, NoFeasibleCommunity, bulk_search,
                        replay_candidate)
from atc.harness import gen_queries, gen_synth, plant_attributes
from atc.index import build_index
from atc.truss import (
    NO_KD_TRUSS,
    compute_supports,
    diameter,
    is_kd_truss,
    maintain_kd_truss,
    max_trussness_connecting,
    maximal_kd_truss,
    truss_decompose,
)

from oracles import (
    adj_of,
    block_graph,
    oracle_all_pairs,
    oracle_is_kd_truss,
    oracle_maintain,
    oracle_max_trussness_connecting,
    oracle_maximal,
    oracle_supports,
    oracle_truss,
    rand_graph,
)


def clique(n):
    return Graph.from_edges(itertools.combinations(range(n), 2))


def failure_reason(g, qs, k, d, kd):
    """The reason a search started from the invalid result kd fails with."""
    with pytest.raises(NoFeasibleCommunity) as exc:
        bulk_search(g, QuerySpec(frozenset(qs), k=k, d=d), kd)
    return exc.value.reason


class TestSupports:
    def test_triangle(self):
        g = clique(3)
        assert set(compute_supports(g.copy()).values()) == {1}

    def test_three_triangle_edge(self):
        # edge (1,2) shares triangles with 0, 3 and 4: support 3
        g = Graph.from_edges(list(itertools.combinations([0, 1, 2, 3], 2))
                             + [(4, 1), (4, 2)])
        sup = compute_supports(g.copy())
        assert sup[(g.internal(1), g.internal(2))] == 3

    @given(st.integers(0, 2**30))
    @settings(max_examples=30, deadline=None)
    def test_matches_triple_oracle(self, seed):
        g = rand_graph(random.Random(seed), 18, 0.25)
        assert compute_supports(g.copy()) == oracle_supports(adj_of(g))


@given(st.integers(0, 2**30))
@settings(max_examples=40, deadline=None)
def test_graph_and_subgraph_views_agree(seed):
    """compute_supports and is_kd_truss read a Graph in place and give what
    they give on its mutable copy."""
    rng = random.Random(seed)
    n = rng.randint(1, 14)
    g = rand_graph(rng, n, rng.uniform(0.2, 0.9))
    assert compute_supports(g) == compute_supports(g.copy())
    qs = rng.sample(range(n), rng.randint(1, min(3, n)))
    k, d = rng.randint(2, 5), rng.randint(0, 4)
    assert is_kd_truss(g, qs, k, d) == is_kd_truss(g.copy(), qs, k, d)


class TestTrussDecompose:
    def test_clique(self):
        for n in (3, 4, 5, 6):
            g = clique(n)
            et = truss_decompose(g)
            assert set(et.values()) == {n}
            assert {build_index(g).structural_vertex(v) for v in range(n)} == {n}

    def test_nested_truss_example(self):
        # K4 {q1,v1,v2,v3} plus v4 adjacent to v1,v2: tau(q1,v1) = 4, while
        # the triangle q1-v1-v2 taken alone is only a 3-truss.
        g = Graph.from_edges(list(itertools.combinations([0, 1, 2, 3], 2))
                             + [(4, 1), (4, 2)])
        et = truss_decompose(g)
        assert et[tuple(sorted((g.internal(0), g.internal(1))))] == 4
        assert build_index(g).structural_vertex(g.internal(0)) == 4
        tri = induced_subgraph(g, [g.internal(0), g.internal(1), g.internal(2)])
        tri_et = truss_decompose(tri)
        assert set(tri_et.values()) == {3}

    def test_isolated_vertex_trussness_zero(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2)], extra_vertices=[9])
        assert build_index(g).structural_vertex(g.internal(9)) == 0

    @given(st.integers(0, 2**30))
    @settings(max_examples=40, deadline=None)
    def test_matches_pruning_oracle(self, seed):
        rng = random.Random(seed)
        # dense draws reach many trussness levels
        g = rand_graph(rng, rng.randint(3, 18), rng.uniform(0.1, 0.9))
        et = truss_decompose(g)
        assert et == oracle_truss(adj_of(g))

    @given(st.integers(0, 2**30))
    @settings(max_examples=20, deadline=None)
    def test_hierarchy(self, seed):
        g = rand_graph(random.Random(seed), 14, 0.35)
        et = truss_decompose(g)
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
        et = truss_decompose(g)
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
        h = g.copy()
        kd = maintain_kd_truss(h, [0], 4, 1)
        assert kd.valid
        assert set(kd.subgraph.edges()) == set(g.edges())

    def test_tree_invalid_for_k3(self):
        g = Graph.from_edges([(0, 1), (1, 2), (1, 3)])
        kd = maintain_kd_truss(g.copy(), [g.internal(0)], 3, 5)
        # every edge peels, leaving the singleton query vertex
        assert kd.valid and kd.subgraph.num_vertices() == 1

    def test_query_node_pruned_reason(self):
        """Peeling cuts query node 3 off: invalid, and nothing is returned."""
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        kd = maintain_kd_truss(g.copy(), [g.internal(0), g.internal(3)], 3, 1)
        assert (kd.valid, kd.subgraph, kd.sup) == (False, None, None)

    def test_disconnected_reason(self):
        """Query nodes in different components fail as a pruned one does."""
        g = Graph.from_edges([(0, 1), (2, 3)])
        kd = maintain_kd_truss(g.copy(), [g.internal(0), g.internal(2)], 2, 5)
        assert (kd.valid, kd.subgraph, kd.sup) == (False, None, None)

    @pytest.mark.parametrize("k", [3, 4])
    def test_stranded_component_dropped(self, k):
        """Peeling the bridge strands the non-query K4 {4..7}: its vertices
        go as ("v", v) events in sorted order, none of its edges is peeled
        although each drop lowers its supports, and `sup` equals a recount."""
        g = Graph.from_edges(list(itertools.combinations(range(4), 2)) + [(3, 4)]
                             + list(itertools.combinations(range(4, 8), 2)))
        events = []
        kd = maintain_kd_truss(g.copy(), [0], k, 3, events=events)
        assert kd.valid and sorted(kd.subgraph.vertices) == [0, 1, 2, 3]
        assert events == [("e", 3, 4), ("v", 4), ("v", 5), ("v", 6), ("v", 7)]
        assert kd.sup == oracle_supports(adj_of(kd.subgraph))

    @given(st.integers(0, 2**30))
    @settings(max_examples=40, deadline=None)
    def test_matches_naive_fixpoint_oracle(self, seed):
        rng = random.Random(seed)
        g = rand_graph(rng, rng.randint(3, 16), rng.uniform(0.15, 0.5))
        qs = rng.sample(range(g.n), rng.randint(1, 2))
        k = rng.randint(2, 5)
        d = rng.randint(1, 4)
        kd = maintain_kd_truss(g.copy(), qs, k, d)
        oadj, ovalid, oreason = oracle_maintain(adj_of(g), qs, k, d)
        assert kd.valid == ovalid
        if kd.valid:
            mine = {(u, v) for u, v in kd.subgraph.edges()}
            theirs = {(u, v) for u in oadj for v in oadj[u] if u < v}
            assert mine == theirs
            assert set(kd.subgraph.vertices) == set(oadj)
        else:
            assert failure_reason(g, qs, k, d, kd) == oreason == NO_KD_TRUSS
        # the d-ball cut changes neither the truss nor whether there is one
        mk = maximal_kd_truss(g, qs, k, d)
        _, mvalid, mreason = oracle_maximal(adj_of(g), qs, k, d)
        assert mk.valid == mvalid == ovalid
        if mk.valid:
            assert set(mk.subgraph.edges()) == mine
            assert set(mk.subgraph.vertices) == set(oadj)
        else:
            assert failure_reason(g, qs, k, d, mk) == mreason == NO_KD_TRUSS

    @given(st.integers(0, 2**30))
    @settings(max_examples=80, deadline=None)
    def test_kept_supports_match_recount(self, seed):
        """Round after round of dropping vertices through maintain_kd_truss
        with the caller's support map, the map equals a recount and the
        truss equals a from-scratch maintenance of the same graph."""
        rng = random.Random(seed)
        g = rand_graph(rng, rng.randint(4, 30), rng.uniform(0.2, 0.7))
        qs = rng.sample(range(g.n), rng.randint(1, 2))
        k, d = rng.randint(2, 5), rng.randint(1, 4)
        kd = maximal_kd_truss(g, qs, k, d)
        while kd.valid:
            h = kd.subgraph
            assert kd.sup == compute_supports(h)
            rest = sorted(set(h.vertices) - set(qs))
            if not rest:
                break
            drop = rng.sample(rest, rng.randint(1, min(3, len(rest))))
            fresh = h.copy()
            for v in drop:
                fresh.remove_vertex(v)
            expect = maintain_kd_truss(fresh, qs, k, d)
            kd = maintain_kd_truss(h, qs, k, d, sup=kd.sup, drop=drop)
            assert kd.valid == expect.valid
            if kd.valid:
                assert h.adj == fresh.adj and h.m == fresh.m

    @given(st.integers(0, 2**30))
    @settings(max_examples=25, deadline=None)
    def test_events_replay_to_result(self, seed):
        rng = random.Random(seed)
        g = rand_graph(rng, 12, 0.3)
        base = g
        events = []
        kd = maintain_kd_truss(base.copy(), [0], 3, 2, events=events)
        if kd.valid:
            replayed = replay_candidate(CandidateTrace(base, [0, 0], [events], 0), 1)
            assert set(replayed.edges()) == set(kd.subgraph.edges())
            assert set(replayed.vertices) == set(kd.subgraph.vertices)

    def test_result_passes_is_kd_truss(self):
        rng = random.Random(99)
        for _ in range(30):
            g = rand_graph(rng, 14, 0.35)
            kd = maintain_kd_truss(g.copy(), [0], 3, 3)
            if kd.valid:
                assert is_kd_truss(kd.subgraph, [0], 3, 3)

    def test_empty_subgraph_is_not_kd_truss(self):
        # agrees with oracle_is_kd_truss: an empty graph is not connected
        g = Graph.from_edges([(0, 1)])
        empty = induced_subgraph(g, [])
        assert not is_kd_truss(empty, [], 2, 0)
        assert not oracle_is_kd_truss({}, [], 2, 0)


class TestIsKdTruss:
    def test_disjoint_triangles(self):
        # every edge has support 1 and no query distance is above d, but the
        # second triangle is cut off from the query node
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        q = g.internal(0)
        assert not is_kd_truss(g.copy(), [q], 3, 10**6)
        assert is_kd_truss(induced_subgraph(g, [q, g.internal(1), g.internal(2)]),
                           [q], 3, 10**6)

    @given(st.integers(0, 2**30))
    @settings(max_examples=80, deadline=None)
    def test_matches_oracle(self, seed):
        """Random induced subgraphs, which may be disconnected or hold
        isolated vertices, with 1-3 query nodes."""
        rng = random.Random(seed)
        n = rng.randint(1, 12)
        g = rand_graph(rng, n, rng.uniform(0.3, 0.9))
        h = induced_subgraph(g, rng.sample(range(n), rng.randint(1, n)))
        qs = rng.sample(sorted(h.vertices), rng.randint(1, min(3, h.num_vertices())))
        k, d = rng.randint(2, 5), rng.randint(0, 4)
        assert is_kd_truss(h, qs, k, d) == oracle_is_kd_truss(adj_of(h), qs, k, d)


class TestMaximalKdTruss:
    def test_k2_large_d_gives_component(self):
        g = Graph.from_edges([(0, 1), (1, 2), (3, 4)])
        kd = maximal_kd_truss(g, [g.internal(0)], 2, 10)
        assert kd.valid
        assert set(kd.subgraph.vertices) == {g.internal(i) for i in (0, 1, 2)}

    @given(st.integers(0, 2**30))
    @settings(max_examples=300, deadline=None)
    def test_matches_whole_ball_oracle(self, seed):
        """The walk leaves part of the d-ball out, and the result, whether
        there is one, and its supports are still the whole ball's.

        Each graph has one or two dense blocks; a chain of cliques, each
        sharing a vertex with the next, whose ends a plain edge may join, so
        a triangle-supported path between them can leave the d-ball; a
        sparse background; and isolated vertices.  The query nodes are the
        chain's ends, or one node per block, or any one to three nodes."""
        rng = random.Random(seed)
        k, d = rng.randint(2, 6), rng.randint(0, 5)
        n = rng.randint(6, 20)
        blocks = [rng.sample(range(n), rng.randint(3, min(n, 8)))
                  for _ in range(rng.randint(1, 2))]
        edges = set()
        for block in blocks:
            p = rng.uniform(0.6, 1.0)
            edges.update(e for e in itertools.combinations(sorted(block), 2)
                         if rng.random() < p)
        ends = [n]
        for _ in range(rng.randint(2, 5)):
            link = range(ends[-1], ends[-1] + max(k, 3))
            edges.update(itertools.combinations(link, 2))
            ends.append(link[-1])
        if rng.random() < 0.7:
            edges.add((ends[0], ends[-1]))
        n = ends[-1] + 1
        p = rng.uniform(0, 0.1)
        edges.update(e for e in itertools.combinations(range(n), 2)
                     if rng.random() < p)
        g = Graph.from_edges(sorted(edges),
                             extra_vertices=range(n + rng.randint(0, 3)))
        extra = rng.sample(range(g.n), rng.randint(0, 1))
        qs = rng.choice(([ends[0], ends[-1], *extra],
                         [*(rng.choice(b) for b in blocks), *extra],
                         rng.sample(range(g.n), rng.randint(1, 3))))
        qs = {g.internal(x) for x in qs}
        kd = maximal_kd_truss(g, qs, k, d)
        oadj, ovalid, oreason = oracle_maximal(adj_of(g), qs, k, d)
        assert kd.valid == ovalid
        if not kd.valid:
            assert failure_reason(g, qs, k, d, kd) == oreason == NO_KD_TRUSS
        else:
            assert kd.subgraph.adj == oadj
            assert kd.subgraph.m == sum(map(len, oadj.values())) // 2
            assert kd.sup == compute_supports(kd.subgraph)

    @given(st.integers(0, 2**30))
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle_on_random_graphs(self, seed):
        """On random and block graphs, failing queries included, validity,
        vertices, edges and supports are the whole ball's, and a failure's
        reason is the one reason."""
        rng = random.Random(seed)
        k, d = rng.randint(2, 6), rng.randint(0, 5)
        if rng.random() < 0.5:
            g = rand_graph(rng, rng.randint(1, 24), rng.uniform(0.1, 0.8))
        else:
            g = block_graph(rng, rng.randint(1, 4), rng.randint(3, 8),
                            rng.uniform(0.5, 1.0), rng.uniform(0, 0.15))
        qs = rng.sample(range(g.n), rng.randint(1, min(3, g.n)))
        kd = maximal_kd_truss(g, qs, k, d)
        oadj, ovalid, oreason = oracle_maximal(adj_of(g), qs, k, d)
        assert kd.valid == ovalid
        if not kd.valid:
            assert failure_reason(g, qs, k, d, kd) == oreason == NO_KD_TRUSS
        else:
            oedges = {(u, v) for u, ns in oadj.items() for v in ns if u < v}
            assert set(kd.subgraph.vertices) == set(oadj)
            assert set(kd.subgraph.edges()) == oedges
            assert kd.sup == compute_supports(Subgraph(g, oadj, len(oedges)))

    def test_feasible_query_sweeps_no_whole_graph(self, monkeypatch):
        """A feasible query computes distances only inside what the walk in
        G reaches: no source_distances call, through any module's binding
        of it, covers the whole graph."""
        g, gt = gen_synth(n=300, communities=8, seed=3)
        plant_attributes(g, gt, rng_seed=3)
        sizes = []
        original = graph.source_distances

        def counted(adj, sources):
            sizes.append(len(adj))
            return original(adj, sources)

        for info in pkgutil.iter_modules(atc.__path__):
            module = importlib.import_module(f"atc.{info.name}")
            if getattr(module, "source_distances", None) is original:
                monkeypatch.setattr(module, "source_distances", counted)
        for gq in gen_queries(g, gt, 10, rng_seed=3):
            q = QuerySpec(frozenset(map(g.internal, gq.nodes)),
                          frozenset(map(g.attr_id, gq.attrs)))
            sizes.clear()
            assert maximal_kd_truss(g, q.query_nodes, q.k, q.d).valid
            bulk_search(g, q)
            assert sizes and max(sizes) < g.n

    def test_peels_only_the_query_neighbourhood(self, monkeypatch):
        """On planted communities at d = 4 the d-ball is nearly the whole
        graph, yet maintenance starts from a subgraph about the size of the
        query's community."""
        g, gt = gen_synth(n=1000, communities=20, seed=3)
        received = []
        maintain = truss.maintain_kd_truss

        def record(h, *args, **kwargs):
            received.append(h.num_vertices())
            return maintain(h, *args, **kwargs)

        monkeypatch.setattr(truss, "maintain_kd_truss", record)
        for gq in gen_queries(g, gt, 20, rng_seed=3):
            qs = [g.internal(x) for x in gq.nodes]
            ball = sum(dv <= 4 for dv in query_distance(g, qs)[0].values())
            received.clear()
            assert maximal_kd_truss(g, qs, 4, 4).valid
            assert ball >= 990 and received and max(received) <= 50

    def test_walk_stops_at_a_bridge(self, monkeypatch):
        """Vertex 10 of another clique closes two triangles with the query's
        clique, one of them through vertex 20 outside both.  Neither triangle
        has both other edges in two triangles, so the first peel removes the
        bridge and the walk does not cross it."""
        g = Graph.from_edges([*itertools.combinations(range(6), 2),
                              *itertools.combinations(range(10, 18), 2),
                              (1, 10), (2, 10), (1, 20), (10, 20)])
        received = []
        maintain = truss.maintain_kd_truss

        def record(h, *args, **kwargs):
            received.append(set(h.vertices))
            return maintain(h, *args, **kwargs)

        monkeypatch.setattr(truss, "maintain_kd_truss", record)
        qs = [g.internal(0)]
        kd = maximal_kd_truss(g, qs, 4, 4)
        clique_a = {g.internal(x) for x in range(6)}
        assert received == [clique_a]
        assert kd.valid and kd.subgraph.adj == oracle_maximal(adj_of(g), qs, 4, 4)[0]

    def test_walk_in_g_stops_d_edges_out(self, monkeypatch):
        """Along a strip of triangles every edge passes both tests at k = 3,
        yet at d = 1 maintenance starts from the query node's first level."""
        g = Graph.from_edges([(i, i + j) for i in range(40) for j in (1, 2)])
        received = []
        maintain = truss.maintain_kd_truss

        def record(h, *args, **kwargs):
            received.append(set(h.vertices))
            return maintain(h, *args, **kwargs)

        monkeypatch.setattr(truss, "maintain_kd_truss", record)
        qs = [g.internal(0)]
        kd = maximal_kd_truss(g, qs, 3, 1)
        assert received == [{g.internal(x) for x in range(3)}]
        assert kd.valid and kd.subgraph.adj == oracle_maximal(adj_of(g), qs, 3, 1)[0]

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
        k, sub, _ = max_trussness_connecting(g, [0, 3],
                                             truss_decompose(g))
        assert k == 5 and set(sub.vertices) == set(range(5))

    def test_single_node_vertex_trussness(self):
        g = Graph.from_edges(list(itertools.combinations([0, 1, 2, 3], 2))
                             + [(3, 4)])
        k, _, _ = max_trussness_connecting(g, [g.internal(0)],
                                           truss_decompose(g))
        assert k == 4
        k2, _, _ = max_trussness_connecting(g, [g.internal(4)],
                                            truss_decompose(g))
        assert k2 == 2

    def test_disconnected_error(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            max_trussness_connecting(g, [g.internal(0), g.internal(2)],
                                     truss_decompose(g))

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
                max_trussness_connecting(g, [a, b],
                                         truss_decompose(g))
            return
        k, sub, _ = max_trussness_connecting(g, [a, b],
                                             truss_decompose(g))
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

    @given(st.integers(0, 2**30))
    @settings(max_examples=100, deadline=None)
    def test_any_trussness_bound_matches_oracle(self, seed):
        """Over an induced subgraph H of G, any table bounding G's trussness
        from above gives what decomposing H from scratch gives."""
        rng = random.Random(seed)
        g = rand_graph(rng, rng.randint(1, 12), rng.uniform(0.1, 0.9))
        full = adj_of(g)
        bound = {e: t + rng.choice((0, 0, 0, 1, 2, 5))
                 for e, t in oracle_truss(full).items()}
        members = {rng.randrange(g.n)}
        size = rng.randint(1, g.n)
        if rng.random() < 0.75:  # connected: grown from one vertex
            grow = sorted(members)
            while grow and len(members) < size:
                v = grow.pop(rng.randrange(len(grow)))
                for u in sorted(full[v] - members)[:size - len(members)]:
                    members.add(u)
                    grow.append(u)
        else:
            members.update(rng.sample(range(g.n), size - 1))
        h = induced_subgraph(g, members)
        qs = rng.sample(sorted(members), min(len(members), rng.randint(1, 3)))
        try:
            k, adj = oracle_max_trussness_connecting(h, qs)
        except ValueError:
            with pytest.raises(ValueError):
                max_trussness_connecting(h, qs, bound)
            return
        got_k, sub, sup = max_trussness_connecting(h, qs, bound)
        assert got_k == k
        assert set(sub.vertices) == set(adj)
        assert sub.adj == adj
        assert sub.m == sum(len(ns) for ns in adj.values()) // 2
        # the supports handed on to the peel are the core's own, a k-truss's
        assert sup == compute_supports(sub)
        assert all(s >= k - 2 for s in sup.values())


class TestDiameter:
    def test_path(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        assert diameter(g) == 3

    def test_clique(self):
        assert diameter(clique(5)) == 1

    def test_disconnected(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        assert diameter(g) == UNREACHABLE

    @given(st.integers(0, 2**30))
    @settings(max_examples=20, deadline=None)
    def test_matches_all_pairs(self, seed):
        """Graphs of 65-90 vertices, so one bit per vertex spans more than
        one machine word; half are induced views, which may be disconnected
        or have isolated vertices."""
        rng = random.Random(seed)
        n = rng.randint(65, 90)
        g = rand_graph(rng, n, rng.uniform(3, 10) / n)
        h = g
        if rng.random() < 0.5:
            h = induced_subgraph(g, rng.sample(range(n), rng.randint(2, n)))
        ap = oracle_all_pairs(adj_of(h))
        assert diameter(h) == max(ap.values())
