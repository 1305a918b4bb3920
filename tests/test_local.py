import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from atc.graph import (Graph, QuerySpec, UNREACHABLE, UnknownAttributeError,
                       UnknownVertexError)
from atc.greedy import NoFeasibleCommunity, basic_search, bulk_search
from atc.harness import gen_queries, gen_synth, plant_attributes
import atc.local
from atc.index import build_index, graph_digest
from atc.local import (
    SteinerSeed,
    classify_query,
    expand_candidate,
    k_component,
    locatc_search,
    steiner_seed,
)
import atc.truss
from atc.truss import (NO_KD_TRUSS, edge_key, maintain_kd_truss,
                       max_trussness_connecting, truss_decompose)
from atc.graph import induced_subgraph, project_on_attribute, query_distance

from oracles import (
    attribute_truss_distance,
    block_graph,
    oracle_all_pairs,
    oracle_expand,
    oracle_is_kd_truss,
    oracle_peel,
    oracle_query_distance,
    oracle_steiner_opt,
    oracle_steiner_seed,
    rand_graph,
    result_adj,
    steiner_weight,
)


def spec(g, nodes, labels=(), **kw):
    return QuerySpec(
        query_nodes=frozenset(g.internal(v) for v in nodes),
        query_attrs=frozenset(g.attr_id(x) for x in labels),
        **kw)


def two_attr_cliques(a=5, b=5):
    """Two cliques bridged by a path; attribute x on the first, y on the second."""
    edges = list(itertools.combinations(range(a), 2))
    edges += list(itertools.combinations(range(a, a + b), 2))
    edges += [(a - 1, a)]
    g = Graph.from_edges(edges)
    g.attach_attributes({v: (["x"] if v < a else ["y"]) for v in range(a + b)})
    return g


class TestAttributeTrussDistance:
    def test_gamma_zero_pure_hops(self):
        g = rand_graph(random.Random(1), 10, 0.4, n_attrs=2)
        idx = build_index(g)
        for e in g.edges():
            assert attribute_truss_distance(idx, e, {0, 1}, Fraction(0)) == 1

    def test_zero_shortfall_weight_one(self):
        g = Graph.from_edges(itertools.combinations(range(4), 2))
        g.attach_attributes({v: ["w"] for v in range(4)})
        idx = build_index(g)
        # every edge is at tau_max in G and in G_w
        assert attribute_truss_distance(idx, (0, 1), {0}, Fraction(1, 5)) == 1

    @given(st.integers(0, 2**30))
    @settings(max_examples=25, deadline=None)
    def test_matches_projection_recomputation(self, seed):
        rng = random.Random(seed)
        g = rand_graph(rng, rng.randint(3, 12), 0.4, n_attrs=2)
        if g.m == 0 or not g.attr_labels:
            return
        idx = build_index(g)
        gamma = Fraction(rng.randint(0, 4), 5)
        n_labels = len(g.attr_labels)
        wq = set(rng.sample(range(n_labels), rng.randint(0, n_labels)))
        proj_tau = {w: truss_decompose(project_on_attribute(g, w))
                    for w in wq}
        struct_tau = truss_decompose(g)
        tau_max = max(struct_tau.values())
        edges = list(g.edges())
        e = edges[rng.randrange(len(edges))]
        shortfall = tau_max - struct_tau[e]
        for w in wq:
            shortfall += tau_max - proj_tau[w].get(e, 2)
        assert attribute_truss_distance(idx, e, wq, gamma) == 1 + gamma * shortfall


class TestSteinerSeed:
    def test_single_terminal(self):
        g = rand_graph(random.Random(2), 8, 0.4, n_attrs=1)
        idx = build_index(g)
        q = QuerySpec(query_nodes=frozenset({3}))
        seed = steiner_seed(g, idx, q)
        assert seed.vertices == frozenset({3})
        assert seed.edges == () and steiner_weight(idx, seed, q) == 0

    def test_pair_is_weighted_shortest_path(self):
        g = two_attr_cliques()
        idx = build_index(g)
        q = spec(g, [0, 9], ["x"])
        seed = steiner_seed(g, idx, q)
        # tree is a path between the terminals
        deg = {}
        for u, v in seed.edges:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        assert sum(1 for x in deg.values() if x == 1) == 2
        wq = q.query_attrs

        def weight(u, v):
            return attribute_truss_distance(idx, edge_key(u, v), wq, q.gamma)

        opt = oracle_steiner_opt(g, weight, list(q.query_nodes))
        # a 2-terminal Steiner tree is a shortest path
        assert steiner_weight(idx, seed, q) == opt

    def test_disconnected_terminals(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        g.attach_attributes({})
        idx = build_index(g)
        with pytest.raises(NoFeasibleCommunity):
            steiner_seed(g, idx, spec(g, [0, 2]))

    def test_non_terminal_leaves_pruned(self):
        """The closure paths 0..1 and 1..2 cross the diamond 3-7-4-1 / 3-5-6-1
        on different sides, so the union of the paths has a cycle.  Its
        spanning tree leaves 5 and 6 as leaves that are not terminals, and
        the pruning removes them."""
        edges = [(0, 8), (8, 9), (9, 10), (10, 11), (11, 3),
                 (2, 12), (12, 13), (13, 14), (14, 15), (15, 3),
                 (3, 7), (7, 4), (4, 1), (3, 5), (5, 6), (6, 1)]
        adj = [set() for _ in range(16)]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        g = Graph(adj, list(range(16)))  # internal ids are the ids above
        idx = build_index(g)
        q = QuerySpec(frozenset({0, 1, 2}))
        seed = steiner_seed(g, idx, q)
        assert (seed.vertices, seed.edges) == oracle_steiner_seed(g, idx, q)
        assert len(seed.edges) == 13 and not seed.vertices & {5, 6}
        degree = {}
        for u, v in seed.edges:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        assert {v for v, dv in degree.items() if dv == 1} <= q.query_nodes

    @given(st.integers(0, 2**30))
    @settings(max_examples=30, deadline=None)
    def test_two_approximation(self, seed_int):
        rng = random.Random(seed_int)
        g = rand_graph(rng, rng.randint(3, 11), 0.35, n_attrs=2)
        pool = list(range(g.n))
        terms = rng.sample(pool, rng.randint(1, 3))
        idx = build_index(g)
        q = QuerySpec(query_nodes=frozenset(terms),
                      query_attrs=frozenset({0}),
                      gamma=Fraction(rng.randint(0, 3), 5))
        if not g.attr_labels:
            with pytest.raises(UnknownAttributeError):
                steiner_seed(g, idx, q)
            return

        def weight(u, v):
            return attribute_truss_distance(idx, edge_key(u, v),
                                            q.query_attrs, q.gamma)

        opt = oracle_steiner_opt(g, weight, terms)
        if opt is None:
            if len(terms) > 1:
                with pytest.raises(NoFeasibleCommunity):
                    steiner_seed(g, idx, q)
            return
        tree = steiner_seed(g, idx, q)
        assert steiner_weight(idx, tree, q) <= 2 * opt
        assert set(terms) <= set(tree.vertices)
        # acyclic and connected: |E| = |V| - 1
        assert len(tree.edges) == len(tree.vertices) - 1


class TestExpandCandidate:
    def test_eta_at_least_component(self):
        g = two_attr_cliques()
        idx = build_index(g)
        q = spec(g, [0, 9], ["x", "y"], eta=1000)
        seed = steiner_seed(g, idx, q)
        gt = expand_candidate(g, idx, seed, q)
        assert gt.num_vertices() == g.n

    def test_eta_equal_tree_keeps_tree(self):
        g = two_attr_cliques()
        idx = build_index(g)
        q0 = spec(g, [0, 9], ["x"])
        seed = steiner_seed(g, idx, q0)
        q = spec(g, [0, 9], ["x"], eta=len(seed.vertices))
        gt = expand_candidate(g, idx, seed, q)
        assert set(gt.vertices) == set(seed.vertices)
        # induced edges are added
        expect = {(u, v) for u, v in g.edges()
                  if u in seed.vertices and v in seed.vertices}
        assert set(gt.sorted_edges()) == expect

    @given(st.integers(0, 2**30))
    @settings(max_examples=25, deadline=None)
    def test_never_exceeds_eta_and_contains_seed(self, seed_int):
        rng = random.Random(seed_int)
        g = rand_graph(rng, rng.randint(4, 16), 0.3, n_attrs=2)
        terms = rng.sample(range(g.n), rng.randint(1, 2))
        idx = build_index(g)
        eta = rng.randint(1, g.n)
        q = QuerySpec(query_nodes=frozenset(terms), query_attrs=frozenset({0}),
                      eta=eta)
        if not g.attr_labels:
            for nodes in ({0}, {0, 1}):
                with pytest.raises(UnknownAttributeError):
                    steiner_seed(g, idx, QuerySpec(frozenset(nodes), frozenset({0})))
            return
        try:
            seed = steiner_seed(g, idx, q)
        except NoFeasibleCommunity:
            return
        gt = expand_candidate(g, idx, seed, q)
        assert gt.num_vertices() <= max(eta, len(seed.vertices))
        assert set(seed.vertices) <= set(gt.vertices)


def random_query(rng, g):
    """1-4 terminals, 0-3 query attributes, gamma in {0, 1/5, 3/5}, k in
    2..4, and k_d_auto one time in four."""
    terms = rng.sample(range(g.n), rng.randint(1, min(4, g.n)))
    labels = range(len(g.attr_labels))
    attrs = rng.sample(labels, min(len(labels), rng.randint(0, 3)))
    gamma = rng.choice([Fraction(0), Fraction(1, 5), Fraction(3, 5)])
    return QuerySpec(frozenset(terms), frozenset(attrs), gamma=gamma,
                     k=rng.randint(2, 4), k_d_auto=rng.random() < 0.25)


class TestEquivalenceWithOracles:
    """The integer, early-stopping seed and the bucketed expansion return
    what the whole-graph Fraction Dijkstra and the frontier rescan return."""

    @given(st.integers(0, 2**30))
    @settings(max_examples=200, deadline=None)
    def test_steiner_seed_matches_oracle(self, seed_int):
        rng = random.Random(seed_int)
        g = rand_graph(rng, rng.randint(2, 14), rng.choice([0.15, 0.3, 0.5]), n_attrs=4)
        idx = build_index(g)
        q = random_query(rng, g)
        want = oracle_steiner_seed(g, idx, q)
        if want is None:
            with pytest.raises(NoFeasibleCommunity) as exc:
                steiner_seed(g, idx, q)
            assert exc.value.reason == NO_KD_TRUSS
            return
        assert steiner_seed(g, idx, q) == SteinerSeed(*want)

    @given(st.integers(0, 2**30))
    @settings(max_examples=150, deadline=None)
    def test_expansion_matches_oracle_for_every_eta(self, seed_int):
        rng = random.Random(seed_int)
        g = rand_graph(rng, rng.randint(2, 16), rng.choice([0.15, 0.3, 0.5]), n_attrs=4)
        idx = build_index(g)
        q = random_query(rng, g)
        seeds = [frozenset(rng.sample(range(g.n), rng.randint(1, min(4, g.n))))]
        try:
            seeds.append(steiner_seed(g, idx, q).vertices)
        except NoFeasibleCommunity:
            pass
        for vs in seeds:
            seed = SteinerSeed(vs, ())
            for eta in range(len(vs), g.n + 1):
                qe = dataclasses.replace(q, eta=eta)
                got = expand_candidate(g, idx, seed, qe)
                assert set(got.vertices) == oracle_expand(g, idx, vs, qe)

    @given(st.integers(0, 2**30))
    @settings(max_examples=100, deadline=None)
    def test_expansion_matches_oracle_on_larger_graphs(self, seed_int):
        """Up to 60 vertices and 1-4 query attributes, so covered sets of one
        size compete, and buckets empty and form again before the cap."""
        rng = random.Random(seed_int)
        n = rng.randint(20, 60)
        g = rand_graph(rng, n, rng.choice([0.06, 0.1, 0.2]), n_attrs=4,
                       attr_p=rng.choice([0.2, 0.4, 0.6]))
        idx = build_index(g)
        attrs = rng.sample(range(len(g.attr_labels)),
                           rng.randint(1, min(4, len(g.attr_labels))))
        vs = frozenset(rng.sample(range(g.n), rng.randint(1, 4)))
        q = QuerySpec(vs, frozenset(attrs), k=rng.randint(2, 4),
                      k_d_auto=rng.random() < 0.25)
        seed = SteinerSeed(vs, ())
        for eta in sorted(rng.sample(range(len(vs), g.n + 1), 5)):
            qe = dataclasses.replace(q, eta=eta)
            got = expand_candidate(g, idx, seed, qe)
            assert set(got.vertices) == oracle_expand(g, idx, vs, qe)


class TestExpansionWork:
    def test_majority_tests_per_bucket_not_per_frontier_vertex(self, monkeypatch):
        """A hub joined to 500 leaves: every insertion tests the majority once
        per covered-attribute set, not once per frontier vertex."""
        leaves = range(1, 501)
        g = Graph.from_edges([(0, v) for v in leaves])
        g.attach_attributes({v: [lab for lab, m in (("a", 2), ("b", 3), ("c", 5))
                                 if v % m == 0] for v in leaves})
        idx = build_index(g)
        q = spec(g, [0], ["a", "b"], eta=400, k=2)
        seed = steiner_seed(g, idx, q)
        calls = []
        majority = atc.local.majority_from_breakdown
        monkeypatch.setattr(atc.local, "majority_from_breakdown",
                            lambda *a: calls.append(1) or majority(*a))
        gt = expand_candidate(g, idx, seed, q)
        insertions = gt.num_vertices() - len(seed.vertices)
        covs = {q.query_attrs.intersection(g.attrs[g.internal(v)]) for v in leaves}
        assert insertions == 399 and len(covs) == 4
        assert len(calls) <= (insertions + 1) * len(covs)

    def test_one_majority_test_per_insertion_when_all_cover(self, monkeypatch):
        """Every frontier vertex covers all query attributes: the one covered
        set always passes, so each insertion takes exactly one test."""
        g, _ = gen_synth(n=150, communities=5, seed=2)
        rng = random.Random(2)
        g.attach_attributes({v: ["a", "b"] + (["c"] if rng.random() < 0.5 else [])
                             for v in g.ext_ids})
        idx = build_index(g)
        q = spec(g, [0], ["a", "b"], eta=100, k=2)
        seed = steiner_seed(g, idx, q)
        calls = []
        majority = atc.local.majority_from_breakdown
        monkeypatch.setattr(atc.local, "majority_from_breakdown",
                            lambda *a: calls.append(1) or majority(*a))
        gt = expand_candidate(g, idx, seed, q)
        insertions = gt.num_vertices() - len(seed.vertices)
        assert insertions == 99 and len(calls) == insertions


def local_core(g, idx, q, expand=expand_candidate):
    """The front of locatc_search through the seed on every query: `expand`
    grows the Steiner seed, then the densest connecting truss of that
    candidate; returns (k_max, core, its supports) and the query as the
    peel reads it."""
    if not q.query_attrs:
        q = dataclasses.replace(q, query_attrs=frozenset().union(
            *(g.attrs[v] for v in q.query_nodes)))
    seed = steiner_seed(g, idx, q)
    gt = expand(g, idx, seed, q)
    k_max, gt, sup = max_trussness_connecting(gt, q.query_nodes, idx.edge_truss)
    if q.k_d_auto:
        q = dataclasses.replace(q, k=max(2, k_max),
                                d=query_distance(gt, q.query_nodes)[1])
    return k_max, gt, sup, q


def recounting_local(g, idx, q, expand=expand_candidate):
    """locatc_search with the peel recounting its start: bulk_search from
    the core alone finds the maximal (k,d)-truss in it from scratch."""
    _, gt, _, q = local_core(g, idx, q, expand)
    return bulk_search(gt, q)[0]


def seeded_local(g, idx, q):
    """locatc_search without the k-truss component: seed -> expansion ->
    densest connecting truss -> maintenance from it -> bulk peel."""
    k_max, gt, sup, q = local_core(g, idx, q)
    start = maintain_kd_truss(gt, q.query_nodes, q.k, q.d,
                              sup=sup if q.k <= k_max else None)
    return bulk_search(gt, q, start)[0]


def unpruned_expand(g, idx, seed, q):
    """The oracle expansion crossing every edge, at floor 0."""
    return induced_subgraph(g, oracle_expand(g, idx, seed.vertices, q, floor=0))


def outcome(search):
    """The fields a search result is compared on, or the reason it is
    infeasible."""
    try:
        res = search()
    except NoFeasibleCommunity as exc:
        return exc.reason
    return (res.vertices, res.edges, res.score, res.k, res.d, res.iterations,
            res.query_dist, res.diameter)


def random_block_graph(rng):
    """2-5 dense blocks of 4-8 vertices in a sparse background, three labels;
    returns the graph and the block size."""
    size = rng.randint(4, 8)
    g = block_graph(rng, rng.randint(2, 5), size, p_in=rng.choice([0.6, 0.8, 1.0]),
                    p_out=rng.choice([0.03, 0.06, 0.12]), n_attrs=3)
    return g, size


def random_block_query(rng, g, size, **kw):
    """1-3 query nodes, from one block two times in three, and 0-2 labels."""
    if rng.random() < 2 / 3:
        block = rng.randrange(g.n // size)
        pool = range(block * size, (block + 1) * size)
    else:
        pool = range(g.n)
    nodes = rng.sample(pool, rng.randint(1, 3))
    labels = rng.sample(range(len(g.attr_labels)),
                        min(len(g.attr_labels), rng.randint(0, 2)))
    return QuerySpec(frozenset(g.internal(v) for v in nodes),
                     frozenset(labels), **kw)


def strong_reach(g, idx, start, k, within=None):
    """The vertices reached from start across edges of index trussness >= k,
    inside `within` when given."""
    seen = set(start)
    stack = list(start)
    while stack:
        v = stack.pop()
        for u in g.adj[v]:
            if (u not in seen and idx.edge_truss[edge_key(u, v)] >= k
                    and (within is None or u in within)):
                seen.add(u)
                stack.append(u)
    return seen


class TestFrontierPruning:
    """With explicit k, the expansion crosses only edges of index trussness
    >= k, and while eta does not bind the search returns what the unpruned
    expansion gives."""

    @given(st.integers(0, 2**30))
    @settings(max_examples=150, deadline=None)
    def test_search_matches_unpruned_pipeline(self, seed_int):
        rng = random.Random(seed_int)
        g, size = random_block_graph(rng)
        idx = build_index(g)
        q = random_block_query(rng, g, size, k=rng.randint(2, 6),
                               d=rng.randint(0, 5), eta=rng.choice([g.n, 1000]))
        assert (outcome(lambda: locatc_search(g, idx, q))
                == outcome(lambda: recounting_local(g, idx, q, unpruned_expand)))

    @given(st.integers(0, 2**30))
    @settings(max_examples=100, deadline=None)
    def test_members_joined_across_strong_edges(self, seed_int):
        """Every member outside the seed joins across an edge of trussness
        >= k from the seed's side, and up to eta the members are exactly the
        vertices reached that way."""
        rng = random.Random(seed_int)
        g, size = random_block_graph(rng)
        idx = build_index(g)
        k = rng.randint(2, 6)
        q = random_block_query(rng, g, size, k=k, eta=rng.randint(3, g.n))
        seed = SteinerSeed(q.query_nodes, ())
        got = set(expand_candidate(g, idx, seed, q).vertices)
        assert strong_reach(g, idx, seed.vertices, k, within=got) == got
        reach = strong_reach(g, idx, seed.vertices, k)
        assert (got == reach) if len(reach) <= q.eta else (len(got) == q.eta)

    def test_planted_candidates_stay_near_their_community(self):
        """On a 1000-vertex planted graph at the default (4, 4), the
        expansion stops near the query's clique instead of flooding G."""
        g, gt = gen_synth(n=1000, communities=20, seed=3)
        plant_attributes(g, gt, rng_seed=3)
        idx = build_index(g)
        sizes = []
        for gq in gen_queries(g, gt, 20, rng_seed=3):
            q = spec(g, gq.nodes, gq.attrs)
            seed = steiner_seed(g, idx, q)
            sizes.append(expand_candidate(g, idx, seed, q).num_vertices())
        assert max(sizes) <= 50, sizes


def count_calls(monkeypatch, module, *names):
    """Wrap each named function of module to count its calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(module, name)

        def counted(*a, _fn=fn, _name=name, **kw):
            calls[_name] += 1
            return _fn(*a, **kw)
        monkeypatch.setattr(module, name, counted)
    return calls


class TestPeelFromCore:
    """The bulk peel of local search starts from the densest connecting
    truss with the supports counted there, and gives what recounting the
    maximal (k,d)-truss inside that core gives."""

    @given(st.integers(0, 2**30))
    @settings(max_examples=150, deadline=None)
    def test_search_matches_recounting_peel(self, seed_int):
        rng = random.Random(seed_int)
        g, size = random_block_graph(rng)
        idx = build_index(g)
        q = random_block_query(rng, g, size, k=rng.randint(2, 6),
                               d=rng.randint(0, 5),
                               eta=rng.choice([g.n, rng.randint(3, g.n)]),
                               k_d_auto=rng.random() < 0.25)
        got = outcome(lambda: locatc_search(g, idx, q))
        assert got == outcome(lambda: recounting_local(g, idx, q))

    def test_feasible_query_counts_supports_once(self, monkeypatch):
        """The core is accepted at its first level, and neither the start
        nor the peel counts a support again or walks."""
        g = two_attr_cliques()
        idx = build_index(g)
        calls = count_calls(monkeypatch, atc.truss, "compute_supports", "_walk")
        res = locatc_search(g, idx, spec(g, [0, 1], ["x"], k=4, d=2))
        assert res.vertices == {g.internal(v) for v in range(5)}
        assert calls == {"compute_supports": 1, "_walk": 0}

    @pytest.mark.parametrize("nodes, d", [([0, 1], 2), ([0, 9], 9)])
    def test_k_above_core_recounts_and_fails(self, nodes, d):
        """Above the core's k_max = 5 the peel recounts the supports in the
        core, finds no (k,d)-truss there, and fails with the one reason."""
        g = two_attr_cliques()
        with pytest.raises(NoFeasibleCommunity) as exc:
            locatc_search(g, build_index(g), spec(g, nodes, ["x"], k=6, d=d))
        assert exc.value.reason == NO_KD_TRUSS

    @pytest.mark.parametrize("algo", ["basic", "bulk", "local"])
    def test_lone_query_node_above_every_trussness(self, algo):
        """A vertex without edges is a (k,d)-truss for every k, so a single
        query node at k = 12, above every trussness of G, comes back alone."""
        g = two_attr_cliques()
        idx = build_index(g)
        q = spec(g, [0], ["x"], k=12, d=2)
        assert max(idx.edge_truss.values()) < q.k
        search = {"basic": lambda: basic_search(g, q)[0],
                  "bulk": lambda: bulk_search(g, q)[0],
                  "local": lambda: locatc_search(g, idx, q)}[algo]
        res = search()
        assert (res.vertices, res.edges) == ({g.internal(0)}, ())
        assert (res.score, res.query_dist, res.diameter) == (1, 0, 0)


class TestComponentStart:
    """With an explicit k, local search starts from the first query node's
    component of the edges of index trussness >= k when it holds every query
    node within eta vertices, and gives what the seed and the expansion
    give."""

    @given(st.integers(0, 2**30), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_search_matches_seeded_pipeline(self, seed_int, binding):
        rng = random.Random(seed_int)
        g, size = random_block_graph(rng)
        idx = build_index(g)
        q = random_block_query(rng, g, size, k=rng.randint(2, 6),
                               d=rng.randint(0, 5),
                               eta=rng.randint(1, 2 * size) if binding else g.n)
        assert (outcome(lambda: locatc_search(g, idx, q))
                == outcome(lambda: seeded_local(g, idx, q)))

    @given(st.integers(0, 2**30))
    @settings(max_examples=100, deadline=None)
    def test_component_is_strong_reach_up_to_cap(self, seed_int):
        rng = random.Random(seed_int)
        g, _ = random_block_graph(rng)
        idx = build_index(g)
        v, k, cap = rng.randrange(g.n), rng.randint(2, 6), rng.randint(1, g.n)
        reach = strong_reach(g, idx, [v], k)
        assert k_component(g, idx, v, k, cap) == (reach if len(reach) <= cap else None)

    def test_seed_and_expansion_run_only_past_eta(self, monkeypatch):
        """A feasible planted query and a two-community query are answered
        from the component; at eta = 1 the component is cut short and the
        seed and the expansion run once each."""
        g, gt = gen_synth(n=200, communities=8, seed=3)
        plant_attributes(g, gt, rng_seed=3)
        idx = build_index(g)
        gq = gen_queries(g, gt, 1, rng_seed=3)[0]
        calls = count_calls(monkeypatch, atc.local, "steiner_seed", "expand_candidate")
        res = locatc_search(g, idx, spec(g, gq.nodes, gq.attrs))
        assert {g.internal(v) for v in gq.nodes} <= res.vertices
        a, b = (min(c.members) for c in gt.communities[:2])
        with pytest.raises(NoFeasibleCommunity) as exc:
            locatc_search(g, idx, spec(g, [a, b], k=4, d=2))
        assert exc.value.reason == NO_KD_TRUSS
        assert calls == {"steiner_seed": 0, "expand_candidate": 0}
        outcome(lambda: locatc_search(g, idx, spec(g, gq.nodes, gq.attrs, eta=1)))
        assert calls == {"steiner_seed": 1, "expand_candidate": 1}

    def test_lone_query_node_below_k(self, monkeypatch):
        """A query node whose every edge has trussness below k is its own
        component, and a vertex without edges is a (k,d)-truss for every k,
        so it comes back alone, as through the seed."""
        g = Graph.from_edges(list(itertools.combinations(range(5), 2)) + [(4, 5)])
        g.attach_attributes({v: ["x"] for v in range(6)})
        idx = build_index(g)
        q = spec(g, [5], ["x"], k=4, d=2)
        assert idx.structural_edge(g.internal(4), g.internal(5)) < q.k
        expected = outcome(lambda: seeded_local(g, idx, q))
        calls = count_calls(monkeypatch, atc.local, "steiner_seed", "expand_candidate")
        res = locatc_search(g, idx, q)
        assert calls == {"steiner_seed": 0, "expand_candidate": 0}
        assert (res.vertices, res.edges) == ({g.internal(5)}, ())
        assert (res.score, res.query_dist, res.diameter) == (1, 0, 0)
        assert outcome(lambda: res) == expected


def run_to_end(g, q, bulk):
    """The greedy peel run until maintenance fails, from scratch: vertices,
    edges, score, query distance and diameter of its best candidate, and
    the rounds that stopping would run; None when no (k,d)-truss exists."""
    end = oracle_peel(g, q, bulk, stop=False)
    if end is None:
        return None
    vs, edges, score, _, _ = end
    adj = {v: set() for v in vs}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    qd = max(oracle_query_distance(adj, q.query_nodes).values())
    return ((vs, edges, score, qd, max(oracle_all_pairs(adj).values())),
            oracle_peel(g, q, bulk, stop=True)[3])


def stopped(search):
    """What run_to_end gives, read from a search's result."""
    try:
        res = search()
    except NoFeasibleCommunity:
        return None
    return ((res.vertices, res.edges, res.score, res.query_dist, res.diameter),
            res.iterations)


class TestStopMatchesRunToEnd:
    """The peel stops once the best score is strictly above sum_w c_w of
    what a round leaves, an upper bound on every later candidate's score.
    basic, bulk and local return what the peel run to the end returns, and
    run the rounds that the from-scratch stopping rule runs."""

    @given(st.integers(0, 2**30))
    @settings(max_examples=100, deadline=None)
    def test_same_result_as_run_to_end(self, seed_int):
        rng = random.Random(seed_int)
        if rng.random() < 0.5:
            g, size = random_block_graph(rng)
        else:
            g = rand_graph(rng, rng.randint(4, 24), rng.uniform(0.2, 0.8), n_attrs=3)
            size = g.n
        q = random_block_query(rng, g, size, k=rng.randint(2, 6), d=rng.randint(0, 5),
                               eta=g.n, epsilon=rng.choice(
                                   [Fraction(3, 100), Fraction(1, 4), Fraction(1)]))
        assert stopped(lambda: basic_search(g, q)[0]) == run_to_end(g, q, bulk=False)
        assert stopped(lambda: bulk_search(g, q)[0]) == run_to_end(g, q, bulk=True)
        idx = build_index(g)
        try:
            _, gt, _, qc = local_core(g, idx, q)
        except NoFeasibleCommunity:
            expect = None
        else:
            expect = run_to_end(gt, qc, bulk=True)
        assert stopped(lambda: seeded_local(g, idx, q)) == expect
        assert stopped(lambda: locatc_search(g, idx, q)) == expect


class TestUnknownAttribute:
    @pytest.mark.parametrize("nodes", [{0}, {0, 1}])
    def test_every_entry_point_raises(self, nodes):
        g = Graph.from_edges(itertools.combinations(range(4), 2))
        g.attach_attributes({})
        idx = build_index(g)
        q = QuerySpec(frozenset(nodes), frozenset({0}), k=3, d=2)
        calls = (lambda: basic_search(g, q), lambda: bulk_search(g, q),
                 lambda: bulk_search(g.copy(), q),
                 lambda: steiner_seed(g, idx, q), lambda: locatc_search(g, idx, q))
        for call in calls:
            with pytest.raises(UnknownAttributeError):
                call()


class TestUnknownIds:
    @pytest.mark.parametrize("nodes, attrs, error", [
        ({99}, set(), UnknownVertexError),
        ({0, -1}, {0}, UnknownVertexError),
        ({0}, {99}, UnknownAttributeError),
        ({0, 1}, {-1}, UnknownAttributeError),
    ])
    def test_every_entry_point_raises(self, nodes, attrs, error):
        g = Graph.from_edges(itertools.combinations(range(4), 2))
        g.attach_attributes({v: ["a"] for v in range(4)})
        idx = build_index(g)
        q = QuerySpec(frozenset(nodes), frozenset(attrs), k=3, d=2)
        calls = (lambda: basic_search(g, q), lambda: bulk_search(g, q),
                 lambda: bulk_search(g.copy(), q), lambda: steiner_seed(g, idx, q),
                 lambda: locatc_search(g, idx, q), lambda: classify_query(g, q))
        for call in calls:
            with pytest.raises(error):
                call()


class TestAutoParams:
    """locatc_search with k_d_auto derives (k, d) from the restricted core."""

    def auto(self, g, node):
        q = QuerySpec(frozenset({g.internal(node)}), k_d_auto=True)
        return locatc_search(g, build_index(g), q)

    def test_clique(self):
        g = Graph.from_edges(itertools.combinations(range(5), 2))
        g.attach_attributes({})
        res = self.auto(g, 0)
        assert (res.k, res.d) == (5, 1)

    def test_triangle_single_query(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
        g.attach_attributes({})
        res = self.auto(g, 0)
        assert (res.k, res.d) == (3, 1)


class TestLocATC:
    def test_explicit_kd_feasible(self):
        g = two_attr_cliques()
        idx = build_index(g)
        q = spec(g, [0], ["x"], k=3, d=2)
        res = locatc_search(g, idx, q)
        assert oracle_is_kd_truss(result_adj(res), q.query_nodes, q.k, q.d)
        assert res.vertices == {g.internal(v) for v in range(5)}

    def test_auto_kd(self):
        g = two_attr_cliques()
        idx = build_index(g)
        q = spec(g, [0], ["x"], k_d_auto=True)
        res = locatc_search(g, idx, q)
        assert q.query_nodes <= res.vertices
        assert oracle_is_kd_truss(result_adj(res), q.query_nodes, res.k, res.d)

    def test_autocompletes_empty_wq(self):
        g = two_attr_cliques()
        idx = build_index(g)
        res = locatc_search(g, idx, spec(g, [0], (), k=3, d=2))
        assert res.score > 0  # x was autocompleted from the query node

    @given(st.integers(0, 2**30))
    @settings(max_examples=25, deadline=None)
    def test_feasible_output_verifies(self, seed_int):
        rng = random.Random(seed_int)
        g = rand_graph(rng, rng.randint(4, 14), 0.4, n_attrs=2)
        idx = build_index(g)
        q = QuerySpec(query_nodes=frozenset({rng.randrange(g.n)}),
                      query_attrs=frozenset({0}),
                      k=rng.randint(2, 4), d=rng.randint(1, 3))
        if not g.attr_labels:
            with pytest.raises(UnknownAttributeError):
                locatc_search(g, idx, q)
            return
        try:
            res = locatc_search(g, idx, q)
        except NoFeasibleCommunity:
            return
        assert oracle_is_kd_truss(result_adj(res), q.query_nodes, q.k, q.d)


class TestAutocomplete:
    """A local query without attributes takes its nodes' attributes."""

    def search_both_ways(self, nodes, labels):
        g = Graph.from_edges([(0, 1)])
        g.attach_attributes({0: ["DB"], 1: ["DB", "ML"]})
        idx = build_index(g)
        bare = outcome(lambda: locatc_search(g, idx, spec(g, nodes, k=2, d=1)))
        given = outcome(lambda: locatc_search(g, idx, spec(g, nodes, labels, k=2, d=1)))
        assert bare == given
        return bare

    def test_single_node(self):
        # {0, 1} scores 2^2 / 2 on {DB}; taking ML too would score 5/2
        vertices, _, score, *_ = self.search_both_ways([0], ["DB"])
        assert score == 2 and len(vertices) == 2

    def test_union_over_nodes(self):
        vertices, _, score, *_ = self.search_both_ways([0, 1], ["DB", "ML"])
        assert score == Fraction(5, 2) and len(vertices) == 2


class TestClassifyQuery:
    def test_good_query(self):
        g = two_attr_cliques()
        cls = classify_query(g, spec(g, [0], ["x"], k=3, d=2))
        assert cls.reason is None and cls.suggestions == []

    def test_disconnected_bad(self):
        edges = list(itertools.combinations(range(4), 2)) \
            + list(itertools.combinations(range(4, 8), 2))
        g = Graph.from_edges(edges)
        g.attach_attributes({v: ["x"] for v in range(8)})
        cls = classify_query(g, spec(g, [0, 4], ["x"], k=3, d=3))
        assert cls.reason == NO_KD_TRUSS
        # partition loop splits the query into the two components
        node_groups = [set(n) for n, _ in cls.suggestions]
        assert {g.internal(0)} in node_groups or any(
            g.internal(0) in grp for grp in node_groups)
        assert len(cls.suggestions) == 2

    def test_zero_score_bad(self):
        g = two_attr_cliques()
        cls = classify_query(g, spec(g, [0], ["y"], k=3, d=0))
        assert cls.reason == "zero_score"

    def test_two_community_suggestions(self):
        edges = list(itertools.combinations(range(5), 2)) \
            + list(itertools.combinations(range(5, 10), 2))
        g = Graph.from_edges(edges)
        g.attach_attributes(
            {v: (["x"] if v < 5 else ["y"]) for v in range(10)})
        cls = classify_query(g, spec(g, [0, 7], ["x", "y"], k=3, d=2))
        assert cls.reason is not None
        assert len(cls.suggestions) == 2
        attr_sets = [set(a) for _, a in cls.suggestions]
        assert {g.attr_id("x")} in attr_sets and {g.attr_id("y")} in attr_sets


def test_graph_is_read_only():
    """The index build, the three searches and classify_query leave the
    Graph's adjacency and digest as they were; the adjacency takes no
    mutator, and the Graph has none."""
    g, gt = gen_synth(n=150, communities=5, seed=4)
    plant_attributes(g, gt, rng_seed=4)
    adj, digest = dict(g.adj), graph_digest(g)
    idx = build_index(g)
    one = sorted(gt.communities[0].members)[:2]
    two = one + sorted(gt.communities[1].members)[:1]
    for nodes in (one, two):  # a good query, then a bad one
        q = spec(g, nodes, gt.communities[0].attrs[:1], k=3, d=2)
        for search in (lambda: basic_search(g, q), lambda: bulk_search(g, q),
                       lambda: locatc_search(g, idx, q)):
            try:
                search()
            except NoFeasibleCommunity:
                pass
        classify_query(g, q)
    assert g.adj == adj and graph_digest(g) == digest
    v = next(iter(adj))
    with pytest.raises(TypeError):
        g.adj[v] = ()
    with pytest.raises(AttributeError):
        g.adj.clear()
    with pytest.raises(AttributeError):
        g.adj[v].append(v)
    assert not hasattr(g, "remove_edge") and not hasattr(g, "remove_vertex")
