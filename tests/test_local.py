import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from atc.graph import Graph, QuerySpec, UNREACHABLE, UnknownAttributeError
from atc.greedy import NoFeasibleCommunity, basic_search, bulk_search
import atc.local
from atc.index import build_index
from atc.local import (
    BAD,
    GOOD,
    SteinerSeed,
    attribute_truss_distance,
    autocomplete_attrs,
    classify_query,
    expand_candidate,
    locatc_search,
    steiner_seed,
)
from atc.truss import edge_key, truss_decompose
from atc.graph import Subgraph, project_on_attribute

from oracles import (
    oracle_expand,
    oracle_is_kd_truss,
    oracle_steiner_opt,
    oracle_steiner_seed,
    rand_graph,
    result_adj,
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
        for e in g.edge_iter():
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
        proj_tau = {w: truss_decompose(project_on_attribute(g, w))[0]
                    for w in wq}
        struct_tau, _ = truss_decompose(Subgraph.full(g))
        tau_max = max(struct_tau.values())
        edges = list(g.edge_iter())
        e = edges[rng.randrange(len(edges))]
        shortfall = tau_max - struct_tau[e]
        for w in wq:
            shortfall += tau_max - proj_tau[w].get(e, 2)
        assert attribute_truss_distance(idx, e, wq, gamma) == 1 + gamma * shortfall


class TestSteinerSeed:
    def test_single_terminal(self):
        g = rand_graph(random.Random(2), 8, 0.4, n_attrs=1)
        idx = build_index(g)
        seed = steiner_seed(g, idx, QuerySpec(query_nodes=frozenset({3})))
        assert seed.vertices == frozenset({3})
        assert seed.weight == 0 and seed.edges == ()

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
        assert seed.weight == opt  # a 2-terminal Steiner tree is a shortest path

    def test_disconnected_terminals(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        g.attach_attributes({})
        idx = build_index(g)
        with pytest.raises(NoFeasibleCommunity):
            steiner_seed(g, idx, spec(g, [0, 2]))

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
        assert tree.weight <= 2 * opt
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
        expect = {(u, v) for u, v in g.edge_iter()
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
    """1-4 terminals, 0-3 query attributes, gamma in {0, 1/5, 3/5}."""
    terms = rng.sample(range(g.n), rng.randint(1, min(4, g.n)))
    labels = range(len(g.attr_labels))
    attrs = rng.sample(labels, min(len(labels), rng.randint(0, 3)))
    gamma = rng.choice([Fraction(0), Fraction(1, 5), Fraction(3, 5)])
    return QuerySpec(frozenset(terms), frozenset(attrs), gamma=gamma)


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
            assert exc.value.reason == "query_nodes_disconnected"
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
            seed = SteinerSeed(vs, (), Fraction(0))
            for eta in range(len(vs), g.n + 1):
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
        q = spec(g, [0], ["a", "b"], eta=400)
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


class TestUnknownAttribute:
    @pytest.mark.parametrize("nodes", [{0}, {0, 1}])
    def test_every_entry_point_raises(self, nodes):
        g = Graph.from_edges(itertools.combinations(range(4), 2))
        g.attach_attributes({})
        idx = build_index(g)
        q = QuerySpec(frozenset(nodes), frozenset({0}), k=3, d=2)
        calls = (lambda: basic_search(g, q), lambda: bulk_search(g, q),
                 lambda: bulk_search(Subgraph.full(g), q),
                 lambda: steiner_seed(g, idx, q), lambda: locatc_search(g, idx, q))
        for call in calls:
            with pytest.raises(UnknownAttributeError):
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
    def test_single_node(self):
        g = Graph.from_edges([(0, 1)])
        g.attach_attributes({0: ["DB", "DM"], 1: ["ML"]})
        assert autocomplete_attrs(g, [g.internal(0)]) == {
            g.attr_id("DB"), g.attr_id("DM")}

    def test_union_over_nodes(self):
        g = Graph.from_edges([(0, 1)])
        g.attach_attributes({0: ["DB", "DM"], 1: ["ML"]})
        got = autocomplete_attrs(g, [g.internal(0), g.internal(1)])
        assert got == {g.attr_id("DB"), g.attr_id("DM"), g.attr_id("ML")}


class TestClassifyQuery:
    def test_good_query(self):
        g = two_attr_cliques()
        cls = classify_query(g, None, spec(g, [0], ["x"], k=3, d=2))
        assert cls.status == GOOD and cls.suggestions == []

    def test_disconnected_bad(self):
        edges = list(itertools.combinations(range(4), 2)) \
            + list(itertools.combinations(range(4, 8), 2))
        g = Graph.from_edges(edges)
        g.attach_attributes({v: ["x"] for v in range(8)})
        cls = classify_query(g, None, spec(g, [0, 4], ["x"], k=3, d=3))
        assert cls.status == BAD
        assert cls.reason == "query_nodes_disconnected"
        # partition loop splits the query into the two components
        node_groups = [set(n) for n, _ in cls.suggestions]
        assert {g.internal(0)} in node_groups or any(
            g.internal(0) in grp for grp in node_groups)
        assert len(cls.suggestions) == 2

    def test_zero_score_bad(self):
        g = two_attr_cliques()
        cls = classify_query(g, None, spec(g, [0], ["y"], k=3, d=0))
        assert cls.status == BAD and cls.reason == "zero_score"

    def test_two_community_suggestions(self):
        edges = list(itertools.combinations(range(5), 2)) \
            + list(itertools.combinations(range(5, 10), 2))
        g = Graph.from_edges(edges)
        g.attach_attributes(
            {v: (["x"] if v < 5 else ["y"]) for v in range(10)})
        cls = classify_query(g, None, spec(g, [0, 7], ["x", "y"], k=3, d=2))
        assert cls.status == BAD
        assert len(cls.suggestions) == 2
        attr_sets = [set(a) for _, a in cls.suggestions]
        assert {g.attr_id("x")} in attr_sets and {g.attr_id("y")} in attr_sets
