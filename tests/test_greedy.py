import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from atc.graph import Graph, QuerySpec, UnknownAttributeError, induced_subgraph
from atc.greedy import (
    NoFeasibleCommunity,
    basic_search,
    bulk_batch_size,
    bulk_search,
    replay_candidate,
)
from atc.score import score_of_vertices
from atc.truss import (NO_KD_TRUSS, is_kd_truss, maintain_kd_truss,
                       maximal_kd_truss)

from oracles import (adj_of, iteration_bound, oracle_is_kd_truss, oracle_peel,
                     rand_graph, result_adj)


def two_cliques(a=5, b=4, bridge=True):
    """Two cliques joined by one edge; attribute 'x' on the first clique."""
    edges = list(itertools.combinations(range(a), 2))
    edges += list(itertools.combinations(range(a, a + b), 2))
    if bridge:
        edges.append((a - 1, a))
    g = Graph.from_edges(edges)
    g.attach_attributes({v: (["x"] if v < a else ["y"]) for v in range(a + b)})
    return g


def spec(g, nodes, labels=(), **kw):
    return QuerySpec(
        query_nodes=frozenset(g.internal(v) for v in nodes),
        query_attrs=frozenset(g.attr_id(x) for x in labels),
        **kw)


class TestBasicSearch:
    def test_peels_to_homogeneous_clique(self):
        g = two_cliques()
        q = spec(g, [0], ["x"], k=3, d=2)
        res, trace = basic_search(g, q)
        assert res.vertices == {g.internal(v) for v in range(5)}
        assert res.score == Fraction(5)

    def test_infeasible_raises(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        g.attach_attributes({})
        q = spec(g, [0, 2], k=4, d=1)
        with pytest.raises(NoFeasibleCommunity):
            basic_search(g, q)

    def test_minimal_g0_returned(self):
        # K4 with query at every vertex: nothing is deletable
        g = Graph.from_edges(itertools.combinations(range(4), 2))
        g.attach_attributes({})
        q = spec(g, [0, 1, 2, 3], k=4, d=1)
        res, trace = basic_search(g, q)
        assert res.vertices == {0, 1, 2, 3}
        assert len(trace) == 1

    def test_anytime_dominance_and_shrinkage(self):
        rng = random.Random(4)
        for _ in range(20):
            g = rand_graph(rng, 18, 0.3, n_attrs=3)
            q = QuerySpec(query_nodes=frozenset({0}),
                          query_attrs=frozenset({0, 1}), k=3, d=3)
            try:
                res, trace = basic_search(g, q)
            except NoFeasibleCommunity:
                continue
            assert res.score == max(trace.scores)
            assert res.score >= trace.scores[0]
            sizes = [replay_candidate(trace, i).num_vertices()
                     for i in range(len(trace))]
            assert all(a > b for a, b in zip(sizes, sizes[1:]))

    def test_determinism(self):
        g = rand_graph(random.Random(7), 20, 0.3, n_attrs=3)
        q = QuerySpec(query_nodes=frozenset({1}), query_attrs=frozenset({0}),
                      k=3, d=3)
        r1, _ = basic_search(g, q)
        r2, _ = basic_search(g, q)
        assert r1.vertices == r2.vertices and r1.score == r2.score


class TestBulkSearch:
    def test_batch_size(self):
        eps = Fraction(3, 100)
        assert bulk_batch_size(1000, eps) == 30  # ceil(0.03/1.03*1000)
        assert bulk_batch_size(3, eps) == 1
        assert bulk_batch_size(1, Fraction(5)) == 1

    def test_tiny_epsilon_single_deletions(self):
        g = two_cliques()
        q = spec(g, [0], ["x"], k=3, d=2, epsilon=Fraction(1, 10**6))
        res, trace = bulk_search(g, q)
        assert res.vertices == {g.internal(v) for v in range(5)}
        # every recorded step starts from exactly one chosen deletion
        for step in trace.steps:
            assert sum(1 for ev in step if ev[0] == "v") >= 1

    def test_iteration_bound_formula(self):
        assert iteration_bound(1000, 4, Fraction(3, 100)) == 187
        assert iteration_bound(4, 4, Fraction(3, 100)) == 1

    def test_feasible_and_bounded(self):
        rng = random.Random(13)
        for _ in range(20):
            g = rand_graph(rng, 25, 0.3, n_attrs=3)
            q = QuerySpec(query_nodes=frozenset({0}),
                          query_attrs=frozenset({0}), k=3, d=3)
            try:
                res, trace = bulk_search(g, q)
            except NoFeasibleCommunity:
                continue
            assert res.iterations <= iteration_bound(g.n, q.k, q.epsilon) + 2
            assert is_kd_truss(replay_candidate(trace, trace.best),
                               q.query_nodes, q.k, q.d)

    def test_query_node_outside_subgraph(self):
        """A query node of the parent graph that the searched view lacks
        fails the search for want of a (k,d)-truss, not as an unknown id."""
        g = two_cliques()
        h = induced_subgraph(g, [g.internal(v) for v in range(1, 5)])
        with pytest.raises(NoFeasibleCommunity) as info:
            bulk_search(h, spec(g, [0, 1], ["x"], k=3, d=2))
        assert info.value.reason == NO_KD_TRUSS

    def test_query_nodes_never_deleted(self):
        rng = random.Random(21)
        g = rand_graph(rng, 20, 0.35, n_attrs=2)
        qn = frozenset({0, 1})
        q = QuerySpec(query_nodes=qn, query_attrs=frozenset({0}), k=3, d=3)
        try:
            res, trace = bulk_search(g, q)
        except NoFeasibleCommunity:
            return
        for i in range(len(trace)):
            assert qn <= set(replay_candidate(trace, i).vertices)


class TestTraceReplay:
    def _trace(self):
        g = two_cliques(6, 5)
        q = spec(g, [0], ["x"], k=3, d=3)
        return g, q, basic_search(g, q)[1]

    def test_replay_zero_is_g0(self):
        g, q, trace = self._trace()
        assert set(replay_candidate(trace, 0).vertices) == set(trace.base.vertices)

    def test_replay_best_matches_result(self):
        g = two_cliques(6, 5)
        q = spec(g, [0], ["x"], k=3, d=3)
        res, trace = basic_search(g, q)
        assert set(replay_candidate(trace, trace.best).vertices) == set(res.vertices)

    def test_replay_out_of_range(self):
        g, q, trace = self._trace()
        with pytest.raises(IndexError):
            replay_candidate(trace, len(trace))

    def test_every_candidate_is_fixpoint(self):
        g, q, trace = self._trace()
        for i in range(len(trace)):
            h = replay_candidate(trace, i)
            kd = maintain_kd_truss(h.copy(), q.query_nodes, q.k, q.d)
            assert kd.valid
            assert set(kd.subgraph.edges()) == set(h.edges())

    def test_scores_match_recomputation(self):
        g, q, trace = self._trace()
        for i in range(len(trace)):
            h = replay_candidate(trace, i)
            assert (score_of_vertices(g, h.vertices, q.query_attrs).score
                    == trace.scores[i])


class TestStructureOnlyTieBreak:
    def test_empty_wq_returns_last_candidate(self):
        """With W_q empty every score is 0; argmax ties resolve to the
        latest (smallest) candidate."""
        g = two_cliques()
        q = spec(g, [0], (), k=3, d=2)
        res, trace = basic_search(g, q)
        assert trace.best == len(trace) - 1
        last = replay_candidate(trace, len(trace) - 1)
        assert res.vertices == frozenset(last.vertices)


@given(st.integers(0, 2**30))
@settings(max_examples=25, deadline=None)
def test_results_verified_against_oracle(seed):
    rng = random.Random(seed)
    g = rand_graph(rng, rng.randint(4, 12), 0.45, n_attrs=2)
    k, d = rng.randint(2, 4), rng.randint(1, 3)
    q = QuerySpec(query_nodes=frozenset({rng.randrange(g.n)}),
                  query_attrs=frozenset({0}), k=k, d=d)
    for search in (basic_search, bulk_search):
        if not g.attr_labels:
            with pytest.raises(UnknownAttributeError):
                search(g, q)
            continue
        try:
            res, _ = search(g, q)
        except NoFeasibleCommunity:
            continue
        assert oracle_is_kd_truss(result_adj(res), q.query_nodes, k, d)


@given(st.integers(0, 2**30), st.integers(2, 5), st.booleans())
@settings(max_examples=80, deadline=None)
def test_peel_matches_separate_loops_oracle(seed, k, bulk):
    """basic and bulk share one loop; each returns what its own loop did."""
    rng = random.Random(seed)
    g = rand_graph(rng, rng.randint(4, 13), rng.uniform(0.3, 0.8), n_attrs=3)
    q = QuerySpec(query_nodes=frozenset(rng.sample(range(g.n), rng.randint(1, 2))),
                  query_attrs=frozenset(w for w in range(len(g.attr_labels))
                                        if rng.random() < 0.6),
                  k=k, d=rng.randint(1, 4),
                  epsilon=rng.choice([Fraction(3, 100), Fraction(1, 4), Fraction(1)]))
    expect = oracle_peel(g, q, bulk)
    search = bulk_search if bulk else basic_search
    if expect is None:
        with pytest.raises(NoFeasibleCommunity):
            search(g, q)
        return
    res, trace = search(g, q)
    assert (res.vertices, res.edges, res.score, res.iterations, trace.scores) == expect


@given(st.integers(0, 2**30), st.integers(2, 6), st.booleans())
@settings(max_examples=60, deadline=None)
def test_peel_matches_oracle_on_larger_graphs(seed, k, bulk):
    """On graphs of 14-40 vertices, where rounds drop many vertices and the
    support map is kept across them, basic and bulk still do what the
    from-scratch loops do.  Read in place, the Graph gives the same
    (k,d)-truss, result and trace as its mutable copy."""
    rng = random.Random(seed)
    g = rand_graph(rng, rng.randint(14, 40), rng.uniform(0.2, 0.6), n_attrs=3)
    q = QuerySpec(query_nodes=frozenset(rng.sample(range(g.n), rng.randint(1, 2))),
                  query_attrs=frozenset(w for w in range(len(g.attr_labels))
                                        if rng.random() < 0.6),
                  k=k, d=rng.randint(1, 4),
                  epsilon=rng.choice([Fraction(3, 100), Fraction(1, 4), Fraction(1)]))
    kd, kc = (maximal_kd_truss(h, q.query_nodes, k, q.d) for h in (g, g.copy()))
    assert (kd.valid, kd.sup) == (kc.valid, kc.sup)
    assert not kd.valid or kd.subgraph.adj == kc.subgraph.adj
    expect = oracle_peel(g, q, bulk)
    search = bulk_search if bulk else basic_search
    if expect is None:
        for h in (g, g.copy()):
            with pytest.raises(NoFeasibleCommunity):
                search(h, q)
        return
    (res, trace), (rc, tc) = search(g, q), search(g.copy(), q)
    assert (res.vertices, res.edges, res.score, res.iterations, trace.scores) == expect
    assert dataclasses.replace(res, wall_time=0) == dataclasses.replace(rc, wall_time=0)
    assert (trace.scores, trace.best, trace.base.adj) == (tc.scores, tc.best, tc.base.adj)
    # the order of the edge events within a step follows how the d-ball's
    # neighbour sets were built, so each step is compared as a multiset
    assert [sorted(s) for s in trace.steps] == [sorted(s) for s in tc.steps]


def test_bulk_ranks_emptying_removal_last():
    """A star around v=1 with the query node 0 as a leaf, k=2: v's removal
    set P_H(v) is all of H, so f(H - P_H(v)) = 0 and its gain is the
    largest; bulk deletes the leaves 2 and 3 first and v last."""
    g = Graph.from_edges([(0, 1), (1, 2), (1, 3)])
    g.attach_attributes({0: ["x"], 1: [], 2: ["x"], 3: ["x"]})
    q = spec(g, [0], ["x"], k=2, d=2)
    res, trace = bulk_search(g, q)
    assert trace.steps == [[("v", 2)], [("v", 3)], [("v", 1)]]
    assert trace.scores == [Fraction(9, 4), Fraction(4, 3), Fraction(1, 2), Fraction(1)]
    assert res.iterations == 3 and res.vertices == frozenset(range(4))
    assert (res.vertices, res.edges, res.score, res.iterations,
            trace.scores) == oracle_peel(g, q, bulk=True)
