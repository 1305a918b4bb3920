import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from atc.graph import Graph, induced_subgraph
from atc.score import (
    ScoreBreakdown,
    majority_from_breakdown,
    removal_set,
    score_of_vertices,
)

from oracles import (
    attribute_score,
    is_majority,
    local_marginal_gain,
    oracle_majority,
    oracle_score,
    rand_graph,
    score_contribution,
)


def degree_floor(h, k):
    """h's vertices of degree k-1, the floor removal_set takes."""
    return {u for u, ns in h.adj.items() if len(ns) == k - 1}


def attributed(n, table, edges=None):
    """Graph on 0..n-1 (complete unless edges given) with given attributes."""
    if edges is None:
        edges = list(itertools.combinations(range(n), 2))
    g = Graph.from_edges(edges, extra_vertices=range(n))
    g.attach_attributes({v: table.get(v, []) for v in range(n)})
    return g


class TestAttributeScore:
    def test_five_vertex_example(self):
        # 5 vertices all covering DB, 2 of them also DM: 5*1 + 2*(2/5) = 5.8
        g = attributed(5, {v: ["DB"] + (["DM"] if v < 2 else []) for v in range(5)})
        wq = [g.attr_id("DB"), g.attr_id("DM")]
        bd = attribute_score(g, wq)
        assert bd.score == Fraction(29, 5)

    def test_eight_vertex_example(self):
        # 8 vertices, 5 covering DB and the other... 5 covering DM (overlap 2)
        table = {v: [] for v in range(8)}
        for v in range(5):
            table[v].append("DB")
        for v in range(3, 8):
            table[v].append("DM")
        g = attributed(8, table)
        wq = [g.attr_id("DB"), g.attr_id("DM")]
        assert attribute_score(g, wq).score == Fraction(25, 4)

    def test_empty_wq_zero(self):
        g = attributed(4, {0: ["x"]})
        assert attribute_score(g, []).score == 0

    def test_uncovered_wq_zero(self):
        g = attributed(4, {v: ["x"] for v in range(4)})
        g2 = attributed(4, {v: ["x", "y"] for v in range(4)})
        assert attribute_score(g2, []).score == 0
        assert score_of_vertices(g, range(4), set()).score == 0

    def test_empty_vertex_set_zero(self):
        g = attributed(3, {0: ["x"]})
        assert score_of_vertices(g, [], [0]).score == 0

    @given(st.integers(0, 2**30))
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle(self, seed):
        rng = random.Random(seed)
        g = rand_graph(rng, rng.randint(1, 15), 0.3, n_attrs=4)
        vs = rng.sample(range(g.n), rng.randint(1, g.n))
        wq = set(rng.sample(range(4), rng.randint(0, 4)))
        assert score_of_vertices(g, vs, wq).score == oracle_score(g, vs, wq)

    @given(st.integers(0, 2**30), st.lists(st.integers(0, 2**30), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_add_vertex_keeps_squares(self, seed, picks):
        """The stored sum of c_w^2 equals a recount after every add_vertex,
        from a breakdown built from (size, cover) or by score_of_vertices."""
        rng = random.Random(seed)
        g = rand_graph(rng, rng.randint(1, 15), 0.3, n_attrs=4)
        wq = set(rng.sample(range(4), rng.randint(0, 4)))
        start = score_of_vertices(g, rng.sample(range(g.n), rng.randint(0, g.n)), wq)
        for bd in (start, ScoreBreakdown(start.size, dict(start.cover))):
            for p in picks:
                bd.add_vertex(g, p % g.n)
                recount = sum(c * c for c in bd.cover.values())
                assert bd.squares == recount
                assert bd.score == Fraction(recount, bd.size)


class TestNonSubmodularity:
    """Fixed regression: marginal gains of f are neither sub- nor
    supermodular (witness with attributes q1:{DB,DM}, v4,v5,v6:{DB},
    q2:{DB,DM}, W_q = {DB, DM})."""

    def setup_method(self):
        self.g = attributed(5, {
            0: ["DB", "DM"],   # q1
            1: ["DB"],         # v4
            2: ["DB"],         # v5
            3: ["DB"],         # v6
            4: ["DB", "DM"],   # q2
        })
        self.wq = [self.g.attr_id("DB"), self.g.attr_id("DM")]

    def f(self, vs):
        return score_of_vertices(self.g, vs, self.wq).score

    def test_gains_violate_submodularity(self):
        g1 = {0, 1}
        g2 = {0, 1, 2}
        gain1 = self.f(g1 | {3}) - self.f(g1)
        gain2 = self.f(g2 | {3}) - self.f(g2)
        assert gain1 == Fraction(5, 6)
        assert gain2 == Fraction(11, 12)
        assert gain2 > gain1  # submodularity would require gain2 <= gain1

    def test_gains_violate_supermodularity(self):
        g1 = {0, 1}
        g2 = {0, 1, 2}
        gain1 = self.f(g1 | {4}) - self.f(g1)
        gain2 = self.f(g2 | {4}) - self.f(g2)
        assert gain1 == Fraction(11, 6)
        assert gain2 == Fraction(5, 3)
        assert gain2 < gain1  # supermodularity would require gain2 >= gain1


class TestScoreContribution:
    def test_no_query_attrs_zero(self):
        g = attributed(4, {0: ["x"]})
        h = g
        assert score_contribution(h, 1, [g.attr_id("x")]) == 0

    def test_direct_formula(self):
        # c_DB = 5; a vertex covering only DB contributes 2*5-1 = 9
        g = attributed(6, {v: ["DB"] for v in range(5)})
        h = g
        assert score_contribution(h, 0, [g.attr_id("DB")]) == 9

    def test_absent_vertex_raises(self):
        g = attributed(3, {})
        h = induced_subgraph(g, [0, 1])
        with pytest.raises(KeyError):
            score_contribution(h, 2, [])

    @given(st.integers(0, 2**30))
    @settings(max_examples=60, deadline=None)
    def test_deletion_identity(self, seed):
        rng = random.Random(seed)
        g = rand_graph(rng, rng.randint(2, 25), 0.3, n_attrs=3)
        vs = rng.sample(range(g.n), rng.randint(2, g.n))
        h = induced_subgraph(g, vs)
        wq = set(rng.sample(range(3), rng.randint(1, 3)))
        v = rng.choice(vs)
        f_h = score_of_vertices(g, vs, wq).score
        f_minus = score_of_vertices(g, set(vs) - {v}, wq).score
        contrib = score_contribution(h, v, wq)
        assert f_minus * (len(vs) - 1) == f_h * len(vs) - contrib


class TestLocalMarginalGain:
    def test_paper_style_gain(self):
        # 12-vertex H, k=3: v9's removal drags v8 and v10 (both degree 2),
        # ML sits on q1, v8, v10 -> gain = 9/12 - 1/9 = 3/4 - 1/9.
        base = list(itertools.combinations(range(9), 2))  # K9 incl. q1=0
        edges = base + [(9, 10), (10, 11), (9, 11), (10, 1)]  # v8=9, v9=10, v10=11
        g = attributed(12, {0: ["ML"], 9: ["ML"], 11: ["ML"]}, edges=edges)
        h = g.copy()
        assert sorted(removal_set(h, 10, degree_floor(h, 3))) == [9, 10, 11]
        gain = local_marginal_gain(h, 10, [g.attr_id("ML")], k=3)
        assert gain == Fraction(3, 4) - Fraction(1, 9)
        assert gain > 0

    def test_isolated_impact_equals_single_deletion(self):
        g = attributed(5, {v: ["x"] for v in range(3)})
        h = g.copy()  # K5: no neighbor has degree k-1 for k=3
        wq = [g.attr_id("x")]
        v = 4
        assert removal_set(h, v, degree_floor(h, 3)) == [v]
        single = (score_of_vertices(g, range(5), wq).score
                  - score_of_vertices(g, [0, 1, 2, 3], wq).score)
        assert local_marginal_gain(h, v, wq, 3) == single

    def test_emptying_removal_rejected(self):
        g = attributed(2, {}, edges=[(0, 1)])
        h = g
        with pytest.raises(ValueError):
            local_marginal_gain(h, 0, [], k=2)

    @given(st.integers(0, 2**30))
    @settings(max_examples=40, deadline=None)
    def test_matches_materialization_oracle(self, seed):
        rng = random.Random(seed)
        g = rand_graph(rng, rng.randint(3, 15), 0.4, n_attrs=3)
        h = g.copy()
        wq = set(rng.sample(range(3), 2))
        k = rng.randint(2, 5)
        v = rng.randrange(g.n)
        batch = removal_set(h, v, degree_floor(h, k))
        if len(batch) >= g.n:
            return
        expect = (oracle_score(g, range(g.n), wq)
                  - oracle_score(g, set(range(g.n)) - set(batch), wq))
        assert local_marginal_gain(h, v, wq, k) == expect


class TestMajorityAndMonotonicity:
    def test_superset_with_full_cover(self):
        g = attributed(4, {v: ["a", "b"] for v in range(4)})
        h = g
        wq = [g.attr_id("a"), g.attr_id("b")]
        assert is_majority(h, set(wq), wq)

    def test_disjoint_with_positive_score(self):
        g = attributed(4, {v: ["a"] for v in range(4)})
        h = g
        assert not is_majority(h, set(), [g.attr_id("a")])

    @given(st.integers(0, 40), st.lists(st.integers(0, 40), max_size=4),
           st.sets(st.integers(0, 5)))
    @settings(max_examples=200, deadline=None)
    def test_integer_majority_matches_fraction_formula(self, size, counts, attr_set):
        cover = {w: min(c, size) for w, c in enumerate(counts)}
        bd = ScoreBreakdown(size, cover)
        assert (majority_from_breakdown(attr_set, bd)
                == oracle_majority(attr_set, size, cover))

    @given(st.integers(0, 2**30))
    @settings(max_examples=60, deadline=None)
    def test_lemma2_strict_increase(self, seed):
        """Majority-qualified insertion strictly increases f (when f > 0)."""
        rng = random.Random(seed)
        g = rand_graph(rng, rng.randint(3, 15), 0.4, n_attrs=3)
        wq = set(rng.sample(range(3), rng.randint(1, 3)))
        vs = rng.sample(range(g.n), rng.randint(1, g.n - 1))
        h = induced_subgraph(g, vs)
        outside = [v for v in range(g.n) if v not in set(vs)]
        v = rng.choice(outside)
        x = set(g.attrs[v])
        before = score_of_vertices(g, vs, wq).score
        if before > 0 and is_majority(h, x, wq):
            after = score_of_vertices(g, set(vs) | {v}, wq).score
            assert after > before

    @given(st.integers(0, 2**30))
    @settings(max_examples=30, deadline=None)
    def test_query_attr_monotonicity(self, seed):
        # W_q subset of W_q' implies f(H, W_q) <= f(H, W_q')
        rng = random.Random(seed)
        g = rand_graph(rng, rng.randint(1, 12), 0.3, n_attrs=4)
        vs = rng.sample(range(g.n), rng.randint(1, g.n))
        big = set(rng.sample(range(4), rng.randint(1, 4)))
        small = set(rng.sample(sorted(big), rng.randint(0, len(big))))
        assert (score_of_vertices(g, vs, small).score
                <= score_of_vertices(g, vs, big).score)

    @given(st.integers(0, 2**30))
    @settings(max_examples=30, deadline=None)
    def test_irrelevant_vertex_decreases_f(self, seed):
        rng = random.Random(seed)
        g = rand_graph(rng, rng.randint(2, 12), 0.3, n_attrs=2)
        wq = {0, 1}
        blank = [v for v in range(g.n) if not g.attrs[v]]
        if not blank:
            return
        v = blank[0]
        vs = [u for u in range(g.n) if u != v]
        if not vs:
            return
        before = score_of_vertices(g, vs, wq).score
        if before > 0:
            after = score_of_vertices(g, vs + [v], wq).score
            assert after < before
