import itertools
import random
from fractions import Fraction

import pytest

from atc.graph import Graph, QuerySpec
from atc.harness import (
    brute_force_atc,
    evaluate,
    f1,
    gen_queries,
    gen_synth,
    plant_attributes,
    read_queries,
    read_truth,
    representative_attrs,
    structure_baseline,
    write_attrs,
    write_edges,
    write_queries,
    write_truth,
)
from atc.greedy import bulk_search

from oracles import brute_force_atc_alt, rand_graph


class TestGenSynth:
    def test_deterministic(self):
        g1, gt1 = gen_synth(n=120, communities=4, seed=3)
        g2, gt2 = gen_synth(n=120, communities=4, seed=3)
        assert sorted(g1.edge_iter()) == sorted(g2.edge_iter())
        assert [c.members for c in gt1.communities] == \
            [c.members for c in gt2.communities]

    def test_communities_are_cliques_and_disjoint(self):
        g, gt = gen_synth(n=150, communities=5, seed=1)
        seen = set()
        for c in gt.communities:
            assert not (c.members & seen)
            seen |= c.members
            ms = sorted(g.internal(v) for v in c.members)
            for u, v in itertools.combinations(ms, 2):
                assert v in g.adj[u]
            assert 8 <= len(ms) <= 16

    def test_too_many_communities_rejected(self):
        with pytest.raises(ValueError):
            gen_synth(n=20, communities=10, seed=0)


class TestPlantAttributes:
    def test_full_coverage_no_noise(self):
        g, gt = gen_synth(n=60, communities=1, seed=2)
        plant_attributes(g, gt, coverage=100, noise_range=(0, 0), rng_seed=2)
        c = gt.communities[0]
        assert len(c.attrs) == 3
        planted = {g.attr_id(a) for a in c.attrs}
        for v in range(60):
            have = set(g.attrs[g.internal(v)])
            if v in c.members:
                assert have == planted
            else:
                assert have == set()

    def test_pool_size_and_noise_counts(self):
        g, gt = gen_synth(n=1000, communities=3, seed=4)
        plant_attributes(g, gt, rng_seed=4)
        # pool = max(3, floor(0.005 * 1000)) = 5 labels
        assert len(g.attr_labels) <= 5
        # noise guarantees between 1 and 5 + 3 planted attrs per vertex
        member = set().union(*(c.members for c in gt.communities))
        for v in range(1000):
            cnt = len(g.attrs[g.internal(v)])
            assert 1 <= cnt <= 8
            if v not in member:
                assert cnt <= 5

    def test_deterministic_bytes(self, tmp_path):
        outs = []
        for run in range(2):
            g, gt = gen_synth(n=100, communities=3, seed=6)
            plant_attributes(g, gt, rng_seed=6)
            p = tmp_path / f"attrs{run}"
            write_attrs(g, str(p))
            outs.append(p.read_bytes())
        assert outs[0] == outs[1]


class TestGenQueries:
    def _setup(self, seed=5):
        g, gt = gen_synth(n=200, communities=6, seed=seed)
        plant_attributes(g, gt, rng_seed=seed)
        return g, gt

    def test_nodes_come_from_one_community(self):
        g, gt = self._setup()
        for q in gen_queries(g, gt, 20, rng_seed=1):
            assert set(q.nodes) <= gt.communities[q.community].members
            assert 1 <= len(q.nodes) <= 16
            assert len(set(q.nodes)) == len(q.nodes)

    def test_representative_attrs_subset_of_planted(self):
        g, gt = self._setup()
        hits = 0
        for q in gen_queries(g, gt, 20, rng_seed=2):
            planted = set(gt.communities[q.community].attrs)
            hits += sum(1 for a in q.attrs if a in planted)
        # representative attributes overwhelmingly match the planted ones
        assert hits >= 30  # out of 40

    def test_ratio_recomputation(self):
        g, gt = self._setup()
        c = gt.communities[0]
        attrs = representative_attrs(g, c.members, top=2)
        inside = {g.internal(v) for v in c.members}

        def ratio(label):
            w = g.attr_id(label)
            holders = set(g.vertices_with(w))
            c_in = len(holders & inside)
            c_out = len(holders) - c_in
            fin = Fraction(c_in, len(inside))
            fout = Fraction(c_out, g.n - len(inside))
            return (fout == 0, fin / fout if fout else Fraction(0), fin)

        chosen = [ratio(a) for a in attrs]
        others = [ratio(lab) for lab in g.attr_labels if lab not in attrs]
        for ch in chosen:
            for ot in others:
                assert (ch[0], ch[1], ch[2]) >= (ot[0], ot[1], ot[2]) or ch[0] > ot[0]

    def test_seed_reproducible(self):
        g, gt = self._setup()
        a = gen_queries(g, gt, 15, rng_seed=9)
        b = gen_queries(g, gt, 15, rng_seed=9)
        assert a == b


class TestF1:
    def test_identical(self):
        assert f1({1, 2}, {1, 2}) == (1, 1, 1)

    def test_disjoint(self):
        assert f1({1}, {2}) == (0, 0, 0)

    def test_arithmetic(self):
        p, r, f = f1({1, 2, 3, 4}, {1, 2})
        assert (p, r, f) == (Fraction(1, 2), 1, Fraction(2, 3))

    def test_empty_found(self):
        assert f1(set(), {1}) == (0, 0, 0)

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError):
            f1({1}, set())


class TestStructureBaseline:
    def test_matches_bulk_with_empty_wq(self):
        g, gt = gen_synth(n=100, communities=3, seed=8)
        plant_attributes(g, gt, rng_seed=8)
        v = g.internal(sorted(gt.communities[0].members)[0])
        q = QuerySpec(query_nodes=frozenset({v}),
                      query_attrs=frozenset({0}), k=3, d=2)
        res, trace = structure_baseline(g, q)
        assert res.score == 0
        assert trace.best == len(trace) - 1  # last feasible candidate
        ref, _ = bulk_search(g, QuerySpec(query_nodes=frozenset({v}),
                                          query_attrs=frozenset(), k=3, d=2))
        assert res.vertices == ref.vertices


class TestBruteForce:
    def test_triangle(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        g.attach_attributes({v: ["x"] for v in range(4)})
        q = QuerySpec(query_nodes=frozenset({g.internal(0)}),
                      query_attrs=frozenset({0}), k=3, d=1)
        res = brute_force_atc(g, q)
        assert res.vertices == {g.internal(v) for v in (0, 1, 2)}
        assert res.score == 3

    def test_infeasible_none(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        g.attach_attributes({})
        q = QuerySpec(query_nodes=frozenset({g.internal(0), g.internal(2)}),
                      query_attrs=frozenset(), k=4, d=1)
        assert brute_force_atc(g, q) is None

    def test_cap(self):
        g = rand_graph(random.Random(0), 15, 0.2)
        with pytest.raises(ValueError):
            brute_force_atc(g, QuerySpec(query_nodes=frozenset({0})))

    def test_agrees_with_independent_oracle(self):
        rng = random.Random(31)
        checked = 0
        for _ in range(100):
            g = rand_graph(rng, rng.randint(4, 8), 0.5, n_attrs=2)
            if not g.attr_labels:
                continue
            q = QuerySpec(
                query_nodes=frozenset({rng.randrange(g.n)}),
                query_attrs=frozenset(
                    rng.sample(range(len(g.attr_labels)),
                               min(2, len(g.attr_labels)))),
                k=rng.randint(2, 4), d=rng.randint(1, 3))
            mine = brute_force_atc(g, q)
            alt = brute_force_atc_alt(g, q)
            if mine is None:
                assert alt is None
            else:
                assert alt is not None
                assert tuple(sorted(mine.vertices)) == alt[0]
                assert mine.score == alt[1]
            checked += 1
        assert checked >= 90


class TestEvaluateAndFiles:
    def test_roundtrip_files(self, tmp_path):
        g, gt = gen_synth(n=100, communities=3, seed=12)
        plant_attributes(g, gt, rng_seed=12)
        queries = gen_queries(g, gt, 5, rng_seed=12)
        ep, ap_, tp, qp = (str(tmp_path / x) for x in
                           ("g.edges", "g.attrs", "g.truth", "g.queries"))
        write_edges(g, ep)
        write_attrs(g, ap_)
        write_truth(gt, tp)
        write_queries(queries, qp)
        from atc.graph import load_attributes, load_edge_list
        g2 = load_edge_list(ep)
        load_attributes(ap_, g2)
        assert g2.n == g.n and g2.m == g.m
        gt2 = read_truth(tp)
        assert [c.members for c in gt2.communities] == \
            [c.members for c in gt.communities]
        assert read_queries(qp, gt2) == queries

    def test_evaluate_counts_infeasible(self):
        g, gt = gen_synth(n=80, communities=2, seed=13)
        plant_attributes(g, gt, rng_seed=13)
        queries = gen_queries(g, gt, 4, rng_seed=13)

        def run(g_, q):
            return None
        rep = evaluate(g, gt, queries, run)
        assert len(rep.rows) == 4
        assert rep.mean_f1 == 0
        assert all(r.status == "infeasible" for r in rep.rows)
