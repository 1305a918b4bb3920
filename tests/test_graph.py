import random

import pytest
from hypothesis import given, settings, strategies as st

from atc.graph import (
    Graph,
    GraphFormatError,
    QuerySpec,
    UNREACHABLE,
    UnknownAttributeError,
    UnknownVertexError,
    induced_subgraph,
    load_attributes,
    load_edge_list,
    project_on_attribute,
    query_distance,
    source_distances,
)

from oracles import adj_of, oracle_all_pairs, oracle_query_distance, rand_graph


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestLoadEdgeList:
    def test_triangle(self, tmp_path):
        g = load_edge_list(write(tmp_path, "g", "0 1\n1 2\n2 0\n"))
        assert g.n == 3 and g.m == 3

    def test_dedup_and_self_loops(self, tmp_path):
        g = load_edge_list(write(tmp_path, "g", "0 1\n0 1\n1 0\n1 1\n"))
        assert g.n == 2 and g.m == 1
        assert dict(g.adj) == {0: (1,), 1: (0,)}

    def test_comments_and_whitespace(self, tmp_path):
        g = load_edge_list(write(tmp_path, "g", "# header\n0 1\n\n  2   3 \n"))
        assert g.n == 4 and g.m == 2

    def test_random_matches_set_oracle(self, tmp_path):
        rng = random.Random(5)
        pairs = [(rng.randrange(10), rng.randrange(10)) for _ in range(40)]
        text = "".join(f"{a} {b}\n" for a, b in pairs)
        g = load_edge_list(write(tmp_path, "g", text))
        distinct = {(min(a, b), max(a, b)) for a, b in pairs if a != b}
        assert g.m == len(distinct)

    def test_malformed_line_reports_lineno(self, tmp_path):
        with pytest.raises(GraphFormatError, match=":2:"):
            load_edge_list(write(tmp_path, "g", "0 1\n0 1 2\n"))
        with pytest.raises(GraphFormatError):
            load_edge_list(write(tmp_path, "g2", "0 x\n"))
        with pytest.raises(GraphFormatError):
            load_edge_list(write(tmp_path, "g3", "-1 2\n"))

    @pytest.mark.parametrize("token", ["1_0", "+3", "\u0663"])
    def test_strict_vertex_ids(self, tmp_path, token):
        with pytest.raises(GraphFormatError, match=":2: not a vertex id"):
            load_edge_list(write(tmp_path, "g", f"0 1\n{token} 2\n"))

    def test_empty_graph_rejected(self, tmp_path):
        with pytest.raises(GraphFormatError):
            load_edge_list(write(tmp_path, "g", "# nothing\n"))

    def test_sparse_external_ids_remapped(self, tmp_path):
        g = load_edge_list(write(tmp_path, "g", "1000000 7\n7 42\n"))
        assert g.n == 3
        assert sorted(g.ext_ids) == [7, 42, 1000000]
        assert g.internal(1000000) in range(3)
        with pytest.raises(UnknownVertexError):
            g.internal(8)


class TestLoadAttributes:
    def test_basic(self, tmp_path):
        g = load_edge_list(write(tmp_path, "g", "0 1\n"))
        load_attributes(write(tmp_path, "a", "0\tDB\tDM\n"), g)
        labels = {g.attr_labels[w] for w in g.attrs[g.internal(0)]}
        assert labels == {"DB", "DM"}

    def test_union_of_repeated_lines(self, tmp_path):
        g = load_edge_list(write(tmp_path, "g", "0 1\n"))
        load_attributes(write(tmp_path, "a", "0\tDB\n0\tDB\tDM\n"), g)
        assert len(g.attrs[g.internal(0)]) == 2

    def test_label_ids_in_file_order(self, tmp_path):
        labels = [f"w{(7 * i) % 20}" for i in range(20)]
        text = "0\t" + "\t".join(labels) + "\t" + labels[3] + "\n1\tnew\t" + labels[0] + "\n"
        g = load_edge_list(write(tmp_path, "g", "0 1\n"))
        load_attributes(write(tmp_path, "a", text), g)
        assert g.attr_labels == labels + ["new"]

    def test_unknown_vertex(self, tmp_path):
        g = load_edge_list(write(tmp_path, "g", "0 1\n"))
        with pytest.raises(UnknownVertexError):
            load_attributes(write(tmp_path, "a", "5\tDB\n"), g)

    @pytest.mark.parametrize("token", ["1_0", "+0", " 0", "0 ", "\u0660", ""])
    def test_strict_vertex_ids(self, tmp_path, token):
        g = load_edge_list(write(tmp_path, "g", "0 1\n"))
        with pytest.raises(GraphFormatError, match=":2: not a vertex id"):
            load_attributes(write(tmp_path, "a", f"1\tDB\n{token}\tDB\n"), g)

    def test_empty_label(self, tmp_path):
        g = load_edge_list(write(tmp_path, "g", "0 1\n"))
        with pytest.raises(GraphFormatError):
            load_attributes(write(tmp_path, "a", "0\tDB\t\n"), g)

    def test_postings_recount(self):
        rng = random.Random(11)
        g = rand_graph(rng, 20, 0.2, n_attrs=4)
        for w in range(len(g.attr_labels)):
            assert len(g.vertices_with(w)) == sum(
                1 for v in range(g.n) if w in g.attrs[v])
        # double counting: sum of attr set sizes == sum of posting sizes
        assert sum(len(a) for a in g.attrs) == sum(
            len(g.vertices_with(w)) for w in range(len(g.attr_labels)))


class TestInducedSubgraph:
    def test_full_set(self):
        g = rand_graph(random.Random(1), 12, 0.3)
        h = induced_subgraph(g, range(g.n))
        assert h.m == g.m

    def test_single_vertex(self):
        g = rand_graph(random.Random(2), 5, 0.5)
        assert induced_subgraph(g, [0]).m == 0

    def test_edge_pair(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 0)])
        h = induced_subgraph(g, [g.internal(0), g.internal(1)])
        assert h.m == 1

    def test_out_of_range(self):
        g = Graph.from_edges([(0, 1)])
        with pytest.raises(UnknownVertexError):
            induced_subgraph(g, [5])

    @given(st.integers(0, 2**30))
    @settings(max_examples=30, deadline=None)
    def test_monotone(self, seed):
        rng = random.Random(seed)
        g = rand_graph(rng, 10, 0.3)
        s2 = rng.sample(range(g.n), rng.randint(1, g.n))
        s1 = rng.sample(s2, rng.randint(1, len(s2)))
        e1 = set(induced_subgraph(g, s1).edges())
        e2 = set(induced_subgraph(g, s2).edges())
        assert e1 <= e2

    @given(st.integers(0, 2**30))
    @settings(max_examples=30, deadline=None)
    def test_adjacency_symmetry(self, seed):
        g = rand_graph(random.Random(seed), 12, 0.25)
        h = g
        for u, v in h.edges():
            assert u in h.adj[v] and v in h.adj[u]


class TestQueryDistance:
    def test_single_query_eccentricity(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        h = g
        dist, val = query_distance(h, [g.internal(0)])
        assert dist[g.internal(0)] == 0
        assert val == 3

    def test_path_two_queries(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        h = g
        a, b, c = g.internal(0), g.internal(1), g.internal(2)
        dist, val = query_distance(h, [a, c])
        assert dist[b] == 1 and val == 2

    def test_unreachable_sentinel(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        h = g
        dist, val = query_distance(h, [g.internal(0)])
        assert dist[g.internal(2)] == UNREACHABLE
        assert val == UNREACHABLE

    @given(st.integers(0, 2**30))
    @settings(max_examples=40, deadline=None)
    def test_matches_floyd_warshall(self, seed):
        """1-16 query nodes, repeats allowed, on graphs of up to 40 vertices;
        half are induced views, which may have isolated vertices and several
        components."""
        rng = random.Random(seed)
        n = rng.randint(2, 40)
        g = rand_graph(rng, n, rng.uniform(2, 8) / n)
        h = g
        if rng.random() < 0.5:
            h = induced_subgraph(g, rng.sample(range(n), rng.randint(1, n)))
        vs = list(h.vertices)
        qs = [rng.choice(vs) for _ in range(rng.randint(1, 16))]
        dist, val = query_distance(h, qs)
        expect = oracle_query_distance(adj_of(h), qs)
        assert list(dist) == vs  # the view's key order
        assert dist == expect
        assert val == max(expect.values())


class TestSourceDistances:
    def test_isolated_source(self):
        g = Graph.from_edges([(0, 1)], extra_vertices=[2])
        a, b, c = g.internal(0), g.internal(1), g.internal(2)
        assert source_distances(g.adj, [c]) == {a: UNREACHABLE, b: UNREACHABLE, c: 0}
        assert source_distances(g.adj, [a]) == {a: 0, b: 1, c: UNREACHABLE}

    @given(st.integers(0, 2**30), st.sampled_from([1, 2, 3, 4, 5, 8]))
    @settings(max_examples=80, deadline=None)
    def test_matches_floyd_warshall(self, seed, n_sources):
        """One source runs the plain BFS and more run the bit sweep; graphs
        hold isolated vertices and often several components, and half are
        induced views."""
        rng = random.Random(seed)
        n = rng.randint(n_sources, 30)
        g = rand_graph(rng, n, rng.uniform(0.5, 4) / n)
        h = g
        if rng.random() < 0.5:
            h = induced_subgraph(g, rng.sample(range(n), rng.randint(n_sources, n)))
        srcs = rng.sample(sorted(h.vertices), n_sources)
        ap = oracle_all_pairs(adj_of(h))
        dist = source_distances(h.adj, srcs)
        assert list(dist) == list(h.vertices)  # the view's key order
        assert dist == {v: max(ap[(v, s)] for s in srcs) for v in h.vertices}


class TestProjection:
    def test_absent_attribute_empty(self):
        g = Graph.from_edges([(0, 1)])
        g.attach_attributes({0: ["x"], 1: ["x"]})
        with pytest.raises(UnknownAttributeError):
            project_on_attribute(g, 5)

    def test_universal_attribute_is_g(self):
        g = rand_graph(random.Random(3), 8, 0.4)
        g.attach_attributes({v: ["all"] for v in range(8)})
        h = project_on_attribute(g, 0)
        assert h.m == g.m

    @given(st.integers(0, 2**30))
    @settings(max_examples=25, deadline=None)
    def test_filter_oracle(self, seed):
        g = rand_graph(random.Random(seed), 12, 0.3, n_attrs=3)
        for w in range(len(g.attr_labels)):
            h = project_on_attribute(g, w)
            expect = {(u, v) for u, v in g.edges()
                      if w in g.attrs[u] and w in g.attrs[v]}
            assert set(h.edges()) == expect


class TestQuerySpec:
    def test_defaults(self):
        from fractions import Fraction
        q = QuerySpec(query_nodes=frozenset([0]))
        assert (q.k, q.d, q.eta) == (4, 4, 1000)
        assert q.epsilon == Fraction(3, 100)
        assert q.gamma == Fraction(1, 5)

    @pytest.mark.parametrize("kw", [
        dict(query_nodes=frozenset()),
        dict(query_nodes=frozenset([0]), k=1),
        dict(query_nodes=frozenset([0]), d=-1),
        dict(query_nodes=frozenset([0]), epsilon=0),
        dict(query_nodes=frozenset([0]), eta=0),
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            QuerySpec(**kw)


class TestSubgraphMutation:
    def test_remove_vertex_drops_incident_edges(self):
        g = Graph.from_edges([(0, 1), (0, 2), (1, 2)])
        h = g.copy()
        h.remove_vertex(g.internal(0))
        assert h.m == 1
        assert list(h.edges()) == [(g.internal(1), g.internal(2))]

    def test_copy_is_independent(self):
        g = Graph.from_edges([(0, 1)])
        h = g.copy()
        c = h.copy()
        h.remove_edge(0, 1)
        assert 1 in c.adj[0] and 0 in c.adj[1]
        assert g.adj == {0: (1,), 1: (0,)}
