"""Acceptance suite: one test per criterion, oracle- and property-based.

Each test prints a single summary line (visible with -v -s or in failure
output) in addition to its hard assertions.
"""
import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from atc.cli import run as cli_run
from atc.graph import (
    Graph,
    QuerySpec,
    induced_subgraph,
    project_on_attribute,
    query_distance,
)
from atc.greedy import (
    NoFeasibleCommunity,
    basic_search,
    bulk_search,
)
from atc.harness import (
    evaluate,
    gen_queries,
    gen_synth,
    plant_attributes,
    structure_baseline,
)
from atc.index import build_index, load_index, save_index
from atc.local import locatc_search, steiner_seed
from atc.score import score_of_vertices
from atc.truss import edge_key, truss_decompose

from oracles import (
    adj_of,
    attribute_truss_distance,
    brute_force_atc,
    is_majority,
    iteration_bound,
    oracle_all_pairs,
    oracle_is_kd_truss,
    oracle_steiner_opt,
    oracle_truss,
    rand_graph,
    result_adj,
    score_contribution,
    steiner_weight,
)


def attributed_clique(n, table):
    g = Graph.from_edges(itertools.combinations(range(n), 2),
                         extra_vertices=range(n))
    g.attach_attributes(table)
    return g


def test_criterion_01_score_fidelity():
    """f reproduces the hand-computed examples and the modularity witness."""
    g1 = attributed_clique(5, {v: ["DB"] + (["DM"] if v < 2 else [])
                               for v in range(5)})
    wq1 = [g1.attr_id("DB"), g1.attr_id("DM")]
    assert score_of_vertices(g1, range(5), wq1).score == Fraction(29, 5)

    table = {v: [] for v in range(8)}
    for v in range(5):
        table[v].append("DB")
    for v in range(3, 8):
        table[v].append("DM")
    g2 = attributed_clique(8, table)
    wq2 = [g2.attr_id("DB"), g2.attr_id("DM")]
    assert score_of_vertices(g2, range(8), wq2).score == Fraction(25, 4)

    # non-submodularity / non-supermodularity witness, exact rationals
    g3 = attributed_clique(5, {0: ["DB", "DM"], 1: ["DB"], 2: ["DB"],
                               3: ["DB"], 4: ["DB", "DM"]})
    wq3 = [g3.attr_id("DB"), g3.attr_id("DM")]

    def f(vs):
        return score_of_vertices(g3, vs, wq3).score

    gains = (f({0, 1, 3}) - f({0, 1}),
             f({0, 1, 2, 3}) - f({0, 1, 2}),
             f({0, 1, 4}) - f({0, 1}),
             f({0, 1, 2, 4}) - f({0, 1, 2}))
    assert gains == (Fraction(5, 6), Fraction(11, 12),
                     Fraction(11, 6), Fraction(5, 3))
    assert gains[1] > gains[0]  # not submodular
    assert gains[3] < gains[2]  # not supermodular
    print("criterion 1 PASS: score examples 5.8 / 6.25 and gain witness exact")


def test_criterion_02_deletion_identity():
    """f(H-{v})*(n-1) == f(H)*n - f_H(v) on 1000 random triples."""
    rng = random.Random(202)
    for trial in range(1000):
        g = rand_graph(rng, rng.randint(2, 50), 0.2, n_attrs=4)
        vs = rng.sample(range(g.n), rng.randint(2, g.n))
        wq = set(rng.sample(range(4), rng.randint(1, 4)))
        v = rng.choice(vs)
        h = induced_subgraph(g, vs)
        f_h = score_of_vertices(g, vs, wq).score
        f_minus = score_of_vertices(g, set(vs) - {v}, wq).score
        assert (f_minus * (len(vs) - 1)
                == f_h * len(vs) - score_contribution(h, v, wq)), trial
    print("criterion 2 PASS: deletion identity exact on 1000 triples")


def test_criterion_03_truss_oracle_equivalence():
    """truss_decompose equals the iterated-pruning oracle on 200 graphs."""
    rng = random.Random(303)
    for trial in range(200):
        g = rand_graph(rng, rng.randint(3, 20), rng.uniform(0.1, 0.55))
        mine = truss_decompose(g)
        assert mine == oracle_truss(adj_of(g)), trial
    print("criterion 3 PASS: decomposition matches pruning oracle, 200 graphs")


def _verify_result(g, res, qs, wq, k, d):
    adj = result_adj(res)
    assert oracle_is_kd_truss(adj, qs, k, d)
    # reported diameter and query distance equal the Floyd-Warshall ones
    ap = oracle_all_pairs(adj)
    diam = max(ap.values())
    assert res.diameter == diam
    assert res.query_dist == max(max(ap[(v, q)] for q in qs) for v in adj)
    # diameter upper bound for a connected k-truss within query distance d
    n = len(adj)
    assert diam <= min(Fraction(2 * n - 2, k), 2 * d)
    # reported score equals recomputation
    assert res.score == score_of_vertices(g, res.vertices, wq).score


def test_criterion_04_kd_truss_feasibility():
    """500 emitted communities all re-verify the four invariants, their
    reported diameter and query distance, and the diameter upper bound."""
    rng = random.Random(404)
    emitted = 0
    runs = 0
    while emitted < 500:
        runs += 1
        g = rand_graph(rng, rng.randint(18, 36), rng.uniform(0.15, 0.3),
                       n_attrs=3)
        if not g.attr_labels:
            continue
        idx = build_index(g)
        qs = frozenset(rng.sample(range(g.n), rng.randint(1, 2)))
        wq = frozenset(rng.sample(range(len(g.attr_labels)),
                                  min(2, len(g.attr_labels))))
        k, d = rng.randint(3, 5), rng.randint(2, 3)
        q = QuerySpec(query_nodes=qs, query_attrs=wq, k=k, d=d)
        for algo in ("basic", "bulk", "local"):
            try:
                if algo == "basic":
                    res, _ = basic_search(g, q)
                elif algo == "bulk":
                    res, _ = bulk_search(g, q)
                else:
                    res = locatc_search(g, idx, q)
            except NoFeasibleCommunity:
                continue
            _verify_result(g, res, qs, wq, k, d)
            emitted += 1
    print(f"criterion 4 PASS: {emitted} communities verified over {runs} instances")


def _planted_instance(rng):
    """Two attribute-homogeneous cliques joined by a bridge (n <= 12)."""
    a = rng.randint(4, 6)
    b = rng.randint(4, 6)
    edges = list(itertools.combinations(range(a), 2))
    edges += list(itertools.combinations(range(a, a + b), 2))
    edges.append((rng.randrange(a), a + rng.randrange(b)))
    g = Graph.from_edges(edges, extra_vertices=range(a + b))
    g.attach_attributes({v: (["x"] if v < a else ["y"])
                         for v in range(a + b)})
    nodes = frozenset(g.internal(v) for v in rng.sample(range(a),
                                                        rng.randint(1, 2)))
    return g, QuerySpec(query_nodes=nodes,
                        query_attrs=frozenset({g.attr_id("x")}),
                        k=3, d=3, eta=12)


def test_criterion_05_oracle_gap():
    """All three algorithms feasible whenever the oracle is; mean
    f(locatc)/f(opt) >= 0.85 on planted-homogeneous instances."""
    rng = random.Random(505)
    ratios = {"basic": [], "bulk": [], "local": []}
    feasible = 0
    while feasible < 300:
        g, q = _planted_instance(rng)
        opt = brute_force_atc(g, q)
        if opt is None or opt.score == 0:
            continue
        feasible += 1
        idx = build_index(g)
        for algo, runner in (("basic", lambda: basic_search(g, q)[0]),
                             ("bulk", lambda: bulk_search(g, q)[0]),
                             ("local", lambda: locatc_search(g, idx, q))):
            res = runner()  # NoFeasibleCommunity would fail the test
            ratios[algo].append(res.score / opt.score)
    means = {a: sum(r) / len(r) for a, r in ratios.items()}
    line = ", ".join(f"{a}={float(m):.3f}" for a, m in sorted(means.items()))
    assert means["local"] >= Fraction(85, 100)
    print(f"criterion 5 PASS: 300 feasible oracle instances; mean f/f* {line}")


def test_criterion_06_lemma2_insertions():
    """1000 majority-qualified insertions strictly increase f."""
    rng = random.Random(606)
    qualified = 0
    while qualified < 1000:
        g = rand_graph(rng, rng.randint(3, 16), 0.4, n_attrs=3)
        wq = set(rng.sample(range(3), rng.randint(1, 3)))
        vs = rng.sample(range(g.n), rng.randint(1, g.n - 1))
        v = rng.choice([u for u in range(g.n) if u not in set(vs)])
        before = score_of_vertices(g, vs, wq).score
        if before == 0:
            continue
        h = induced_subgraph(g, vs)
        if not is_majority(h, set(g.attrs[v]), wq):
            continue
        qualified += 1
        after = score_of_vertices(g, set(vs) | {v}, wq).score
        assert after > before
    print("criterion 6 PASS: 1000 qualified insertions all strictly increase f")


def test_criterion_07_steiner_two_approx():
    """Seed tree weight <= 2x exhaustive optimum, 200 instances."""
    rng = random.Random(707)
    checked = 0
    while checked < 200:
        g = rand_graph(rng, rng.randint(4, 10), 0.35, n_attrs=2)
        if g.m == 0 or not g.attr_labels:
            continue
        terms = rng.sample(range(g.n), rng.randint(1, 3))
        wq = frozenset(rng.sample(range(len(g.attr_labels)),
                                  min(1, len(g.attr_labels))))
        q = QuerySpec(query_nodes=frozenset(terms), query_attrs=wq,
                      gamma=Fraction(rng.randint(0, 3), 5))
        idx = build_index(g)

        def weight(u, v):
            return attribute_truss_distance(idx, edge_key(u, v), wq, q.gamma)

        opt = oracle_steiner_opt(g, weight, terms)
        if opt is None:
            continue
        tree = steiner_seed(g, idx, q)
        assert steiner_weight(idx, tree, q) <= 2 * opt
        checked += 1
    print("criterion 7 PASS: 200 Steiner seeds within 2x optimum")


def test_criterion_08_index_correctness(tmp_path):
    """Lookups equal recomputation (1000 probes), bit-exact round trip,
    exact entry accounting."""
    rng = random.Random(808)
    probes = 0
    while probes < 1000:
        g = rand_graph(rng, rng.randint(6, 24), 0.3, n_attrs=3)
        if g.m == 0 or not g.attr_labels:
            continue
        idx = build_index(g)
        # entry accounting
        expect = g.m + g.n
        proj_tau = {}
        for w in range(len(g.attr_labels)):
            proj = project_on_attribute(g, w)
            expect += proj.m
            proj_tau[w] = truss_decompose(proj)
        assert idx.entry_count() == expect
        struct = truss_decompose(g)
        # vertex trussness: the largest oracle trussness of the vertex's edges
        vertex_tau = [0] * g.n
        for (a, b), t in oracle_truss(adj_of(g)).items():
            vertex_tau[a] = max(vertex_tau[a], t)
            vertex_tau[b] = max(vertex_tau[b], t)
        # round trip
        p1 = str(tmp_path / "a.atidx")
        p2 = str(tmp_path / "b.atidx")
        save_index(idx, g, p1)
        loaded = load_index(p1, g)
        assert loaded == idx
        save_index(loaded, g, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()
        edges = list(g.edges())
        for _ in range(40):
            u, v = edges[rng.randrange(len(edges))]
            assert idx.structural_edge(u, v) == struct[edge_key(u, v)]
            x = rng.randrange(g.n)
            assert idx.structural_vertex(x) == vertex_tau[x]
            w = rng.randrange(len(g.attr_labels))
            assert idx.attribute_edge(w, u, v) == proj_tau[w].get(edge_key(u, v), -1)
            probes += 3
    print(f"criterion 8 PASS: {probes} probes, bit-exact round trips, "
          "exact entry counts")


def _blob_instance(seed):
    """n=1000 background plus one dense 150-vertex blob that survives k=4."""
    rng = random.Random(seed)
    n = 1000
    edges = []
    blob = rng.sample(range(n), 150)
    for i, u in enumerate(blob):
        for v in blob[i + 1:]:
            if rng.random() < 0.3:
                edges.append((u, v))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.004:
                edges.append((u, v))
    g = Graph.from_edges(edges, extra_vertices=range(n))
    g.attach_attributes({v: (["hot"] if v in set(blob) and rng.random() < 0.7
                             else ["cold"]) for v in range(n)})
    q = QuerySpec(query_nodes=frozenset({g.internal(blob[0])}),
                  query_attrs=frozenset({g.attr_id("hot")}), k=4, d=4)
    return g, q


def test_criterion_09_bulk_bound_and_speed():
    """BULK iteration count within the bound and faster than Basic."""
    bound = iteration_bound(1000, 4, Fraction(3, 100)) + 2
    wins = 0
    for seed in (91, 92, 93):
        g, q = _blob_instance(seed)
        bulk_res, _ = bulk_search(g, q)
        basic_res, _ = basic_search(g, q)
        assert bulk_res.iterations <= bound
        assert bulk_res.iterations < basic_res.iterations
        if bulk_res.wall_time < basic_res.wall_time:
            wins += 1
        print(f"  seed {seed}: bulk {bulk_res.iterations} iters "
              f"{bulk_res.wall_time:.2f}s vs basic {basic_res.iterations} "
              f"iters {basic_res.wall_time:.2f}s")
    assert wins == 3
    print(f"criterion 9 PASS: iterations <= {bound} and BULK faster on 3/3")


def test_criterion_10_end_to_end_quality():
    """mean F1(locatc) beats the structure-only baseline by >= 0.05."""
    t0 = time.perf_counter()
    g, gt = gen_synth(n=1000, communities=20, seed=10)
    plant_attributes(g, gt, coverage=80, rng_seed=10)
    queries = gen_queries(g, gt, 50, rng_seed=10)
    idx = build_index(g)
    local_rep = evaluate(g, gt, queries,
                         lambda g_, q: locatc_search(g_, idx, q))
    base_rep = evaluate(g, gt, queries,
                        lambda g_, q: structure_baseline(g_, q)[0])
    elapsed = time.perf_counter() - t0
    margin = local_rep.mean_f1 - base_rep.mean_f1
    print(f"criterion 10: local F1 {float(local_rep.mean_f1):.3f} vs "
          f"baseline {float(base_rep.mean_f1):.3f} in {elapsed:.0f}s")
    assert margin >= Fraction(5, 100)
    assert elapsed < 300
    print("criterion 10 PASS: margin "
          f"{float(margin):.3f} >= 0.05 within time budget")


def test_criterion_11_cli_determinism(tmp_path, capsys):
    """Every CLI command, run twice with the same seed, emits identical bytes."""
    prefix = str(tmp_path / "s")
    idx_path = str(tmp_path / "s.atidx")
    dec_path = str(tmp_path / "t.tsv")
    rep_path = str(tmp_path / "r.tsv")
    outputs = []
    for _ in range(2):
        snapshot = []

        def step(argv):
            assert cli_run(argv) == 0
            snapshot.append(capsys.readouterr().out)

        step(["gen", "--n", "150", "--communities", "4", "--out-prefix",
              prefix, "--queries", "5", "--seed", "42"])
        step(["index", "--graph", prefix + ".edges", "--attrs",
              prefix + ".attrs", "--out", idx_path])
        step(["decompose", "--graph", prefix + ".edges", "--out", dec_path])
        node = open(prefix + ".queries").readline().split("\t")[0].split(",")[0]
        step(["query", "--graph", prefix + ".edges", "--attr-file",
              prefix + ".attrs", "--index", idx_path, "--algo", "local",
              "--nodes", node, "--auto-kd"])
        step(["eval", "--graph", prefix + ".edges", "--attrs",
              prefix + ".attrs", "--truth", prefix + ".truth", "--queries",
              prefix + ".queries", "--algo", "bulk", "--report", rep_path])
        for path in (prefix + ".edges", prefix + ".attrs", prefix + ".truth",
                     prefix + ".queries", idx_path, dec_path):
            snapshot.append(open(path, "rb").read())
        outputs.append(snapshot)
    assert outputs[0] == outputs[1]
    print("criterion 11 PASS: all five subcommands byte-identical across runs")
