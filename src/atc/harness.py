"""Synthetic benchmark harness: planted communities, query generation,
precision/recall/F1 scoring, a structure-only baseline, and a brute-force
optimum for small instances.

The generator plants disjoint cliques over an Erdos-Renyi background and
assigns each community a few dedicated attributes at partial coverage, plus
per-vertex noise attributes from the same pool.  That model is a harness
choice for producing recoverable ground truth, not a claim about real data.
"""
from __future__ import annotations

import dataclasses
import itertools
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .graph import (Graph, GraphFormatError, QuerySpec, induced_subgraph,
                    parse_vertex_id, query_distance)
from .greedy import NoFeasibleCommunity, SearchResult, bulk_search
from .score import score_of_vertices
from .truss import diameter, is_kd_truss

ZERO = Fraction(0)


@dataclass
class Community:
    members: frozenset[int]  # external vertex ids
    attrs: tuple[str, ...] = ()  # planted attribute labels


@dataclass
class GroundTruth:
    communities: list[Community]

    def __len__(self):
        return len(self.communities)


def gen_synth(n: int = 1000, communities: int = 20,
              size_range: tuple[int, int] = (8, 16),
              p_background: float = 0.01, seed: int = 0):
    """Disjoint planted cliques over an Erdos-Renyi background.

    Returns (Graph, GroundTruth); external vertex ids are 0..n-1.
    """
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    comms = []
    pos = 0
    for _ in range(communities):
        size = rng.randint(*size_range)
        if pos + size > n:
            raise ValueError("graph too small for the requested communities")
        comms.append(Community(frozenset(order[pos:pos + size])))
        pos += size
    edges = []
    for c in comms:
        ms = sorted(c.members)
        edges.extend(itertools.combinations(ms, 2))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p_background:
                edges.append((u, v))
    g = Graph.from_edges(edges, extra_vertices=range(n))
    return g, GroundTruth(comms)


def plant_attributes(g: Graph, gt: GroundTruth, coverage: int = 80,
                     n_attrs_per_comm: int = 3,
                     noise_range: tuple[int, int] = (1, 5),
                     pool_ratio: Fraction = Fraction(5, 1000),
                     rng_seed: int = 0) -> Graph:
    """Assign per-community attributes at `coverage` percent, plus noise.

    The attribute pool has max(n_attrs_per_comm, floor(pool_ratio * n))
    labels; noise draws come from the same pool.  Mutates g's attribute
    table and fills in each community's planted attrs.  Deterministic.
    """
    if n_attrs_per_comm < 1:
        raise ValueError("need at least one attribute per community")
    pool_size = max(n_attrs_per_comm, int(pool_ratio * g.n))
    pool = [f"a{i}" for i in range(pool_size)]
    rng = random.Random(rng_seed)
    table: dict[int, set[str]] = {ext: set() for ext in sorted(g.ext_ids)}
    for c in gt.communities:
        planted = sorted(rng.sample(pool, n_attrs_per_comm))
        c.attrs = tuple(planted)
        members = sorted(c.members)
        quota = max(1, round(coverage / 100 * len(members)))
        for label in planted:
            for v in sorted(rng.sample(members, quota)):
                table[v].add(label)
    lo, hi = noise_range
    for ext in sorted(g.ext_ids):
        count = rng.randint(lo, hi) if hi > 0 else 0
        if count:
            table[ext].update(rng.sample(pool, min(count, pool_size)))
    g.attach_attributes(table)
    return g


@dataclass
class GenQuery:
    """One generated query in external terms: vertex ids + attribute labels."""
    nodes: tuple[int, ...]
    attrs: tuple[str, ...]
    community: int


def representative_attrs(g: Graph, members: frozenset[int],
                         top: int = 2) -> tuple[str, ...]:
    """Attributes ranked by in-community vs out-community frequency ratio.

    Ties: attributes absent outside rank first, then higher in-community
    frequency, then lexicographic label.
    """
    inside = {g.internal(v) for v in members}
    n_in = len(inside)
    n_out = g.n - n_in
    scored = []
    for w, label in enumerate(g.attr_labels):
        holders = g.vertices_with(w)
        c_in = sum(1 for v in holders if v in inside)
        if c_in == 0:
            continue
        c_out = len(holders) - c_in
        in_freq = Fraction(c_in, n_in)
        if c_out == 0 or n_out == 0:
            ratio = None  # unbounded: attribute never appears outside
        else:
            ratio = in_freq / Fraction(c_out, n_out)
        scored.append((ratio is not None, ratio or ZERO, -in_freq, label))
    scored.sort(key=lambda t: (t[0], -t[1], t[2], t[3]))
    return tuple(t[3] for t in scored[:top])


def gen_queries(g: Graph, gt: GroundTruth, count: int,
                nodes_range: tuple[int, int] = (1, 16),
                attrs_per_query: int = 2, rng_seed: int = 0) -> list[GenQuery]:
    """Sample query nodes from one community; attrs are its representatives."""
    rng = random.Random(rng_seed)
    out = []
    for _ in range(count):
        ci = rng.randrange(len(gt.communities))
        members = sorted(gt.communities[ci].members)
        size = min(rng.randint(*nodes_range), len(members))
        nodes = tuple(sorted(rng.sample(members, size)))
        attrs = representative_attrs(g, gt.communities[ci].members,
                                     top=attrs_per_query)
        out.append(GenQuery(nodes, attrs, ci))
    return out


def f1(found, truth) -> tuple[Fraction, Fraction, Fraction]:
    """(precision, recall, F1) as exact rationals; empty found -> zeros."""
    found = set(found)
    truth = set(truth)
    if not truth:
        raise ValueError("ground-truth community must be non-empty")
    if not found:
        return ZERO, ZERO, ZERO
    inter = len(found & truth)
    p = Fraction(inter, len(found))
    r = Fraction(inter, len(truth))
    if p + r == 0:
        return p, r, ZERO
    return p, r, 2 * p * r / (p + r)


def structure_baseline(g, q: QuerySpec):
    """bulk_search with an empty attribute set: peeling driven by structure only."""
    qq = dataclasses.replace(q, query_attrs=frozenset())
    res, trace = bulk_search(g, qq)
    return dataclasses.replace(res, algo="baseline"), trace


def brute_force_atc(g: Graph, q: QuerySpec) -> SearchResult | None:
    """Exhaustive optimum over all vertex supersets of V_q (oracle; n <= 14).

    A candidate counts when its induced subgraph is itself a connected
    k-truss containing V_q within query distance d.  Score ties go to the
    smaller vertex set, then lexicographically smallest.
    """
    if g.n > 14:
        raise ValueError("brute force capped at 14 vertices")
    qs = sorted(q.query_nodes)
    rest = [v for v in range(g.n) if v not in q.query_nodes]
    best = None  # (-score, size, sorted tuple)
    best_sub = None
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            vs = tuple(sorted(qs + list(extra)))
            h = induced_subgraph(g, vs)
            if not is_kd_truss(h, qs, q.k, q.d):
                continue
            score = score_of_vertices(g, vs, q.query_attrs).score
            key = (-score, len(vs), vs)
            if best is None or key < best:
                best = key
                best_sub = h
    if best is None:
        return None
    _, qd = query_distance(best_sub, qs)
    return SearchResult(
        vertices=frozenset(best_sub.vertices),
        edges=tuple(best_sub.sorted_edges()),
        score=-best[0],
        k=q.k, d=q.d, query_dist=qd, diameter=diameter(best_sub),
        algo="brute", iterations=0, wall_time=0.0)


@dataclass
class EvalRow:
    query: GenQuery
    status: str  # ok | infeasible
    precision: Fraction
    recall: Fraction
    f1: Fraction
    runtime: float
    found_size: int


@dataclass
class EvalReport:
    rows: list[EvalRow] = field(default_factory=list)

    @property
    def mean_f1(self) -> Fraction:
        if not self.rows:
            return ZERO
        return sum((r.f1 for r in self.rows), ZERO) / len(self.rows)

    @property
    def mean_runtime(self) -> float:
        if not self.rows:
            return 0.0
        return sum(r.runtime for r in self.rows) / len(self.rows)


def evaluate(g: Graph, gt: GroundTruth, queries: list[GenQuery], run_query,
             ) -> EvalReport:
    """Score `run_query(g, QuerySpec) -> SearchResult|None` against the truth.

    Infeasible queries count as zero-F1 rows, keeping algorithms comparable
    on the same denominator.
    """
    report = EvalReport()
    for gq in queries:
        q = QuerySpec(
            query_nodes=frozenset(g.internal(v) for v in gq.nodes),
            query_attrs=frozenset(g.attr_id(a) for a in gq.attrs),
        )
        truth = {g.internal(v) for v in gt.communities[gq.community].members}
        t0 = time.perf_counter()
        try:
            res = run_query(g, q)
        except NoFeasibleCommunity:
            res = None
        dt = time.perf_counter() - t0
        if res is None:
            report.rows.append(EvalRow(gq, "infeasible", ZERO, ZERO, ZERO, dt, 0))
            continue
        p, r, f = f1(res.vertices, truth)
        report.rows.append(EvalRow(gq, "ok", p, r, f, dt, len(res.vertices)))
    return report


# --- harness file formats ----------------------------------------------------


def write_truth(gt: GroundTruth, path: str) -> None:
    """One community per line: TAB-separated vertex ids."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for c in gt.communities:
            fh.write("\t".join(str(v) for v in sorted(c.members)) + "\n")


def read_truth(path: str) -> GroundTruth:
    comms = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                try:
                    members = frozenset(parse_vertex_id(t) for t in line.split("\t"))
                except ValueError as exc:
                    raise GraphFormatError(f"{path}:{lineno}: {exc}") from None
                comms.append(Community(members))
    return GroundTruth(comms)


def write_queries(queries: list[GenQuery], path: str) -> None:
    """One query per line: nodes(csv) TAB attrs(csv) TAB community index."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for q in queries:
            fh.write("%s\t%s\t%d\n" % (",".join(map(str, q.nodes)),
                                       ",".join(q.attrs), q.community))


def read_queries(path: str, gt: GroundTruth) -> list[GenQuery]:
    """Queries whose community index must name one of gt's communities."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            try:
                if len(fields) != 3:
                    raise ValueError(f"expected 3 TAB-separated fields, got {len(fields)}")
                nodes = tuple(parse_vertex_id(t) for t in fields[0].split(","))
                comm = fields[2]
                if not (comm.isascii() and comm.isdigit()) or int(comm) >= len(gt):
                    raise ValueError(f"no community {comm!r} in the truth file "
                                     f"({len(gt)} communities)")
            except ValueError as exc:
                raise GraphFormatError(f"{path}:{lineno}: {exc}") from None
            out.append(GenQuery(nodes, tuple(t for t in fields[1].split(",") if t),
                                int(comm)))
    return out


def write_edges(g: Graph, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        ext = g.ext_ids
        rows = sorted((min(ext[u], ext[v]), max(ext[u], ext[v]))
                      for u, v in g.edge_iter())
        for a, b in rows:
            fh.write(f"{a} {b}\n")
        for v in sorted(g.ext_ids):
            if not g.adj[g.internal(v)]:
                # a self-loop line keeps the isolated vertex in the symbol
                # table on reload (loops are dropped after interning)
                fh.write(f"{v} {v}\n")


def write_attrs(g: Graph, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for ext in sorted(g.ext_ids):
            v = g.internal(ext)
            labels = sorted(g.attr_labels[w] for w in g.attrs[v])
            if labels:
                fh.write(f"{ext}\t" + "\t".join(labels) + "\n")
