"""Top-down greedy peeling: single-vertex (basic) and bulk-deletion search.

Both start from the maximal (k,d)-truss around the query nodes, repeatedly
delete the least useful non-query vertices, re-maintain the (k,d)-truss, and
return the best-scoring intermediate candidate.  Candidates are kept as a
deletion log over the starting subgraph, never as full snapshots.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph, QuerySpec, Subgraph, query_distance
from .score import (
    attribute_score,
    contribution_from_breakdown,
    gain_from_breakdown,
    removal_set,
    score_of_vertices,
)
from .truss import diameter, maintain_kd_truss, maximal_kd_truss, replay_events


class NoFeasibleCommunity(Exception):
    def __init__(self, reason: str):
        super().__init__(f"no feasible community: {reason}")
        self.reason = reason


@dataclass
class CandidateTrace:
    """Intermediate (k,d)-trusses as G_0 plus per-iteration deletion events."""
    base: Subgraph
    scores: list[Fraction]
    steps: list[list]  # steps[i] transforms G_i into G_{i+1}
    best: int

    def __len__(self):
        return len(self.scores)


def replay_candidate(trace: CandidateTrace, i: int) -> Subgraph:
    """Reconstruct candidate G_i from G_0 and the deletion log."""
    if not (0 <= i < len(trace.scores)):
        raise IndexError(i)
    return replay_events(trace.base, (ev for step in trace.steps[:i] for ev in step))


@dataclass
class SearchResult:
    vertices: frozenset[int]
    edges: tuple
    score: Fraction
    k: int
    d: int
    query_dist: int
    diameter: int
    algo: str
    iterations: int
    wall_time: float


def _finish(g: Graph, trace: CandidateTrace, q: QuerySpec, k: int, d: int,
            algo: str, iterations: int, t0: float) -> SearchResult:
    # argmax over candidates; ties go to the latest (smallest) candidate
    best = max(range(len(trace.scores)), key=lambda i: (trace.scores[i], i))
    trace.best = best
    h = replay_candidate(trace, best)
    _, qd = query_distance(h, q.query_nodes)
    return SearchResult(
        vertices=frozenset(h.vertices),
        edges=tuple(h.sorted_edges()),
        score=trace.scores[best],
        k=k,
        d=d,
        query_dist=qd,
        diameter=diameter(h),
        algo=algo,
        iterations=iterations,
        wall_time=time.perf_counter() - t0,
    )


def _initial_truss(g: Graph | Subgraph, q: QuerySpec, k: int, d: int) -> Subgraph:
    parent = g if isinstance(g, Graph) else g.parent
    for w in q.query_attrs:
        parent.vertices_with(w)  # raises UnknownAttributeError
    kd = maximal_kd_truss(g, q.query_nodes, k, d)
    if not kd.valid:
        raise NoFeasibleCommunity(kd.reason)
    return kd.subgraph


def basic_search(g: Graph | Subgraph, q: QuerySpec, k: int | None = None,
                 d: int | None = None):
    """Remove one minimum-contribution vertex per iteration (greedy peel)."""
    t0 = time.perf_counter()
    k = q.k if k is None else k
    d = q.d if d is None else d
    h = _initial_truss(g, q, k, d)
    parent = h.parent
    trace = CandidateTrace(h.copy(), [attribute_score(h, q.query_attrs).score], [], 0)
    iterations = 0
    while True:
        bd = score_of_vertices(parent, h.vertices, q.query_attrs)
        cands = [v for v in h.vertices if v not in q.query_nodes]
        if not cands:
            break
        u = min(cands, key=lambda v: (contribution_from_breakdown(parent, v, bd), v))
        iterations += 1
        ev = [("v", u)]
        h.remove_vertex(u)
        kd = maintain_kd_truss(h, q.query_nodes, k, d, in_place=True, events=ev)
        if not kd.valid:
            break
        trace.steps.append(ev)
        trace.scores.append(score_of_vertices(parent, h.vertices, q.query_attrs).score)
    res = _finish(parent, trace, q, k, d, "basic", iterations, t0)
    return res, trace


def bulk_batch_size(n: int, epsilon: Fraction) -> int:
    frac = epsilon / (1 + epsilon) * n
    return max(1, math.ceil(frac))


def bulk_search(g: Graph | Subgraph, q: QuerySpec, k: int | None = None,
                d: int | None = None):
    """Each iteration removes the batch of smallest-marginal-gain vertices."""
    t0 = time.perf_counter()
    k = q.k if k is None else k
    d = q.d if d is None else d
    h = _initial_truss(g, q, k, d)
    parent = h.parent
    trace = CandidateTrace(h.copy(), [attribute_score(h, q.query_attrs).score], [], 0)
    iterations = 0
    while True:
        cands = [v for v in h.vertices if v not in q.query_nodes]
        if not cands:
            break
        bd = score_of_vertices(parent, h.vertices, q.query_attrs)
        gains = {}
        for v in cands:
            gains[v] = gain_from_breakdown(parent, removal_set(h, v, k), bd)
        cands.sort(key=lambda v: (gains[v], v))
        batch = cands[:bulk_batch_size(h.num_vertices(), q.epsilon)]
        iterations += 1
        ev = []
        for v in batch:
            if h.has_vertex(v):  # earlier batch removals never drop peers, but be safe
                ev.append(("v", v))
                h.remove_vertex(v)
        kd = maintain_kd_truss(h, q.query_nodes, k, d, in_place=True, events=ev)
        if not kd.valid:
            break
        trace.steps.append(ev)
        trace.scores.append(score_of_vertices(parent, h.vertices, q.query_attrs).score)
        if h.num_vertices() < k:
            break  # no k-truss edge can survive below k vertices
    res = _finish(parent, trace, q, k, d, "bulk", iterations, t0)
    return res, trace


def iteration_bound(n: int, k: int, epsilon: Fraction) -> int:
    """Upper bound on bulk iterations: ceil(log_{1+eps}(n/k))."""
    if n <= k:
        return 1
    return math.ceil(math.log(n / k) / math.log(1 + float(epsilon)))
