"""Top-down greedy peeling: single-vertex (basic) and bulk-deletion search.

Both run one loop (`_peel`): start from the maximal (k,d)-truss around the
query nodes, repeatedly delete the least useful non-query vertices,
re-maintain the (k,d)-truss, and return the best-scoring intermediate
candidate.  They differ only in what they delete per round.  Since
f(H) = sum_w c_w^2 / |V(H)| <= sum_w c_w and cover counts only fall as
vertices go, the loop stops once no later candidate can beat the best so
far.  Candidates are kept as a deletion log over the starting subgraph,
never as full snapshots.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph, QuerySpec, Subgraph, query_distance
from .score import (
    contribution_from_breakdown,
    gain_from_breakdown,
    removal_set,
    score_of_vertices,
)
from .truss import (NO_KD_TRUSS, KdTruss, diameter, maintain_kd_truss,
                    maximal_kd_truss)


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
    """Reconstruct candidate G_i by re-applying the first i steps of the
    deletion log to a copy of G_0."""
    if not (0 <= i < len(trace.scores)):
        raise IndexError(i)
    h = trace.base.copy()
    for step in trace.steps[:i]:
        for ev in step:
            if ev[0] == "v":
                h.remove_vertex(ev[1])
            else:
                h.remove_edge(ev[1], ev[2])
    return h


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


def _finish(trace: CandidateTrace, q: QuerySpec, algo: str, iterations: int,
            t0: float) -> SearchResult:
    h = replay_candidate(trace, trace.best)
    _, qd = query_distance(h, q.query_nodes)
    return SearchResult(
        vertices=frozenset(h.vertices),
        edges=tuple(h.sorted_edges()),
        score=trace.scores[trace.best],
        k=q.k,
        d=q.d,
        query_dist=qd,
        diameter=diameter(h),
        algo=algo,
        iterations=iterations,
        wall_time=time.perf_counter() - t0,
    )


def _peel(g: Graph | Subgraph, q: QuerySpec, algo: str, pick, start=None):
    """The greedy framework: delete pick(h, cands, bd) per round, restore
    the (k,d)-truss, and return the best candidate with its trace.

    `cands` lists the non-query vertices of h and `bd` is h's score breakdown.
    `start`, when given, is the maximal (k,d)-truss of g, or its failure.
    The best candidate is the latest of the highest score.  Every later
    candidate lies inside h minus the picked batch, so it scores at most
    sum_w c_w there; once the best scores strictly more, the round stops
    the loop before maintenance and does not count in `iterations`.
    """
    t0 = time.perf_counter()
    q.check_ids(g)
    kd = start or maximal_kd_truss(g, q.query_nodes, q.k, q.d)
    if not kd.valid:
        raise NoFeasibleCommunity(NO_KD_TRUSS)
    h, sup = kd.subgraph, kd.sup
    parent = h.parent
    bd = score_of_vertices(parent, h.vertices, q.query_attrs)
    trace = CandidateTrace(h.copy(), [bd.score], [], 0)
    best_sq, best_n = bd.squares, bd.size  # the best score, as sum_w c_w^2 / |H|
    iterations = 0
    while True:
        cands = [v for v in h.vertices if v not in q.query_nodes]
        if not cands:
            break
        drop = pick(h, cands, bd)
        cover = bd.cover
        left = sum(cover.values()) - sum(
            1 for v in drop for w in parent.attrs[v] if w in cover)
        if best_sq > left * best_n:
            break
        ev = []
        iterations += 1
        if not maintain_kd_truss(h, q.query_nodes, q.k, q.d, events=ev, sup=sup,
                                 drop=drop).valid:
            break
        bd = score_of_vertices(parent, h.vertices, q.query_attrs)
        trace.steps.append(ev)
        trace.scores.append(bd.score)
        if bd.squares * best_n >= best_sq * bd.size:  # ties go to the latest
            best_sq, best_n = bd.squares, bd.size
            trace.best = len(trace.steps)
    return _finish(trace, q, algo, iterations, t0), trace


def basic_search(g: Graph | Subgraph, q: QuerySpec):
    """Remove one minimum-contribution vertex per iteration (greedy peel)."""
    def pick(h, cands, bd):
        return [min(cands, key=lambda v: (
            contribution_from_breakdown(h.parent, v, bd), v))]
    return _peel(g, q, "basic", pick)


def bulk_batch_size(n: int, epsilon: Fraction) -> int:
    frac = epsilon / (1 + epsilon) * n
    return max(1, math.ceil(frac))


def bulk_search(g: Graph | Subgraph, q: QuerySpec,
                start: KdTruss | None = None):
    """Each iteration removes the batch of smallest-marginal-gain vertices."""
    def pick(h, cands, bd):
        floor = {u for u, ns in h.adj.items() if len(ns) == q.k - 1}
        attrs = h.parent.attrs
        alone = {}  # attributes -> gain of a vertex whose P_H(v) is {v}

        def gain(v):
            batch = removal_set(h, v, floor)
            if len(batch) > 1:
                return gain_from_breakdown(h.parent, batch, bd)
            if attrs[v] not in alone:
                alone[attrs[v]] = gain_from_breakdown(h.parent, batch, bd)
            return alone[attrs[v]]

        ranked = sorted(cands, key=lambda v: (gain(v), v))
        return ranked[:bulk_batch_size(h.num_vertices(), q.epsilon)]
    return _peel(g, q, "bulk", pick, start)

