"""Attribute score f(H, W_q) and the quantities driving greedy peeling.

f(H, W_q) = sum over query attributes w of c_w^2 / |V(H)| where c_w counts
the members of H carrying w.  All arithmetic is exact (Fraction) so argmax
comparisons between candidates never suffer float ties.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .graph import Graph, Subgraph

ZERO = Fraction(0)


@dataclass
class ScoreBreakdown:
    """Per-attribute cover counts plus the total score for one vertex set."""
    size: int
    cover: dict[int, int]  # query attribute id -> |V_w ∩ V(H)|

    @property
    def score(self) -> Fraction:
        if self.size == 0:
            return ZERO
        num = sum(c * c for c in self.cover.values())
        return Fraction(num, self.size)

    def add_vertex(self, g: Graph, v: int) -> None:
        self.size += 1
        for w in g.attrs[v]:
            if w in self.cover:
                self.cover[w] += 1


def score_of_vertices(g: Graph, vertices: Iterable[int],
                      query_attrs: Iterable[int]) -> ScoreBreakdown:
    ws = set(query_attrs)
    cover = {w: 0 for w in ws}
    size = 0
    for v in vertices:
        size += 1
        for w in g.attrs[v]:
            if w in cover:
                cover[w] += 1
    return ScoreBreakdown(size, cover)


def attribute_score(h: Subgraph, query_attrs: Iterable[int]) -> ScoreBreakdown:
    return score_of_vertices(h.parent, h.vertices, query_attrs)


def score_contribution(h: Subgraph, v: int, query_attrs,
                       breakdown: ScoreBreakdown | None = None) -> int:
    """Sum over v's query attributes of (2*c_w - 1).

    Satisfies f(H-{v}) * (|V(H)|-1) = f(H) * |V(H)| - contribution exactly.
    """
    if not h.has_vertex(v):
        raise KeyError(v)
    if breakdown is None:
        breakdown = attribute_score(h, query_attrs)
    return contribution_from_breakdown(h.parent, v, breakdown)


def contribution_from_breakdown(g: Graph, v: int, breakdown: ScoreBreakdown) -> int:
    ws = breakdown.cover
    return sum(2 * ws[w] - 1 for w in g.attrs[v] if w in ws)


def removal_set(h: Subgraph, v: int, k: int) -> list[int]:
    """P_H(v): v plus its neighbors sitting at the k-truss degree floor."""
    return [v] + [u for u in h.adj[v] if len(h.adj[u]) == k - 1]


def gain_from_breakdown(g: Graph, batch: Iterable[int],
                        breakdown: ScoreBreakdown) -> Fraction:
    """f(H) - f(H - batch), computed without materializing H - batch."""
    cover = dict(breakdown.cover)
    size = breakdown.size
    for u in batch:
        size -= 1
        for w in g.attrs[u]:
            if w in cover:
                cover[w] -= 1
    after = ZERO if size == 0 else Fraction(sum(c * c for c in cover.values()), size)
    return breakdown.score - after


def local_marginal_gain(h: Subgraph, v: int, query_attrs, k: int,
                        breakdown: ScoreBreakdown | None = None) -> Fraction:
    """Approximate marginal gain of deleting v: f(H) - f(H - P_H(v))."""
    if not h.has_vertex(v):
        raise KeyError(v)
    if breakdown is None:
        breakdown = attribute_score(h, query_attrs)
    batch = removal_set(h, v, k)
    if len(batch) >= h.num_vertices():
        raise ValueError("removal would empty the graph")
    return gain_from_breakdown(h.parent, batch, breakdown)


def is_majority(h: Subgraph, attr_set: Iterable[int], query_attrs,
                breakdown: ScoreBreakdown | None = None) -> bool:
    """Whether attr_set covers the majority attributes of h.

    True iff sum over w in W_q ∩ attr_set of theta(H, w) >= f(H, W_q) / (2|V(H)|).
    """
    if breakdown is None:
        breakdown = attribute_score(h, query_attrs)
    return majority_from_breakdown(set(attr_set), breakdown)


def majority_from_breakdown(attr_set: set[int], breakdown: ScoreBreakdown) -> bool:
    """The majority test in integers: sum_w theta(H, w) >= f(H) / (2|V|) with
    theta(H, w) = c_w / |V| and f(H) = sum_w c_w^2 / |V|, times 2|V|^2."""
    n = breakdown.size
    if n == 0:
        return False
    cover = breakdown.cover
    covered = sum(c for w, c in cover.items() if w in attr_set)
    return 2 * n * covered >= sum(c * c for c in cover.values())
