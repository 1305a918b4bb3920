"""Attribute score f(H, W_q) and the quantities driving greedy peeling.

f(H, W_q) = sum over query attributes w of c_w^2 / |V(H)| where c_w counts
the members of H carrying w.  Scores are exact: the peeling loops compare
integers and a Fraction is built only for the scores a result reports, so
no comparison suffers float ties.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .graph import Graph, Subgraph

ZERO = Fraction(0)


@dataclass
class ScoreBreakdown:
    """Cover counts per query attribute and sum_w c_w^2, for one vertex set."""
    size: int
    cover: dict[int, int]  # query attribute id -> |V_w ∩ V(H)|
    squares: int = field(init=False)

    def __post_init__(self):
        self.squares = sum(c * c for c in self.cover.values())

    @property
    def score(self) -> Fraction:
        if self.size == 0:
            return ZERO
        return Fraction(self.squares, self.size)

    def add_vertex(self, g: Graph, v: int) -> None:
        """Count v in."""
        self.size += 1
        for w in g.attrs[v]:
            c = self.cover.get(w)
            if c is not None:
                self.squares += 2 * c + 1  # (c + 1)^2 - c^2
                self.cover[w] = c + 1


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


def contribution_from_breakdown(g: Graph, v: int, breakdown: ScoreBreakdown) -> int:
    ws = breakdown.cover
    return sum(2 * ws[w] - 1 for w in g.attrs[v] if w in ws)


def removal_set(h: Subgraph, v: int, floor: set[int]) -> list[int]:
    """P_H(v): v plus its neighbors sitting at the k-truss degree floor k-1.

    `floor` is the set of h's vertices of degree k-1, which a caller taking
    P_H(v) for many v of one h computes once.
    """
    return [v, *(h.adj[v] & floor)]


def gain_from_breakdown(g: Graph, batch: list[int],
                        breakdown: ScoreBreakdown) -> int:
    """The gain f(H) - f(H - batch) times |V(H)|^2, rounded up, computed
    without materializing H - batch; an emptied H scores 0.

    Exact for ranking: each f(H - batch) is a ratio over at most |V(H)|
    vertices, so two gains that differ, differ by at least 1/|V(H)|^2.
    """
    cover = breakdown.cover
    n = breakdown.size
    left = breakdown.squares  # sum_w c_w^2 over H - batch
    lost: dict[int, int] = {}
    for u in batch:
        for w in g.attrs[u]:
            if w in cover:
                r = lost.get(w, 0)
                left -= 2 * (cover[w] - r) - 1  # (c - r)^2 - (c - r - 1)^2
                lost[w] = r + 1
    return breakdown.squares * n - left * n * n // max(n - len(batch), 1)


def majority_from_breakdown(attr_set: set[int], breakdown: ScoreBreakdown) -> bool:
    """The majority test in integers: sum_w theta(H, w) >= f(H) / (2|V|) with
    theta(H, w) = c_w / |V| and f(H) = sum_w c_w^2 / |V|, times 2|V|^2."""
    n = breakdown.size
    if n == 0:
        return False
    covered = sum(c for w, c in breakdown.cover.items() if w in attr_set)
    return 2 * n * covered >= breakdown.squares
