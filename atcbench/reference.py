"""A fixed computation timed alongside the workload, to cancel host drift.

The host this benchmark was written on (2 vCPUs of a shared Xeon VM) is
noisy: its speed moves by up to 1.7x over seconds to minutes, and whole
runs land in slow phases.  Wall-clock medians of repeated runs of
one seed then spread by 10-35% (quartile distance over median), and a set
of runs can read as a regression of the program when only the host changed.

So each phase of a run interleaves this reference computation with the
library calls, keeping it to REF_SHARE of the phase's time, and scales each
timed call by REF_NOMINAL_S / (median time of the reference runs whose
midpoints lie within WINDOW call durations of the call's, or of the NEAREST
runs when fewer lie there).  A short call takes the runs next to it; a
call of seconds, which no reference run can interrupt, takes those before
and after it across a span as long as its own.  The result is in
"reference-host seconds": the time on a host where the reference takes
REF_NOMINAL_S, which is about what it takes on an idle 2-core Xeon VM with
CPython 3.11.  The reference does what the library does — copies of a
set-based adjacency, per-edge set intersections into a dict keyed by edge
tuples, a heap drain, a BFS and exact Fraction sums — on a working set of
the same size, so host contention slows both alike.  It uses nothing from
atc, so no change to the library changes it.
"""
from __future__ import annotations

import heapq
import random
import statistics
import time
from collections import deque
from fractions import Fraction

REF_NOMINAL_S = 0.04
REF_SHARE = 0.1
NEAREST = 4
WINDOW = 2


def _graph(n: int, m: int, seed: int) -> list[set[int]]:
    rng = random.Random(seed)
    adj: list[set[int]] = [set() for _ in range(n)]
    for _ in range(m):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


class Reference:
    """Times the reference computation; one instance per run phase."""

    adj = None  # built once per process; the same for every seed

    def __init__(self):
        if Reference.adj is None:
            Reference.adj = _graph(4000, 14000, seed=20160901)
        self.samples: list[tuple[float, float]] = []  # (midpoint, seconds)
        self.spent = 0.0

    def run_once(self) -> None:
        adj = self.adj
        t0 = time.perf_counter()
        work = {u: set(ns) for u, ns in enumerate(adj)}
        sup = {(u, v): len(work[u] & work[v])
               for u, ns in enumerate(adj) for v in ns if u < v}
        heap = [(s, e) for e, s in sup.items()]
        heapq.heapify(heap)
        while heap:
            heapq.heappop(heap)
        dist = {0: 0}
        queue = deque([0])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        total = Fraction(0)
        for i in range(1, 300):
            total += Fraction(i % 7, i)
        t1 = time.perf_counter()
        self.samples.append(((t0 + t1) / 2, t1 - t0))
        self.spent += t1 - t0

    def keep_up(self, elapsed: float) -> None:
        """Run the reference until it has taken REF_SHARE of `elapsed`
        seconds of the phase, and at least twice."""
        while len(self.samples) < 2 or self.spent < REF_SHARE * elapsed:
            self.run_once()

    def scale(self, t: float, dt: float) -> float:
        """Factor from seconds measured over a call of `dt` seconds around
        perf_counter() time `t` to reference-host seconds."""
        near = [d for m, d in self.samples if abs(m - t) <= WINDOW * dt]
        if len(near) < NEAREST:
            near = [d for _, d in sorted(self.samples, key=lambda s: abs(s[0] - t))[:NEAREST]]
        return REF_NOMINAL_S / statistics.median(near)
