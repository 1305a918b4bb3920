"""Span tracing of the atc layers from outside the library.

`Tracer.installed()` replaces every module-level binding of the traced
functions in the `atc` package with a wrapper, so a call made through any
module (``atc.greedy.maintain_kd_truss`` as well as
``atc.truss.maintain_kd_truss``) is recorded.  Spans are named
``<root>.<module>.<function>``; the root is the algorithm the benchmark is
running (``local``, ``bulk``, ``basic``, ``index`` or ``setup``) and is
opened by the benchmark around the call.  Outside a root the wrappers call
straight through and record nothing, so result checks are not counted.

Spans live in memory; `metrics()` reports them once the run is over.
"""
from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter

MODULES = ("atc", "atc.graph", "atc.truss", "atc.score", "atc.greedy",
           "atc.index", "atc.local", "atc.harness", "atc.cli")

# (module, function) pairs that get a timed span
TIMED = (
    ("local", "steiner_seed"), ("local", "expand_candidate"),
    ("truss", "max_trussness_connecting"), ("truss", "truss_decompose"),
    ("truss", "maximal_kd_truss"), ("truss", "maintain_kd_truss"),
    ("truss", "compute_supports"), ("truss", "diameter"),
    ("graph", "query_distance"), ("graph", "load_edge_list"),
    ("graph", "load_attributes"), ("graph", "project_on_attribute"),
    ("greedy", "bulk_search"), ("greedy", "replay_candidate"),
    ("score", "score_of_vertices"), ("score", "gain_from_breakdown"),
    ("score", "removal_set"),
    ("index", "build_index"), ("index", "save_index"), ("index", "load_index"),
)

# hot functions: a timer per call would swamp them, so they are only counted
COUNTED = (
    ("score", "majority_from_breakdown"), ("score", "contribution_from_breakdown"),
)

# stages run once per root call: their call count carries no information
ONCE = {"local.steiner_seed", "local.expand_candidate",
        "truss.max_trussness_connecting", "truss.diameter", "greedy.bulk_search",
        "greedy.replay_candidate", "graph.load_edge_list", "graph.load_attributes",
        "index.build_index", "index.save_index", "index.load_index"}


def greedy_counts(out):
    res, trace = out
    return {"greedy.iterations": res.iterations,
            "greedy.initial_vertices": trace.base.num_vertices(),
            "greedy.result_vertices": len(res.vertices)}


# work counts read from the objects a traced function returns
OBSERVERS = {
    "local.steiner_seed": lambda out: {"local.seed_vertices": len(out.vertices)},
    "local.expand_candidate": lambda out: {"local.expanded_vertices": out.num_vertices()},
    "truss.max_trussness_connecting": lambda out: {"local.core_vertices": out[1].num_vertices()},
    "greedy.bulk_search": greedy_counts,
}


class Tracer:
    """Per-root span and counter aggregates for one benchmark process."""

    def __init__(self):
        self.root = None
        self.stack: list[list] = []  # open frames: [name, child seconds, has children]
        self.spans: dict[str, list] = {}  # name -> [calls, self_s, total_s, has children]
        self.counts: Counter = Counter()
        self.roots: Counter = Counter()  # root -> completed root calls
        self.hits: dict[str, list] = {}  # counted function -> [calls]

    # -- wrappers -----------------------------------------------------------

    def _timed(self, label: str, fn):
        observe = OBSERVERS.get(label)

        def wrapper(*args, **kwargs):
            if self.root is None:
                return fn(*args, **kwargs)
            frame = [f"{self.root}.{label}", 0.0, False]
            self.stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(frame, time.perf_counter() - t0)
            if observe is not None:
                self.add(self.root, observe(out))
            return out
        return wrapper

    def _counted(self, label: str, fn):
        # a bare increment: these run hundreds of thousands of times a query,
        # and `call` attributes the increments to the root around them
        cell = self.hits.setdefault(label, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _close(self, frame, dt: float) -> None:
        self.stack.pop()
        rec = self.spans.setdefault(frame[0], [0, 0.0, 0.0, False])
        rec[0] += 1
        rec[1] += dt - frame[1]
        rec[2] += dt
        rec[3] = rec[3] or frame[2]
        if self.stack:
            self.stack[-1][1] += dt
            self.stack[-1][2] = True

    def add(self, root: str, counts: dict) -> None:
        for k, v in counts.items():
            self.counts[f"{root}.{k}"] += v

    @contextlib.contextmanager
    def installed(self):
        """Wrap every module-level binding of the TIMED and COUNTED functions
        for the duration of the block."""
        mods = [importlib.import_module(m) for m in MODULES]
        replaced = []
        for pairs, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for mod_name, fn_name in pairs:
                fn = getattr(importlib.import_module(f"atc.{mod_name}"), fn_name)
                wrapper = make(f"{mod_name}.{fn_name}", fn)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, attr, wrapper)
                            replaced.append((m, attr, fn))
        try:
            yield self
        finally:
            for m, attr, fn in reversed(replaced):
                setattr(m, attr, fn)

    # -- roots --------------------------------------------------------------

    def call(self, root: str, fn, *args, observe=None):
        """Run fn(*args) as one root span; returns fn's result.

        `observe`, when given, maps the result to work counts for the root.
        """
        self.root = root
        hits = {label: cell[0] for label, cell in self.hits.items()}
        frame = [root, 0.0, False]
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            self._close(frame, time.perf_counter() - t0)
            self.root = None
            self.roots[root] += 1
            for label, cell in self.hits.items():
                if cell[0] != hits[label]:
                    self.counts[f"{root}.{label}.calls"] += cell[0] - hits[label]
        if observe is not None:
            self.add(root, observe(out))
        return out

    # -- reporting ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Deterministic counts so far: span calls and counted calls."""
        out = {f"{name}.calls": rec[0] for name, rec in self.spans.items()}
        out.update(self.counts)
        return out

    def metrics(self) -> dict:
        """Per-layer metrics, each divided by the number of its root calls."""
        out = {}
        for name, (calls, self_s, total_s, has_children) in self.spans.items():
            root, _, label = name.partition(".")
            n = self.roots[root]
            if label and label not in ONCE:
                out[f"{name}.calls"] = (calls / n, "count")
            out[f"{name}.self_s"] = (self_s / n, "s")
            if has_children:
                out[f"{name}.total_s"] = (total_s / n, "s")
            if not label:
                out[f"{name}.untraced_share"] = (self_s / total_s, "ratio")
        for name, value in self.counts.items():
            out[name] = (value / self.roots[name.split(".", 1)[0]], "count")
        for root in self.roots:
            greedy = (self.counts[f"{root}.greedy.result_vertices"],
                      self.counts[f"{root}.greedy.initial_vertices"])
            if greedy[1]:
                out[f"{root}.greedy.kept_ratio"] = (greedy[0] / greedy[1], "ratio")
            expanded = self.counts[f"{root}.local.expanded_vertices"]
            if expanded:
                out[f"{root}.local.kept_ratio"] = (greedy[0] / expanded, "ratio")
        return out
