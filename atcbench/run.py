#!/usr/bin/env python3
"""Benchmark of the atc library: query latency per algorithm, set-up cost,
and the attribute-truss index round trip, with every result checked.

    python3 atcbench/run.py --workload planted-1k --seed 0 --seconds 55 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Traffic is a closed loop: one process, one thread, one operation at a time.

Every workload runs the same five operations, so every workload reports
every metric: `local` queries (index built in set-up), `bulk` and `basic`
queries on the same generated query list, index round trips (build_index
-> save_index -> load_index), and set-up itself (load both files, build the
index), which a warm-up set-up precedes.  Each run generates GRAPHS graphs
from seeds derived from --seed and takes them in turn; inputs are a
function of --seed alone.

  planted-1k  planted communities, n=1000; queries from gen_queries,
              scored by F1 against the planted community.
  blob-2k     one dense 150-vertex blob in a sparse n=2000 graph; queries
              are a few `hot` blob vertices, scored against all `hot`
              vertices.  `bulk` and `basic` start from a large truss, so
              support counting and query-distance BFS dominate.

The operations of a workload take turns for --seconds, each walking its
input list (cycling at its end) for its share of the time, so that all of
them sample the whole run.  Each one's first pass (its first `n_first`
operations) always runs in full; accuracy and the determinism fields come
from it, so they do not depend on timing.  Times are reported in
reference-host seconds (see reference.py); wall-clock values are printed
on the line before the result.

With --trace 1 each first pass runs once untraced, as a baseline, and once
with the library wrapped (see spans.py).  The last stdout line then holds
the per-layer metrics, each divided by the number of root calls.
The result line holds exactly the metrics BENCHMARK.json names for the
mode; a span that a run never entered reads as 0.
Earlier stdout lines give the run context, the determinism fields and,
when traced, each span's share of its root's time.  Exit code 2 means the
library or BENCHMARK.json could not be read; result failures are reported
in the JSON.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

try:
    import atc.graph
    import atc.index
    from atc.graph import Graph, QuerySpec, Subgraph
    from atc.greedy import NoFeasibleCommunity, basic_search, bulk_search
    from atc.harness import (f1, gen_queries, gen_synth, plant_attributes,
                             write_attrs, write_edges)
    from atc.local import locatc_search
    from atc.score import score_of_vertices
    from atc.truss import is_kd_truss
except ImportError as exc:
    print(f"atcbench: cannot import the atc library from {ROOT / 'src'}: {exc}",
          file=sys.stderr)
    sys.exit(2)
if Path(atc.__file__).resolve().parent != ROOT / "src" / "atc":
    print(f"atcbench: atc was imported from {atc.__file__}, not from {ROOT / 'src'}",
          file=sys.stderr)
    sys.exit(2)

from reference import Reference
from spans import Tracer, greedy_counts

WORKLOADS = ("planted-1k", "blob-2k")
# graphs per run, each from its own seed derived from --seed: the work a
# query takes moves by 10-25% from graph to graph, and a run that averages
# over several graphs reads closer to the next run's
GRAPHS = 3
PLANTED_QUERIES = 200
BLOB_QUERIES = 40
# per workload: operation, share of --seconds, operations in its first pass
# (queries take the graphs in turn, so a first pass of 3 covers each once)
OPS = {"planted-1k": (("local", 0.55, 6), ("bulk", 0.1, 99), ("basic", 0.1, 30),
                      ("index", 0.15, 3), ("setup", 0.1, 3)),
       "blob-2k": (("local", 0.55, 3), ("bulk", 0.1, 12), ("basic", 0.15, 6),
                   ("index", 0.1, 3), ("setup", 0.1, 3))}
# the algorithms whose F1 against the truth is an end-to-end metric
F1_ALGOS = ("local", "bulk")

try:
    MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
except (OSError, ValueError) as exc:
    print(f"atcbench: cannot read {ROOT / 'BENCHMARK.json'}: {exc}", file=sys.stderr)
    sys.exit(2)


# --- inputs ----------------------------------------------------------------


def blob_graph(n: int, blob_size: int, seed: int) -> Graph:
    """Sparse G(n, 4/n) plus one blob of density 0.3; 70% of the blob is
    `hot`, everything else `cold`.  External ids are 0..n-1.

    The construction of scripts/bulk_vs_basic_timing.py, kept here so that
    the benchmark does not depend on that script."""
    rng = random.Random(seed)
    edges = []
    blob = rng.sample(range(n), blob_size)
    for i, u in enumerate(blob):
        for v in blob[i + 1:]:
            if rng.random() < 0.3:
                edges.append((u, v))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 4 / n:
                edges.append((u, v))
    g = Graph.from_edges(edges, extra_vertices=range(n))
    in_blob = set(blob)
    g.attach_attributes({v: (["hot"] if v in in_blob and rng.random() < 0.7
                             else ["cold"]) for v in range(n)})
    return g


def make_inputs(workload: str, seed: int, workdir: Path) -> list[dict]:
    """Write the files of the workload's GRAPHS graphs; return, for each,
    its file names, size and queries in external ids.

    Each query is (nodes, attribute labels, truth members)."""
    out = []
    for i in range(GRAPHS):
        sub = seed * GRAPHS + i
        if workload == "planted-1k":
            g, gt = gen_synth(n=1000, communities=20, seed=sub)
            plant_attributes(g, gt, coverage=80, rng_seed=sub)
            queries = [(gq.nodes, gq.attrs, gt.communities[gq.community].members)
                       for gq in gen_queries(g, gt, PLANTED_QUERIES, rng_seed=sub)]
        else:
            g = blob_graph(2000, 150, sub)
            rng = random.Random(sub + 1)
            # every `hot` vertex is in the blob: they are the planted community
            hot = sorted(g.ext_ids[v] for v in g.vertices_with(g.attr_id("hot")))
            queries = [(tuple(sorted(rng.sample(hot, 1 + k % 3))), ("hot",), hot)
                       for k in range(BLOB_QUERIES)]
        files = {ext: str(workdir / f"g{i}.{ext}") for ext in ("edges", "attrs", "atidx")}
        write_edges(g, files["edges"])
        write_attrs(g, files["attrs"])
        out.append({"files": files, "queries": queries, "n": g.n, "m": g.m,
                    "attributes": len(g.attr_labels)})
    return out


# --- checks ----------------------------------------------------------------


def check_result(g: Graph, q: QuerySpec, res) -> list[str]:
    """From-scratch checks of one search result; returns the failed ones."""
    adj: dict[int, set[int]] = {}
    for u, v in res.edges:
        if v not in g.adj[u]:
            return ["edge not in graph"]
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    h = Subgraph(g, adj, len(res.edges))
    bad = []
    if set(adj) != set(res.vertices):
        bad.append("edges do not span the vertices")
    if not q.query_nodes <= res.vertices:
        bad.append("query nodes missing")
    if (res.k, res.d) != (q.k, q.d):
        bad.append("(k,d) differs from the request")
    if not adj or not is_kd_truss(h, q.query_nodes, res.k, res.d):
        bad.append("not a (k,d)-truss")
    if score_of_vertices(g, h.vertices, q.query_attrs).score != res.score:
        bad.append("score differs from a recount")
    return bad


def index_tables(g: Graph, idx) -> tuple:
    """Structural and per-attribute edge trussness in external ids."""
    ext = g.ext_ids

    def rows(table):
        return sorted((min(ext[u], ext[v]), max(ext[u], ext[v]), t)
                      for (u, v), t in table.items())
    return (idx.tau_max, rows(idx.edge_truss),
            sorted((g.attr_labels[w], rows(t)) for w, t in idx.attr_edge_truss.items()))


def digest(records) -> str:
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()[:16]


# --- runner ----------------------------------------------------------------


@dataclass
class Plan:
    """One operation's part of a workload run."""
    algo: str  # local, bulk, basic, index or setup
    share: float  # of the run's time
    n_first: int  # operations in the first pass
    items: list  # the (graph, query or None) inputs it cycles through
    done: int = 0
    spent: float = 0.0
    times: list = field(default_factory=list)  # (midpoint, seconds) per operation
    records: dict = field(default_factory=dict)  # input index -> first record
    f1s: list = field(default_factory=list)
    phases: list = field(default_factory=list)  # index: build, save, load (midpoint, seconds)
    counts: dict | None = None
    host: Reference | None = None


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, traced: bool,
                 workdir: Path):
        self.workload = workload
        self.seconds = seconds
        self.traced = traced
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, tuple] = {}
        self.raw: dict[str, tuple] = {}  # the time metrics in wall-clock seconds
        self.determinism: dict[str, dict] = {}
        self.inputs = make_inputs(workload, seed, workdir)

    def record(self, name: str, unit: str, timed: list, host) -> None:
        """Store the median ("s") or the rate ("1/s") of timed calls, given
        as (midpoint, seconds) pairs, in reference-host seconds when `host`
        timed the reference alongside them (see reference.py)."""
        wall = [dt for _, dt in timed]
        scaled = [dt * host.scale(mid, dt) for mid, dt in timed] if host else wall
        for out, times in ((self.raw, wall), (self.metrics, scaled)):
            value = statistics.median(times) if unit == "s" else len(times) / sum(times)
            out[name] = (value, unit)

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"atcbench: {self.workload}: {what}", file=sys.stderr)

    # operations

    def setup_once(self, i: int):
        """What a user pays before the first query on graph i."""
        files = self.inputs[i]["files"]
        g = atc.graph.load_edge_list(files["edges"])
        atc.graph.load_attributes(files["attrs"], g)
        return g, atc.index.build_index(g)

    def round_trip(self, i: int):
        """Build, save and load graph i's index; returns both and each
        phase's (midpoint, seconds)."""
        g, path = self.graphs[i][0], self.inputs[i]["files"]["atidx"]
        t0 = time.perf_counter()
        idx = atc.index.build_index(g)
        t1 = time.perf_counter()
        atc.index.save_index(idx, g, path)
        t2 = time.perf_counter()
        loaded = atc.index.load_index(path, g)
        t3 = time.perf_counter()
        return idx, loaded, [((a + b) / 2, b - a) for a, b in ((t0, t1), (t1, t2), (t2, t3))]

    def run_op(self, p: Plan, j: int, traced: bool):
        """One closed-loop operation on input j; returns (seconds, result or
        None, record).  The record is what a repeat must reproduce."""
        self.attempted += 1
        i, q = p.items[j]
        g, idx = self.graphs[i]
        if p.algo in ("index", "setup"):
            fn, args = {"index": self.round_trip, "setup": self.setup_once}[p.algo], (i,)
        elif p.algo == "local":
            fn, args = locatc_search, (g, idx, self.specs[i][q])
        else:
            fn, args = {"bulk": bulk_search, "basic": basic_search}[p.algo], (g, self.specs[i][q])
        observe = greedy_counts if p.algo in ("bulk", "basic") else None
        t0 = time.perf_counter()
        try:
            out = self.tracer.call(p.algo, fn, *args, observe=observe) if traced else fn(*args)
        except NoFeasibleCommunity:
            return time.perf_counter() - t0, None, ["infeasible"]
        except Exception:  # any other exception is a failed operation
            dt = time.perf_counter() - t0
            self.fail(f"{p.algo} raised:\n{traceback.format_exc()}")
            return dt, None, ["error"]
        dt = time.perf_counter() - t0
        if p.algo == "index":
            built_idx, loaded, phases = out
            p.phases.append(phases)
            built = index_tables(g, built_idx)
            if index_tables(g, loaded) != built:
                self.fail("loaded index tables differ from the built ones")
            return dt, None, [digest(built), os.path.getsize(self.inputs[i]["files"]["atidx"])]
        if p.algo == "setup":
            loaded_g, built_idx = out
            return dt, None, [loaded_g.n, loaded_g.m, built_idx.tau_max]
        res = out if p.algo == "local" else out[0]
        bad = check_result(g, self.specs[i][q], res)
        if bad:
            self.fail(f"{p.algo} result failed checks: {', '.join(bad)}")
        return dt, res, [sorted(g.ext_ids[v] for v in res.vertices),
                         f"{res.score.numerator}/{res.score.denominator}",
                         res.iterations]

    def step(self, p: Plan, j: int, traced: bool) -> float:
        """Run operation j of plan p, check it against earlier runs of the
        same input and score the first pass; returns its seconds."""
        t0 = time.perf_counter()
        dt, res, record = self.run_op(p, j, traced)
        p.times.append((t0 + dt / 2, dt))
        if j not in p.records:
            p.records[j] = record
            if j < p.n_first and p.algo in F1_ALGOS:
                i, q = p.items[j]
                found = res.vertices if res is not None else ()
                truth = self.inputs[i]["queries"][q][2]
                p.f1s.append(f1(found, {self.graphs[i][0].internal(v) for v in truth})[2])
        elif record != p.records[j]:
            self.fail(f"{p.algo} input {p.items[j]} gave a different result on a repeat")
        return dt

    def interleave(self, plans: list) -> None:
        """Closed loop for --seconds: each step runs the next operation of
        the plan furthest below its share of the time, so every plan
        samples the whole run; past --seconds, unfinished first passes
        run to their end."""
        host = Reference()
        for p in plans:
            p.host = host
        t_start = time.perf_counter()
        while True:
            if time.perf_counter() - t_start < self.seconds:
                ready = plans
            else:
                ready = [p for p in plans if p.done < p.n_first]
                if not ready:
                    break
            p = min(ready, key=lambda p: p.spent / p.share)
            p.spent += self.step(p, p.done % len(p.items), False)
            p.done += 1
            host.keep_up(time.perf_counter() - t_start)

    def trace_first_pass(self, p: Plan) -> None:
        """The first pass untraced, as a baseline, then traced."""
        inputs = [j % len(p.items) for j in range(p.n_first)]
        baseline = [self.run_op(p, j, False) for j in inputs]
        before = self.tracer.snapshot()
        with self.tracer.installed():
            traced_s = sum(self.step(p, j, True) for j in inputs)
        p.counts = self.counts_since(before)
        if [r[2] for r in baseline] != [p.records[j] for j in inputs]:
            self.fail(f"{p.algo}: traced results differ from untraced ones")
        baseline_s = sum(r[0] for r in baseline)
        self.metrics[f"{p.algo}.trace_overhead"] = (traced_s / baseline_s - 1, "ratio")

    def counts_since(self, before: dict) -> dict:
        after = self.tracer.snapshot()
        return {k: v - before.get(k, 0) for k, v in sorted(after.items())
                if v != before.get(k, 0)}

    def report(self, p: Plan) -> None:
        """The plan's end-to-end metrics and determinism fields."""
        first = [p.records[j] for j in range(p.n_first)]
        det: dict = {"calls": p.n_first}
        if p.algo in ("index", "setup"):
            det["digest"] = digest(first)
        else:
            det.update(digest=digest([[i, list(self.inputs[i]["queries"][q][:2]), r]
                                      for (i, q), r in zip(p.items, first)]),
                       infeasible=sum(1 for r in first if r == ["infeasible"]),
                       iterations=sum(r[2] for r in first if len(r) == 3),
                       result_vertices=sum(len(r[0]) for r in first if len(r) == 3))
        if p.algo == "setup":
            self.record("setup_s", "s", p.times, p.host)
        elif p.algo == "index":
            for name, col in zip(("build_s", "save_s", "load_s"), zip(*p.phases)):
                self.record(f"index.{name}", "s", list(col), p.host)
            sizes = [r[1] for r in first if len(r) == 2]
            if sizes:
                self.metrics["index_bytes"] = (statistics.mean(sizes), "B")
        else:
            self.record(f"{p.algo}.query_p50_s", "s", p.times, p.host)
            self.record(f"{p.algo}.qps", "1/s", p.times, p.host)
            if p.f1s:
                self.metrics[f"{p.algo}.f1_mean"] = (float(sum(p.f1s) / len(p.f1s)), "ratio")
        if p.counts is not None:
            det["counts"] = p.counts
        self.determinism[p.algo] = det

    def run(self):
        # warm-up set-ups give the queries their graphs and indexes; the
        # setup plan times repeats of them
        self.graphs = [self.setup_once(i) for i in range(GRAPHS)]
        self.specs = [[QuerySpec(query_nodes=frozenset(g.internal(v) for v in nodes),
                                 query_attrs=frozenset(g.attr_id(a) for a in attrs))
                       for nodes, attrs, _ in inp["queries"]]
                      for (g, _), inp in zip(self.graphs, self.inputs)]
        graphs = [(i, None) for i in range(GRAPHS)]
        # query k of every graph before query k + 1 of any
        queries = [(i, q) for q in range(len(self.specs[0])) for i in range(GRAPHS)]
        plans = [Plan(algo, share, n_first,
                      graphs if algo in ("index", "setup") else queries)
                 for algo, share, n_first in OPS[self.workload]]
        if self.traced:
            for p in plans:
                self.trace_first_pass(p)
        else:
            self.interleave(plans)
        for p in plans:
            self.report(p)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.metrics["peak_rss_mb"] = (rss, "MB")


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout; source_digest still names the code
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "atc").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def profile(tracer: Tracer) -> dict:
    """Each span's self time as a share of its root's total time."""
    totals = {name: rec[2] for name, rec in tracer.spans.items() if "." not in name}
    out: dict[str, dict] = {}
    for name, rec in sorted(tracer.spans.items(), key=lambda kv: -kv[1][1]):
        root = name.split(".", 1)[0]
        out.setdefault(root, {})[name] = round(rec[1] / totals[root], 4)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workdir = ROOT / ".atcbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
        run.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    context = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "cpu_count": os.cpu_count(),
               "python": platform.python_version(), "git_revision": git_revision(),
               "source_digest": source_digest(),
               **{key: [inp[key] for inp in run.inputs] for key in ("n", "m", "attributes")},
               "queries": [len(inp["queries"]) for inp in run.inputs],
               "failed_ratio": run.failed / max(run.attempted, 1)}
    print(json.dumps({"context": context}))
    print(json.dumps({"determinism": run.determinism}, sort_keys=True))
    if not args.trace:
        print(json.dumps({"wall_clock": {k: v for k, (v, _) in run.raw.items()}}))
    if args.trace:
        print(json.dumps({"profile": profile(run.tracer)}))
        measured = run.tracer.metrics()
        measured.update((k, v) for k, v in run.metrics.items() if k.endswith(".trace_overhead"))
        # a span this run never entered took no calls and no time
        metrics = {m["name"]: measured.get(m["name"], (0, m["unit"]))
                   for m in MANIFEST["per_layer"]}
    else:
        metrics = {}
        for m in MANIFEST["end_to_end"]:
            if m["name"] in run.metrics:
                metrics[m["name"]] = run.metrics[m["name"]]
            else:
                run.fail(f"end-to-end metric {m['name']} was not measured")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
