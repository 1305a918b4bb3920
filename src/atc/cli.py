"""Command-line front end: index, decompose, query, gen, eval.

Exit codes: 0 success, 1 usage error, 2 input/format error, 3 infeasible or
bad query when --fail-on-empty is set.  Output is machine-readable (JSON
with sorted keys, TSV reports) and byte-identical for identical argv + seed.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from fractions import Fraction

from . import __version__
from .graph import (
    Graph,
    GraphFormatError,
    QuerySpec,
    UnknownAttributeError,
    UnknownVertexError,
    load_attributes,
    load_edge_list,
    parse_vertex_id,
)
from .greedy import NoFeasibleCommunity, basic_search, bulk_search
from .harness import (
    evaluate,
    gen_queries,
    gen_synth,
    plant_attributes,
    read_queries,
    read_truth,
    structure_baseline,
    write_attrs,
    write_edges,
    write_queries,
    write_truth,
)
from .index import (
    FORMAT_VERSION,
    IndexFileError,
    build_index,
    edge_rows,
    load_index,
    save_index,
)
from .local import classify_query, locatc_search
from .truss import truss_decompose

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_EMPTY = 3

# --algo -> search(g, idx, q) giving a SearchResult; idx is None but for local
SEARCHES = {
    "basic": lambda g, idx, q: basic_search(g, q)[0],
    "bulk": lambda g, idx, q: bulk_search(g, q)[0],
    "local": locatc_search,
    "baseline": lambda g, idx, q: structure_baseline(g, q)[0],
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; we want 1."""

    def error(self, message):
        raise UsageError(message)


def format_score(x: Fraction) -> str:
    """Exact fixed 6-decimal rendering (no float round-trip)."""
    scaled = round(x * 10**6)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    return f"{sign}{scaled // 10**6}.{scaled % 10**6:06d}"


def fraction(text: str) -> Fraction:
    """argparse type: a Fraction, with "1/0" a bad value rather than a crash."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(text) from None


def _load_graph(graph_path: str, attr_path: str | None) -> Graph:
    g = load_edge_list(graph_path)
    if attr_path:
        load_attributes(attr_path, g)
    return g


def build_parser() -> _Parser:
    p = _Parser(prog="atc", description="Attributed truss community search.")
    p.add_argument("--version", action="store_true",
                   help="print artifact and index format versions")
    sub = p.add_subparsers(dest="cmd")

    px = sub.add_parser("index", help="build and save the attribute-truss index")
    px.add_argument("--graph", required=True)
    px.add_argument("--attrs", required=True, help="attribute file")
    px.add_argument("--out", required=True)

    pd = sub.add_parser("decompose", help="edge trussness of the whole graph")
    pd.add_argument("--graph", required=True)
    pd.add_argument("--out", default=None, help="output path (default stdout)")

    pq = sub.add_parser("query", help="run one community search query")
    pq.add_argument("--graph", required=True)
    pq.add_argument("--attr-file", default=None, help="attribute file")
    pq.add_argument("--index", default=None, help="prebuilt index (local only)")
    pq.add_argument("--algo", choices=["basic", "bulk", "local"], default="local")
    pq.add_argument("--nodes", required=True, help="comma-separated vertex ids")
    pq.add_argument("--attrs", default=None, help="comma-separated labels")
    pq.add_argument("--k", type=int, default=None)
    pq.add_argument("--d", type=int, default=None)
    pq.add_argument("--auto-kd", action="store_true",
                    help="derive (k,d) from the candidate graph (local only)")
    pq.add_argument("--gamma", type=fraction, default=None, help="local only")
    pq.add_argument("--eta", type=int, default=None, help="local only")
    pq.add_argument("--epsilon", type=fraction, default=None,
                    help="bulk and local only")
    pq.add_argument("--suggest-on-bad", action="store_true")
    pq.add_argument("--fail-on-empty", action="store_true")

    pg = sub.add_parser("gen", help="generate a synthetic attributed benchmark")
    pg.add_argument("--n", type=int, default=1000)
    pg.add_argument("--communities", type=int, default=20)
    pg.add_argument("--out-prefix", required=True)
    pg.add_argument("--queries", type=int, default=50)
    pg.add_argument("--coverage", type=int, default=80)
    pg.add_argument("--p-background", type=float, default=0.01)
    pg.add_argument("--seed", type=int, default=0)

    pe = sub.add_parser("eval", help="score an algorithm against ground truth")
    pe.add_argument("--graph", required=True)
    pe.add_argument("--attrs", required=True)
    pe.add_argument("--truth", required=True)
    pe.add_argument("--queries", required=True)
    pe.add_argument("--algo", choices=list(SEARCHES), default="local")
    pe.add_argument("--report", required=True)
    return p


def cmd_index(args) -> int:
    g = _load_graph(args.graph, args.attrs)
    idx = build_index(g)
    save_index(idx, g, args.out)
    print(f"indexed {g.n} vertices, {g.m} edges, "
          f"{len(g.attr_labels)} attributes -> {args.out}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    g = load_edge_list(args.graph)
    lines = edge_rows(truss_decompose(g), g.ext_ids)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
    else:
        for line in lines:
            print(line)
    return EXIT_OK


def _parse_query(args) -> tuple[QuerySpec, list[str]]:
    """Check the query flags before any file is read; a bad one is a usage
    error.  Returns the query on external vertex ids, and the labels."""
    if args.auto_kd and (args.k is not None or args.d is not None):
        raise UsageError("--auto-kd is mutually exclusive with --k/--d")
    for flag, given, algos in (
            ("--auto-kd", args.auto_kd, ("local",)),
            ("--index", args.index, ("local",)),
            ("--gamma", args.gamma is not None, ("local",)),
            ("--eta", args.eta is not None, ("local",)),
            ("--epsilon", args.epsilon is not None, ("bulk", "local"))):
        if given and args.algo not in algos:
            raise UsageError(f"{flag} applies to --algo {' and '.join(algos)} only")
    try:
        nodes = frozenset(parse_vertex_id(t) for t in args.nodes.split(","))
    except ValueError as exc:
        raise UsageError(f"--nodes: {exc}") from None
    labels = args.attrs.split(",") if args.attrs else []
    if "" in labels:
        raise UsageError(f"--attrs: empty label in {args.attrs!r}")
    given = {name: getattr(args, name)
             for name in ("k", "d", "epsilon", "gamma", "eta")
             if getattr(args, name) is not None}
    try:
        return QuerySpec(query_nodes=nodes, k_d_auto=args.auto_kd, **given), labels
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _result_json(g: Graph, res, status: str, suggestions=()) -> str:
    if res is None:
        obj = {"vertices": [], "score": format_score(Fraction(0)), "k": None,
               "d": None, "diameter": None, "algo": None}
    else:
        obj = {
            "vertices": sorted(g.ext_ids[v] for v in res.vertices),
            "score": format_score(res.score),
            "k": res.k,
            "d": res.d,
            "diameter": res.diameter,
            "algo": res.algo,
        }
    obj["status"] = status
    obj["suggestions"] = [
        {"nodes": [g.ext_ids[v] for v in nodes],
         "attrs": [g.attr_labels[w] for w in attrs]}
        for nodes, attrs in suggestions
    ]
    return json.dumps(obj, sort_keys=True)


def cmd_query(args) -> int:
    q, labels = _parse_query(args)
    g = _load_graph(args.graph, args.attr_file)
    q = dataclasses.replace(
        q, query_nodes=frozenset(g.internal(v) for v in q.query_nodes),
        query_attrs=frozenset(g.attr_id(t) for t in labels))
    idx = None
    if args.algo == "local":
        idx = load_index(args.index, g) if args.index else build_index(g)
    try:
        res = SEARCHES[args.algo](g, idx, q)
    except NoFeasibleCommunity:
        res = None
    # a result is a (k,d)-truss of g holding the query nodes, so it lies in
    # the maximal one: only a failed or zero-score search can be a bad query
    # (under --auto-kd the search picks a (k,d) that admits what it finds)
    if args.suggest_on_bad and (res is None or (not res.score and q.query_attrs)):
        cls = classify_query(g, q)
        if cls.reason is not None:
            print(_result_json(g, None, "bad_query", cls.suggestions))
            return EXIT_EMPTY if args.fail_on_empty else EXIT_OK
    if res is None:
        print(_result_json(g, None, "infeasible"))
        return EXIT_EMPTY if args.fail_on_empty else EXIT_OK
    print(_result_json(g, res, "ok"))
    return EXIT_OK


# gen flag -> (least, greatest) value it takes
GEN_RANGES = {"n": (1, math.inf), "communities": (1, math.inf),
              "queries": (0, math.inf), "coverage": (0, 100), "p_background": (0, 1)}


def cmd_gen(args) -> int:
    for name, (lo, hi) in GEN_RANGES.items():
        value = getattr(args, name)
        if not lo <= value <= hi:  # NaN fails too
            want = f"at least {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
            raise UsageError(f"--{name.replace('_', '-')} must be {want}, got {value}")
    g, gt = gen_synth(n=args.n, communities=args.communities,
                      p_background=args.p_background, seed=args.seed)
    plant_attributes(g, gt, coverage=args.coverage, rng_seed=args.seed)
    queries = gen_queries(g, gt, args.queries, rng_seed=args.seed)
    prefix = args.out_prefix
    write_edges(g, prefix + ".edges")
    write_attrs(g, prefix + ".attrs")
    write_truth(gt, prefix + ".truth")
    write_queries(queries, prefix + ".queries")
    print(f"wrote {prefix}.edges/.attrs/.truth/.queries "
          f"({g.n} vertices, {g.m} edges, {len(gt)} communities, "
          f"{len(queries)} queries)")
    return EXIT_OK


def cmd_eval(args) -> int:
    g = _load_graph(args.graph, args.attrs)
    gt = read_truth(args.truth, g)
    queries = read_queries(args.queries, gt, g)
    idx = build_index(g) if args.algo == "local" else None
    search = SEARCHES[args.algo]
    report = evaluate(g, gt, queries, lambda g_, q: search(g_, idx, q))
    with open(args.report, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("query\tnodes\tattrs\tstatus\tprecision\trecall\tf1"
                 "\truntime_s\tsize\n")
        for i, row in enumerate(report.rows):
            fh.write("\t".join([
                str(i),
                ",".join(map(str, row.query.nodes)),
                ",".join(row.query.attrs),
                row.status,
                format_score(row.precision),
                format_score(row.recall),
                format_score(row.f1),
                f"{row.runtime:.4f}",
                str(row.found_size),
            ]) + "\n")
        fh.write(f"aggregate\t\t\t\t\t\t{format_score(report.mean_f1)}"
                 f"\t{report.mean_runtime:.4f}\t\n")
    ok = sum(1 for r in report.rows if r.status == "ok")
    print(f"{args.algo}: {ok}/{len(report.rows)} feasible, "
          f"mean F1 {format_score(report.mean_f1)}")
    return EXIT_OK


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.version:
            print(f"atc {__version__} (index format {FORMAT_VERSION})")
            return EXIT_OK
        if args.cmd is None:
            raise UsageError("a subcommand is required")
        handler = {
            "index": cmd_index,
            "decompose": cmd_decompose,
            "query": cmd_query,
            "gen": cmd_gen,
            "eval": cmd_eval,
        }[args.cmd]
        return handler(args)
    except UsageError as exc:
        print(f"atc: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GraphFormatError, IndexFileError, UnknownVertexError,
            UnknownAttributeError, OSError, ValueError) as exc:
        print(f"atc: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
