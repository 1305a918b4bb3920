"""The names the benchmark under atcbench/ looks up in the library exist,
and the results it reads have the shape it reads.

The traced run wraps each (module, function) pair that atcbench/spans.py
lists, reads work counts from what some of them return, and atcbench/run.py
compares index tables by attribute name; a rename or a new return shape in
the library would otherwise break the benchmark silently.
"""
import importlib
import itertools
import sys
from pathlib import Path

import pytest

from atc.graph import Graph, QuerySpec
from atc.index import ATIndex, build_index

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "atcbench"))
import spans  # noqa: E402


@pytest.mark.parametrize("module,function", spans.TIMED + spans.COUNTED)
def test_traced_function_exists(module, function):
    assert callable(getattr(importlib.import_module(f"atc.{module}"), function))


def test_spans_modules_import():
    for name in spans.MODULES:
        importlib.import_module(name)


def test_index_fields_read_by_benchmark():
    fields = ATIndex.__dataclass_fields__
    for name in ("edge_truss", "attr_edge_truss", "tau_max"):
        assert name in fields


def test_observers_read_real_results():
    """Each OBSERVERS entry, applied to what its traced function returns on
    a 5-clique, gives the counts that clique has.  The clique scores 5, and
    any one vertex gone leaves sum_w c_w = 4, so the peel runs no round."""
    g = Graph.from_edges(itertools.combinations(range(5), 2))
    g.attach_attributes({v: ["x"] for v in range(5)})
    idx = build_index(g)
    q = QuerySpec(query_nodes=frozenset({0, 3}), query_attrs=frozenset({0}), k=4, d=1)

    def traced(label):
        module, function = label.split(".")
        return getattr(importlib.import_module(f"atc.{module}"), function)

    seed = traced("local.steiner_seed")(g, idx, q)
    gt = traced("local.expand_candidate")(g, idx, seed, q)
    outputs = {
        "local.steiner_seed": seed,
        "local.expand_candidate": gt,
        "truss.max_trussness_connecting":
            traced("truss.max_trussness_connecting")(gt, q.query_nodes, idx.edge_truss),
        "greedy.bulk_search": traced("greedy.bulk_search")(gt, q),
    }
    assert set(outputs) == set(spans.OBSERVERS)
    counts = {}
    for label, out in outputs.items():
        counts.update(spans.OBSERVERS[label](out))
    assert counts == {"local.seed_vertices": 2, "local.expanded_vertices": 5,
                      "local.core_vertices": 5, "greedy.iterations": 0,
                      "greedy.initial_vertices": 5, "greedy.result_vertices": 5}
