"""The names the benchmark under atcbench/ looks up in the library exist.

The traced run wraps each (module, function) pair that atcbench/spans.py
lists, and atcbench/run.py compares index tables by attribute name; a
rename in the library would otherwise break the benchmark silently.
"""
import importlib
import sys
from pathlib import Path

import pytest

from atc.index import ATIndex

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
