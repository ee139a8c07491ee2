"""The benchmark's hold on the package: every name it imports or wraps exists.

``perfbench/`` imports mgtstack names at module level and, in traced runs,
wraps the functions and methods that ``spans.py`` lists.  A rename or
deletion under ``src/`` that breaks either shows here, not only in a traced
benchmark run.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's spans, checks and workloads modules; importing them runs nothing."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return {name: importlib.import_module(name) for name in ("spans", "checks", "workloads")}
    finally:
        sys.path.remove(str(PERFBENCH))


def test_traced_functions_resolve(perfbench):
    for _, module, attr, _ in perfbench["spans"].FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr)), f"{module}.{attr}"


def test_traced_methods_resolve(perfbench):
    for _, module, cls_name, method, _ in perfbench["spans"].METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        assert callable(getattr(cls, method)), f"{module}.{cls_name}.{method}"


def test_hash_cache_counters_resolve():
    # perfbench/child.py reads hashed_features.cache_info() after every verb,
    # though the logreg batch path no longer goes through that cache.
    from mgtstack.detectors import hashed_features

    assert callable(hashed_features.cache_info)
