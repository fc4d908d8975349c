"""Docstring examples are executable documentation — run them all.

Modules are resolved via importlib because several module names are
shadowed by the same-named function re-exported from their package
(``repro.ccl.aremsp`` the attribute is the function, not the module).
"""

from __future__ import annotations

import doctest
import importlib

import pytest

MODULE_NAMES = [
    "repro",
    "repro.unionfind.remsp",
    "repro.unionfind.parallel",
    "repro.parallel.partition",
    "repro.parallel.paremsp",
    "repro.parallel.tiled",
    "repro.parallel.distributed",
    "repro.ccl.aremsp",
    "repro.ccl.run_based",
    "repro.ccl.cclremsp",
    "repro.ccl.contour",
    "repro.ccl.grayscale",
    "repro.ccl.streaming",
    "repro.mp.comm",
    "repro.volume.labeling3d",
    "repro.service.pool",
    "repro.service.frontend",
]


@pytest.mark.parametrize("name", MODULE_NAMES)
def test_module_doctests(name):
    module = importlib.import_module(name)
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0, f"{name}: {result.failed} failing doctest(s)"
    assert result.attempted > 0, f"{name} has no doctests to run"
