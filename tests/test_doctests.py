"""Run the doctests embedded in public docstrings.

The examples in module/class docstrings are part of the documented
API; this keeps them honest.
"""

import doctest

import pytest

import repro
import repro.canonical.cycles
import repro.canonical.shapes
import repro.core.parallel
import repro.canonical.paths
import repro.core.validation
import repro.graphs.graph
import repro.utils.budget
import repro.utils.timing

MODULES = [
    repro,
    repro.graphs.graph,
    repro.canonical.paths,
    repro.canonical.cycles,
    repro.canonical.shapes,
    repro.core.validation,
    repro.core.parallel,
    repro.utils.timing,
    repro.utils.budget,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module.__name__}"
