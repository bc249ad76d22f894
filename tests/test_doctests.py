"""Execute the doctest examples embedded in docstrings.

The package docstring's quickstart and the Table examples double as
documentation; running them keeps the docs honest.
"""

import doctest

import pytest

import repro
import repro.tabular.table

MODULES = [repro, repro.tabular.table]


@pytest.mark.parametrize(
    "module", MODULES, ids=[m.__name__ for m in MODULES]
)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest(s) failed"
    assert results.attempted > 0, "module has no doctest examples"
