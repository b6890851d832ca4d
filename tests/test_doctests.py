"""Every docstring example in the lucaskit modules runs and passes."""

import doctest
import importlib
import pkgutil

import pytest

import lucaskit

MODULES = ["lucaskit"] + sorted(m.name for m in pkgutil.iter_modules(lucaskit.__path__, "lucaskit."))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, name


def test_doctests_are_collected():
    finder = doctest.DocTestFinder()
    examples = sum(len(t.examples) for name in MODULES
                   for t in finder.find(importlib.import_module(name)))
    assert examples >= 6
