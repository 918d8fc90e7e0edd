"""Run the inline doctest examples of every kustab module that has them."""

import doctest
import importlib
import pkgutil

import pytest

import kustab
import kustab.exact
import kustab.variety

MODULES = [importlib.import_module(f"kustab.{m.name}")
           for m in pkgutil.iter_modules(kustab.__path__)]
WITH_EXAMPLES = [m for m in MODULES
                 if any(t.examples for t in doctest.DocTestFinder().find(m))]


def _run(module):
    result = doctest.testmod(module)
    assert result.attempted > 0 and result.failed == 0


def test_exact_doctests():
    _run(kustab.exact)


def test_variety_doctests():
    _run(kustab.variety)


@pytest.mark.parametrize(
    "module", [m for m in WITH_EXAMPLES
               if m not in (kustab.exact, kustab.variety)],
    ids=lambda m: m.__name__)
def test_module_doctests(module):
    _run(module)
