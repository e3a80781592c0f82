"""Fixtures shared by the test modules."""

import importlib
import pkgutil

import pytest

import ordcensus
from ordcensus import fields


def _package_memos() -> list:
    """Every ``functools.cache`` function of the package, each module
    imported, except ``fields._of_order``: that one keeps the single
    FieldSpec of each order, and emptying it would make a second field of an
    order already in use, equal to no record built over the first."""
    memos = []
    for info in pkgutil.iter_modules(ordcensus.__path__):
        module = importlib.import_module(f"ordcensus.{info.name}")
        memos += [fn for fn in vars(module).values()
                  if hasattr(fn, "cache_clear") and fn.__module__ == module.__name__
                  and fn is not fields._of_order]
    return memos


@pytest.fixture
def cold_caches():
    """The package memos empty before the test and again after it, so that
    nothing the test builds under a patch outlives it.  The memos are listed
    before the test body patches any of them."""
    memos = _package_memos()
    for fn in memos:
        fn.cache_clear()
    yield
    for fn in memos:
        fn.cache_clear()
