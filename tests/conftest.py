"""Fixtures shared by the test modules."""

import importlib
import pkgutil
import signal

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


# Far above the slowest test (about 3 s), so that only a hang reaches it.
TEST_TIME_LIMIT_S = 120


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past TEST_TIME_LIMIT_S instead of letting it hang
    the suite: a SIGALRM timer raises TimeoutError in the test's thread.  Where the
    platform has no SIGALRM, tests run without a limit."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"test ran past {TEST_TIME_LIMIT_S} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
