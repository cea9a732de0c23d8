"""Helpers shared by the test modules, and the hypothesis profile."""

import tracemalloc

import pytest
from hypothesis import settings

# Repeatable property tests: the same examples on every run, no deadline.
settings.register_profile("repeatable", deadline=None, derandomize=True, max_examples=50)
settings.load_profile("repeatable")


def _traced_peak(fn, *args, **kwargs) -> int:
    """Peak bytes tracemalloc sees allocated during one call of fn, counted
    from its entry; what the call returns is counted too."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak
