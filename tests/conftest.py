"""Make the tests directory importable (for the shared ``helpers`` module),
and fail any test that leaves the cyclic garbage collector disabled."""
import gc
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def _collector_left_enabled():
    """A pause of the cyclic collector leaked on some path would otherwise
    grow memory unnoticed in every later test; fail the test instead."""
    enabled = gc.isenabled()
    yield
    if enabled and not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")
