import gc

import pytest


@pytest.fixture
def collector_off():
    """The cyclic garbage collector off for the whole test, restored after it,
    so that a full collection of whatever else the process holds cannot land
    inside one of the test's timed spans."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
