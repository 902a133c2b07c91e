import gc
import os
import random

import pytest

SEED = int(os.environ.get("OMEGA_SEED", "20260823"))


@pytest.fixture
def rng() -> random.Random:
    """Deterministic generator for the randomized suites; override with OMEGA_SEED."""
    return random.Random(SEED)


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail a test that leaves the cyclic garbage collector paused: every
    later test would run with other speed and memory. The collector is
    enabled again first, so one leak fails one test."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")
