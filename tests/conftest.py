import math
import time
import tracemalloc

import pytest

from udwitness.field import CavityConfig
from udwitness.response import CouplingSpec


@pytest.fixture(scope="session")
def fig_cavity():
    """Large-cavity parameter set used by the velocity/acceleration figures."""
    return CavityConfig(L=10000.0, m=1.0, k0=5000)


@pytest.fixture(scope="session")
def fig_coupling():
    return CouplingSpec(2.0 * math.sqrt(5000.0))


@pytest.fixture(scope="session")
def small_cavity():
    """Desk-scale cavity for oracle runs."""
    return CavityConfig(L=4.0, m=1.0, k0=2)


@pytest.fixture(scope="session")
def fails_fast():
    """check(fn, exc, match): fn() raises ``exc`` matching ``match`` within
    10 ms of thread time and a traced peak of 100 kB, so the refused work
    was never allocated."""

    def check(fn, exc, match):
        tracemalloc.start()
        try:
            start = time.thread_time()
            with pytest.raises(exc, match=match):
                fn()
            elapsed = time.thread_time() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 0.01 and peak < 1e5

    return check
