import numpy as np
import pytest

from pscom_alloc import (
    ChannelState,
    SystemParams,
    default_curve,
    generate_channel_gains,
)
from pscom_alloc import experiments


@pytest.fixture(scope="session")
def params():
    return SystemParams()


@pytest.fixture(scope="session")
def curve():
    return default_curve()


@pytest.fixture(scope="session")
def two_user_channel():
    """The hand-checkable instance: h = [1e-9, 2e-9]."""
    return ChannelState(np.array([1e-9, 2e-9]))


@pytest.fixture(scope="session")
def default_channel():
    """The stock 3-user seeded channel."""
    return generate_channel_gains(3, 1e-10, 1e-8, 42)


@pytest.fixture()
def pool_requests(monkeypatch):
    """Worker counts asked of ``experiments.ProcessPoolExecutor``.

    A recording stand-in replaces the pool, so no process is ever started.
    """
    requested = []

    class RecordingPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    return requested
