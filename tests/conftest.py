import concurrent.futures

import pytest


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the sweep's process pool by one that runs the map in this process.

    Returns the list of ``max_workers`` values the sweep asked for, so a test
    can check the pool size without starting any process.  The ``initializer``
    runs once, here, as it would in each worker.
    """
    started = []

    class RecordingExecutor:
        def __init__(self, max_workers, initializer=None, initargs=()):
            started.append(max_workers)
            if initializer is not None:
                initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    return started
