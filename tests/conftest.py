"""Shared test fixtures."""

import contextlib
import signal

import pytest


@pytest.fixture
def time_limit():
    """Context manager factory: the block raises TimeoutError after
    `seconds`, so a hang fails the test instead of stalling the suite."""
    @contextlib.contextmanager
    def limit(seconds: int):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")
        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    return limit
