"""Fixtures shared by the test modules."""

import os
from unittest import mock

import pytest

from slowfast import harness


@pytest.fixture
def forks():
    """Every batch of two or more paths split over up to 4 ranges, whatever
    this machine's CPU count; yields the wrapped ``os.fork``."""
    with mock.patch.object(harness, "SPLIT_PATH_STEPS", 0), \
            mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(4)),
                              create=True), \
            mock.patch.object(os, "fork", wraps=os.fork) as fork:
        yield fork
