"""Shared test settings and fixtures.

Hypothesis runs the same examples on every run.
"""

import os

import pytest
from hypothesis import settings

# Derandomized examples make tier-1 reproducible; no deadline, because a
# shared VM's timing swings would fail examples at random; no example
# database, so runs write no .hypothesis/ directory.
settings.register_profile("default", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("default")


class _HalfWrite:
    """A binary file that writes half of its payload, then fails."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, payload):
        self._fh.write(payload[:len(payload) // 2])
        self._fh.flush()
        raise OSError("injected failure mid-write")


@pytest.fixture()
def fail_mid_write(monkeypatch):
    """Make every file opened with ``os.fdopen`` fail halfway through its write."""
    real_fdopen = os.fdopen
    monkeypatch.setattr(os, "fdopen",
                        lambda fd, *args, **kwargs:
                        _HalfWrite(real_fdopen(fd, *args, **kwargs)))
