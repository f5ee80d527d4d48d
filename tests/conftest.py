"""Shared test settings: hypothesis runs the same examples on every run."""

from hypothesis import settings

# Derandomized examples make tier-1 reproducible; no deadline, because a
# shared VM's timing swings would fail examples at random; no example
# database, so runs write no .hypothesis/ directory.
settings.register_profile("default", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("default")
