"""Fixtures shared by the test modules."""

import pytest

from pdim import partition


@pytest.fixture
def loop_calls(monkeypatch):
    """The greedy spanning loop that each ``_greedy_spanning_picks`` call
    takes, by name, in call order."""
    calls = []
    for name in ("_greedy_spanning_levels", "_greedy_spanning_argmax"):
        def spy(*args, loop=getattr(partition, name), name=name):
            calls.append(name)
            return loop(*args)

        monkeypatch.setattr(partition, name, spy)
    return calls
