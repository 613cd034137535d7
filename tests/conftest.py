import pytest

from skewbench import core


@pytest.fixture
def force_sweep(monkeypatch):
    """`force_sweep(block_bytes)` sets `core._BLOCK_BYTES` and returns a list
    that records the query count of every `core._sweep_nearest` call.

    `core.nearest` sweeps once 8*q*n bytes exceed `_BLOCK_BYTES`, so a small
    block sends small calls through the sweep and the list tells that it ran.
    """
    def shrink(block_bytes: int) -> list[int]:
        monkeypatch.setattr(core, "_BLOCK_BYTES", block_bytes)
        sweeps = []
        sweep = core._sweep_nearest

        def spy(points, queries, k, exclude):
            sweeps.append(len(queries))
            return sweep(points, queries, k, exclude)

        monkeypatch.setattr(core, "_sweep_nearest", spy)
        return sweeps

    return shrink


@pytest.fixture
def force_table_fallback(monkeypatch):
    """Shrinks `core.TABLE_K` to 0, so a neighbour table settles no query and
    every one falls back to `nearest`. Returns a list that records the query
    count of every `NeighbourTable.take` call."""
    monkeypatch.setattr(core, "TABLE_K", 0)
    calls = []
    take = core.NeighbourTable.take

    def spy(self, rows, queries, k, members=False):
        taken, settled = take(self, rows, queries, k, members)
        assert not settled.any()
        calls.append(len(queries))
        return taken, settled

    monkeypatch.setattr(core.NeighbourTable, "take", spy)
    return calls


@pytest.fixture(params=["table", "fallback"])
def table_path(request):
    """Runs a test once with neighbour tables as they are and once under
    `force_table_fallback`; returns that fixture's list, or None."""
    if request.param == "fallback":
        return request.getfixturevalue("force_table_fallback")
    return None
