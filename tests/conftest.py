import pytest

from skewbench import core


@pytest.fixture
def small_blocks(monkeypatch):
    """`small_blocks(block_bytes)` sets `core._BLOCK_BYTES`, which sizes every
    blocked loop: the scans of `core.nearest` and `NeighbourTable.build`,
    MeanShift, and the tree's forests and split search. No output may
    depend on it."""
    def shrink(block_bytes: int) -> None:
        monkeypatch.setattr(core, "_BLOCK_BYTES", block_bytes)

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
