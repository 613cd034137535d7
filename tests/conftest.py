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
