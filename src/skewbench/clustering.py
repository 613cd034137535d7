"""Flat-kernel MeanShift mode seeking with quantile bandwidth estimation."""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from .core import SkewbenchError, _frozen_array, _row_blocks, nearest, pairwise_sq

# Neighbor rank for the bandwidth, as a fraction of the other points.
QUANTILE = 0.3
DEFAULT_MAX_ITER = 300
# Stopping tolerance as a fraction of the bandwidth.
TOL_FACTOR = 1e-4


@dataclass(frozen=True)
class ClusterModel:
    """MeanShift result: surviving mode centers and each point's center index."""

    centers: np.ndarray
    assignment: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "centers", _frozen_array(self.centers, np.float64))
        object.__setattr__(self, "assignment", _frozen_array(self.assignment, np.int64))


def estimate_bandwidth(points) -> float:
    """Mean distance from each point to its ceil(QUANTILE*(n-1))-th neighbor."""
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    if n < 2:
        raise SkewbenchError("bandwidth estimation needs at least two points")
    j = ceil(QUANTILE * (n - 1))
    # A sorted row starts with the zero self-distance: the j-th neighbor is at index j.
    kth = np.empty(n)
    for rows in _row_blocks(n, pts):
        kth[rows] = np.partition(pairwise_sq(pts[rows], pts), j, axis=1)[:, j]
    bandwidth = float(np.mean(np.sqrt(kth)))
    if bandwidth == 0.0:
        raise SkewbenchError("zero bandwidth: all points identical")
    return bandwidth


def mean_shift(points, bandwidth: float, max_iter: int = DEFAULT_MAX_ITER,
               seeds=None) -> ClusterModel:
    """Iterate every seed to the mean of in-bandwidth points (closed ball).

    Stops a seed once its shift is below 1e-4 * bandwidth.
    Converged modes within bandwidth/2 of a stronger mode are merged; strength
    is the number of data points within one bandwidth of the mode, ties going
    to the lower seed index. Assignment maps each data point to its nearest
    surviving center, and centers that attract no points are dropped so the
    cluster indices stay contiguous.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or len(pts) == 0:
        raise SkewbenchError("mean_shift needs a nonempty 2-D point matrix")
    if bandwidth <= 0:
        raise SkewbenchError("bandwidth must be positive")
    if max_iter < 1:
        raise SkewbenchError("max_iter must be >= 1")
    tol = TOL_FACTOR * bandwidth

    modes = np.array(pts if seeds is None else np.asarray(seeds, dtype=np.float64))
    if modes.ndim != 2 or modes.shape[1] != pts.shape[1] or len(modes) == 0:
        raise SkewbenchError("seeds must be a nonempty matrix matching the point dimensionality")
    sq_bw = bandwidth * bandwidth
    active = np.ones(len(modes), dtype=bool)
    for _ in range(max_iter):
        idx = np.flatnonzero(active)
        if len(idx) == 0:
            break
        # Each seed's window sum is independent of the others, so blocks of
        # seeds keep the (block, n, d) product near _BLOCK_BYTES.
        for rows in _row_blocks(len(idx), pts):
            part = idx[rows]
            within = pairwise_sq(modes[part], pts) <= sq_bw
            counts = within.sum(axis=1)
            has_any = counts > 0
            # Seeds with an empty window stay put: isolated points are their own modes.
            shifted = modes[part].copy()
            if has_any.any():
                sums = (within[has_any][:, :, None] * pts[None, :, :]).sum(axis=1)
                shifted[has_any] = sums / counts[has_any][:, None]
            moved = np.sqrt(((shifted - modes[part]) ** 2).sum(axis=1))
            modes[part] = shifted
            active[part[(moved < tol) | ~has_any]] = False

    strength = np.concatenate([(pairwise_sq(modes[rows], pts) <= sq_bw).sum(axis=1)
                               for rows in _row_blocks(len(modes), pts)])
    order = np.lexsort((np.arange(len(modes)), -strength))
    kept: list[int] = []
    half_sq = (bandwidth / 2.0) ** 2
    for i in order:
        # Each row sum adds one mode's coordinates in the order a 1-D sum does.
        if (((modes[kept] - modes[i]) ** 2).sum(axis=1) >= half_sq).all():
            kept.append(i)
    centers = modes[kept]

    # A dropped center is no point's nearest, so numbering the used centers in
    # order gives the assignment a second pass against them would.
    used, assignment = np.unique(nearest(centers, pts, 1)[:, 0], return_inverse=True)
    return ClusterModel(centers=centers[used], assignment=assignment)
