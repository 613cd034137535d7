"""Frozen reference MeanShift and bandwidth estimate, as they were before
`skewbench.clustering` worked in row blocks.

Tests compare the library against these bit for bit. Do not optimise them:
their summation order is the specification.
"""

from math import ceil

import numpy as np


def _pairwise_sq(a, b):
    return ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)


def estimate_bandwidth(points, quantile):
    pts = np.asarray(points, dtype=np.float64)
    j = ceil(quantile * (len(pts) - 1))
    sq = _pairwise_sq(pts, pts)
    sq.sort(axis=1)
    return float(np.mean(np.sqrt(sq[:, j])))


def mean_shift(points, bandwidth, tol=None, max_iter=300, seeds=None):
    """(centers, assignment) of the flat-kernel MeanShift."""
    pts = np.asarray(points, dtype=np.float64)
    tol = 1e-4 * bandwidth if tol is None else tol
    modes = np.array(pts if seeds is None else np.asarray(seeds, dtype=np.float64))
    sq_bw = bandwidth * bandwidth
    active = np.ones(len(modes), dtype=bool)
    for _ in range(max_iter):
        idx = np.flatnonzero(active)
        if len(idx) == 0:
            break
        within = _pairwise_sq(modes[idx], pts) <= sq_bw
        counts = within.sum(axis=1)
        has_any = counts > 0
        shifted = modes[idx].copy()
        if has_any.any():
            sums = (within[has_any][:, :, None] * pts[None, :, :]).sum(axis=1)
            shifted[has_any] = sums / counts[has_any][:, None]
        moved = np.sqrt(((shifted - modes[idx]) ** 2).sum(axis=1))
        modes[idx] = shifted
        active[idx[(moved < tol) | ~has_any]] = False

    strength = (_pairwise_sq(modes, pts) <= sq_bw).sum(axis=1)
    order = np.lexsort((np.arange(len(modes)), -strength))
    kept = []
    half_sq = (bandwidth / 2.0) ** 2
    for i in order:
        if all(((modes[i] - modes[j]) ** 2).sum() >= half_sq for j in kept):
            kept.append(i)
    centers = modes[kept]

    assignment = np.argmin(_pairwise_sq(pts, centers), axis=1)
    used = np.unique(assignment)
    if len(used) < len(centers):
        centers = centers[used]
        assignment = np.argmin(_pairwise_sq(pts, centers), axis=1)
    return centers, assignment
