"""Resampling pre-processors: RO, CO, SMOTE, NCR, and the sparsity transform.

All functions take a dataset and return a new one; inputs are never mutated.
RO, CO, and SMOTE keep every original row and append their additions, so row
order is originals first, then duplicates or synthetics.

Each config in `METHODS` runs itself with `apply(ds, rng, minority_clusters)`;
only CO and Sparsity use `minority_clusters`, a known sub-cluster assignment.
`apply` calls the module function by its global name, so a wrapper bound to
that name here sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import estimate_bandwidth, mean_shift
from .core import Dataset, SkewbenchError, nearest, squares_overflow, summarize
from .datagen import MAX_SAMPLES


@dataclass(frozen=True)
class Base:
    """No pre-processing; the experiment baseline."""

    name = "base"

    def apply(self, ds: Dataset, rng: np.random.Generator,
              minority_clusters: np.ndarray | None = None) -> Dataset:
        return ds


@dataclass(frozen=True)
class RO:
    """Random minority oversampling until the classes balance."""

    name = "ro"

    def apply(self, ds: Dataset, rng: np.random.Generator,
              minority_clusters: np.ndarray | None = None) -> Dataset:
        return random_oversample(ds, rng)


@dataclass(frozen=True)
class CO:
    """Cluster oversampling: every minority sub-cluster grows to equal size.

    Sub-clusters come from the caller's assignment when one is known, else
    from MeanShift.
    """

    name = "co"

    def apply(self, ds: Dataset, rng: np.random.Generator,
              minority_clusters: np.ndarray | None = None) -> Dataset:
        return cluster_oversample(ds, rng, clusters=minority_clusters)


@dataclass(frozen=True)
class SMOTE:
    """Synthetic minority oversampling by neighbor interpolation."""

    k: int = 5
    amount_pct: int = 100
    name = "smote"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise SkewbenchError("smote k must be >= 1")
        if self.amount_pct < 100 or self.amount_pct % 100 != 0:
            raise SkewbenchError("smote amount_pct must be a positive multiple of 100")
        # More copies per point than a dataset may hold rows can only fail to allocate.
        if self.amount_pct > 100 * MAX_SAMPLES:
            raise SkewbenchError(f"smote amount_pct must be at most {100 * MAX_SAMPLES}")

    def apply(self, ds: Dataset, rng: np.random.Generator,
              minority_clusters: np.ndarray | None = None) -> Dataset:
        return smote(ds, self.k, self.amount_pct, rng)


@dataclass(frozen=True)
class NCR:
    """Neighborhood cleaning rule: focused majority undersampling."""

    k: int = 3
    name = "ncr"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise SkewbenchError("ncr k must be >= 1")

    def apply(self, ds: Dataset, rng: np.random.Generator,
              minority_clusters: np.ndarray | None = None) -> Dataset:
        return ncr(ds, self.k)


@dataclass(frozen=True)
class Sparsity:
    """Spread points away from their sub-cluster centers by factor alpha.

    This library's realization of center-anchored sparsification: each point
    moves to c + alpha * (x - c) where c is the empirical mean of its
    sub-cluster, so per-cluster means are preserved and variances scale by
    alpha squared. Scope is "minority" or "both".
    """

    alpha: float = 1.5
    scope: str = "minority"
    name = "sparsity"

    def __post_init__(self) -> None:
        if not self.alpha >= 1.0:
            raise SkewbenchError("sparsity alpha must be >= 1")
        if self.scope not in ("minority", "both"):
            raise SkewbenchError("sparsity scope must be 'minority' or 'both'")

    def apply(self, ds: Dataset, rng: np.random.Generator,
              minority_clusters: np.ndarray | None = None) -> Dataset:
        return sparsity(ds, self.alpha, self.scope, minority_clusters=minority_clusters)


MethodConfig = Base | RO | CO | SMOTE | NCR | Sparsity

METHODS = (Base, RO, CO, SMOTE, NCR, Sparsity)

METHOD_NAMES = tuple(method.name for method in METHODS)


def random_oversample(ds: Dataset, rng: np.random.Generator) -> Dataset:
    """Duplicate minority rows uniformly with replacement until balanced."""
    s = summarize(ds)
    need = s.counts[s.majority_label] - s.counts[s.minority_label]
    if need == 0:
        return ds
    minority_rows = np.flatnonzero(ds.labels == s.minority_label)
    dup = rng.choice(minority_rows, size=need, replace=True)
    return ds.subset(np.concatenate([np.arange(ds.n), dup]))


def _discover_clusters(ds: Dataset, minority_rows: np.ndarray) -> np.ndarray:
    pts = ds.points[minority_rows]
    if len(pts) < 2:
        return np.zeros(len(pts), dtype=np.int64)
    bandwidth = estimate_bandwidth(pts)
    return mean_shift(pts, bandwidth).assignment


def cluster_oversample(ds: Dataset, rng: np.random.Generator,
                       clusters: np.ndarray | None = None) -> Dataset:
    """Oversample each minority sub-cluster to ceil(majority / n_subclusters).

    The rounding surplus is trimmed uniformly at random from the duplicates so
    the balanced total is exact; original rows are never trimmed.
    """
    s = summarize(ds)
    n_maj = s.counts[s.majority_label]
    minority_rows = np.flatnonzero(ds.labels == s.minority_label)
    if clusters is None:
        clusters = _discover_clusters(ds, minority_rows)
    clusters = np.asarray(clusters, dtype=np.int64)
    if len(clusters) != len(minority_rows):
        raise SkewbenchError("cluster assignment must cover every minority point")
    ids, assignment = np.unique(clusters, return_inverse=True)
    if len(ids) == 0 or np.any(np.bincount(assignment) == 0):
        raise SkewbenchError("empty minority sub-cluster")
    n_clusters = len(ids)
    target = -(-n_maj // n_clusters)  # ceil
    duplicates: list[np.ndarray] = []
    for j in range(n_clusters):
        members = minority_rows[assignment == j]
        need = target - len(members)
        if need > 0:
            duplicates.append(rng.choice(members, size=need, replace=True))
    dup = np.concatenate(duplicates) if duplicates else np.empty(0, dtype=np.int64)
    surplus = len(minority_rows) + len(dup) - n_maj
    if surplus > 0 and len(dup) > 0:
        drop = rng.choice(len(dup), size=min(surplus, len(dup)), replace=False)
        dup = np.delete(dup, drop)
    if len(dup) == 0:
        return ds
    return ds.subset(np.concatenate([np.arange(ds.n), dup]))


def smote(ds: Dataset, k: int, amount_pct: int, rng: np.random.Generator) -> Dataset:
    """Append amount_pct/100 synthetic points per minority point.

    Each synthetic is x + lambda * (nn - x) with lambda uniform in [0, 1] and
    nn drawn uniformly from x's k nearest minority neighbors. Synthetics
    inherit the kind tag of their base point when tags are present.
    """
    SMOTE(k=k, amount_pct=amount_pct)  # parameter validation
    s = summarize(ds)
    minority_rows = np.flatnonzero(ds.labels == s.minority_label)
    n_min = len(minority_rows)
    if n_min <= k:
        raise SkewbenchError(f"minority count {n_min} must exceed k={k}")
    minority = ds.points[minority_rows]
    neighbors = nearest(minority, minority, k, exclude=np.arange(n_min))

    copies = amount_pct // 100
    nn_pick = rng.integers(0, k, size=(n_min, copies))
    lam = rng.random((n_min, copies))
    base = np.repeat(np.arange(n_min), copies)
    target = neighbors[base, nn_pick.ravel()]
    lam = lam.ravel()[:, None]
    synthetic = minority[base] + lam * (minority[target] - minority[base])

    points = np.vstack([ds.points, synthetic])
    labels = np.concatenate([ds.labels,
                             np.full(len(synthetic), s.minority_label, dtype=np.int64)])
    kinds = None
    if ds.kinds is not None:
        kinds = np.concatenate([ds.kinds, ds.kinds[minority_rows[base]]])
    return Dataset(points, labels, kinds)


def ncr(ds: Dataset, k: int = NCR.k) -> Dataset:
    """Laurikkala-style neighborhood cleaning with k-NN votes.

    Phase one removes every majority point whose k nearest neighbors vote it
    into the minority class; phase two removes, for every minority point that
    its k neighbors misclassify, the majority points among those neighbors.
    A tied vote counts as a majority-class prediction. Minority points are
    never removed, and the operation is fully deterministic.
    """
    NCR(k=k)
    s = summarize(ds)
    if ds.n <= k:
        raise SkewbenchError(f"need more than k={k} points to take k-NN votes")
    neighbors = _nearest_others(ds, k)
    minority_votes = (ds.labels[neighbors] == s.minority_label).sum(axis=1)
    predicted_minority = minority_votes * 2 > k

    is_majority = ds.labels == s.majority_label
    removed = is_majority & predicted_minority
    miss = neighbors[(ds.labels == s.minority_label) & ~predicted_minority]
    removed[miss[is_majority[miss]]] = True
    return ds.subset(np.flatnonzero(~removed))


def _nearest_others(ds: Dataset, k: int) -> np.ndarray:
    """Each row's k nearest other rows: from the neighbour table that `ds`
    carries where the table settles them, else by `nearest`."""
    if ds.table is None or not np.all(ds.rows[1:] > ds.rows[:-1]):
        return nearest(ds.points, ds.points, k, exclude=np.arange(ds.n))
    taken, settled = ds.table.take(ds.rows, ds.rows, k, members=True)
    out = np.empty((ds.n, k), dtype=np.intp)
    # A set of distinct ascending rows takes each entry once: k per settled row.
    entries = ds.table.index[ds.rows[settled]][taken[settled] > 0]
    out[settled] = np.searchsorted(ds.rows, entries).reshape(-1, k)
    rest = np.flatnonzero(~settled)
    if len(rest):
        out[rest] = nearest(ds.points, ds.points[rest], k, exclude=rest)
    return out


def sparsity(ds: Dataset, alpha: float, scope: str = Sparsity.scope,
             minority_clusters: np.ndarray | None = None) -> Dataset:
    """Move each in-scope point to c + alpha * (x - c), c its sub-cluster mean.

    Anchors are the empirical means of the sub-clusters (the given minority
    assignment, else discovered with MeanShift; the majority's always are), so
    class counts, labels, and per-cluster means are preserved while spread
    scales by alpha.
    """
    config = Sparsity(alpha=alpha, scope=scope)
    s = summarize(ds)
    if alpha == 1.0:
        return ds
    with np.errstate(over="ignore"):
        check_spread(config, float(np.ptp(ds.points, axis=0).max()), ds.d)
    points = np.array(ds.points)
    todo = [(s.minority_label, minority_clusters)]
    if scope == "both":
        todo.append((s.majority_label, None))
    for label, clusters in todo:
        rows = np.flatnonzero(ds.labels == label)
        if clusters is None:
            clusters = _discover_clusters(ds, rows)
        clusters = np.asarray(clusters, dtype=np.int64)
        if len(clusters) != len(rows):
            raise SkewbenchError("cluster assignment must cover every in-scope point")
        for j in np.unique(clusters):
            members = rows[clusters == j]
            center = points[members].mean(axis=0)
            points[members] = center + alpha * (points[members] - center)
    return Dataset(points, ds.labels, ds.kinds)


def check_spread(method: MethodConfig, span: float, dims: int) -> None:
    """Refuse a Sparsity whose spread data could not be measured.

    Moving x to c + alpha * (x - c), c a cluster mean, keeps points that lay
    within `span` of each other on every axis within (1 + 2 alpha) spans; a
    squared distance over `dims` such axes must stay finite.
    """
    if isinstance(method, Sparsity) and squares_overflow(
            (1.0 + 2.0 * float(method.alpha)) * span, dims):
        raise SkewbenchError(f"sparsity alpha={method.alpha:g} is too large: "
                             "squared distances of the spread data overflow")

