"""Resampling pre-processors: RO, CO, SMOTE, NCR, and the sparsity transform.

All functions take a dataset and return a new one; inputs are never mutated.
RO, CO, and SMOTE keep every original row and append their additions, so row
order is originals first, then duplicates or synthetics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import DEFAULT_QUANTILE, estimate_bandwidth, mean_shift
from .core import Dataset, SkewbenchError, nearest, squares_overflow, summarize


@dataclass(frozen=True)
class Base:
    """No pre-processing; the experiment baseline."""

    name = "base"


@dataclass(frozen=True)
class RO:
    """Random minority oversampling until the classes balance."""

    name = "ro"


@dataclass(frozen=True)
class CO:
    """Cluster oversampling: every minority sub-cluster grows to equal size.

    Sub-clusters come from the caller's assignment when one is known, else
    from MeanShift.
    """

    name = "co"


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


@dataclass(frozen=True)
class NCR:
    """Neighborhood cleaning rule: focused majority undersampling."""

    k: int = 3
    name = "ncr"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise SkewbenchError("ncr k must be >= 1")


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


MethodConfig = Base | RO | CO | SMOTE | NCR | Sparsity

METHODS = (Base, RO, CO, SMOTE, NCR, Sparsity)

METHOD_NAMES = tuple(method.name for method in METHODS)


def _concat_kinds(ds: Dataset, extra_rows: np.ndarray) -> np.ndarray | None:
    if ds.kinds is None:
        return None
    return np.concatenate([ds.kinds, ds.kinds[extra_rows]])


def random_oversample(ds: Dataset, rng: np.random.Generator) -> Dataset:
    """Duplicate minority rows uniformly with replacement until balanced."""
    s = summarize(ds)
    need = s.counts[s.majority_label] - s.counts[s.minority_label]
    if need == 0:
        return ds
    minority_rows = np.flatnonzero(ds.labels == s.minority_label)
    dup = rng.choice(minority_rows, size=need, replace=True)
    points = np.vstack([ds.points, ds.points[dup]])
    labels = np.concatenate([ds.labels, ds.labels[dup]])
    return Dataset(points, labels, _concat_kinds(ds, dup))


def _discover_clusters(ds: Dataset, minority_rows: np.ndarray,
                                quantile: float = DEFAULT_QUANTILE) -> np.ndarray:
    pts = ds.points[minority_rows]
    if len(pts) < 2:
        return np.zeros(len(pts), dtype=np.int64)
    bandwidth = estimate_bandwidth(pts, quantile)
    return mean_shift(pts, bandwidth).assignment


def cluster_oversample(ds: Dataset, rng: np.random.Generator,
                       clusters: np.ndarray | None = None,
                       quantile: float = DEFAULT_QUANTILE) -> Dataset:
    """Oversample each minority sub-cluster to ceil(majority / n_subclusters).

    The rounding surplus is trimmed uniformly at random from the duplicates so
    the balanced total is exact; original rows are never trimmed.
    """
    s = summarize(ds)
    n_maj = s.counts[s.majority_label]
    minority_rows = np.flatnonzero(ds.labels == s.minority_label)
    if clusters is None:
        clusters = _discover_clusters(ds, minority_rows, quantile)
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
    points = np.vstack([ds.points, ds.points[dup]])
    labels = np.concatenate([ds.labels, ds.labels[dup]])
    return Dataset(points, labels, _concat_kinds(ds, dup))


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
    neighbors = nearest(ds.points, ds.points, k, exclude=np.arange(ds.n))
    minority_votes = (ds.labels[neighbors] == s.minority_label).sum(axis=1)
    predicted_minority = minority_votes * 2 > k

    is_majority = ds.labels == s.majority_label
    is_minority = ds.labels == s.minority_label
    removed = np.zeros(ds.n, dtype=bool)
    removed[is_majority & predicted_minority] = True
    for i in np.flatnonzero(is_minority & ~predicted_minority):
        nbrs = neighbors[i]
        removed[nbrs[is_majority[nbrs]]] = True
    return ds.subset(np.flatnonzero(~removed))


def sparsity(ds: Dataset, alpha: float, scope: str = Sparsity.scope,
             minority_clusters: np.ndarray | None = None,
             majority_clusters: np.ndarray | None = None,
             quantile: float = DEFAULT_QUANTILE) -> Dataset:
    """Move each in-scope point to c + alpha * (x - c), c its sub-cluster mean.

    Anchors are the empirical means of the sub-clusters (given assignments or
    discovered with MeanShift), so class counts, labels, and per-cluster means
    are preserved while spread scales by alpha.
    """
    Sparsity(alpha=alpha, scope=scope)
    s = summarize(ds)
    if alpha == 1.0:
        return ds
    with np.errstate(over="ignore"):
        check_spread(Sparsity(alpha, scope), float(np.ptp(ds.points, axis=0).max()), ds.d)
    points = np.array(ds.points)
    todo = [(s.minority_label, minority_clusters)]
    if scope == "both":
        todo.append((s.majority_label, majority_clusters))
    for label, clusters in todo:
        rows = np.flatnonzero(ds.labels == label)
        if clusters is None:
            clusters = _discover_clusters(ds, rows, quantile)
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


def apply_method(ds: Dataset, method: MethodConfig, rng: np.random.Generator | None = None,
                 minority_clusters: np.ndarray | None = None) -> Dataset:
    """Dispatch one method configuration against a dataset.

    `minority_clusters` supplies a known sub-cluster assignment (for example
    from generator ground truth) to CO and Sparsity.
    """
    if isinstance(method, Base):
        return ds
    if isinstance(method, RO):
        return random_oversample(ds, _require_rng(rng))
    if isinstance(method, CO):
        return cluster_oversample(ds, _require_rng(rng), clusters=minority_clusters)
    if isinstance(method, SMOTE):
        return smote(ds, method.k, method.amount_pct, _require_rng(rng))
    if isinstance(method, NCR):
        return ncr(ds, method.k)
    if isinstance(method, Sparsity):
        return sparsity(ds, method.alpha, method.scope, minority_clusters=minority_clusters)
    raise SkewbenchError(f"unknown resampling method {method!r}")


def _require_rng(rng: np.random.Generator | None) -> np.random.Generator:
    if rng is None:
        raise SkewbenchError("this method needs a random generator")
    return rng
