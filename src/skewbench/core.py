"""Shared data model: datasets, class summaries, distances, exact k-NN, seeding."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

_MASK64 = (1 << 64) - 1


class SkewbenchError(ValueError):
    """Invalid data, violated precondition, or infeasible operation."""


class ConfigError(SkewbenchError):
    """Invalid configuration or command usage (CLI exit code 2)."""


class ExampleKind(IntEnum):
    """Role of a point with respect to the class structure."""

    SAFE = 0
    BORDERLINE = 1
    RARE = 2
    MAJORITY = 3

    @property
    def tag(self) -> str:
        return self.name.lower()

    @classmethod
    def from_tag(cls, tag: str) -> "ExampleKind":
        try:
            return cls[tag.strip().upper()]
        except KeyError:
            raise SkewbenchError(f"unknown kind tag {tag!r}") from None


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Dataset:
    """An n x d feature matrix with integer class labels and optional kind tags.

    Immutable after construction; the backing arrays are marked read-only so
    folds, resamplers and classifiers can share an instance without copying it.

    A dataset made of copied rows of one point set may carry that set's
    `NeighbourTable` and, in `rows`, the table row each of its rows copies.
    `with_neighbour_table` attaches a table over a dataset's own rows, and
    `subset` keeps the table, so every subset finds its neighbours there.
    """

    points: np.ndarray
    labels: np.ndarray
    kinds: np.ndarray | None = None
    table: "NeighbourTable | None" = None
    rows: np.ndarray | None = None

    def __post_init__(self) -> None:
        points = np.array(self.points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] < 1:
            raise SkewbenchError("points must be a 2-D matrix with at least one feature")
        if not np.all(np.isfinite(points)):
            raise SkewbenchError("points must be finite (no NaN/Inf)")
        labels = np.array(self.labels, dtype=np.int64)
        if labels.ndim != 1 or len(labels) != len(points):
            raise SkewbenchError("labels must be a 1-D array matching the point count")
        if len(labels) and labels.min() < 0:
            raise SkewbenchError("labels must be nonnegative integers")
        object.__setattr__(self, "points", _frozen_array(points, np.float64))
        object.__setattr__(self, "labels", _frozen_array(labels, np.int64))
        if self.kinds is not None:
            kinds = np.array(self.kinds, dtype=np.uint8)
            if kinds.shape != labels.shape:
                raise SkewbenchError("kinds must match the point count")
            if len(kinds) and kinds.max() > max(ExampleKind):
                raise SkewbenchError("kinds contain values outside the ExampleKind range")
            object.__setattr__(self, "kinds", _frozen_array(kinds, np.uint8))
        if (self.table is None) != (self.rows is None):
            raise SkewbenchError("a neighbour table needs the table row of every row")
        if self.table is not None:
            rows = np.array(self.rows, dtype=np.intp)
            if rows.shape != labels.shape:
                raise SkewbenchError("table rows must match the point count")
            object.__setattr__(self, "rows", _frozen_array(rows, np.intp))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def subset(self, indices) -> "Dataset":
        """Dataset restricted to the given row indices, order preserved."""
        idx = np.asarray(indices)
        kinds = self.kinds[idx] if self.kinds is not None else None
        rows = self.rows[idx] if self.rows is not None else None
        return Dataset(self.points[idx], self.labels[idx], kinds, self.table, rows)

    def with_neighbour_table(self) -> "Dataset":
        """This dataset with a neighbour table over its own rows."""
        return Dataset(self.points, self.labels, self.kinds,
                       NeighbourTable.build(self.points), np.arange(self.n))


@dataclass(frozen=True)
class ClassSummary:
    """Per-class counts plus the derived minority/majority roles."""

    counts: dict[int, int]
    minority_label: int
    majority_label: int
    imbalance_ratio: float


def summarize(ds: Dataset) -> ClassSummary:
    """Count the two classes and derive minority/majority roles from the counts.

    Data with one class or more than two is refused. The minority is the
    class with the smaller count; a tie breaks toward the lower label value.
    Roles are always recomputed, never trusted from any earlier stage, since
    resampling can change which class is smaller.
    """
    values, counts = np.unique(ds.labels, return_counts=True)
    if len(values) != 2:
        raise SkewbenchError(f"degenerate class structure: {len(values)} classes, need two")
    table = {int(v): int(c) for v, c in zip(values, counts)}
    minority = min(table, key=lambda lab: (table[lab], lab))
    majority = next(lab for lab in table if lab != minority)
    return ClassSummary(
        counts=table,
        minority_label=minority,
        majority_label=majority,
        imbalance_ratio=table[majority] / table[minority],
    )


# Row blocks of `nearest` and MeanShift are sized so that each block's
# temporaries stay near this many bytes: memory is O(block * n), not O(n * n * d).
_BLOCK_BYTES = 1 << 20


def _row_blocks(count: int, points: np.ndarray) -> list[slice]:
    """Slices over `count` query rows, each a block against all of `points`."""
    size = max(1, _BLOCK_BYTES // (8 * points.size))
    return [slice(start, start + size) for start in range(0, count, size)]


def squares_overflow(span: float, dims: int) -> bool:
    """Whether points `span` apart on each of `dims` axes are too far apart for
    their squared distance to be a finite float. Takes Python floats, which
    overflow to inf without a warning."""
    return not math.isfinite(dims * span * span)


def pairwise_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact squared L2 distance between every row of `a` and every row of `b`.

    Computed per pair as sum((a-b)^2); the expanded a^2+b^2-2ab form is
    avoided because its rounding can reorder genuinely tied distances. Below
    8 columns numpy sums a row from left to right, so adding the columns in
    order gives the same bits with no n x m x d temporary; from 8 it sums
    pairwise, which the broadcast form keeps.
    """
    sq = _unchecked_sq(a, b)
    if not np.all(np.isfinite(sq)):
        raise SkewbenchError("squared distances overflow: coordinates too far apart")
    return sq


def _unchecked_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`pairwise_sq` without the overflow check: an overflowing pair is inf."""
    with np.errstate(over="ignore"):
        if a.shape[1] < 8:
            sq = (a[:, 0, None] - b[None, :, 0]) ** 2
            for j in range(1, a.shape[1]):
                sq += (a[:, j, None] - b[None, :, j]) ** 2
            return sq
        return ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)


def nearest(points: np.ndarray, queries: np.ndarray, k: int,
            exclude: np.ndarray | None = None) -> np.ndarray:
    """Indices of the k nearest `points` to each query row, ascending by distance.

    Tied distances break toward the lower point index. `exclude` names one
    point index per query, ranked last: self-exclusion for any k < len(points).

    Calls whose full distance matrix exceeds `_BLOCK_BYTES` sweep the queries
    in feature-0 order (`_sweep_nearest`), skipping the points that cannot be
    among a block's k nearest; the result is the same, bit for bit.
    """
    if not 1 <= k <= len(points):
        raise SkewbenchError(f"cannot take the {k} nearest of {len(points)} points")
    if (8 * len(queries) * len(points) > _BLOCK_BYTES
            and k + (exclude is not None) <= len(points)
            and _box_sq_finite(points, queries)):
        return _sweep_nearest(points, queries, k, exclude)
    return _scan(points, queries, k, exclude)


def _scan(points: np.ndarray, queries: np.ndarray, k: int,
          exclude: np.ndarray | None) -> np.ndarray:
    """`nearest` by a full scan: every query against every point, in row blocks."""
    out = np.empty((len(queries), k), dtype=np.intp)
    for rows, _, top in _scan_blocks(points, queries, k, exclude):
        out[rows] = top
    return out


def _scan_blocks(points: np.ndarray, queries: np.ndarray, k: int,
                 exclude: np.ndarray | None):
    """(query rows, squared distances, `_topk` columns) per row block of `queries`."""
    for rows in _row_blocks(len(queries), points):
        sq = pairwise_sq(queries[rows], points)
        if exclude is not None:
            sq[np.arange(len(sq)), exclude[rows]] = np.inf
        yield rows, sq, _topk(sq, k)


# Width of a neighbour table. A query the table cannot settle costs a
# `nearest` call. Of the 128000 NCR and k-NN queries of one `overlap_study`
# experiment (n = 800, ncr.k = 9, knn.k = 3, seed 42), 63 fall back at 24
# and 1236 at 16.
TABLE_K = 24


@dataclass(frozen=True, eq=False)
class NeighbourTable:
    """Every row's TABLE_K nearest other rows of one point set, self excluded,
    ranked as `nearest` ranks them: by squared distance, then by row.

    `index` holds the rows, in the smallest integer type that holds a row
    number, and `sq` their squared distances, one table row per point, taken
    from the same `pairwise_sq` blocks that rank them.
    """

    index: np.ndarray
    sq: np.ndarray

    @classmethod
    def build(cls, points: np.ndarray) -> "NeighbourTable":
        width = max(0, min(TABLE_K, len(points) - 1))
        index = np.empty((len(points), width), dtype=np.min_scalar_type(len(points)))
        sq = np.empty((len(points), width))
        if width:
            for rows, block, top in _scan_blocks(points, points, width, np.arange(len(points))):
                index[rows] = top
                sq[rows] = np.take_along_axis(block, top, axis=1)
        return cls(index, sq)

    def take(self, rows: np.ndarray, queries: np.ndarray, k: int,
             members: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """(taken, settled) for the k nearest, in a set of table rows, of each query.

        `rows` lists the table row that each row of the set copies, and each
        query is a table row. `taken[i, j]` counts the copies of table entry
        `index[queries[i], j]` among query i's k nearest set rows. A query
        that is a set row once with `members` (its own row excluded, as NCR's
        vote excludes it), or not a set row at all without, is settled when
        one of these holds:
        - The set holds distinct rows in ascending order: its k nearest are
          the first k table entries that belong to it, because a set row
          outside the table ranks after every entry, and set order is table
          order among tied rows.
        - Any other set: the entry that completes k is the only set row at
          its distance, and the table's last entry lies farther away. Then
          every set row nearer is taken, whatever the order of tied rows, and
          the rest are copies of that one row.
        A query not settled needs `nearest` on the set itself.
        """
        # 32-bit counts halve the query x width temporaries.
        counts = np.bincount(rows, minlength=len(self.index)).astype(np.int32)
        entries = self.index[queries]
        have = counts[entries]
        before = np.cumsum(have, axis=1, dtype=np.int32) - have
        taken = np.clip(k - before, 0, have)
        settled = (taken.sum(axis=1) == k) & (counts[queries] == members)
        at = np.flatnonzero(settled)
        if len(at) and not np.all(rows[1:] > rows[:-1]):
            sq = self.sq[queries[at]]
            last = taken.shape[1] - 1 - np.argmax(taken[at, ::-1] > 0, axis=1)
            boundary = sq[np.arange(len(at)), last]
            alone = ((sq == boundary[:, None]) & (have[at] > 0)).sum(axis=1) == 1
            settled[at] = alone & (sq[:, -1] > boundary)
        return taken, settled


def _box_sq_finite(points: np.ndarray, queries: np.ndarray) -> bool:
    """Whether the squared diagonal of the box around points and queries is finite.

    It bounds every pair's squared distance, computed by the same code, from
    above: subtracting, squaring and adding non-negative terms are monotone
    under round-to-nearest. Where it is not finite the full path runs, so the
    overflow error fires on exactly the inputs where some pair overflows.
    """
    lo = np.minimum(points.min(axis=0), queries.min(axis=0))
    hi = np.maximum(points.max(axis=0), queries.max(axis=0))
    return bool(np.isfinite(_unchecked_sq(lo[None], hi[None]))[0, 0])


def _sweep_nearest(points: np.ndarray, queries: np.ndarray, k: int,
                   exclude: np.ndarray | None) -> np.ndarray:
    """`nearest` over blocks of about 2*sqrt(q) queries taken in feature-0
    order, each against only the points that can be among its k nearest.

    The bounds test of exact nearest-neighbour search (Friedman, Bentley &
    Finkel, ACM TOMS 1977) on one axis. A query's k-th squared distance into
    a first set of points near the block bounds its true k-th distance from
    above. A point whose squared feature-0 gap to the block's range exceeds
    u, the largest bound over the block's queries, has a computed distance
    above u, since a sum of non-negative terms is at least each term, so it
    can be neither taken nor tied, and is skipped. The kept points stay in
    ascending index order with the distances `pairwise_sq` gives them on the
    full path, so `_topk` returns the same indices. Needs k (+1 with
    `exclude`) <= len(points).
    """
    out = np.empty((len(queries), k), dtype=np.intp)
    need = k + (exclude is not None)
    x = points[:, 0]
    by_x = np.argsort(x, kind="stable")
    sorted_x = x[by_x]
    queries_by_x = np.argsort(queries[:, 0], kind="stable")
    size = 2 * math.isqrt(len(queries))
    for start in range(0, len(queries), size):
        block = queries_by_x[start:start + size]
        lo, hi = queries[block[0], 0], queries[block[-1], 0]
        # Points inside the block's feature-0 range, widened by `need` on each
        # side, which leaves at least `need` of them.
        first = np.sort(by_x[max(0, np.searchsorted(sorted_x, lo, "left") - need):
                             np.searchsorted(sorted_x, hi, "right") + need])
        u = max(np.partition(sq, k - 1, axis=1)[:, k - 1].max()
                for _, sq in _candidate_sq(points, queries, block, first, exclude))
        gap = np.maximum(np.maximum(lo - x, x - hi), 0.0)
        gap *= gap
        kept = np.flatnonzero(gap <= u)
        for rows, sq in _candidate_sq(points, queries, block, kept, exclude):
            out[rows] = kept[_topk(sq, k)]
    return out


def _candidate_sq(points: np.ndarray, queries: np.ndarray, picks: np.ndarray,
                  candidates: np.ndarray, exclude: np.ndarray | None):
    """(query indices, squared distances) per row block of `queries[picks]`
    against `points[candidates]`, with each row's excluded point at inf.
    `candidates` must be ascending."""
    pts = points[candidates]
    for rows in _row_blocks(len(picks), pts):
        rows = picks[rows]
        sq = pairwise_sq(queries[rows], pts)
        if exclude is not None:
            ex = exclude[rows]
            col = np.minimum(np.searchsorted(candidates, ex), len(candidates) - 1)
            hit = np.flatnonzero(candidates[col] == ex)
            sq[hit, col[hit]] = np.inf
        yield rows, sq


def _topk(sq: np.ndarray, k: int) -> np.ndarray:
    """The first k <= n columns of each row's stable argsort, without sorting the rows."""
    kth = np.partition(sq, k - 1, axis=1)[:, k - 1:k]
    take = sq < kth
    tied = sq == kth
    need = k - take.sum(axis=1)
    over = tied.sum(axis=1) > need
    if over.any():
        tied[over] &= np.cumsum(tied[over], axis=1) <= need[over, None]
    take |= tied
    cols = np.nonzero(take)[1].reshape(-1, k)
    order = np.argsort(np.take_along_axis(sq, cols, axis=1), axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1)


def _mix64(z: int) -> int:
    # SplitMix64 finalizer; constants documented in the README seeding section.
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(parent: int, purpose: str, index: int = 0) -> int:
    """Derive a child seed from (parent, purpose, index).

    Pure integer arithmetic over SplitMix64 mixing, so identical inputs give
    identical child seeds on every platform.
    """
    h = _mix64(parent & _MASK64)
    for byte in purpose.encode("utf-8"):
        h = _mix64(h ^ byte)
    return _mix64(h ^ (index & _MASK64))


@dataclass(frozen=True)
class RngSeed:
    """A 64-bit seed with a deterministic child-stream derivation rule."""

    value: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", int(self.value) & _MASK64)

    def child(self, purpose: str, index: int = 0) -> "RngSeed":
        return RngSeed(derive_seed(self.value, purpose, index))

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(self.value)


def as_seed(seed: "RngSeed | int") -> RngSeed:
    return seed if isinstance(seed, RngSeed) else RngSeed(seed)
