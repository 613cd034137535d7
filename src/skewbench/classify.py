"""Baseline classifiers: k-NN voting and a greedy Gini decision tree.

The caller names the minority label and the majority is the other label
present. Both emit a minority-class score alongside the label so ROC areas
can be computed. Vote and leaf ties resolve toward the majority class, which
makes the baselines' bias against the minority explicit and reproducible.

Each config in `CLASSIFIERS` runs itself with `fit_predict_many(trains,
minority, queries)`: one (labels, scores) pair per training set, predicted
for that set's queries, a dataset or an array of rows. Fit and predict are
called by their global names, as `resample` does. The tree grows several
training sets as one forest, one tree per set, so the sets share each level
pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import core
from .core import Dataset, SkewbenchError, _frozen_array, _row_blocks, nearest


@dataclass(frozen=True)
class KnnClassifier:
    """Configuration of the k-NN vote."""

    k: int = 3
    name = "knn"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise SkewbenchError("knn k must be >= 1")

    def fit_predict_many(self, trains: list[Dataset], minority: int,
                         queries: list[Dataset | np.ndarray],
                         ) -> list[tuple[np.ndarray, np.ndarray]]:
        _check_pairs(trains, queries)
        return [knn_predict_batch(knn_fit(train, k=self.k, minority_label=minority), q)
                for train, q in zip(trains, queries)]


@dataclass(frozen=True)
class TreeClassifier:
    """Configuration of the Gini tree's growth limits."""

    max_depth: int = 12
    min_leaf: int = 2
    name = "tree"

    def __post_init__(self) -> None:
        if self.max_depth < 0:
            raise SkewbenchError("tree max_depth must be >= 0")
        if self.min_leaf < 1:
            raise SkewbenchError("tree min_leaf must be >= 1")

    def fit_predict_many(self, trains: list[Dataset], minority: int,
                         queries: list[Dataset | np.ndarray],
                         ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Fit consecutive sets of one dimension as one forest while its
        distinct rows take at most `_BLOCK_BYTES // 16` bytes (4096 rows at
        d = 2), because the split search holds about 25 temporaries the size of
        the forest. A larger set is fit alone.

        A set that records copied rows which are not distinct and ascending
        (RO and CO sets in `evaluate_folds`) is fit on one row per copied row,
        counted as many times as it is copied: the same tree on fewer rows.
        Every other set counts each row once."""
        _check_pairs(trains, queries)
        queries = [_points(q) for q in queries]
        sets = [_distinct(train) for train in trains]
        out: list[tuple[np.ndarray, np.ndarray]] = []
        start = 0
        while start < len(sets):
            d = sets[start][0].d
            cap = core._BLOCK_BYTES // (16 * 8 * d)
            stop, rows = start + 1, sets[start][0].n
            while stop < len(sets) and sets[stop][0].d == d and rows + sets[stop][0].n <= cap:
                rows += sets[stop][0].n
                stop += 1
            out += self._fit_forest(sets[start:stop], minority, queries[start:stop])
            start = stop
        return out

    def _fit_forest(self, sets: list[tuple[Dataset, np.ndarray]], minority: int,
                    queries: list[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
        """One `tree_fit` and one `tree_predict_batch` call; tree t is fit on
        the rows and copy counts of `sets[t]`."""
        trains = [train for train, _ in sets]
        if any(q.shape[1] != trains[0].d for q in queries):
            raise SkewbenchError("query dimension does not match training data")
        ids = np.arange(len(trains))
        forest = Dataset(np.concatenate([t.points for t in trains]),
                         np.concatenate([t.labels for t in trains]))
        model = tree_fit(forest, max_depth=self.max_depth, min_leaf=self.min_leaf,
                         minority_label=minority, trees=np.repeat(ids, [t.n for t in trains]),
                         counts=np.concatenate([counts for _, counts in sets]))
        sizes = [len(q) for q in queries]
        labels, scores = tree_predict_batch(model, np.concatenate(queries),
                                            trees=np.repeat(ids, sizes))
        cuts = np.cumsum(sizes)[:-1]
        return list(zip(np.split(labels, cuts), np.split(scores, cuts)))


def _distinct(train: Dataset) -> tuple[Dataset, np.ndarray]:
    """`train` as distinct rows and the copies of each. Rows that copy one
    row are one point with one label, so a set whose copied rows are not
    distinct keeps the first copy of each."""
    if train.rows is None or train.distinct_rows:
        return train, np.ones(train.n, dtype=np.int64)
    _, first, counts = np.unique(train.rows, return_index=True, return_counts=True)
    return train.subset(first), counts


def _check_pairs(trains: list[Dataset], queries: list[Dataset | np.ndarray]) -> None:
    if len(trains) != len(queries):
        raise SkewbenchError(f"{len(trains)} training sets but {len(queries)} query arrays")


def _points(queries) -> np.ndarray:
    """The query points of a dataset or of an array-like of rows."""
    if isinstance(queries, Dataset):
        return queries.points
    return np.atleast_2d(np.asarray(queries, dtype=np.float64))


ClassifierConfig = KnnClassifier | TreeClassifier

CLASSIFIERS = (KnnClassifier, TreeClassifier)


def _majority_label(ds: Dataset, minority_label: int) -> int:
    """The other label present in a training set, or the minority label itself
    when it is the only one."""
    values = np.unique(ds.labels)
    if len(values) > 2:
        raise SkewbenchError("classifiers support at most two classes")
    others = values[values != minority_label]
    if len(others) == 2:
        raise SkewbenchError(f"minority label {minority_label} absent from training data")
    return int(others[0]) if len(others) else int(minority_label)


@dataclass(frozen=True)
class KnnModel:
    train: Dataset
    k: int
    minority_label: int
    majority_label: int


def knn_fit(ds: Dataset, k: int = KnnClassifier.k, *, minority_label: int) -> KnnModel:
    """A k-NN model that votes for `minority_label` against the other label present."""
    if not (1 <= k <= ds.n):
        raise SkewbenchError(f"k={k} outside valid range 1..{ds.n}")
    return KnnModel(train=ds, k=k, minority_label=minority_label,
                    majority_label=_majority_label(ds, minority_label))


def knn_predict_batch(model: KnnModel, queries) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized prediction; returns (labels, minority-score per query).

    Queries given as a dataset that shares the training set's neighbour table
    take their votes from the table where it settles them, the rest from
    `nearest`: the same votes either way.
    """
    q = _points(queries)
    train = model.train
    if q.shape[1] != train.d:
        raise SkewbenchError("query dimension does not match training data")
    is_min = train.labels == model.minority_label
    votes = np.empty(len(q), dtype=np.int64)
    rest = np.arange(len(q))
    table = queries.table if isinstance(queries, Dataset) else None
    if table is not None and table is train.table:
        taken, settled = table.take(train.rows, queries.rows, model.k)
        row_min = np.zeros(len(table.index), dtype=np.int32)
        row_min[train.rows] = is_min
        votes[settled] = (taken * row_min[table.index[queries.rows]])[settled].sum(axis=1)
        rest = np.flatnonzero(~settled)
    if len(rest):
        votes[rest] = is_min[nearest(train.points, q[rest], model.k)].sum(axis=1)
    labels = np.where(votes * 2 > model.k, model.minority_label, model.majority_label)
    return labels.astype(np.int64), votes / model.k


@dataclass(frozen=True)
class TreeNode:
    """Internal node (feature/threshold/children) or leaf (child index -1)."""

    feature: int
    threshold: float
    left: int
    right: int
    minority_count: int
    majority_count: int


@dataclass(frozen=True, eq=False)
class TreeModel:
    """A fitted forest of `n_trees` trees as one array per node field.

    Nodes are numbered breadth-first, level by level across all trees, so node
    t is tree t's root; a forest of one is a single tree rooted at node 0.
    Within a level, each tree's nodes keep the order a tree fit alone gives
    them. A leaf has feature, left and right -1 and threshold 0.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    minority_count: np.ndarray
    majority_count: np.ndarray
    minority_label: int
    majority_label: int
    n_features: int
    n_trees: int = 1

    def __post_init__(self) -> None:
        for name in ("feature", "left", "right", "minority_count", "majority_count"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), np.int64))
        object.__setattr__(self, "threshold", _frozen_array(self.threshold, np.float64))

    @cached_property
    def nodes(self) -> tuple[TreeNode, ...]:
        """The same nodes as TreeNode records, built on first use."""
        return tuple(map(TreeNode, self.feature.tolist(), self.threshold.tolist(),
                         self.left.tolist(), self.right.tolist(),
                         self.minority_count.tolist(), self.majority_count.tolist()))


def _gini_weighted(m_left, n_left, m_total, n_total):
    """Weighted two-child Gini for every candidate split, vectorized."""
    m_right = m_total - m_left
    n_right = n_total - n_left
    p_l = m_left / n_left
    p_r = m_right / n_right
    g_l = 2.0 * p_l * (1.0 - p_l)
    g_r = 2.0 * p_r * (1.0 - p_r)
    return (n_left * g_l + n_right * g_r) / n_total


CUT_RULE_ROWS = 4096
"""`_can_win` skips cuts only in nodes of at most this many counted rows.

A node's impurity at a cut, times its N counted rows, is
2 m_l o_l / n_l + 2 m_r o_r / n_r, with m and o the minority and majority
rows on each side. Moving the rows of one class across a run of cuts leaves
the other class's counts fixed, and each term x o / (x + o) is concave in x,
with second derivative at most -4/N^3 over both sides once either side
holds a row of the other class, as in an impure node. So each cut inside
such a run lies above the lower end of the run by at least 2/N^3, or 2/N^4
in impurity (CART's concave impurity; Fayyad & Irani's boundary points).
`_gini_weighted` computes the impurity to within about 6.5 units of 2^-53,
7.2e-16, of its exact value, and for N <= 4096 the gap, at least 7.1e-15, is
larger than twice that. So a cut inside a run never ties or beats the run's
lower end in floats either, and the lowest impurity, with the first cut
that reaches it, comes out the same whichever of those cuts are scored.
"""


def _can_win(step: np.ndarray, allowed: np.ndarray, minority: np.ndarray,
             size: np.ndarray) -> np.ndarray:
    """The cuts of one level pass that can hold their node's lowest impurity.

    Cut j lies between entries j and j + 1. `step[j]` says that entry j + 1
    holds a higher value than entry j, `allowed[j]` that the cut leaves
    `min_leaf` counted rows on each side within its segment, `minority` marks
    the minority entries and `size[j]` is the counted size of cut j's node. A
    candidate (a step that is allowed) is skipped only when the cuts on both
    sides are candidates too and the entries on its two sides hold one class:
    it lies inside a run of one class, where it cannot win. So a candidate is
    kept when the labels on its two sides differ, when an entry beside it
    belongs to a block of equal values, when it is the first or last cut of
    its segment that `min_leaf` allows, or when its node holds more than
    CUT_RULE_ROWS rows. A segment's last entry has no row on its right, so the
    cut after it is never allowed and a run never spans two segments.
    """
    cut = step & allowed
    inside = np.zeros(len(cut), dtype=bool)
    inside[1:-1] = (cut[:-2] & cut[2:] & (minority[1:-2] == minority[2:-1])
                    & (size[1:-1] <= CUT_RULE_ROWS))
    return cut & ~inside


def _level_splits(points: np.ndarray, is_min: np.ndarray, weight: np.ndarray,
                  weight_min: np.ndarray, sorted_rows: np.ndarray, live: np.ndarray,
                  node: np.ndarray, size: np.ndarray, minority: np.ndarray,
                  is_open: np.ndarray, min_leaf: int, feature: np.ndarray,
                  threshold: np.ndarray) -> None:
    """Write the best split of every open node of one level into `feature` and
    `threshold`; open nodes with no candidate keep feature -1.

    `sorted_rows[f]` holds all rows in (value of f, row) order, `live` marks
    the rows of open nodes and `node` maps a row to its node. Row i stands for
    `weight[i]` copies, `weight_min[i]` of them minority rows, and `size` and
    `minority` count copies.
    """
    open_size = np.where(is_open, size, 0)
    open_min = np.where(is_open, minority, 0)
    size_before = open_size.cumsum() - open_size  # counted rows in earlier open nodes
    min_before = open_min.cumsum() - open_min
    lowest = np.full(len(size), np.inf)
    # Blocks of features keep each block's temporaries near _BLOCK_BYTES. A
    # later block wins only with a strictly lower impurity: ties keep the
    # lower feature.
    for block in _row_blocks(len(sorted_rows), sorted_rows[0]):
        part = sorted_rows[block]
        part = part[live[part]].reshape(len(part), -1)
        d, m = part.shape
        # A stable sort by node makes one segment per (node, feature), each in
        # (value, row) order: the order a stable sort of the node's own values
        # gives. Keys of 16 bits or less get numpy's radix sort.
        key = node[part].astype(np.min_scalar_type(len(size) - 1))
        order = np.argsort(key.ravel(), kind="stable")
        rows = part.ravel()[order]
        local = order // m  # feature index within the block
        feat = local + block.start
        owner = node[rows]
        values = points.ravel()[rows * points.shape[1] + feat]
        # Counted rows left of a cut after each entry, within its segment.
        node_size = size[owner]
        n_left = weight[rows].cumsum() - d * size_before[owner] - local * node_size
        n_right = node_size - n_left
        cand = np.flatnonzero(_can_win(values[:-1] < values[1:],
                                       (n_left[:-1] >= min_leaf) & (n_right[:-1] >= min_leaf),
                                       is_min[rows], node_size[:-1]))
        if len(cand) == 0:
            continue
        owner, local = owner[cand], local[cand]
        m_left = (weight_min[rows].cumsum()[cand] - d * min_before[owner]
                  - local * minority[owner])
        impurity = _gini_weighted(m_left, n_left[cand], minority[owner], size[owner])
        # Candidates run in (node, feature, threshold) order, so the first one at its
        # node's lowest impurity has the lower feature, then the lower threshold.
        is_start = np.concatenate(([True], owner[1:] != owner[:-1]))
        starts = np.flatnonzero(is_start)
        at_lowest = impurity == np.minimum.reduceat(impurity, starts)[np.cumsum(is_start) - 1]
        pick = np.minimum.reduceat(np.where(at_lowest, np.arange(len(cand)), len(cand)), starts)
        pick = pick[impurity[pick] < lowest[owner[pick]]]
        at, best = owner[pick], cand[pick]
        lowest[at] = impurity[pick]
        feature[at] = block.start + local[pick]
        with np.errstate(over="ignore"):  # midpoints of values near the float limit
            threshold[at] = (values[best] + values[best + 1]) / 2.0


def _per_row(values, count: int, name: str, positive: bool = False) -> np.ndarray:
    """`values` as an intp array of `count` integers, one per row, each >= 1
    if `positive`; `name` says what they are when they are not."""
    arr = np.asarray(values)
    if arr.shape != (count,) or (count and (arr.dtype.kind not in "iu"
                                            or positive and arr.min() < 1)):
        kind = "positive integers" if positive else "integers"
        raise SkewbenchError(f"{name} must be {count} {kind}, one per row")
    return arr.astype(np.intp)


def tree_fit(ds: Dataset, max_depth: int = TreeClassifier.max_depth,
             min_leaf: int = TreeClassifier.min_leaf, *, minority_label: int,
             trees=None, counts=None) -> TreeModel:
    """Greedy binary CART growth on Gini impurity, one depth level at a time,
    with the rows labelled `minority_label` as the minority.

    `trees` gives each row a tree id, and ids 0 to T-1 each need a row; the
    default puts every row in tree 0. Each tree grows on its own rows and
    comes out node for node as if fit alone, but all trees share each level
    pass. The forest has one majority label, the other label present in any
    of its trees.

    `counts` makes row i stand for `counts[i]` identical rows (CART's integer
    case weights); the default is one each. Node sizes, `min_leaf` and the
    leaf counts count copies, and copies never fall on two sides of a cut, so
    the tree is, node for node and bit for bit, the one grown on the copies.

    Candidate thresholds are midpoints between consecutive distinct sorted
    feature values. A node splits whenever a candidate satisfies min_leaf on
    both sides and the node is impure and above max_depth, even at zero gain
    (zero-gain splits are what make XOR-style data separable). The lowest
    weighted Gini wins, ties going to the lower feature, then the lower
    threshold. Only the candidates that `_can_win` keeps are scored: the
    others lie inside a run of one class and can neither win nor tie (see
    CUT_RULE_ROWS). Mixed labels with identical features collapse into a
    single leaf. Rows with a feature value <= threshold go left.
    """
    TreeClassifier(max_depth=max_depth, min_leaf=min_leaf)  # parameter validation
    if ds.n == 0:
        raise SkewbenchError("cannot fit a tree on an empty dataset")
    # Node of each row within its level, starting at its tree's root.
    node = (np.zeros(ds.n, dtype=np.intp) if trees is None
            else _per_row(trees, ds.n, "tree ids"))
    if node.min() < 0 or not np.bincount(node).all():
        raise SkewbenchError("tree ids must run from 0 with at least one row each")
    weight = (np.ones(ds.n, dtype=np.int64) if counts is None
              else _per_row(counts, ds.n, "copy counts", positive=True))
    majority = _majority_label(ds, minority_label)
    is_min = ds.labels == minority_label
    weight_min = weight * is_min
    points = ds.points

    def counted(at: np.ndarray, rows: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
        """(copies, minority copies) per node of the rows `rows` at nodes `at`."""
        size = np.bincount(at, weights=weight[rows], minlength=width).astype(np.int64)
        return size, np.bincount(at, weights=weight_min[rows], minlength=width).astype(np.int64)

    # Each feature's rows sorted once; a node's rows keep this order.
    sorted_rows = np.argsort(points.T, axis=1, kind="stable")
    rows = np.arange(ds.n)  # rows in the nodes of the current level
    size, count_min = counted(node, rows, 0)
    n_trees = len(size)
    levels = []
    depth = n_nodes = 0
    while True:
        width = len(size)
        n_nodes += width
        feature = np.full(width, -1)
        threshold = np.zeros(width)
        left = np.full(width, -1)
        levels.append((feature, threshold, left, count_min, size))  # splits filled in below
        is_open = ((count_min > 0) & (count_min < size) & (size >= 2 * min_leaf)
                   & (depth < max_depth))
        if not is_open.any():
            break
        rows = rows[is_open[node[rows]]]
        live = np.zeros(ds.n, dtype=bool)
        live[rows] = True
        _level_splits(points, is_min, weight, weight_min, sorted_rows, live, node, size,
                      count_min, is_open, min_leaf, feature, threshold)
        split = np.flatnonzero(feature >= 0)
        if len(split) == 0:
            break
        left[split] = n_nodes + 2 * np.arange(len(split))

        slot = np.full(width, -1)
        slot[split] = np.arange(len(split))
        rows = rows[slot[node[rows]] >= 0]
        at = node[rows]
        # The children of the q-th split node are 2q (left) and 2q + 1.
        node[rows] = 2 * slot[at] + ~(points[rows, feature[at]] <= threshold[at])
        size, count_min = counted(node[rows], rows, 2 * len(split))
        depth += 1

    feature, threshold, left, count_min, size = (np.concatenate(c) for c in zip(*levels))
    return TreeModel(feature=feature, threshold=threshold, left=left,
                     right=np.where(left < 0, -1, left + 1), minority_count=count_min,
                     majority_count=size - count_min, minority_label=minority_label,
                     majority_label=majority, n_features=ds.d, n_trees=n_trees)


def tree_predict_batch(model: TreeModel, queries, trees=None) -> tuple[np.ndarray, np.ndarray]:
    """(labels, minority scores), each query routed by the tree that `trees`
    names for it; the default routes every query by tree 0."""
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if q.shape[1] != model.n_features:
        raise SkewbenchError("query dimension does not match training data")
    # All queries descend together from their tree's root, one level per pass,
    # until each is at a leaf.
    at = (np.zeros(len(q), dtype=np.intp) if trees is None
          else _per_row(trees, len(q), "tree ids"))
    if len(at) and (at.min() < 0 or at.max() >= model.n_trees):
        raise SkewbenchError(f"tree id outside 0..{model.n_trees - 1}")
    todo = np.flatnonzero(model.left[at] >= 0)
    while len(todo):
        node = at[todo]
        node = np.where(q[todo, model.feature[node]] <= model.threshold[node],
                        model.left[node], model.right[node])
        at[todo] = node
        todo = todo[model.left[node] >= 0]
    m, mj = model.minority_count[at], model.majority_count[at]
    labels = np.where(m > mj, model.minority_label, model.majority_label).astype(np.int64)
    return labels, (m + 1) / (m + mj + 2)  # Laplace-smoothed minority share

