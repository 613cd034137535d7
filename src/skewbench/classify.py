"""Baseline classifiers: k-NN voting and a greedy Gini decision tree.

Both emit a minority-class score alongside the label so ROC areas can be
computed. Vote and leaf ties resolve toward the majority class, which makes
the baselines' bias against the minority explicit and reproducible.

Each config in `CLASSIFIERS` runs itself with `fit_predict(train, minority,
queries)`, calling fit and predict by their global names as `resample` does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, SkewbenchError, nearest, summarize


@dataclass(frozen=True)
class KnnClassifier:
    """Configuration of the k-NN vote."""

    k: int = 3
    name = "knn"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise SkewbenchError("knn k must be >= 1")

    def fit_predict(self, train: Dataset, minority: int,
                    queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        model = knn_fit(train, k=self.k, minority_label=minority)
        return knn_predict_batch(model, queries)


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

    def fit_predict(self, train: Dataset, minority: int,
                    queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        model = tree_fit(train, max_depth=self.max_depth, min_leaf=self.min_leaf,
                         minority_label=minority)
        return tree_predict_batch(model, queries)


ClassifierConfig = KnnClassifier | TreeClassifier

CLASSIFIERS = (KnnClassifier, TreeClassifier)


def _resolve_roles(ds: Dataset, minority_label: int | None) -> tuple[int | None, int]:
    """(minority, majority) labels for a training set.

    An explicit minority label wins; otherwise the roles are recomputed from
    the counts. Single-class data has no minority (score 0 everywhere).
    """
    values = np.unique(ds.labels)
    if len(values) > 2:
        raise SkewbenchError("classifiers support at most two classes")
    if minority_label is not None:
        others = [int(v) for v in values if v != minority_label]
        if minority_label not in values:
            if len(values) == 1:
                return int(minority_label), int(values[0])
            raise SkewbenchError(f"minority label {minority_label} absent from training data")
        majority = others[0] if others else int(minority_label)
        return int(minority_label), majority
    if len(values) == 1:
        return None, int(values[0])
    s = summarize(ds)
    return s.minority_label, s.majority_label


@dataclass(frozen=True)
class KnnModel:
    train: Dataset
    k: int
    minority_label: int | None
    majority_label: int


def knn_fit(ds: Dataset, k: int = KnnClassifier.k, minority_label: int | None = None) -> KnnModel:
    if not (1 <= k <= ds.n):
        raise SkewbenchError(f"k={k} outside valid range 1..{ds.n}")
    minority, majority = _resolve_roles(ds, minority_label)
    return KnnModel(train=ds, k=k, minority_label=minority, majority_label=majority)


def knn_predict_batch(model: KnnModel, queries) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized prediction; returns (labels, minority-score per query)."""
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if q.shape[1] != model.train.d:
        raise SkewbenchError("query dimension does not match training data")
    order = nearest(model.train.points, q, model.k)
    if model.minority_label is None:
        return (np.full(len(q), model.majority_label, dtype=np.int64),
                np.zeros(len(q)))
    votes = (model.train.labels[order] == model.minority_label).sum(axis=1)
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

    @property
    def is_leaf(self) -> bool:
        return self.left < 0


@dataclass(frozen=True)
class TreeModel:
    nodes: tuple[TreeNode, ...]
    max_depth: int
    min_leaf: int
    minority_label: int | None
    majority_label: int
    n_features: int


def _gini_weighted(m_left, n_left, m_total, n_total):
    """Weighted two-child Gini for every candidate split, vectorized."""
    m_right = m_total - m_left
    n_right = n_total - n_left
    p_l = m_left / n_left
    p_r = m_right / n_right
    g_l = 2.0 * p_l * (1.0 - p_l)
    g_r = 2.0 * p_r * (1.0 - p_r)
    return (n_left * g_l + n_right * g_r) / n_total


def _best_split(points: np.ndarray, is_min: np.ndarray, min_leaf: int):
    """Minimal weighted-Gini split, ties to (lower feature, lower threshold)."""
    n = len(points)
    m_total = int(is_min.sum())
    best = None
    for f in range(points.shape[1]):
        values = points[:, f]
        order = np.argsort(values, kind="stable")
        sv = values[order]
        sm = np.cumsum(is_min[order])
        cut = np.flatnonzero(sv[:-1] < sv[1:]) + 1  # left sizes at value boundaries
        if len(cut) == 0:
            continue
        cut = cut[(cut >= min_leaf) & (n - cut >= min_leaf)]
        if len(cut) == 0:
            continue
        impurity = _gini_weighted(sm[cut - 1], cut, m_total, n)
        pos = int(np.argmin(impurity))  # first minimum: lowest threshold wins
        score = float(impurity[pos])
        if best is None or score < best[0]:
            left_size = int(cut[pos])
            threshold = (float(sv[left_size - 1]) + float(sv[left_size])) / 2.0
            best = (score, f, threshold)
    return best


def tree_fit(ds: Dataset, max_depth: int = TreeClassifier.max_depth,
             min_leaf: int = TreeClassifier.min_leaf,
             minority_label: int | None = None) -> TreeModel:
    """Greedy binary CART growth on Gini impurity.

    Candidate thresholds are midpoints between consecutive distinct sorted
    feature values. A node splits whenever a candidate satisfies min_leaf on
    both sides and the node is impure and above max_depth, even at zero gain
    (zero-gain splits are what make XOR-style data separable). Mixed labels
    with identical features collapse into a single leaf.
    """
    TreeClassifier(max_depth=max_depth, min_leaf=min_leaf)  # parameter validation
    if ds.n == 0:
        raise SkewbenchError("cannot fit a tree on an empty dataset")
    minority, majority = _resolve_roles(ds, minority_label)
    is_min = (ds.labels == minority) if minority is not None else np.zeros(ds.n, dtype=bool)

    nodes: list[TreeNode] = []

    def build(rows: np.ndarray, depth: int) -> int:
        m = int(is_min[rows].sum())
        count_maj = len(rows) - m
        index = len(nodes)
        nodes.append(TreeNode(-1, 0.0, -1, -1, m, count_maj))
        pure = m == 0 or count_maj == 0
        if pure or depth >= max_depth or len(rows) < 2 * min_leaf:
            return index
        found = _best_split(ds.points[rows], is_min[rows], min_leaf)
        if found is None:
            return index
        _, feature, threshold = found
        mask = ds.points[rows, feature] <= threshold
        left = build(rows[mask], depth + 1)
        right = build(rows[~mask], depth + 1)
        nodes[index] = TreeNode(feature, threshold, left, right, m, count_maj)
        return index

    build(np.arange(ds.n), 0)
    return TreeModel(nodes=tuple(nodes), max_depth=max_depth, min_leaf=min_leaf,
                     minority_label=minority, majority_label=majority, n_features=ds.d)


def tree_predict_batch(model: TreeModel, queries) -> tuple[np.ndarray, np.ndarray]:
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if q.shape[1] != model.n_features:
        raise SkewbenchError("query dimension does not match training data")
    labels = np.empty(len(q), dtype=np.int64)
    scores = np.empty(len(q))
    for i, row in enumerate(q):
        node = model.nodes[0]
        while not node.is_leaf:
            node = model.nodes[node.left if row[node.feature] <= node.threshold else node.right]
        m, mj = node.minority_count, node.majority_count
        if model.minority_label is not None and m > mj:
            labels[i] = model.minority_label
        else:
            labels[i] = model.majority_label
        scores[i] = (m + 1) / (m + mj + 2)  # Laplace-smoothed minority share
    return labels, scores


def tree_to_text(model: TreeModel) -> str:
    """Plain-text dump, one node per line, indentation equal to depth."""
    lines: list[str] = []

    def walk(index: int, depth: int) -> None:
        node = model.nodes[index]
        pad = "  " * depth
        if node.is_leaf:
            lines.append(f"{pad}leaf minority={node.minority_count} "
                         f"majority={node.majority_count}")
        else:
            lines.append(f"{pad}split f{node.feature} <= {node.threshold:g}")
            walk(node.left, depth + 1)
            walk(node.right, depth + 1)

    walk(0, 0)
    return "\n".join(lines) + "\n"
