"""Frozen reference Gini tree, as it was before `skewbench.classify` grew
trees one depth level at a time.

Recursive depth-first growth with one `_best_split` per internal node and a
per-row predict loop. Tests compare the library against it bit for bit. Do
not optimise it: its split search and tie rule are the specification.
Nodes are `(feature, threshold, left, right, minority, majority)` tuples in
depth-first order; a leaf has `left == -1`.
"""

import numpy as np


def _gini_weighted(m_left, n_left, m_total, n_total):
    m_right = m_total - m_left
    n_right = n_total - n_left
    p_l = m_left / n_left
    p_r = m_right / n_right
    g_l = 2.0 * p_l * (1.0 - p_l)
    g_r = 2.0 * p_r * (1.0 - p_r)
    return (n_left * g_l + n_right * g_r) / n_total


def _best_split(points, is_min, min_leaf):
    n = len(points)
    m_total = int(is_min.sum())
    best = None
    for f in range(points.shape[1]):
        values = points[:, f]
        order = np.argsort(values, kind="stable")
        sv = values[order]
        sm = np.cumsum(is_min[order])
        cut = np.flatnonzero(sv[:-1] < sv[1:]) + 1
        if len(cut) == 0:
            continue
        cut = cut[(cut >= min_leaf) & (n - cut >= min_leaf)]
        if len(cut) == 0:
            continue
        impurity = _gini_weighted(sm[cut - 1], cut, m_total, n)
        pos = int(np.argmin(impurity))
        score = float(impurity[pos])
        if best is None or score < best[0]:
            left_size = int(cut[pos])
            threshold = (float(sv[left_size - 1]) + float(sv[left_size])) / 2.0
            best = (score, f, threshold)
    return best


def tree_fit(points, is_min, max_depth, min_leaf):
    """Node tuples of the tree grown on `points` with minority mask `is_min`."""
    points = np.asarray(points, dtype=np.float64)
    is_min = np.asarray(is_min, dtype=bool)
    nodes = []

    def build(rows, depth):
        m = int(is_min[rows].sum())
        count_maj = len(rows) - m
        index = len(nodes)
        nodes.append((-1, 0.0, -1, -1, m, count_maj))
        pure = m == 0 or count_maj == 0
        if pure or depth >= max_depth or len(rows) < 2 * min_leaf:
            return index
        found = _best_split(points[rows], is_min[rows], min_leaf)
        if found is None:
            return index
        _, feature, threshold = found
        mask = points[rows, feature] <= threshold
        left = build(rows[mask], depth + 1)
        right = build(rows[~mask], depth + 1)
        nodes[index] = (feature, threshold, left, right, m, count_maj)
        return index

    build(np.arange(len(points)), 0)
    return nodes


def tree_predict(nodes, queries, minority_label, majority_label):
    """(labels, Laplace minority scores), one query at a time."""
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    labels = np.empty(len(q), dtype=np.int64)
    scores = np.empty(len(q))
    for i, row in enumerate(q):
        node = nodes[0]
        while node[2] >= 0:
            node = nodes[node[2] if row[node[0]] <= node[1] else node[3]]
        m, mj = node[4], node[5]
        if minority_label is not None and m > mj:
            labels[i] = minority_label
        else:
            labels[i] = majority_label
        scores[i] = (m + 1) / (m + mj + 2)
    return labels, scores

