import tracemalloc

import numpy as np
import pytest

import reference_tree as reference
from skewbench import core
from skewbench import classify
from skewbench.classify import (TreeClassifier, knn_fit, knn_predict_batch, tree_fit,
                                tree_predict_batch)
from skewbench.core import Dataset, RngSeed, SkewbenchError, summarize


def ds_of(points, labels):
    return Dataset(np.asarray(points, dtype=float), np.asarray(labels))


class TestKnn:
    def test_k1_returns_training_label(self):
        ds = ds_of([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]], [0, 1, 0])
        model = knn_fit(ds, k=1, minority_label=1)
        labels, scores = knn_predict_batch(model, [[5.0, 5.0], [0.0, 0.0]])
        assert labels.tolist() == [1, 0]
        assert scores.tolist() == [1.0, 0.0]

    def test_two_of_three_vote(self):
        ds = ds_of([[0.0], [0.1], [0.2], [9.0], [9.1], [9.2], [9.3]],
                   [1, 1, 0, 0, 0, 0, 0])
        model = knn_fit(ds, k=3, minority_label=1)
        labels, scores = knn_predict_batch(model, [[0.05]])
        assert labels.tolist() == [1]
        assert scores[0] == pytest.approx(2 / 3)

    def test_tie_goes_to_majority(self):
        ds = ds_of([[0.0], [1.0], [10.0], [11.0], [12.0]], [1, 1, 0, 0, 0])
        model = knn_fit(ds, k=2, minority_label=1)
        labels, scores = knn_predict_batch(model, [[0.5], [5.5]])
        assert scores[0] == pytest.approx(1.0)  # both neighbors minority
        assert labels[1] == 0  # one of each: tie resolves to majority
        assert scores[1] == pytest.approx(0.5)

    def test_matches_brute_force_oracle(self):
        rng = RngSeed(42).generator()
        pts = np.round(rng.normal(size=(50, 3)) * 2)  # rounded -> distance ties
        labels = (rng.random(50) < 0.3).astype(int)
        if labels.sum() in (0, 50):
            labels[0] = 1 - labels[0]
        ds = Dataset(pts, labels)
        model = knn_fit(ds, k=5, minority_label=1)
        queries = np.round(rng.normal(size=(20, 3)) * 2)
        got_labels, got_scores = knn_predict_batch(model, queries)
        for qi, q in enumerate(queries):
            order = sorted(range(50),
                           key=lambda i: (float(np.sum((pts[i] - q) ** 2)), i))[:5]
            votes = sum(1 for i in order if labels[i] == 1)
            expected_label = 1 if votes * 2 > 5 else 0
            assert got_labels[qi] == expected_label
            assert got_scores[qi] == pytest.approx(votes / 5)

    def test_training_set_perfect_with_k1(self):
        rng = RngSeed(3).generator()
        pts = rng.normal(size=(40, 2))
        labels = (rng.random(40) < 0.25).astype(int)
        labels[:2] = [0, 1]
        ds = Dataset(pts, labels)
        model = knn_fit(ds, k=1, minority_label=1)
        pred, _ = knn_predict_batch(model, pts)
        assert np.array_equal(pred, labels)

    def test_k_out_of_range(self):
        ds = ds_of([[0.0], [1.0]], [0, 1])
        with pytest.raises(SkewbenchError):
            knn_fit(ds, k=3, minority_label=1)
        with pytest.raises(SkewbenchError):
            knn_fit(ds, k=0, minority_label=1)

    def test_dimension_mismatch(self):
        ds = ds_of([[0.0, 1.0], [1.0, 0.0]], [0, 1])
        model = knn_fit(ds, k=1, minority_label=1)
        with pytest.raises(SkewbenchError, match="dimension"):
            knn_predict_batch(model, [[1.0, 2.0, 3.0]])


class TestRoles:
    """Both classifiers vote for the label they are given against the other one present."""

    def test_majority_is_the_other_label_present(self):
        assert knn_fit(ds_of([[0.0], [1.0]], [2, 5]), k=1, minority_label=5).majority_label == 2
        assert tree_fit(ds_of([[0.0], [1.0]], [4, 4]), minority_label=0).majority_label == 4
        assert tree_fit(ds_of([[0.0], [1.0]], [4, 4]), minority_label=4).majority_label == 4

    @pytest.mark.parametrize("fit", [lambda ds, label: knn_fit(ds, k=1, minority_label=label),
                                     lambda ds, label: tree_fit(ds, minority_label=label)],
                             ids=["knn", "tree"])
    def test_refused(self, fit):
        with pytest.raises(SkewbenchError, match="at most two classes"):
            fit(ds_of([[0.0], [1.0], [2.0]], [0, 1, 2]), 1)
        with pytest.raises(SkewbenchError, match="minority label 1 absent"):
            fit(ds_of([[0.0], [1.0]], [0, 2]), 1)


class TestTreeFit:
    def test_pure_input_single_leaf(self):
        ds = ds_of([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]], [0, 0, 0])
        model = tree_fit(ds, minority_label=1)
        assert len(model.nodes) == 1
        assert model.nodes[0].left < 0

    def test_xor_separable_at_depth_two(self):
        ds = ds_of([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]], [0, 0, 1, 1])
        model = tree_fit(ds, max_depth=2, min_leaf=1, minority_label=0)
        pred, _ = tree_predict_batch(model, ds.points)
        assert np.array_equal(pred, ds.labels)

    def test_unique_zero_impurity_root(self):
        ds = ds_of([[0.0], [1.0], [2.0], [3.0]], [0, 0, 1, 1])
        model = tree_fit(ds, min_leaf=1, minority_label=0)
        root = model.nodes[0]
        assert root.feature == 0
        assert root.threshold == pytest.approx(1.5)

    def test_identical_features_mixed_labels_single_leaf(self):
        ds = ds_of([[2.0, 2.0]] * 5, [0, 0, 0, 1, 1])
        model = tree_fit(ds, min_leaf=1, minority_label=1)
        assert len(model.nodes) == 1
        labels, _ = tree_predict_batch(model, [[2.0, 2.0]])
        assert labels.tolist() == [0]  # leaf majority

    def test_min_leaf_respected(self):
        rng = RngSeed(5).generator()
        pts = rng.normal(size=(60, 2))
        labels = (pts[:, 0] + 0.2 * rng.normal(size=60) > 0).astype(int)
        ds = Dataset(pts, labels)
        model = tree_fit(ds, max_depth=8, min_leaf=5, minority_label=summarize(ds).minority_label)
        for node in model.nodes:
            if node.left < 0:
                assert node.minority_count + node.majority_count >= 5

    def test_depth_capped(self):
        rng = RngSeed(6).generator()
        pts = rng.normal(size=(120, 2))
        labels = (rng.random(120) < 0.5).astype(int)
        ds = Dataset(pts, labels)
        model = tree_fit(ds, max_depth=3, min_leaf=1, minority_label=summarize(ds).minority_label)

        def depth(index, d=0):
            node = model.nodes[index]
            if node.left < 0:
                return d
            return max(depth(node.left, d + 1), depth(node.right, d + 1))

        assert depth(0) <= 3

    def test_gini_never_increases_on_chosen_splits(self):
        rng = RngSeed(7).generator()
        pts = rng.normal(size=(150, 2))
        labels = ((pts[:, 0] > 0) ^ (rng.random(150) < 0.2)).astype(int)
        ds = Dataset(pts, labels)
        model = tree_fit(ds, max_depth=6, min_leaf=2, minority_label=summarize(ds).minority_label)

        def gini(node):
            n = node.minority_count + node.majority_count
            p = node.minority_count / n
            return 2 * p * (1 - p)

        for node in model.nodes:
            if node.left < 0:
                continue
            left, right = model.nodes[node.left], model.nodes[node.right]
            n_l = left.minority_count + left.majority_count
            n_r = right.minority_count + right.majority_count
            weighted = (n_l * gini(left) + n_r * gini(right)) / (n_l + n_r)
            assert weighted <= gini(node) + 1e-12


class TestTreePredict:
    def test_single_leaf_constant(self):
        ds = ds_of([[0.0], [1.0]], [0, 0])
        model = tree_fit(ds, minority_label=1)
        labels, scores = tree_predict_batch(model, [[-5.0], [0.5], [99.0]])
        assert labels.tolist() == [0, 0, 0]
        assert scores.tolist() == pytest.approx([1 / 4] * 3)  # Laplace (0+1)/(2+2)

    def test_laplace_leaf_score(self):
        # A leaf holding (minority=3, majority=1) predicts minority with 4/6.
        ds = ds_of([[0.0], [0.1], [0.2], [0.3], [9.0], [9.1], [9.2], [9.3], [9.4]],
                   [1, 1, 1, 0, 0, 0, 0, 0, 0])
        model = tree_fit(ds, max_depth=1, min_leaf=4, minority_label=1)
        labels, scores = tree_predict_batch(model, [[0.0]])
        assert labels.tolist() == [1]
        assert scores[0] == pytest.approx(4 / 6)

    def test_leaf_tie_prefers_majority(self):
        ds = ds_of([[0.0], [1.0], [10.0], [11.0], [12.0], [13.0]], [1, 1, 0, 0, 0, 0])
        model = tree_fit(ds, max_depth=0, minority_label=1)
        labels, _ = tree_predict_batch(model, [[0.0]])
        assert labels.tolist() == [0]
        ds2 = ds_of([[0.0], [1.0], [10.0], [11.0]], [1, 1, 0, 0])
        model2 = tree_fit(ds2, max_depth=0, minority_label=1)
        labels2, _ = tree_predict_batch(model2, [[0.0]])
        assert labels2.tolist() == [0]  # exact tie in the root leaf

    def test_matches_hand_routed_oracle(self):
        rng = RngSeed(9).generator()
        pts = rng.normal(size=(200, 3))
        labels = ((pts[:, 0] > 0.2) & (pts[:, 1] < 0.5)).astype(int)
        ds = Dataset(pts, labels)
        model = tree_fit(ds, max_depth=6, min_leaf=2, minority_label=1)
        queries = rng.normal(size=(100, 3))
        got_labels, got_scores = tree_predict_batch(model, queries)

        def walk(q):
            node = model.nodes[0]
            while node.left >= 0:
                node = model.nodes[node.left] if q[node.feature] <= node.threshold \
                    else model.nodes[node.right]
            m, mj = node.minority_count, node.majority_count
            return (1 if m > mj else 0), (m + 1) / (m + mj + 2)

        for qi, q in enumerate(queries):
            lab, score = walk(q)
            assert got_labels[qi] == lab
            assert got_scores[qi] == pytest.approx(score, abs=1e-15)

    def test_scale_covariant_labels(self):
        rng = RngSeed(10).generator()
        pts = rng.normal(size=(80, 2))
        labels = (pts[:, 0] + pts[:, 1] > 0).astype(int)
        queries = rng.normal(size=(30, 2))

        def monotone(a):
            out = np.array(a, dtype=float)
            out[:, 0] = np.exp(out[:, 0])
            out[:, 1] = out[:, 1] ** 3
            return out

        minority = summarize(Dataset(pts, labels)).minority_label
        plain = tree_fit(Dataset(pts, labels), max_depth=5, min_leaf=2, minority_label=minority)
        scaled = tree_fit(Dataset(monotone(pts), labels), max_depth=5, min_leaf=2,
                          minority_label=minority)
        p1, _ = tree_predict_batch(plain, queries)
        p2, _ = tree_predict_batch(scaled, monotone(queries))
        assert np.array_equal(p1, p2)

    def test_dimension_mismatch(self):
        ds = ds_of([[0.0, 0.0], [1.0, 1.0]], [0, 1])
        model = tree_fit(ds, min_leaf=1, minority_label=0)
        with pytest.raises(SkewbenchError, match="dimension"):
            tree_predict_batch(model, [[0.0]])


FIELDS = ("feature", "threshold", "left", "right", "minority_count", "majority_count")


def node_rows(model):
    return [tuple(getattr(node, f) for f in FIELDS) for node in model.nodes]


def preorder(nodes, root=0):
    """(depth, feature, threshold bits, minority, majority) per node of the
    tree at `root`, root first.

    `nodes` holds (feature, threshold, left, right, minority, majority) rows.
    """
    out, todo = [], [(root, 0)]
    while todo:
        index, depth = todo.pop()
        feature, threshold, left, right, m, mj = nodes[index]
        out.append((depth, feature, float(threshold).hex(), m, mj))
        if left >= 0:
            todo += [(right, depth + 1), (left, depth + 1)]
    return out


def oracle_data(kind, dims, seed=0, n=90):
    rng = np.random.default_rng(seed)
    if kind == "random":
        pts = rng.normal(size=(n, dims))
    elif kind == "lattice":
        pts = rng.integers(0, 4, size=(n, dims)).astype(float)
    elif kind == "duplicates":
        base = rng.normal(size=(n // 6, dims))
        pts = base[rng.integers(0, len(base), n)]
    else:
        # Neighbouring doubles: a midpoint rounds onto one of its two values, so
        # a row can sit exactly on a threshold and a child can come out empty.
        pts = 1.0 + rng.integers(0, 4, size=(n, dims)) * np.finfo(float).eps
    return pts, (rng.random(n) < 0.35).astype(int)


def assert_matches_reference(ds, max_depth, min_leaf, minority_label):
    model = tree_fit(ds, max_depth, min_leaf, minority_label=minority_label)
    nodes = reference.tree_fit(ds.points, ds.labels == minority_label, max_depth, min_leaf)
    assert len(model.nodes) == len(nodes)
    assert preorder(node_rows(model)) == preorder(nodes)  # depths included
    # Queries on every threshold exercise the <= routing of predict.
    on_cut = np.tile(model.threshold[model.left >= 0][:, None], (1, ds.d))
    queries = np.vstack([ds.points, on_cut, ds.points[::-1] + 0.25])
    labels, scores = tree_predict_batch(model, queries)
    want_labels, want_scores = reference.tree_predict(nodes, queries, model.minority_label,
                                                      model.majority_label)
    assert np.array_equal(labels, want_labels)
    assert np.array_equal(scores.view(np.uint64), want_scores.view(np.uint64))


class TestReferenceOracle:
    """Bit for bit against the frozen recursive tree in reference_tree.

    The level-wise fit numbers nodes breadth-first and the reference depth-first,
    so structures are compared by walking both from the root. Blocks of 1 or 2
    features make the split search combine candidates across blocks.
    """

    @pytest.mark.parametrize("block", [None, 1, 2])
    @pytest.mark.parametrize("dims", [1, 2, 3, 9])
    @pytest.mark.parametrize("kind", ["random", "lattice", "duplicates", "adjacent"])
    def test_bits_equal_reference(self, monkeypatch, kind, dims, block):
        for seed in range(3):
            ds = Dataset(*oracle_data(kind, dims, seed))
            if block is not None:
                monkeypatch.setattr(core, "_BLOCK_BYTES", block * 8 * ds.n)
            for max_depth, min_leaf in ((0, 1), (2, 1), (5, 3), (12, 2), (13, 1)):
                assert_matches_reference(ds, max_depth, min_leaf, summarize(ds).minority_label)
                assert_matches_reference(ds, max_depth, min_leaf, minority_label=0)

    @pytest.mark.parametrize("block", [None, 1])
    def test_xor_zero_gain_splits(self, monkeypatch, block):
        # Every first split has zero gain, so the tie rule alone picks it.
        grid = np.array([[x, y] for x in range(4) for y in range(4)], dtype=float)
        pts = np.vstack([grid, grid + 0.1, grid[:, ::-1] + 0.2])
        labels = ((pts[:, 0] >= 2) ^ (pts[:, 1] >= 2)).astype(int)
        if block is not None:
            monkeypatch.setattr(core, "_BLOCK_BYTES", block * 8 * len(pts))
        for min_leaf in (1, 2, 4):
            assert_matches_reference(Dataset(pts, labels), 12, min_leaf, minority_label=0)
            assert_matches_reference(Dataset(pts, labels), 12, min_leaf, minority_label=1)

    @pytest.mark.parametrize("minority_label", [0, 3])
    def test_single_class(self, minority_label):
        pts, _ = oracle_data("random", 2)
        assert_matches_reference(Dataset(pts, np.zeros(len(pts), dtype=int)), 12, 1,
                                 minority_label)


def forest_sets(kind, dims, seed):
    """Sets of one forest: three of `kind` at different sizes, then a
    single-class set (labels 0) and a one-row set (label 1)."""
    sets = [Dataset(*oracle_data(kind, dims, 10 * seed + i, n))
            for i, n in enumerate((90, 24, 130))]
    pts, _ = oracle_data(kind, dims, 10 * seed + 3, 30)
    sets.append(Dataset(pts, np.zeros(len(pts), dtype=int)))
    sets.append(Dataset(pts[:1], [1]))
    return sets


def stack(arrays):
    """The arrays stacked, and the index of the array each row came from."""
    return np.concatenate(arrays), np.repeat(np.arange(len(arrays)), [len(a) for a in arrays])


class TestForest:
    """Trees fit together as one forest, each against its own fit and the reference."""

    @pytest.mark.parametrize("block", [None, 1])
    @pytest.mark.parametrize("max_depth", [0, 5, 12])
    @pytest.mark.parametrize("dims", [1, 2, 9])
    @pytest.mark.parametrize("kind", ["random", "lattice", "duplicates", "adjacent"])
    def test_each_tree_bits_equal_its_own_fit(self, monkeypatch, kind, dims, max_depth, block):
        sets = forest_sets(kind, dims, seed=dims + max_depth)
        points, trees = stack([ds.points for ds in sets])
        forest = Dataset(points, np.concatenate([ds.labels for ds in sets]))
        if block is not None:  # blocks of one feature
            monkeypatch.setattr(core, "_BLOCK_BYTES", 8 * forest.n)
        for min_leaf, minority_label in ((1, 1), (2, 0), (3, 1)):
            model = tree_fit(forest, max_depth, min_leaf, minority_label=minority_label,
                             trees=trees)
            assert model.n_trees == len(sets)
            alone = [tree_fit(ds, max_depth, min_leaf, minority_label=minority_label)
                     for ds in sets]
            # Queries on every threshold of a tree exercise the <= routing of predict.
            queries = [np.vstack([ds.points, np.tile(a.threshold[a.left >= 0][:, None],
                                                     (1, dims)), ds.points[::-1] + 0.25])
                       for ds, a in zip(sets, alone)]
            stacked, q_trees = stack(queries)
            labels, scores = tree_predict_batch(model, stacked, trees=q_trees)
            assert sum(len(a.feature) for a in alone) == len(model.feature)
            for t, (ds, a, q) in enumerate(zip(sets, alone, queries)):
                nodes = reference.tree_fit(ds.points, ds.labels == minority_label,
                                           max_depth, min_leaf)
                assert preorder(node_rows(model), root=t) == preorder(node_rows(a))
                assert preorder(node_rows(a)) == preorder(nodes)
                want_labels, want_scores = reference.tree_predict(nodes, q, minority_label,
                                                                  a.majority_label)
                got = q_trees == t
                assert np.array_equal(labels[got], want_labels)
                assert np.array_equal(scores[got].view(np.uint64), want_scores.view(np.uint64))

    def test_refusals(self):
        ds = ds_of([[0.0], [1.0], [2.0], [3.0]], [0, 1, 0, 1])
        with pytest.raises(SkewbenchError, match="at least one row each"):
            tree_fit(ds, minority_label=1, trees=[0, 0, 2, 2])  # tree 1 is empty
        with pytest.raises(SkewbenchError, match="at least one row each"):
            tree_fit(ds, minority_label=1, trees=[0, -1, 0, 0])
        with pytest.raises(SkewbenchError, match="one per row"):
            tree_fit(ds, minority_label=1, trees=[0, 0, 1])
        with pytest.raises(SkewbenchError, match="one per row"):
            tree_fit(ds, minority_label=1, trees=[0.0, 0.0, 1.0, 1.0])
        model = tree_fit(ds, min_leaf=1, minority_label=1, trees=[0, 0, 1, 1])
        with pytest.raises(SkewbenchError, match=r"tree id outside 0\.\.1"):
            tree_predict_batch(model, [[0.0], [1.0]], trees=[0, 2])
        with pytest.raises(SkewbenchError, match=r"tree id outside 0\.\.1"):
            tree_predict_batch(model, [[0.0]], trees=[-1])
        with pytest.raises(SkewbenchError, match="one per row"):
            tree_predict_batch(model, [[0.0], [1.0]], trees=[0])
        with pytest.raises(SkewbenchError, match="2 training sets but 1 query arrays"):
            TreeClassifier().fit_predict_many([ds, ds], 1, [ds.points])


def random_sets(count, rows, seed=0):
    rng = np.random.default_rng(seed)
    return [Dataset(rng.normal(size=(rows, 2)), (rng.random(rows) < 0.2).astype(int))
            for _ in range(count)]


@pytest.mark.parametrize("rows, fits", [(480, 1), (3200, 5)])
def test_fit_predict_many_forests(monkeypatch, rows, fits):
    # Consecutive sets share a forest while it holds at most 4096 rows at d = 2.
    sets = random_sets(5, rows)
    queries = [ds.points[::7] + 0.01 for ds in sets]
    calls = []
    original = classify.tree_fit

    def counted(ds, *args, **kwargs):
        calls.append(ds.n)
        return original(ds, *args, **kwargs)

    monkeypatch.setattr(classify, "tree_fit", counted)
    got = TreeClassifier().fit_predict_many(sets, 1, queries)
    assert len(calls) == fits and sum(calls) == 5 * rows
    for ds, q, (labels, scores) in zip(sets, queries, got):
        want_labels, want_scores = tree_predict_batch(original(ds, minority_label=1), q)
        assert np.array_equal(labels, want_labels)
        assert np.array_equal(scores.view(np.uint64), want_scores.view(np.uint64))


def test_fit_predict_many_peak_memory_is_one_fit():
    # Sets above the forest cap (here the size of cli_large's CO folds) are
    # fit one at a time, so five of them peak like one.
    sets = random_sets(5, 5600, seed=1)
    queries = [ds.points[:800] for ds in sets]

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    tree_fit(sets[0], minority_label=1)  # the first call's one-off allocations
    one = peak(lambda: tree_fit(sets[0], minority_label=1))
    many = peak(lambda: TreeClassifier().fit_predict_many(sets, 1, queries))
    assert many <= 1.25 * one


def test_deep_chain_fits_without_recursion():
    # Alternating labels on a line: the best cut peels one row off an end at
    # every level, so the tree is 1199 levels deep.
    n = 1200
    ds = Dataset(np.arange(n, dtype=float)[:, None], np.arange(n) % 2)
    model = tree_fit(ds, max_depth=100_000, min_leaf=1, minority_label=0)
    assert max(row[0] for row in preorder(node_rows(model))) == n - 1
    labels, _ = tree_predict_batch(model, ds.points)
    assert np.array_equal(labels, ds.labels)


def test_fit_peak_memory_bounded_with_many_features():
    # The split search works on blocks of features: searching all 50 features
    # of 20,000 rows at once peaks at 169 MB traced, 22 times the 7.6 MB input.
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(20_000, 50))
    ds = Dataset(pts, (pts[:, 0] + rng.normal(size=len(pts)) > 1).astype(int))
    tracemalloc.start()
    try:
        tree_fit(ds, max_depth=1, minority_label=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20
