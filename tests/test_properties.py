"""Randomized property suites, runnable standalone: 1000 cases total."""

import numpy as np
from scipy.spatial import ConvexHull

import skewbench.resample as resample
from skewbench.core import Dataset, RngSeed, summarize
from skewbench.evaluation import KnnClassifier, evaluate_folds, stratified_kfold
from skewbench.resample import RO, smote, sparsity


def random_two_class(rng, n_min=None, n_maj=None, d=2, spread=4.0):
    n_min = n_min if n_min is not None else int(rng.integers(8, 20))
    n_maj = n_maj if n_maj is not None else int(rng.integers(n_min + 5, 60))
    pts = np.vstack([rng.normal(size=(n_maj, d)) * spread,
                     rng.normal(size=(n_min, d)) * spread + 1.0])
    labels = np.array([0] * n_maj + [1] * n_min)
    return Dataset(pts, labels)


class TestSmoteHullMembership:
    N_CASES = 250

    def test_synthetics_inside_minority_convex_hull(self):
        failures = 0
        for case in range(self.N_CASES):
            rng = RngSeed(9000 + case).generator()
            ds = random_two_class(rng)
            k = int(rng.integers(1, 5))
            amount = 100 * int(rng.integers(1, 4))
            out = smote(ds, k=k, amount_pct=amount, rng=rng)
            minority = ds.points[ds.labels == 1]
            synthetic = out.points[ds.n:]
            hull = ConvexHull(minority)
            # Each hull facet satisfies a.x + b <= 0 inside the hull.
            slack = synthetic @ hull.equations[:, :-1].T + hull.equations[:, -1]
            if not np.all(slack <= 1e-9):
                failures += 1
        assert failures == 0


class TestSparsityProperties:
    N_CASES = 125

    def test_alpha_one_is_exact_identity(self):
        for case in range(self.N_CASES):
            rng = RngSeed(17_000 + case).generator()
            ds = random_two_class(rng)
            clusters = rng.integers(0, 2, size=int(np.sum(ds.labels == 1)))
            out = sparsity(ds, 1.0, minority_clusters=clusters)
            assert np.array_equal(out.points, ds.points)
            assert np.array_equal(out.labels, ds.labels)

    def test_variance_scales_with_alpha_squared(self):
        for case in range(self.N_CASES):
            rng = RngSeed(23_000 + case).generator()
            ds = random_two_class(rng, n_min=20)
            alpha = float(1.0 + rng.random() * 2.0)
            clusters = rng.integers(0, 3, size=20)
            out = sparsity(ds, alpha, minority_clusters=clusters)
            rows = np.flatnonzero(ds.labels == 1)
            for j in np.unique(clusters):
                members = rows[clusters == j]
                before = ds.points[members]
                after = out.points[members]
                assert np.allclose(after.mean(axis=0), before.mean(axis=0), atol=1e-9)
                assert np.allclose(after.var(axis=0), alpha ** 2 * before.var(axis=0),
                                   atol=1e-9)
            assert summarize(out).counts == summarize(ds).counts


class TestStratifiedFoldBounds:
    N_CASES = 250

    def test_fold_sizes_within_one_per_class(self):
        for case in range(self.N_CASES):
            rng = RngSeed(31_000 + case).generator()
            folds = int(rng.integers(2, 7))
            n_min = int(rng.integers(folds, 25))
            n_maj = int(rng.integers(n_min, 80))
            ds = random_two_class(rng, n_min=n_min, n_maj=n_maj)
            assignment = stratified_kfold(ds, folds, seed=int(rng.integers(1 << 30)))
            assert len(assignment) == ds.n
            assert assignment.min() >= 0 and assignment.max() <= folds - 1
            for label in (0, 1):
                sizes = np.bincount(assignment[ds.labels == label], minlength=folds)
                assert sizes.sum() == (n_min if label == 1 else n_maj)
                assert sizes.max() - sizes.min() <= 1


class TestResampleInsideTrainingFoldOnly:
    N_CASES = 250

    def test_resampler_sees_exactly_the_training_rows(self, monkeypatch):
        received: list[np.ndarray] = []
        original = resample.random_oversample

        def spy(train, rng_):
            received.append(train.points)
            return original(train, rng_)

        monkeypatch.setattr(resample, "random_oversample", spy)
        for case in range(self.N_CASES):
            rng = RngSeed(47_000 + case).generator()
            folds = int(rng.integers(2, 5))
            ds = random_two_class(rng, n_min=int(rng.integers(folds + 3, 16)))
            assignment = stratified_kfold(ds, folds, seed=case)
            received.clear()
            evaluate_folds(ds, assignment, (RO(),), (KnnClassifier(k=1),), RngSeed(case))
            assert len(received) == folds
            for fold, train_points in enumerate(received):
                expected = ds.points[assignment != fold]
                # The resampler saw exactly the training-fold rows; the test
                # fold rows remain the untouched generated rows.
                assert np.array_equal(train_points, expected)
                test_rows = ds.points[assignment == fold]
                merged = np.vstack([train_points, test_rows])
                assert sorted(map(tuple, merged)) == sorted(map(tuple, ds.points))


def test_case_budget_totals_1000():
    total = (TestSmoteHullMembership.N_CASES + 2 * TestSparsityProperties.N_CASES
             + TestStratifiedFoldBounds.N_CASES
             + TestResampleInsideTrainingFoldOnly.N_CASES)
    assert total == 1000
