from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewbench import classify, evaluation, resample
from skewbench.core import ConfigError, Dataset, RngSeed, SkewbenchError, summarize
from skewbench.datagen import GenSpec, generate_imbalanced
from skewbench.classify import (CLASSIFIERS, knn_fit, knn_predict_batch, tree_fit,
                                tree_predict_batch)
from skewbench.evaluation import (ConfusionMatrix, ExperimentSpec,
                                  KnnClassifier, TreeClassifier,
                                  auc, confusion, evaluate_folds, gmean,
                                  metrics_from, pivot_text,
                                  report_to_csv_text, run_experiment,
                                  stratified_kfold)
from skewbench.resample import CO, METHODS, NCR, RO, SMOTE, Base, Sparsity


class TestConfusion:
    def test_all_correct(self):
        cm = confusion([1, 1, 0, 0], [1, 1, 0, 0], minority=1)
        assert (cm.tp, cm.fn, cm.tn, cm.fp) == (2, 0, 2, 0)

    def test_hand_counted_example(self):
        truth = [1, 1, 0, 0, 0, 0]
        pred = [1, 0, 0, 0, 1, 0]
        cm = confusion(truth, pred, minority=1)
        assert (cm.tp, cm.fn, cm.tn, cm.fp) == (1, 1, 3, 1)

    def test_matches_loop_oracle(self):
        rng = RngSeed(1).generator()
        truth = rng.integers(0, 2, size=1000)
        pred = rng.integers(0, 2, size=1000)
        cm = confusion(truth, pred, minority=1)
        tp = fn = tn = fp = 0
        for t, p in zip(truth, pred):
            if t == 1:
                if p == 1:
                    tp += 1
                else:
                    fn += 1
            else:
                if p == 1:
                    fp += 1
                else:
                    tn += 1
        assert (cm.tp, cm.fn, cm.tn, cm.fp) == (tp, fn, tn, fp)

    def test_length_mismatch(self):
        with pytest.raises(SkewbenchError, match="lengths differ"):
            confusion([0, 1], [0], minority=1)


class TestMetrics:
    def test_perfect(self):
        m = metrics_from(ConfusionMatrix(tp=5, fn=0, tn=9, fp=0))
        assert (m.sensitivity, m.specificity, m.accuracy, m.gmean) == (1, 1, 1, 1)

    def test_gmean_exact_value(self):
        assert gmean(0.81, 0.64) == pytest.approx(0.72, abs=1e-12)

    def test_zero_sensitivity_zeroes_gmean(self):
        m = metrics_from(ConfusionMatrix(tp=0, fn=4, tn=10, fp=0))
        assert m.gmean == 0.0

    def test_missing_class_rejected(self):
        with pytest.raises(SkewbenchError, match="fold lacks a class"):
            metrics_from(ConfusionMatrix(tp=0, fn=0, tn=5, fp=1))

    def test_gmean_bounded_by_max_rate(self):
        m = metrics_from(ConfusionMatrix(tp=3, fn=2, tn=4, fp=4))
        assert m.gmean <= max(m.sensitivity, m.specificity) + 1e-15


class TestAuc:
    def test_separated_scores(self):
        assert auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0], minority=1) == 1.0

    def test_all_ties_half(self):
        assert auc([0.5] * 6, [1, 0, 1, 0, 0, 0], minority=1) == pytest.approx(0.5)

    def test_three_quarters_example(self):
        got = auc([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0], minority=1)
        assert got == pytest.approx(0.75, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(SkewbenchError, match="AUC needs both classes"):
            auc([0.1, 0.2], [1, 1], minority=1)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_score_flip_symmetry(self, seed):
        rng = RngSeed(seed).generator()
        n = 30
        scores = np.round(rng.random(n), 2)  # rounding forces ties
        truth = rng.integers(0, 2, size=n)
        if truth.sum() in (0, n):
            truth[0] = 1 - truth[0]
        direct = auc(scores, truth, minority=1)
        # Flipping the scores complements the area; also swapping the classes
        # restores it.
        assert auc(1.0 - scores, truth, minority=1) == pytest.approx(1.0 - direct,
                                                                     abs=1e-12)
        assert auc(1.0 - scores, 1 - truth, minority=1) == pytest.approx(direct,
                                                                         abs=1e-12)

    def test_matches_pairwise_concordance_oracle(self):
        rng = RngSeed(77).generator()
        scores = np.round(rng.random(40), 1)
        truth = rng.integers(0, 2, size=40)
        truth[0], truth[1] = 0, 1
        pos = np.flatnonzero(truth == 1)
        neg = np.flatnonzero(truth == 0)
        total = 0.0
        for i in pos:
            for j in neg:
                if scores[i] > scores[j]:
                    total += 1.0
                elif scores[i] == scores[j]:
                    total += 0.5
        expected = total / (len(pos) * len(neg))
        assert auc(scores, truth, minority=1) == pytest.approx(expected, abs=1e-12)


def loop_midranks(values: np.ndarray) -> np.ndarray:
    """The per-element loop `evaluation._midranks` replaced, kept as its oracle."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


class TestMidranks:
    @staticmethod
    def tree_scores() -> np.ndarray:
        # A shallow tree's leaf fractions: few distinct values, long runs.
        ds, _ = generate_imbalanced(GenSpec(n_samples=200, class_ratio=(4, 1), seed=3))
        model = tree_fit(ds, max_depth=3, min_leaf=5)
        return tree_predict_batch(model, ds.points)[1]

    @pytest.mark.parametrize("case", ["tree", "all_equal", "one", "empty", "nan_and_zeros"])
    def test_bits_equal_loop(self, case):
        values = {
            "tree": self.tree_scores,
            "all_equal": lambda: np.full(17, 0.25),
            "one": lambda: np.array([0.7]),
            "empty": lambda: np.array([]),
            "nan_and_zeros": lambda: np.array([0.0, np.nan, -0.0, 1.0, np.nan, 0.0, 1.0]),
        }[case]()
        if case == "tree":
            assert len(np.unique(values)) < len(values) // 4
        got = evaluation._midranks(values)
        assert np.array_equal(got.view(np.uint64), loop_midranks(values).view(np.uint64))

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_bits_equal_loop_on_small_integers(self, values):
        values = np.array(values, dtype=np.float64) / 4.0
        got = evaluation._midranks(values)
        assert np.array_equal(got.view(np.uint64), loop_midranks(values).view(np.uint64))


class TestStratifiedKfold:
    def balanced_ds(self, n0, n1, seed=0):
        rng = RngSeed(seed).generator()
        labels = np.array([0] * n0 + [1] * n1)
        return Dataset(rng.normal(size=(n0 + n1, 2)), labels)

    def test_five_by_five(self):
        ds = self.balanced_ds(5, 5)
        fold = stratified_kfold(ds, 5, seed=1)
        for f in range(5):
            rows = np.flatnonzero(fold == f)
            assert len(rows) == 2
            assert sorted(ds.labels[rows].tolist()) == [0, 1]

    def test_84_minority_over_10_folds(self):
        ds = self.balanced_ds(316, 84)
        fold = stratified_kfold(ds, 10, seed=2)
        minority_sizes = [np.sum((fold == f) & (ds.labels == 1)) for f in range(10)]
        assert all(size in (8, 9) for size in minority_sizes)
        assert sum(minority_sizes) == 84

    def test_partition_property(self):
        for seed in range(10):
            ds = self.balanced_ds(37, 13, seed)
            fold = stratified_kfold(ds, 4, seed=seed)
            assert len(fold) == ds.n
            assert set(fold.tolist()) == {0, 1, 2, 3}
            for label in (0, 1):
                sizes = [np.sum((fold == f) & (ds.labels == label)) for f in range(4)]
                assert max(sizes) - min(sizes) <= 1

    def test_minority_below_folds_rejected(self):
        ds = self.balanced_ds(20, 3)
        with pytest.raises(SkewbenchError, match="smaller than folds"):
            stratified_kfold(ds, 5, seed=0)


def small_spec(**overrides):
    defaults = dict(
        subclusters=(2,), sizes=(120,), ratios=((5, 1),), disturbances=(0.2,),
        methods=(Base(), RO()), classifiers=(KnnClassifier(k=3),),
        folds=3, repeats=2, seed=11,
        template=GenSpec(center_box=(0.0, 12.0), min_center_separation=3.0))
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestRunExperiment:
    def test_row_bookkeeping(self):
        spec = small_spec()
        report = run_experiment(spec)
        assert len(report.rows) == 2  # 1 cell x 2 methods x 1 classifier
        for row in report.rows:
            assert row.n_evals == spec.folds * spec.repeats
            assert row.error is None
            for metric in ("sensitivity", "specificity", "accuracy", "gmean", "auc"):
                assert 0.0 <= row.means[metric] <= 1.0

    def test_seed_changes_values_not_schema(self):
        a = report_to_csv_text(run_experiment(small_spec(seed=1)))
        b = report_to_csv_text(run_experiment(small_spec(seed=2)))
        assert a != b
        header_a, header_b = a.splitlines()[0], b.splitlines()[0]
        assert header_a == header_b
        assert len(a.splitlines()) == len(b.splitlines())

    def test_threads_other_than_one_refused_before_any_unit(self, monkeypatch):
        calls = []
        monkeypatch.setattr(evaluation, "_run_unit", lambda *args: calls.append(args))
        with pytest.raises(ConfigError, match="threads must be 1, got 2"):
            run_experiment(small_spec(), threads=2)
        assert calls == []

    def test_failing_cell_recorded_not_raised(self):
        # 20 samples at 5:1 -> 3 minority points, below folds=5.
        spec = small_spec(sizes=(20,), folds=5)
        report = run_experiment(spec)
        assert len(report.rows) == 2
        for row in report.rows:
            assert row.error is not None
            assert "smaller than folds" in row.error
            assert row.n_evals == 0

    def test_matches_independent_pipeline_replication(self):
        # Re-derive every seed and replicate the fold loop by hand; the runner
        # must produce identical numbers, which also proves the test folds
        # stay untouched by resampling.
        spec = small_spec(methods=(Base(), RO(), NCR()), repeats=1,
                          classifiers=(KnnClassifier(k=3), TreeClassifier()))
        report = run_experiment(spec)
        cell = spec.cells()[0]

        unit_seed = RngSeed(spec.seed).child("cell", 0).child("repeat", 0)
        gen = GenSpec(n_samples=cell.size, class_ratio=cell.ratio,
                      seed=unit_seed.child("data"), dims=2,
                      minority_subclusters=cell.subclusters,
                      majority_subclusters=1, sub_sigma=1.0,
                      center_box=(0.0, 12.0), min_center_separation=3.0,
                      disturbance_ratio=cell.disturbance, rare_fraction=0.0)
        ds, gt = generate_imbalanced(gen)
        minority = summarize(ds).minority_label
        fold = stratified_kfold(ds, spec.folds, unit_seed.child("folds"))

        for m_index, method in enumerate(spec.methods):
            for clf in spec.classifiers:
                per_fold = []
                for f in range(spec.folds):
                    train_rows = np.flatnonzero(fold != f)
                    test_rows = np.flatnonzero(fold == f)
                    train = ds.subset(train_rows)
                    clusters = gt.subcluster_assignment[train_rows][
                        train.labels == minority]
                    rng = unit_seed.child("method", m_index).child("fold", f).generator()
                    resampled = method.apply(train, rng, minority_clusters=clusters)
                    # Test rows are the untouched generated rows.
                    assert np.array_equal(ds.points[test_rows],
                                          ds.points[fold == f])
                    if isinstance(clf, KnnClassifier):
                        model = knn_fit(resampled, clf.k, minority_label=minority)
                        pred, scores = knn_predict_batch(model, ds.points[test_rows])
                    else:
                        model = tree_fit(resampled, clf.max_depth, clf.min_leaf,
                                         minority_label=minority)
                        pred, scores = tree_predict_batch(model, ds.points[test_rows])
                    cm = confusion(ds.labels[test_rows], pred, minority)
                    m = metrics_from(cm)
                    per_fold.append((m.sensitivity, m.specificity, m.accuracy,
                                     m.gmean, auc(scores, ds.labels[test_rows],
                                                  minority)))
                arr = np.array(per_fold)
                row = report.row(cell, method.name, clf.name)
                for col, metric in enumerate(("sensitivity", "specificity",
                                              "accuracy", "gmean", "auc")):
                    assert row.means[metric] == pytest.approx(arr[:, col].mean(),
                                                              abs=1e-12)

    def test_csv_and_pivot_shapes(self):
        spec = small_spec(subclusters=(2, 3), sizes=(120, 180))
        report = run_experiment(spec)
        csv_text = report_to_csv_text(report)
        lines = csv_text.strip().split("\n")
        assert len(lines) == 1 + 4 * 2  # header + cells x methods x classifiers
        assert lines[0].startswith("subclusters,size,ratio,disturbance,method")
        pivot = pivot_text(report, "auc", "base", "knn", (5, 1), 0.2)
        rows = pivot.strip().split("\n")
        assert rows[1].startswith("subclusters |")
        assert len(rows) == 2 + 2  # title + header + one row per subcluster count


def fold_dataset():
    return generate_imbalanced(GenSpec(n_samples=180, class_ratio=(5, 1), seed=4,
                                       minority_subclusters=2, center_box=(0.0, 12.0),
                                       min_center_separation=3.0))


class TestEvaluateFolds:
    def test_resampling_never_touches_test_rows(self, monkeypatch):
        ds, gt = fold_dataset()
        minority = summarize(ds).minority_label
        fold = stratified_kfold(ds, 3, seed=5)
        seen: list[int] = []
        original = resample.random_oversample

        def spy(train, rng):
            seen.append(train.n)
            assert train.n < ds.n  # strictly a training subset
            return original(train, rng)

        monkeypatch.setattr(resample, "random_oversample", spy)
        evaluate_folds(ds, fold, (RO(),), (KnnClassifier(),), RngSeed(1),
                       minority, subclusters_full=gt.subcluster_assignment)
        assert len(seen) == 3
        assert all(n == 120 for n in seen)


# The module functions each config reaches through its module's global name.
# Wrappers bound to those names (as perfbench's tracer binds them) must see
# every call; Base reaches none, since it returns its input.
REACHES = {Base: (), RO: ("random_oversample",), CO: ("cluster_oversample",),
           SMOTE: ("smote",), NCR: ("ncr",), Sparsity: ("sparsity",),
           KnnClassifier: ("knn_fit", "knn_predict_batch"),
           TreeClassifier: ("tree_fit", "tree_predict_batch")}


class TestDispatch:
    @pytest.mark.parametrize("config", METHODS + CLASSIFIERS, ids=lambda c: c.name)
    def test_evaluate_folds_reaches_the_module_function(self, monkeypatch, config):
        calls: Counter[str] = Counter()

        def counting(name, original):
            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return counted

        for config_class, names in REACHES.items():
            module = resample if config_class in METHODS else classify
            for name in names:
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        ds, gt = fold_dataset()
        method = config() if config in METHODS else Base()
        clf = config() if config in CLASSIFIERS else KnnClassifier()
        evaluate_folds(ds, stratified_kfold(ds, 3, seed=5), (method,), (clf,),
                       RngSeed(1), summarize(ds).minority_label,
                       subclusters_full=gt.subcluster_assignment)
        assert calls == Counter({name: 3 for name in REACHES[type(method)]
                                 + REACHES[type(clf)]})

    def test_run_experiment_calls_run_unit_by_its_global_name(self, monkeypatch):
        units: list[tuple[int, int]] = []
        original = evaluation._run_unit

        def counted(spec, cell, cell_index, repeat):
            units.append((cell_index, repeat))
            return original(spec, cell, cell_index, repeat)

        monkeypatch.setattr(evaluation, "_run_unit", counted)
        report = run_experiment(small_spec(subclusters=(2, 3), repeats=2))
        assert units == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert report.error_count == 0
