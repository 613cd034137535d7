"""Metamorphic relations over `evaluate_folds`: changes of input that must not
move one bit of any fold's metrics (Chen, Cheung & Yiu, HKUST-CS98-01, 1998).

- Scaling every coordinate by 2^j: differences, squares, sums, means,
  midpoints, square roots and comparisons all commute with a power of two, so
  no distance, bandwidth or tree cut may hold an absolute scale.
- Renaming labels {0, 1} to {5, 2}: the minority is found by counts, so no
  method or classifier may assume which label it carries.

Each relation runs all six methods with both classifiers, with the
generator's sub-clusters and with MeanShift's, once with the unit's
neighbour tables and once with every table query falling back to `nearest`.
"""

from dataclasses import astuple

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skewbench.core import Dataset, RngSeed
from skewbench.datagen import GenSpec, generate_imbalanced
from skewbench.evaluation import (KnnClassifier, TreeClassifier, evaluate_folds,
                                  stratified_kfold)
from skewbench.resample import METHODS

CLASSIFIERS = (KnnClassifier(), TreeClassifier())


def fold_bits(ds: Dataset, fold: np.ndarray, truth, seed: int) -> dict:
    """Every fold's metrics, as float bits, by (method, classifier)."""
    results = evaluate_folds(ds, fold, tuple(m() for m in METHODS), CLASSIFIERS,
                             RngSeed(seed), subclusters_full=truth)
    return {key: [[float(v).hex() for v in astuple(m)] for m in metrics]
            for key, metrics in results.items()}


@given(seed=st.integers(0, 2**16), n=st.integers(60, 110), dims=st.sampled_from([1, 2, 3]),
       ground_truth=st.booleans(), j=st.sampled_from([-20, -1, 1, 30]))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_scaling_and_renaming_labels_move_no_bit(table_path, seed, n, dims, ground_truth, j):
    ds, gt = generate_imbalanced(GenSpec(n_samples=n, class_ratio=(4, 1), seed=seed, dims=dims,
                                         center_box=(0.0, 10.0), min_center_separation=2.0,
                                         disturbance_ratio=0.2))
    truth = gt.subcluster_assignment if ground_truth else None
    fold = stratified_kfold(ds, 3, seed=seed)
    want = fold_bits(ds, fold, truth, seed)
    scaled = Dataset(ds.points * 2.0 ** j, ds.labels, ds.kinds)
    assert fold_bits(scaled, fold, truth, seed) == want
    renamed = Dataset(ds.points, np.where(ds.labels == 0, 5, 2), ds.kinds)
    assert fold_bits(renamed, fold, truth, seed) == want
