"""Metamorphic relations over `evaluate_folds`: changes of input that must not
move one bit of any fold's metrics (Chen, Cheung & Yiu, HKUST-CS98-01, 1998).

- Scaling every coordinate by 2^j: differences, squares, sums, means,
  midpoints, square roots and comparisons all commute with a power of two, so
  no distance, bandwidth or tree cut may hold an absolute scale.
- Renaming labels {0, 1} to {5, 2}: the minority is found by counts, so no
  method or classifier may assume which label it carries.
- Permuting the rows together with their fold assignment, for `base` and
  `ncr`: on data with no tied distance and no tied feature value, no
  neighbour, vote or cut may depend on where a row sits in its fold. RO, CO
  and SMOTE draw rows by position, so they are outside it.
- Appending a zero feature while d + 1 < 8: it adds +0.0 to every squared
  distance, moves no mean and offers the tree no cut. From d = 8
  `pairwise_sq` sums in numpy's pairwise order, which a column can change.

Each relation runs with the unit's neighbour tables and once with every table
query falling back to `nearest`. All but the permutation run all six methods
with both classifiers, with the generator's sub-clusters and with MeanShift's.
"""

from dataclasses import astuple

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from skewbench.core import Dataset, RngSeed, pairwise_sq
from skewbench.datagen import GenSpec, generate_imbalanced
from skewbench.evaluation import (KnnClassifier, TreeClassifier, evaluate_folds,
                                  stratified_kfold)
from skewbench.resample import METHODS, NCR, Base

CLASSIFIERS = (KnnClassifier(), TreeClassifier())


def generated(seed: int, n: int, dims: int):
    return generate_imbalanced(GenSpec(n_samples=n, class_ratio=(4, 1), seed=seed, dims=dims,
                                       center_box=(0.0, 10.0), min_center_separation=2.0,
                                       disturbance_ratio=0.2))


def fold_bits(ds: Dataset, fold: np.ndarray, truth, seed: int,
              methods=tuple(m() for m in METHODS), classifiers=CLASSIFIERS) -> dict:
    """Every fold's metrics, as float bits, by (method, classifier)."""
    results = evaluate_folds(ds, fold, methods, classifiers, RngSeed(seed),
                             subclusters_full=truth)
    return {key: [[float(v).hex() for v in astuple(m)] for m in metrics]
            for key, metrics in results.items()}


@given(seed=st.integers(0, 2**16), n=st.integers(60, 110), dims=st.sampled_from([1, 2, 3]),
       ground_truth=st.booleans(), j=st.sampled_from([-20, -1, 1, 30]))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_scaling_and_renaming_labels_move_no_bit(table_path, seed, n, dims, ground_truth, j):
    ds, gt = generated(seed, n, dims)
    truth = gt.subcluster_assignment if ground_truth else None
    fold = stratified_kfold(ds, 3, seed=seed)
    want = fold_bits(ds, fold, truth, seed)
    scaled = Dataset(ds.points * 2.0 ** j, ds.labels, ds.kinds)
    assert fold_bits(scaled, fold, truth, seed) == want
    renamed = Dataset(ds.points, np.where(ds.labels == 0, 5, 2), ds.kinds)
    assert fold_bits(renamed, fold, truth, seed) == want


def tie_free(points: np.ndarray) -> bool:
    """Whether no feature holds one value twice and no row lies at one
    squared distance from two others."""
    values = np.sort(points, axis=0)
    sq = np.sort(pairwise_sq(points, points), axis=1)
    return not (np.any(values[1:] == values[:-1]) or np.any(sq[:, 1:] == sq[:, :-1]))


# Tie-free data leaves ties only in votes: an even k makes NCR's and k-NN's
# tied votes, which count for the majority wherever the voter sits.
@given(seed=st.integers(0, 2**16), n=st.integers(60, 110), dims=st.sampled_from([1, 2, 3]),
       k=st.sampled_from([3, 4]))
@settings(max_examples=24, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_permuting_rows_with_their_folds_moves_no_bit(table_path, seed, n, dims, k):
    ds, _ = generated(seed, n, dims)
    assume(tie_free(ds.points))
    fold = stratified_kfold(ds, 3, seed=seed)
    methods, classifiers = (Base(), NCR(k)), (KnnClassifier(k), TreeClassifier())
    want = fold_bits(ds, fold, None, seed, methods, classifiers)
    perm = np.random.default_rng(seed).permutation(ds.n)
    moved = Dataset(ds.points[perm], ds.labels[perm], ds.kinds[perm])
    assert fold_bits(moved, fold[perm], None, seed, methods, classifiers) == want


@given(seed=st.integers(0, 2**16), n=st.integers(60, 110), dims=st.sampled_from([1, 2, 3]),
       ground_truth=st.booleans())
@settings(max_examples=24, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_appending_a_zero_feature_moves_no_bit(table_path, seed, n, dims, ground_truth):
    ds, gt = generated(seed, n, dims)
    truth = gt.subcluster_assignment if ground_truth else None
    fold = stratified_kfold(ds, 3, seed=seed)
    wider = Dataset(np.hstack([ds.points, np.zeros((ds.n, 1))]), ds.labels, ds.kinds)
    assert fold_bits(wider, fold, truth, seed) == fold_bits(ds, fold, truth, seed)
