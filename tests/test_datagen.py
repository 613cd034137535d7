import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewbench.core import ExampleKind, RngSeed, SkewbenchError, pairwise_sq
from skewbench.datagen import (MAX_DIMS, MAX_SAMPLES, REACH_SIGMA, GenSpec,
                               apply_disturbance, generate_blobs, generate_imbalanced,
                               _even_split, inject_rare, largest_remainder,
                               sample_centers)
from skewbench.classify import knn_fit, knn_predict_batch
from skewbench.evaluation import ExperimentSpec, stratified_kfold
from skewbench.resample import Sparsity, sparsity


def rng(seed=0):
    return RngSeed(seed).generator()


class TestSampleCenters:
    def test_single_center_inside_box(self):
        c = sample_centers(1, (2.0, 3.0), 0.0, rng(), dims=2)
        assert c.shape == (1, 2)
        assert np.all((c >= 2.0) & (c <= 3.0))

    def test_infeasible_separation_errors(self):
        with pytest.raises(SkewbenchError, match="center packing infeasible"):
            sample_centers(2, (0.0, 1.0), 10.0, rng(), dims=2)

    def test_pairwise_separation_holds(self):
        centers = sample_centers(5, (0.0, 1.0), 0.2, rng(7), dims=2)
        assert centers.shape == (5, 2)
        for i in range(5):
            for j in range(i + 1, 5):
                assert np.sqrt(np.sum((centers[i] - centers[j]) ** 2)) >= 0.2


class TestGenerateBlobs:
    def test_sigma_zero_limit(self):
        centers = np.array([[1.0, 2.0], [5.0, 5.0]])
        pts, assign = generate_blobs(centers, [4, 3], 1e-12, rng())
        assert np.allclose(pts[:4], centers[0], atol=1e-9)
        assert np.allclose(pts[4:], centers[1], atol=1e-9)
        assert assign.tolist() == [0, 0, 0, 0, 1, 1, 1]

    def test_count_bookkeeping(self):
        pts, assign = generate_blobs(np.zeros((2, 2)), [300, 300], 1.0, rng())
        assert len(pts) == 600
        assert np.bincount(assign).tolist() == [300, 300]

    def test_law_of_large_numbers(self):
        center = np.array([3.0, -2.0])
        sigma = 0.7
        pts, _ = generate_blobs(center[None, :], [10_000], sigma, rng(5))
        assert np.all(np.abs(pts.mean(axis=0) - center) < 0.05 * sigma)


class TestApplyDisturbance:
    def setup_method(self):
        self.centers = np.array([[0.0, 0.0], [20.0, 0.0]])
        self.points, self.assign = generate_blobs(self.centers, [60, 40], 1.0, rng(1))

    def test_ratio_zero_is_identity(self):
        pts, kinds = apply_disturbance(self.points, self.assign, self.centers,
                                       1.0, 0, rng(2))
        assert np.array_equal(pts, self.points)
        assert np.all(kinds == int(ExampleKind.SAFE))

    def test_half_ratio_tags_half(self):
        pts, kinds = apply_disturbance(self.points, self.assign, self.centers,
                                       1.0, 50, rng(2))
        assert np.sum(kinds == int(ExampleKind.BORDERLINE)) == 50

    def test_repositioned_points_in_band(self):
        sigma = 1.3
        pts, kinds = apply_disturbance(self.points, self.assign, self.centers,
                                       sigma, 50, rng(3))
        radius = 2.0 * sigma
        moved = np.flatnonzero(kinds == int(ExampleKind.BORDERLINE))
        assert len(moved) == 50
        for i in moved:
            dist = np.sqrt(np.sum((pts[i] - self.centers[self.assign[i]]) ** 2))
            assert radius - 1e-9 <= dist <= 2 * radius + 1e-9

    def test_allocation_proportional_to_cluster_size(self):
        pts, kinds = apply_disturbance(self.points, self.assign, self.centers,
                                       1.0, 50, rng(4))
        moved = kinds == int(ExampleKind.BORDERLINE)
        assert np.sum(moved & (self.assign == 0)) == 30
        assert np.sum(moved & (self.assign == 1)) == 20


class TestInjectRare:
    def setup_method(self):
        self.min_centers = np.array([[0.0, 0.0], [12.0, 0.0]])
        self.maj_centers = np.array([[6.0, 10.0]])
        self.points, self.assign = generate_blobs(self.min_centers, [50, 50], 1.0, rng(1))
        self.kinds = np.full(len(self.points), int(ExampleKind.SAFE), dtype=np.uint8)

    def test_fraction_zero_no_tags(self):
        pts, kinds = inject_rare(self.points, self.kinds, self.min_centers, self.maj_centers,
                                 1.0, 0, rng(2))
        assert np.array_equal(pts, self.points)
        assert np.sum(kinds == int(ExampleKind.RARE)) == 0

    def test_fraction_fifth_tags_twenty(self):
        pts, kinds = inject_rare(self.points, self.kinds, self.min_centers, self.maj_centers,
                                 1.0, 20, rng(2))
        assert np.sum(kinds == int(ExampleKind.RARE)) == 20

    def test_rare_points_clear_minority_centers(self):
        sigma = 0.9
        pts, kinds = inject_rare(self.points, self.kinds, self.min_centers, self.maj_centers,
                                 sigma, 20, rng(3))
        rare = np.flatnonzero(kinds == int(ExampleKind.RARE))
        for i in rare:
            gaps = np.sqrt(np.sum((pts[i] - self.min_centers) ** 2, axis=1))
            assert np.all(gaps > 3.0 * sigma)

    def test_infeasible_constraint_errors(self):
        # The majority center sits on a minority center, so the exclusion zone
        # swallows the whole placement ball.
        with pytest.raises(SkewbenchError, match="rare placement infeasible"):
            inject_rare(self.points, self.kinds, np.array([[0.0, 0.0]]),
                        np.array([[0.0, 0.0]]), 1.0, 20, rng(4))


class TestGenSpec:
    def test_800_split_seven_to_one(self):
        spec = GenSpec(n_samples=800, class_ratio=(7, 1), seed=0)
        assert spec.class_counts() == (700, 100)

    def test_400_split_paper_parts(self):
        spec = GenSpec(n_samples=400, class_ratio=(79, 21), seed=0)
        assert spec.class_counts() == (316, 84)

    def test_composition_counts(self):
        spec = GenSpec(n_samples=800, class_ratio=(7, 1), seed=0,
                       disturbance_ratio=0.5, rare_fraction=0.2)
        assert spec.kind_counts() == (30, 50, 20)

    def test_fractions_over_one_rejected(self):
        with pytest.raises(SkewbenchError, match="must not exceed 1"):
            GenSpec(n_samples=100, class_ratio=(4, 1), seed=0,
                    disturbance_ratio=0.8, rare_fraction=0.3)

    def test_minority_smaller_than_subclusters_rejected(self):
        with pytest.raises(SkewbenchError, match="minority count smaller"):
            GenSpec(n_samples=20, class_ratio=(9, 1), seed=0, minority_subclusters=3)

    @given(st.integers(20, 500), st.integers(1, 9))
    @settings(max_examples=80, deadline=None)
    def test_class_count_rounding_rule(self, n, maj_parts):
        spec = GenSpec(n_samples=n, class_ratio=(maj_parts, 1), seed=0,
                       minority_subclusters=1)
        n_maj, n_min = spec.class_counts()
        assert n_maj + n_min == n
        assert n_min == round(n * 1 / (maj_parts + 1))


class TestSpanBound:
    # Largest values the bound dims * span^2 <= float max accepts, less 1%.
    @staticmethod
    def edge_sigma(dims, width=20.0):
        return 0.99 * (np.sqrt(np.finfo(float).max / dims) - width) / (2 * REACH_SIGMA)

    @staticmethod
    def edge_alpha(spec):
        return 0.99 * (np.sqrt(np.finfo(float).max / spec.dims) / spec.span() - 1) / 2

    def test_n_samples_refused_before_allocation(self):
        assert GenSpec(n_samples=MAX_SAMPLES).n_samples == MAX_SAMPLES
        with pytest.raises(SkewbenchError, match="n_samples"):
            GenSpec(n_samples=MAX_SAMPLES + 1)

    @pytest.mark.parametrize("dims", [MAX_DIMS + 1, 10**400], ids=["max+1", "400-digits"])
    def test_dims_refused_before_float_bound(self, dims):
        assert GenSpec(dims=MAX_DIMS).dims == MAX_DIMS
        with pytest.raises(SkewbenchError, match="dims"):
            GenSpec(dims=dims)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("dims", [1, 3])
    def test_accepted_sub_sigma_keeps_squared_distances_finite(self, dims):
        sigma = self.edge_sigma(dims)
        ds, _ = generate_imbalanced(GenSpec(n_samples=300, seed=dims, dims=dims,
                                            sub_sigma=sigma, disturbance_ratio=0.4))
        assert np.all(np.isfinite(pairwise_sq(ds.points, ds.points)))
        with pytest.raises(SkewbenchError, match="sub_sigma"):
            GenSpec(dims=dims, sub_sigma=1.03 * sigma)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_accepted_sparsity_alpha_keeps_squared_distances_finite(self):
        spec = GenSpec(n_samples=300, seed=4, dims=3, sub_sigma=1e100,
                       disturbance_ratio=0.3)
        alpha = self.edge_alpha(spec)
        ExperimentSpec(methods=(Sparsity(alpha),), template=spec)
        ds, gt = generate_imbalanced(spec)
        spread = sparsity(ds, alpha, "both", gt.subcluster_assignment[ds.labels == 1])
        assert np.all(np.isfinite(pairwise_sq(spread.points, spread.points)))
        with pytest.raises(SkewbenchError, match="alpha"):
            ExperimentSpec(methods=(Sparsity(1.03 * alpha),), template=spec)


def test_even_split_gives_leftover_rows_to_first_groups():
    assert _even_split(6, 3).tolist() == [2, 2, 2]
    assert _even_split(7, 3).tolist() == [3, 2, 2]
    assert _even_split(34, 3).tolist() == [12, 11, 11]
    assert _even_split(2, 5).tolist() == [1, 1, 0, 0, 0]


class TestLargestRemainder:
    def test_exact_sum(self):
        assert largest_remainder([0.3, 0.5, 0.2], 100).tolist() == [30, 50, 20]

    def test_tie_goes_to_lower_index(self):
        assert largest_remainder([0.5, 0.5], 3).tolist() == [2, 1]

    @given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=6),
           st.integers(0, 200))
    @settings(max_examples=100, deadline=None)
    def test_parts_sum_to_total(self, weights, total):
        parts = largest_remainder(weights, total)
        assert parts.sum() == total
        assert np.all(parts >= 0)

    # apply_disturbance splits its count over cluster sizes and relies on this:
    # no part exceeds its weight while the total fits in the weights.
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_integer_parts_never_exceed_weights(self, data):
        sizes = data.draw(st.lists(st.integers(0, MAX_SAMPLES), min_size=1, max_size=8))
        total = data.draw(st.integers(0, sum(sizes)))
        assert np.all(largest_remainder(sizes, total) <= np.array(sizes))


class TestGenerateImbalanced:
    def test_pipeline_counts_and_tags(self):
        spec = GenSpec(n_samples=800, class_ratio=(7, 1), seed=3,
                       minority_subclusters=3, disturbance_ratio=0.5, rare_fraction=0.2)
        ds, _ = generate_imbalanced(spec)
        assert ds.n == 800
        assert np.sum(ds.labels == 0) == 700
        assert np.sum(ds.labels == 1) == 100
        counts = np.bincount(ds.kinds[ds.labels == 1], minlength=3)
        assert counts[int(ExampleKind.SAFE)] == 30
        assert counts[int(ExampleKind.BORDERLINE)] == 50
        assert counts[int(ExampleKind.RARE)] == 20
        # Majority rows come first, all tagged MAJORITY; the minority rows follow.
        assert np.all(ds.kinds[:700] == int(ExampleKind.MAJORITY))
        assert np.array_equal(ds.kinds[700:], ds.kinds[ds.labels == 1])

    def test_paper_shape_316_84(self):
        ds, _ = generate_imbalanced(GenSpec(n_samples=400, class_ratio=(79, 21), seed=1))
        assert np.bincount(ds.labels).tolist() == [316, 84]

    def test_deterministic(self):
        spec = GenSpec(n_samples=300, class_ratio=(5, 1), seed=99,
                       minority_subclusters=2, disturbance_ratio=0.3)
        a, gta = generate_imbalanced(spec)
        b, gtb = generate_imbalanced(spec)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.kinds, b.kinds)
        assert np.array_equal(gta.subcluster_assignment, gtb.subcluster_assignment)

    def test_subcluster_sizes_nearly_equal(self):
        spec = GenSpec(n_samples=600, class_ratio=(5, 1), seed=5,
                       minority_subclusters=3)
        ds, gt = generate_imbalanced(spec)
        sizes = np.bincount(gt.subcluster_assignment[ds.labels == 1])
        assert sizes.sum() == 100
        assert sizes.max() - sizes.min() <= 1

    @given(st.integers(0, 10_000), st.integers(2, 4), st.sampled_from([0.0, 0.25, 0.5]))
    @settings(max_examples=25, deadline=None)
    def test_tag_partition_property(self, seed, subclusters, disturbance):
        spec = GenSpec(n_samples=240, class_ratio=(5, 1), seed=seed,
                       minority_subclusters=subclusters,
                       disturbance_ratio=disturbance, rare_fraction=0.1)
        ds, _ = generate_imbalanced(spec)
        _, n_min = spec.class_counts()
        counts = np.bincount(ds.kinds[ds.labels == 1], minlength=3)
        assert counts.sum() == n_min
        assert tuple(counts[:3]) == spec.kind_counts()

    def test_separated_blobs_are_easy_for_1nn(self):
        # Sanity: no disturbance, no rare, wide separation -> near-perfect 1-NN.
        spec = GenSpec(n_samples=400, class_ratio=(5, 1), seed=17,
                       minority_subclusters=3, sub_sigma=1.0,
                       center_box=(0.0, 40.0), min_center_separation=8.0)
        ds, _ = generate_imbalanced(spec)
        fold = stratified_kfold(ds, 2, seed=17)
        train = ds.subset(np.flatnonzero(fold != 0))
        test_rows = np.flatnonzero(fold == 0)
        model = knn_fit(train, k=1, minority_label=1)
        pred, _ = knn_predict_batch(model, ds.points[test_rows])
        assert np.mean(pred == ds.labels[test_rows]) >= 0.99
