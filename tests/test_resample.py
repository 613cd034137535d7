import itertools

import numpy as np
import pytest

from skewbench.core import Dataset, RngSeed, SkewbenchError, summarize
from skewbench.datagen import GenSpec, generate_blobs, generate_imbalanced
from skewbench.resample import (CO, NCR, RO, SMOTE, Base, Sparsity,
                                cluster_oversample, ncr, random_oversample,
                                smote, sparsity)


def rng(seed=0):
    return RngSeed(seed).generator()


def paper_shaped_dataset(seed=1):
    ds, gt = generate_imbalanced(GenSpec(n_samples=400, class_ratio=(79, 21),
                                         seed=seed, minority_subclusters=2))
    return ds, gt


def two_class(points, labels):
    return Dataset(np.asarray(points, dtype=float), np.asarray(labels))


class TestRandomOversample:
    def test_balances_316_84(self):
        ds, _ = paper_shaped_dataset()
        out = random_oversample(ds, rng(2))
        s = summarize(out)
        assert out.n == 632
        assert s.counts == {0: 316, 1: 316}
        assert s.imbalance_ratio == 1.0

    def test_balanced_input_unchanged(self):
        ds = two_class([[0.0], [1.0], [2.0], [3.0]], [0, 0, 1, 1])
        out = random_oversample(ds, rng())
        assert out.n == 4
        assert np.array_equal(out.points, ds.points)

    def test_duplicates_are_original_minority_points(self):
        ds = two_class([[i, 0] for i in range(5)] + [[10, 10], [11, 11]],
                       [0] * 5 + [1, 1])
        out = random_oversample(ds, rng(3))
        assert out.n == 10
        # Originals retained in order, then duplicates.
        assert np.array_equal(out.points[:7], ds.points)
        originals = {(10.0, 10.0), (11.0, 11.0)}
        for row in out.points[7:]:
            assert tuple(row) in originals
        assert np.all(out.labels[7:] == 1)


class TestClusterOversample:
    def test_balances_316_84_with_ground_truth(self):
        ds, gt = paper_shaped_dataset()
        out = cluster_oversample(ds, rng(2), clusters=gt.subcluster_assignment[ds.labels == 1])
        s = summarize(out)
        assert out.n == 632
        assert s.counts == {0: 316, 1: 316}

    def test_equal_cluster_targets(self):
        # Sub-clusters of 30 and 10 against 160 majority: both grow to 80.
        pts, assign = generate_blobs(np.array([[0.0, 0.0], [40.0, 0.0]]),
                                     [30, 10], 0.5, rng(1))
        maj, _ = generate_blobs(np.array([[20.0, 30.0]]), [160], 0.5, rng(2))
        ds = Dataset(np.vstack([maj, pts]),
                     np.concatenate([np.zeros(160, dtype=int), np.ones(40, dtype=int)]))
        out = cluster_oversample(ds, rng(3), clusters=assign)
        s = summarize(out)
        assert s.counts == {0: 160, 1: 160}
        minority_rows = out.points[out.labels == 1]
        near_first = np.sum(minority_rows[:, 0] < 20.0)
        assert near_first == 80  # each sub-cluster holds exactly half

    def test_single_cluster_behaves_like_random_oversample(self):
        ds, _ = paper_shaped_dataset()
        out = cluster_oversample(ds, rng(5), clusters=np.zeros(84, dtype=int))
        s = summarize(out)
        assert out.n == 632
        assert s.imbalance_ratio == 1.0

    def test_discovery_without_assignment(self):
        ds, _ = paper_shaped_dataset(seed=4)
        out = cluster_oversample(ds, rng(6))
        assert summarize(out).imbalance_ratio == 1.0

    def test_assignment_length_checked(self):
        ds, _ = paper_shaped_dataset()
        with pytest.raises(SkewbenchError, match="cover every minority point"):
            cluster_oversample(ds, rng(), clusters=np.zeros(10, dtype=int))


class TestSmote:
    def test_amount_100_appends_one_per_point(self):
        ds, _ = paper_shaped_dataset()
        out = smote(ds, k=5, amount_pct=100, rng=rng(2))
        assert out.n == 400 + 84
        assert np.sum(out.labels == 1) == 168

    def test_k1_synthetics_on_segment(self):
        ds = two_class([[0.0, 0.0], [1.0, 1.0], [5.0, 5.0], [9.0, 9.0], [9.0, 8.0]],
                       [1, 1, 0, 0, 0])
        out = smote(ds, k=1, amount_pct=300, rng=rng(3))
        synth = out.points[5:]
        assert len(synth) == 6
        for p in synth:
            # On the segment between the two minority points.
            assert p[0] == pytest.approx(p[1], abs=1e-12)
            assert -1e-12 <= p[0] <= 1.0 + 1e-12

    def test_lambda_zero_reproduces_base_point(self):
        class ZeroLambda:
            def __init__(self, inner):
                self.inner = inner

            def integers(self, *a, **k):
                return self.inner.integers(*a, **k)

            def random(self, *a, **k):
                return np.zeros(a[0]) if a else 0.0

        ds = two_class([[0.0, 0.0], [2.0, 2.0], [5.0, 5.0], [9.0, 9.0], [8.0, 9.0]],
                       [1, 1, 0, 0, 0])
        out = smote(ds, k=1, amount_pct=100, rng=ZeroLambda(rng(4)))
        assert np.array_equal(out.points[5:], ds.points[:2])

    def test_rejects_fractional_amount_and_big_k(self):
        ds, _ = paper_shaped_dataset()
        with pytest.raises(SkewbenchError, match="multiple of 100"):
            smote(ds, k=3, amount_pct=150, rng=rng())
        with pytest.raises(SkewbenchError, match="must exceed k"):
            smote(ds, k=84, amount_pct=100, rng=rng())


class TestNcr:
    def test_minority_preserved_in_count(self):
        ds, _ = paper_shaped_dataset()
        out = ncr(ds, k=3)
        assert np.sum(out.labels == 1) == 84
        assert out.n <= ds.n

    def test_pure_separated_blobs_untouched(self):
        maj, _ = generate_blobs(np.array([[0.0, 0.0]]), [40], 0.5, rng(1))
        minority, _ = generate_blobs(np.array([[50.0, 50.0]]), [12], 0.5, rng(2))
        ds = Dataset(np.vstack([maj, minority]),
                     np.concatenate([np.zeros(40, dtype=int), np.ones(12, dtype=int)]))
        out = ncr(ds, k=3)
        assert out.n == 52

    def test_one_dimensional_vote_example(self):
        # Majority at 0,1,2,10 and minority at 9.5,10.5,11: the majority point
        # at 10 is both misclassified by its neighbors and a corrupter of
        # minority neighborhoods, so it is the only removal.
        ds = two_class([[0.0], [1.0], [2.0], [10.0], [9.5], [10.5], [11.0]],
                       [0, 0, 0, 0, 1, 1, 1])
        out = ncr(ds, k=3)
        assert out.n == 6
        kept = {tuple(row) for row in out.points}
        assert (10.0,) not in kept
        assert {(0.0,), (1.0,), (2.0,)} <= kept

    def test_minority_rows_bitwise_preserved(self):
        ds, _ = paper_shaped_dataset(seed=9)
        out = ncr(ds, k=3)
        assert np.array_equal(out.points[out.labels == 1], ds.points[ds.labels == 1])

    def test_requires_enough_points_for_votes(self):
        ds = two_class([[0.0], [1.0], [2.0]], [0, 0, 1])
        with pytest.raises(SkewbenchError, match="more than k"):
            ncr(ds, k=3)

    # An even k lets a vote tie, which counts as a majority-class prediction.
    def test_matches_brute_force_vote_oracle(self):
        for seed, k in itertools.product(range(8), (2, 3, 4)):
            r = rng(100 + seed)
            n_maj, n_min = 25, 10
            pts = np.round(r.normal(size=(n_maj + n_min, 2)) * 3)  # ties likely
            labels = np.array([0] * n_maj + [1] * n_min)
            ds = Dataset(pts, labels)
            removed = set()
            votes = {}
            for i in range(ds.n):
                order = sorted(range(ds.n),
                               key=lambda j: (float(np.sum((pts[j] - pts[i]) ** 2)), j))
                nbrs = [j for j in order if j != i][:k]
                minority_votes = sum(1 for j in nbrs if labels[j] == 1)
                votes[i] = (nbrs, minority_votes * 2 > k)
            for i in range(ds.n):
                nbrs, predicted_minority = votes[i]
                if labels[i] == 0 and predicted_minority:
                    removed.add(i)
                if labels[i] == 1 and not predicted_minority:
                    removed.update(j for j in nbrs if labels[j] == 0)
            expected_kept = [i for i in range(ds.n) if i not in removed]
            out = ncr(ds, k=k)
            assert np.array_equal(out.points, pts[expected_kept])


class TestSparsity:
    def make_clustered(self):
        centers = np.array([[0.0, 0.0], [30.0, 0.0]])
        minority, assign = generate_blobs(centers, [25, 25], 1.0, rng(1))
        maj, _ = generate_blobs(np.array([[15.0, 30.0]]), [100], 2.0, rng(2))
        ds = Dataset(np.vstack([maj, minority]),
                     np.concatenate([np.zeros(100, dtype=int), np.ones(50, dtype=int)]))
        return ds, assign

    def test_alpha_one_is_identity(self):
        ds, assign = self.make_clustered()
        out = sparsity(ds, 1.0, minority_clusters=assign)
        assert np.array_equal(out.points, ds.points)
        assert np.array_equal(out.labels, ds.labels)

    def test_alpha_two_doubles_center_distances(self):
        ds, assign = self.make_clustered()
        out = sparsity(ds, 2.0, minority_clusters=assign)
        rows = np.flatnonzero(ds.labels == 1)
        for j in (0, 1):
            members = rows[assign == j]
            center = ds.points[members].mean(axis=0)
            before = np.sqrt(np.sum((ds.points[members] - center) ** 2, axis=1))
            after = np.sqrt(np.sum((out.points[members] - center) ** 2, axis=1))
            assert np.allclose(after, 2.0 * before, atol=1e-9)

    def test_variance_scales_alpha_squared_and_means_fixed(self):
        ds, assign = self.make_clustered()
        alpha = 1.7
        out = sparsity(ds, alpha, minority_clusters=assign)
        rows = np.flatnonzero(ds.labels == 1)
        for j in (0, 1):
            members = rows[assign == j]
            assert np.allclose(out.points[members].mean(axis=0),
                               ds.points[members].mean(axis=0), atol=1e-9)
            assert np.allclose(out.points[members].var(axis=0),
                               alpha ** 2 * ds.points[members].var(axis=0), atol=1e-9)
        # Majority untouched under minority scope.
        assert np.array_equal(out.points[:100], ds.points[:100])

    def test_scope_both_moves_majority(self):
        ds, assign = self.make_clustered()
        out = sparsity(ds, 1.5, scope="both", minority_clusters=assign)
        assert not np.array_equal(out.points[:100], ds.points[:100])
        assert np.allclose(out.points[:100].mean(axis=0),
                           ds.points[:100].mean(axis=0), atol=1e-9)

    def test_alpha_below_one_rejected(self):
        ds, assign = self.make_clustered()
        with pytest.raises(SkewbenchError, match="alpha"):
            sparsity(ds, 0.5, minority_clusters=assign)


class TestBalanceInvariants:
    @pytest.mark.parametrize("seed", range(6))
    def test_ro_and_co_balance_any_imbalanced_input(self, seed):
        r = rng(300 + seed)
        n_min = int(r.integers(6, 30))
        n_maj = int(r.integers(n_min + 1, 120))
        pts = r.normal(size=(n_maj + n_min, 2))
        ds = Dataset(pts, np.array([0] * n_maj + [1] * n_min))
        for out in (random_oversample(ds, rng(seed)),
                    cluster_oversample(ds, rng(seed),
                                       clusters=r.integers(0, 3, size=n_min))):
            s = summarize(out)
            assert s.counts[0] == s.counts[1] == n_maj
            # Original rows, majority included, survive verbatim at the front.
            assert np.array_equal(out.points[: ds.n], ds.points)
            assert np.array_equal(out.labels[: ds.n], ds.labels)

    @pytest.mark.parametrize("seed", range(6))
    def test_ncr_shrinks_only_majority(self, seed):
        ds, _ = generate_imbalanced(GenSpec(
            n_samples=240, class_ratio=(5, 1), seed=seed, minority_subclusters=2,
            disturbance_ratio=0.4, center_box=(0.0, 10.0),
            min_center_separation=2.0))
        out = ncr(ds, k=3)
        before, after = summarize(ds), summarize(out)
        assert after.counts[1] == before.counts[1]
        assert out.n <= ds.n
        assert after.imbalance_ratio <= before.imbalance_ratio


class TestApplyMethod:
    def test_base_is_identity(self):
        ds, _ = paper_shaped_dataset()
        assert Base().apply(ds, rng()) is ds

    def test_dispatch_matches_direct_calls(self):
        ds, gt = paper_shaped_dataset()
        direct = random_oversample(ds, rng(123))
        routed = RO().apply(ds, rng(123))
        assert np.array_equal(direct.points, routed.points)
        clusters = gt.subcluster_assignment[ds.labels == 1]
        routed_co = CO().apply(ds, rng(7), minority_clusters=clusters)
        direct_co = cluster_oversample(ds, rng(7), clusters=clusters)
        assert np.array_equal(direct_co.points, routed_co.points)
        assert np.array_equal(NCR(k=3).apply(ds, rng()).points, ncr(ds, 3).points)
        assert np.array_equal(SMOTE(k=3).apply(ds, rng(5)).points,
                              smote(ds, 3, 100, rng(5)).points)
        assert np.array_equal(Sparsity(alpha=2.0).apply(ds, rng(), clusters).points,
                              sparsity(ds, 2.0, minority_clusters=clusters).points)

    def test_method_configs_validate(self):
        with pytest.raises(SkewbenchError):
            SMOTE(k=0)
        with pytest.raises(SkewbenchError):
            SMOTE(amount_pct=150)
        with pytest.raises(SkewbenchError):
            NCR(k=0)
        with pytest.raises(SkewbenchError):
            Sparsity(alpha=0.9)
        with pytest.raises(SkewbenchError):
            Sparsity(scope="everything")
