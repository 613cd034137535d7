import tracemalloc

import numpy as np
import pytest

import reference_clustering as reference
from skewbench import core
from skewbench.clustering import estimate_bandwidth, mean_shift
from skewbench.core import RngSeed, SkewbenchError
from skewbench.datagen import GenSpec, generate_blobs, generate_imbalanced


def rng(seed=0):
    return RngSeed(seed).generator()


class TestEstimateBandwidth:
    def test_two_points(self):
        assert estimate_bandwidth(np.array([[0.0], [2.0]])) == pytest.approx(2.0)

    def test_three_collinear(self):
        # ceil(0.3 * 2) = 1: each point's nearest neighbour is 1 away.
        pts = np.array([[0.0], [1.0], [2.0]])
        assert estimate_bandwidth(pts) == pytest.approx(1.0)

    def test_matches_exhaustive_sort_oracle(self):
        pts, _ = generate_blobs(np.array([[0.0, 0.0], [9.0, 9.0]]), [120, 80], 1.0, rng(2))
        n = len(pts)
        quantile = 0.3
        j = int(np.ceil(quantile * (n - 1)))
        expected = 0.0
        for i in range(n):
            dists = sorted(np.sqrt(np.sum((pts - pts[i]) ** 2, axis=1)))
            expected += dists[j]  # dists[0] is the self-distance
        expected /= n
        assert estimate_bandwidth(pts) == pytest.approx(expected, rel=1e-12)

    def test_identical_points_rejected(self):
        with pytest.raises(SkewbenchError, match="zero bandwidth"):
            estimate_bandwidth(np.ones((5, 2)))


class TestMeanShift:
    def test_single_tight_blob(self):
        pts, _ = generate_blobs(np.array([[5.0, 5.0]]), [80], 0.05, rng(1))
        model = mean_shift(pts, bandwidth=1.0)
        assert len(model.centers) == 1
        assert np.allclose(model.centers[0], pts.mean(axis=0), atol=1e-3)
        assert np.all(model.assignment == 0)

    def test_two_distant_blobs(self):
        centers = np.array([[0.0, 0.0], [30.0, 0.0]])
        pts, truth = generate_blobs(centers, [60, 60], 0.3, rng(2))
        model = mean_shift(pts, bandwidth=3.0)
        assert len(model.centers) == 2
        # Assignment must match how the blobs were generated (up to relabeling).
        first = model.assignment[truth == 0]
        second = model.assignment[truth == 1]
        assert len(set(first.tolist())) == 1
        assert len(set(second.tolist())) == 1
        assert first[0] != second[0]

    def test_recovers_generated_subclusters(self):
        hits = 0
        for seed in range(20):
            spec = GenSpec(n_samples=480, class_ratio=(5, 1), seed=seed,
                           minority_subclusters=4, majority_subclusters=1,
                           sub_sigma=1.0, center_box=(0.0, 40.0),
                           min_center_separation=8.0)
            ds, _ = generate_imbalanced(spec)
            bandwidth = estimate_bandwidth(ds.points)
            hits += int(len(mean_shift(ds.points, bandwidth).centers) == 5)
        assert hits >= 19  # >= 95% over 20 seeded runs

    def test_isolated_point_is_own_mode(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [50.0, 50.0]])
        model = mean_shift(pts, bandwidth=1.0)
        assert len(model.centers) == 2
        assert model.assignment.tolist() == [0, 0, 1] or model.assignment.tolist() == [1, 1, 0]

    def test_idempotent_on_returned_centers(self):
        pts, _ = generate_blobs(np.array([[0.0, 0.0], [12.0, 3.0]]), [70, 50], 0.8, rng(4))
        bandwidth = 2.5
        first = mean_shift(pts, bandwidth)
        second = mean_shift(pts, bandwidth, seeds=first.centers)
        assert len(second.centers) == len(first.centers)
        tol = 1e-4 * bandwidth
        gaps = np.sqrt(((first.centers[:, None, :] - second.centers[None, :, :]) ** 2).sum(-1))
        assert np.all(gaps.min(axis=1) <= tol * 2)

    def test_translation_equivariance(self):
        pts, _ = generate_blobs(np.array([[0.0, 0.0], [9.0, 0.0]]), [50, 40], 0.7, rng(5))
        shift = np.array([13.5, -4.25])
        a = mean_shift(pts, 2.0)
        b = mean_shift(pts + shift, 2.0)
        assert np.allclose(a.centers + shift, b.centers, atol=1e-9)
        assert np.array_equal(a.assignment, b.assignment)

    def test_assignment_contiguous_and_complete(self):
        pts, _ = generate_blobs(np.array([[0.0, 0.0], [8.0, 8.0], [0.0, 8.0]]),
                                [40, 40, 40], 0.6, rng(6))
        model = mean_shift(pts, 2.0)
        assert len(model.assignment) == len(pts)
        used = np.unique(model.assignment)
        assert used.tolist() == list(range(len(model.centers)))

    def test_point_at_one_bandwidth_is_in_the_window(self):
        # The window is a closed ball: each point sees the other at exactly one
        # bandwidth, so both seeds meet at the midpoint.
        model = mean_shift(np.array([[0.0], [1.0]]), bandwidth=1.0)
        assert model.centers.tolist() == [[0.5]]

    def test_mode_at_half_bandwidth_is_kept(self):
        # Each seed is the mean of its window, so both stay put, exactly
        # bandwidth/2 apart. Equal strength ranks the first seed first, and a
        # mode is merged only when it lies strictly within bandwidth/2 of it.
        pts = np.array([[-3.0], [-1.0], [1.0], [3.0], [5.0]])
        model = mean_shift(pts, bandwidth=4.0, seeds=np.array([[0.0], [2.0]]))
        assert model.centers.tolist() == [[0.0], [2.0]]
        assert model.assignment.tolist() == [0, 0, 0, 1, 1]

    def test_merged_centers_respect_half_bandwidth(self):
        pts, _ = generate_blobs(np.array([[0.0, 0.0], [2.0, 0.0], [20.0, 0.0]]),
                                [50, 50, 50], 0.8, rng(7))
        bandwidth = 4.0
        model = mean_shift(pts, bandwidth)
        c = model.centers
        for i in range(len(c)):
            for j in range(i + 1, len(c)):
                assert np.sqrt(np.sum((c[i] - c[j]) ** 2)) >= bandwidth / 2.0

    def test_parameter_validation(self):
        pts = np.zeros((3, 2))
        with pytest.raises(SkewbenchError):
            mean_shift(pts, bandwidth=0.0)
        with pytest.raises(SkewbenchError):
            mean_shift(pts, bandwidth=1.0, max_iter=0)
        with pytest.raises(SkewbenchError, match="seeds"):
            mean_shift(pts, bandwidth=1.0, seeds=np.empty((0, pts.shape[1])))


def oracle_points(kind: str, dims: int) -> np.ndarray:
    rng = np.random.default_rng(dims)
    if kind == "lattice":  # exact ties among distances and window edges
        return rng.integers(0, 4, size=(90, dims)).astype(np.float64)
    centers = rng.uniform(0, 12, size=(3, dims))
    return np.vstack([c + rng.normal(size=(30, dims)) for c in centers])


class TestReferenceOracle:
    """Bit-for-bit against the frozen pre-blocking code in reference_clustering.

    Blocks of 1-3 seeds make lone-seed blocks and partial last blocks; far
    seeds have empty windows, so only a subset of each block moves.
    """

    @pytest.mark.parametrize("rows", [None, 1, 3])
    @pytest.mark.parametrize("dims", [1, 2, 3, 9])
    @pytest.mark.parametrize("kind", ["random", "lattice"])
    def test_bits_equal_reference(self, monkeypatch, kind, dims, rows):
        pts = oracle_points(kind, dims)
        if rows is not None:
            monkeypatch.setattr(core, "_BLOCK_BYTES", rows * 8 * pts.size)
        bandwidth = estimate_bandwidth(pts)
        want = reference.estimate_bandwidth(pts, 0.3)
        assert np.float64(bandwidth).view(np.uint64) == np.float64(want).view(np.uint64)
        far = pts[::7] + 100.0
        for seeds in (None, np.vstack([pts[::3], far])):
            for scale in (1.0, 0.4):
                got = mean_shift(pts, scale * bandwidth, seeds=seeds)
                centers, assignment = reference.mean_shift(pts, scale * bandwidth,
                                                           seeds=seeds)
                assert np.array_equal(got.centers.view(np.uint64), centers.view(np.uint64))
                assert np.array_equal(got.assignment, assignment)

    @pytest.mark.parametrize("dims", [1, 2, 3, 9])
    def test_merged_modes_equal_reference(self, dims):
        # One shift step leaves 300 distinct modes close together, most of
        # which fall within bandwidth/2 of a stronger one and merge.
        pts = np.random.default_rng(5).normal(size=(300, dims))
        got = mean_shift(pts, np.sqrt(dims), max_iter=1)
        centers, assignment = reference.mean_shift(pts, np.sqrt(dims), max_iter=1)
        assert 1 < len(got.centers) < 100
        assert np.array_equal(got.centers.view(np.uint64), centers.view(np.uint64))
        assert np.array_equal(got.assignment, assignment)

    def test_every_mode_kept_equals_reference(self):
        # Windows this narrow hold only their own seed: all 700 modes survive,
        # each checked against every mode kept before it.
        pts = np.random.default_rng(0).uniform(0, 100, size=(700, 2))
        got = mean_shift(pts, 0.05)
        centers, assignment = reference.mean_shift(pts, 0.05)
        assert len(got.centers) == 700
        assert np.array_equal(got.centers.view(np.uint64), centers.view(np.uint64))
        assert np.array_equal(got.assignment, assignment)


@pytest.mark.parametrize("call", ["estimate_bandwidth", "mean_shift"])
def test_peak_memory_bounded_at_n2000(call):
    pts = np.random.default_rng(4).normal(size=(2000, 2))
    run = {"estimate_bandwidth": lambda: estimate_bandwidth(pts),
           "mean_shift": lambda: mean_shift(pts, 0.5, max_iter=3)}[call]
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_assignment_peak_memory_bounded_when_every_mode_survives():
    # Windows this narrow hold only their own seed, so all 700 modes survive
    # and an unblocked n x centers assignment matrix alone would take 3.9 MB.
    pts = np.random.default_rng(0).uniform(0, 100, size=(700, 2))
    tracemalloc.start()
    try:
        model = mean_shift(pts, 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(model.centers) == 700
    assert peak < 4 * 2**20
