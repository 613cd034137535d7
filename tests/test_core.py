import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skewbench import core, resample
from skewbench.classify import knn_fit, knn_predict_batch
from skewbench.core import (Dataset, ExampleKind, RngSeed, SkewbenchError,
                            derive_seed, nearest, pairwise_sq, summarize)
from skewbench.resample import ncr, random_oversample, smote


def make_dataset(counts: dict[int, int]) -> Dataset:
    labels = np.concatenate([np.full(c, lab) for lab, c in counts.items()])
    rng = np.random.default_rng(0)
    return Dataset(rng.normal(size=(len(labels), 2)), labels)


class TestSummarize:
    def test_paper_style_counts(self):
        s = summarize(make_dataset({0: 316, 1: 84}))
        assert s.counts == {0: 316, 1: 84}
        assert s.minority_label == 1
        assert s.majority_label == 0
        assert s.imbalance_ratio == pytest.approx(316 / 84)
        assert f"{s.imbalance_ratio:.1f}" == "3.8"

    def test_balanced_tie_breaks_to_low_label(self):
        s = summarize(make_dataset({0: 316, 1: 316}))
        assert s.minority_label == 0
        assert s.majority_label == 1
        assert s.imbalance_ratio == 1.0

    def test_seven_to_one(self):
        s = summarize(make_dataset({0: 700, 1: 100}))
        assert s.imbalance_ratio == 7.0

    def test_single_class_rejected(self):
        with pytest.raises(SkewbenchError, match="degenerate class structure"):
            summarize(make_dataset({3: 10}))

    def test_three_classes_rejected(self):
        with pytest.raises(SkewbenchError, match="3 classes, need two"):
            summarize(make_dataset({0: 40, 1: 12, 2: 8}))

    # Two classes relabelled with two of the labels 0, 1 and 2.
    @given(st.permutations([0, 1, 2]), st.lists(st.integers(1, 40), min_size=2, max_size=2))
    @settings(max_examples=50, deadline=None)
    def test_label_permutation_covariance(self, perm, sizes):
        base = make_dataset(dict(enumerate(sizes)))
        relabeled = Dataset(base.points, np.array([perm[lab] for lab in base.labels]))
        s0 = summarize(base)
        s1 = summarize(relabeled)
        assert s1.counts == {perm[lab]: c for lab, c in s0.counts.items()}
        assert s1.imbalance_ratio == pytest.approx(s0.imbalance_ratio)


def nearest_one(points, query, k: int, exclude: int | None = None) -> list[int]:
    """`nearest` for a single query row, as a list of point indices."""
    return nearest(np.asarray(points, dtype=np.float64),
                   np.asarray(query, dtype=np.float64)[None, :], k,
                   None if exclude is None else np.array([exclude]))[0].tolist()


def distance(a, b) -> float:
    return float(np.sqrt(np.sum((np.asarray(a) - np.asarray(b)) ** 2)))


class TestKnnIndices:
    """The k nearest point indices of a single query, through `nearest`."""

    def test_one_dimensional(self):
        got = nearest_one([[0.0], [1.0], [2.0], [10.0]], [0.4], k=2)
        assert sorted(got) == [0, 1]

    def test_tie_breaks_by_index(self):
        # Points at indices 3 and 7 are equidistant from the query.
        pts = np.zeros((8, 2))
        pts[3] = (1.0, 0.0)
        pts[7] = (-1.0, 0.0)
        pts[[0, 1, 2, 4, 5, 6]] = 50.0
        assert nearest_one(pts, [0.0, 0.0], k=2) == [3, 7]

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(30, 2))
        query = rng.normal(size=2)
        expected = sorted(range(30),
                          key=lambda i: (sum((pts[i] - query) ** 2), i))[:5]
        assert nearest_one(pts, query, k=5) == expected

    def test_k_equals_n_returns_all_sorted(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(12, 3))
        q = rng.normal(size=3)
        got = nearest_one(pts, q, k=12)
        dists = [distance(pts[i], q) for i in got]
        assert sorted(got) == list(range(12))
        assert dists == sorted(dists)

    def test_reordering_equidistant_points_keeps_distances(self):
        # Three points equidistant from the query; permuting their storage
        # changes which index wins, but the distance sequence is identical.
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [5.0, 5.0]])
        q = np.zeros(2)
        for perm in ([0, 1, 2, 3], [2, 0, 1, 3], [1, 2, 0, 3]):
            got = nearest_one(pts[perm], q, k=4)
            dists = [distance(pts[perm][i], q) for i in got]
            assert dists == [1.0, 1.0, 1.0, distance(pts[3], q)]
            assert got[:3] == sorted(got[:3])

    @pytest.mark.parametrize("n,k", [(0, 1), (3, 4), (3, 0)])
    def test_k_outside_one_to_n_rejected(self, n, k):
        with pytest.raises(SkewbenchError, match=f"cannot take the {k} nearest of {n}"):
            nearest(np.zeros((n, 2)), np.zeros((2, 2)), k)

    def test_exclude_and_k_too_large(self):
        pts = [[0.0], [1.0], [2.0]]
        assert nearest_one(pts, [0.1], k=2, exclude=0) == [1, 2]
        # Exclusion is an infinite distance, not a range check: a k that needs
        # the excluded point gets it last, however near it is.
        assert nearest_one(pts, [0.1], k=3, exclude=0) == [1, 2, 0]


def lattice_dataset(n: int = 47, seed: int = 2) -> Dataset:
    # Small-integer coordinates make every squared distance exact, so ties are common.
    rng = np.random.default_rng(seed)
    return Dataset(rng.integers(0, 5, size=(n, 2)).astype(np.float64),
                   (rng.random(n) < 0.35).astype(int))


def brute_nearest(points, queries, k, exclude=None) -> np.ndarray:
    rows = []
    for i, q in enumerate(queries):
        candidates = [j for j in range(len(points)) if exclude is None or j != exclude[i]]
        rows.append(sorted(candidates,
                           key=lambda j: (float(np.sum((points[j] - q) ** 2)), j))[:k])
    return np.array(rows)


class TestNearest:
    # 47 points and 31 queries: with 1-3 rows per block the last block is partial.
    def use_rows(self, monkeypatch, rows, points):
        if rows is not None:
            monkeypatch.setattr(core, "_BLOCK_BYTES", rows * 8 * points.size)

    @pytest.mark.parametrize("rows", [None, 1, 2, 3])
    def test_matches_brute_force_on_lattice_ties(self, monkeypatch, rows):
        pts = lattice_dataset().points
        queries = pts[:31] + 0.5 * (np.arange(31) % 2)[:, None]
        self_ex = np.arange(len(pts))
        self.use_rows(monkeypatch, rows, pts)
        assert np.array_equal(nearest(pts, queries, 6), brute_nearest(pts, queries, 6))
        assert np.array_equal(nearest(pts, pts, 6, exclude=self_ex),
                              brute_nearest(pts, pts, 6, exclude=self_ex))

    # Three values on a 2-D lattice: each squared distance is one of a few
    # integers, so the k-th value is tied across many columns in most rows.
    @pytest.mark.parametrize("rows", [None, 1, 2, 3])
    def test_tie_at_kth_value_spans_many_columns(self, monkeypatch, rows):
        rng = np.random.default_rng(8)
        pts = rng.integers(0, 3, size=(47, 2)).astype(np.float64)
        queries = rng.integers(0, 3, size=(31, 2)).astype(np.float64)
        sq = pairwise_sq(queries, pts)
        kth = np.sort(sq, axis=1)[:, 4:5]
        assert np.median((sq == kth).sum(axis=1)) >= 5
        self.use_rows(monkeypatch, rows, pts)
        for k in (1, 5, 20):
            assert np.array_equal(nearest(pts, queries, k), brute_nearest(pts, queries, k))

    @pytest.mark.parametrize("rows", [None, 1, 3])
    def test_exclude_hits_a_tied_column(self, monkeypatch, rows):
        # Point 2j+1 duplicates point 2j, so excluding either of a pair leaves
        # its twin tied at distance 0 and the rest tied on the lattice.
        rng = np.random.default_rng(9)
        half = rng.integers(0, 3, size=(20, 2)).astype(np.float64)
        pts = np.repeat(half, 2, axis=0)
        self.use_rows(monkeypatch, rows, pts)
        for exclude in (np.arange(40), np.arange(40) ^ 1, np.zeros(40, dtype=int)):
            for k in (1, 2, 7):
                assert np.array_equal(nearest(pts, pts, k, exclude=exclude),
                                      brute_nearest(pts, pts, k, exclude=exclude))

    @pytest.mark.parametrize("dims", [1, 2, 3, 8, 9])
    def test_every_k_up_to_n(self, dims):
        # At k = n the partition index is the last column and every column is
        # taken; with `exclude`, k = n puts the excluded (inf) point last.
        rng = np.random.default_rng(dims)
        pts = rng.integers(0, 2, size=(13, dims)).astype(np.float64)
        queries = pts + rng.integers(0, 2, size=pts.shape)
        self_ex = np.arange(13)
        for k in range(1, 14):
            assert np.array_equal(nearest(pts, queries, k), brute_nearest(pts, queries, k))
            got = nearest(pts, pts, k, exclude=self_ex)
            want = brute_nearest(pts, pts, min(k, 12), exclude=self_ex)
            assert np.array_equal(got[:, :12], want)
        assert np.array_equal(got[:, 12], self_ex)

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_callers_independent_of_block_size(self, monkeypatch, rows):
        ds = lattice_dataset()
        queries = ds.points[:31] + 0.25
        model = knn_fit(ds, k=5, minority_label=summarize(ds).minority_label)
        minority = ds.points[ds.labels == model.minority_label]

        def outputs(rows):
            self.use_rows(monkeypatch, rows, ds.points)
            got = [nearest(ds.points, queries, 5),
                   nearest(ds.points, ds.points, 5, exclude=np.arange(ds.n)),
                   ncr(ds, k=3).points, *knn_predict_batch(model, queries)]
            self.use_rows(monkeypatch, rows, minority)
            return got + [smote(ds, 3, 200, np.random.default_rng(7)).points]

        for want, got in zip(outputs(None), outputs(rows), strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("call", ["ncr", "knn_predict_batch"])
    def test_peak_memory_bounded_at_n2000(self, call):
        rng = np.random.default_rng(4)
        ds = Dataset(rng.normal(size=(2000, 2)), (rng.random(2000) < 0.3).astype(int))
        model = knn_fit(ds, k=5, minority_label=1)
        run = {"ncr": lambda: ncr(ds, k=3),
               "knn_predict_batch": lambda: knn_predict_batch(model, ds.points)}[call]
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @staticmethod
    def sweep_points(kind, dims, rng):
        if kind == "lattice":
            return rng.integers(0, 3, size=(60, dims)).astype(np.float64)
        if kind == "ro_duplicates":
            base = rng.integers(0, 4, size=(36, dims)).astype(np.float64)
            return np.concatenate([base, base[rng.integers(0, 36, size=24)]])
        if kind == "one_x":
            pts = rng.normal(size=(60, dims))
            pts[:, 0] = 1.5
            return pts
        if kind == "spaced_x":
            # Feature 0 spaced far wider than the neighbour distances: a
            # block's range holds points far from both of its ends.
            pts = rng.integers(0, 2, size=(60, dims)).astype(np.float64)
            pts[:, 0] = rng.permutation(60) * 0.75
            return pts
        # Dense clusters, a sparse spread and far-off points: a block with
        # one far query keeps a wide window, and a few windows skip nothing.
        return np.concatenate([rng.normal(size=(30, dims)) * 0.1,
                               rng.uniform(-3, 3, size=(26, dims)),
                               rng.uniform(-40, 40, size=(4, dims))])

    @pytest.mark.parametrize("block_bytes", [64, 2048])
    @pytest.mark.parametrize("kind", ["lattice", "ro_duplicates", "one_x", "spaced_x",
                                      "clusters"])
    @pytest.mark.parametrize("dims", [1, 2, 3, 9])
    def test_sweep_matches_brute_force(self, force_sweep, dims, kind, block_bytes):
        rng = np.random.default_rng(dims)
        pts = self.sweep_points(kind, dims, rng)
        n = len(pts)
        queries = pts[rng.permutation(n)[:45]] + 0.5 * rng.integers(0, 2, size=(45, dims))
        self_ex = np.arange(n)
        # The brute-force order of all points; the k nearest are its first k.
        want = brute_nearest(pts, queries, n)
        want_ex = brute_nearest(pts, pts, n - 1, exclude=self_ex)
        sweeps = force_sweep(block_bytes)
        for k in (1, 4, 9, n - 1):
            assert np.array_equal(nearest(pts, queries, k), want[:, :k])
            assert np.array_equal(nearest(pts, pts, k, exclude=self_ex), want_ex[:, :k])
        assert len(sweeps) == 8
        # With `exclude`, k = n needs the excluded point itself: the full scan.
        got = nearest(pts, pts, n, exclude=self_ex)
        assert np.array_equal(got[:, :-1], want_ex)
        assert np.array_equal(got[:, -1], self_ex)
        assert np.array_equal(nearest(pts, queries, n), want)
        assert len(sweeps) == 9

    def test_sweep_exclude_hits_a_duplicate(self, force_sweep):
        # Excluding one of a pair of twins leaves the other at distance 0,
        # whether or not the excluded twin is among the kept points.
        rng = np.random.default_rng(9)
        pts = np.repeat(rng.integers(0, 5, size=(40, 2)).astype(np.float64), 2, axis=0)
        sweeps = force_sweep(512)
        for exclude in (np.arange(80), np.arange(80) ^ 1, np.zeros(80, dtype=int)):
            want = brute_nearest(pts, pts, 7, exclude=exclude)
            for k in (1, 2, 7):
                assert np.array_equal(nearest(pts, pts, k, exclude=exclude), want[:, :k])
        assert len(sweeps) == 9

    def test_sweep_where_squares_underflow(self, force_sweep):
        # Two clusters one apart, each 1e-170 wide: squared gaps and
        # distances inside a cluster underflow to 0, so every neighbour there
        # ties and the bound is 0.
        offsets = np.arange(30)[:, None] * 1e-170 * np.array([[1.0, -1.0]])
        pts = np.concatenate([offsets, offsets + 1.0])
        self_ex = np.arange(60)
        assert np.all(pairwise_sq(pts[:30], pts[:30]) == 0.0)
        want_ex = brute_nearest(pts, pts, 59, exclude=self_ex)
        want = brute_nearest(pts, pts[::-1], 59)
        sweeps = force_sweep(64)
        for k in (1, 5, 29, 30, 59):
            assert np.array_equal(nearest(pts, pts, k, exclude=self_ex), want_ex[:, :k])
            assert np.array_equal(nearest(pts, pts[::-1], k), want[:, :k])
        assert len(sweeps) == 10

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_far_pair_overflows_though_the_sweep_would_skip_it(self, force_sweep):
        # Every query's neighbours are near the origin, so a sweep would skip
        # the far point; its squared distance to them still overflows, and the
        # full scan reports that as it does for small calls.
        rng = np.random.default_rng(5)
        pts = np.concatenate([rng.normal(size=(80, 2)), [[1e155, 0.0]]])
        sweeps = force_sweep(64)
        for queries, exclude in ((pts, np.arange(81)), (pts[:80], None)):
            with pytest.raises(SkewbenchError, match="squared distances overflow"):
                nearest(pts, queries, 3, exclude=exclude)
        assert sweeps == []

    def test_sweep_peak_memory_bounded_when_all_x_equal(self):
        # All of feature 0 equal: every window is the whole set.
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(2000, 2))
        pts[:, 0] = 0.25
        tracemalloc.start()
        try:
            got = nearest(pts, pts, 5, exclude=np.arange(2000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert np.array_equal(got[::250], brute_nearest(pts, pts[::250], 5,
                                                        exclude=np.arange(2000)[::250]))


class TestNeighbourTable:
    @staticmethod
    def unit(seed: int, n: int, dims: int, style: str):
        """A unit dataset with its table, and its training and test rows.

        Lattice points have exact squared distances, so ties are common; a
        third of the rows of the "duplicates" style are copies of others.
        """
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n, dims)) * 2.0
        if style == "lattice":
            pts = np.round(pts)
        elif style == "duplicates":
            pts[rng.integers(0, n, size=n // 3)] = pts[rng.integers(0, n, size=n // 3)]
        labels = (rng.random(n) < 0.3).astype(int)
        test = np.zeros(n, dtype=bool)
        test[rng.permutation(n)[:n // 5]] = True
        train_rows, test_rows = np.flatnonzero(~test), np.flatnonzero(test)
        labels[train_rows[:2]] = (0, 1)
        return Dataset(pts, labels).with_neighbour_table(), train_rows, test_rows, rng

    # Against `nearest` on the same points without a table: NCR's neighbours
    # (self excluded) on copy-free sets, and the k-NN vote, labels and scores
    # on those and on a set with up to `copies` copies of each training row
    # appended in random order, as RO and CO append theirs. Queries are the
    # test rows, and all rows, whose training rows must fall back. Narrow
    # tables put the boundary at their last entry more often.
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 200),
           dims=st.sampled_from([1, 2, 9]),
           style=st.sampled_from(["normal", "lattice", "duplicates"]),
           k=st.integers(1, 9), copies=st.integers(1, 5),
           width=st.sampled_from([core.TABLE_K, 12, 5]))
    def test_matches_nearest_on_the_same_sets(self, monkeypatch, table_path, seed, n, dims,
                                              style, k, copies, width):
        if table_path is None:
            monkeypatch.setattr(core, "TABLE_K", width)
        unit, train_rows, test_rows, rng = self.unit(seed, n, dims, style)
        base = unit.subset(train_rows)
        extra = np.repeat(train_rows, rng.integers(0, copies, size=len(train_rows)))
        sets = [base, ncr(base, k), unit.subset(np.concatenate([train_rows,
                                                                rng.permutation(extra)]))]
        for train in sets:
            plain = Dataset(train.points, train.labels)
            if np.all(train.rows[1:] > train.rows[:-1]) and train.n > k:
                everyone = np.arange(train.n)
                assert np.array_equal(resample._nearest_others(train, k),
                                      nearest(plain.points, plain.points, k, exclude=everyone))
            if train.n < k:
                continue
            model = knn_fit(train, k, minority_label=1)
            direct = knn_fit(plain, k, minority_label=1)
            for queries in (unit.subset(test_rows), unit):
                for got, want in zip(knn_predict_batch(model, queries),
                                     knn_predict_batch(direct, queries.points), strict=True):
                    assert np.array_equal(got, want)
        assert np.array_equal(sets[1].points, ncr(Dataset(base.points, base.labels), k).points)

    def test_settles_most_queries_and_counts_copies(self):
        unit, train_rows, test_rows, rng = self.unit(3, 400, 2, "normal")
        ro = random_oversample(unit.subset(train_rows), rng)
        assert np.array_equal(ro.rows[:len(train_rows)], train_rows)
        for train in (unit.subset(train_rows), ro):
            taken, settled = unit.table.take(train.rows, test_rows, 5)
            assert settled.mean() > 0.95
            assert np.all(taken[settled].sum(axis=1) == 5)
        # A set's own rows are queries only as members, once, with `members`.
        _, settled = unit.table.take(train_rows, train_rows, 5)
        assert not settled.any()
        _, settled = unit.table.take(ro.rows, test_rows[:1], 5, members=True)
        assert not settled.any()

    def test_a_tie_beyond_the_table_falls_back(self, monkeypatch):
        # Row 0's table holds rows 1 and 2, both at distance 1. The set holds
        # row 1 twice and row 3, also at distance 1 but beyond the table, so
        # its 2 nearest are row 1 and row 3, not row 1's two copies.
        monkeypatch.setattr(core, "TABLE_K", 2)
        unit = Dataset([[0.0], [1.0], [-1.0], [1.0]], [0, 0, 1, 1]).with_neighbour_table()
        assert unit.table.index[0].tolist() == [1, 2]
        train = unit.subset([1, 3, 1])
        _, settled = unit.table.take(train.rows, np.array([0]), 2)
        assert not settled.any()
        _, scores = knn_predict_batch(knn_fit(train, 2, minority_label=1), unit.subset([0]))
        assert scores.tolist() == [0.5]

    def test_table_is_the_self_excluded_nearest(self, monkeypatch):
        pts = lattice_dataset(60).points
        want = brute_nearest(pts, pts, core.TABLE_K, exclude=np.arange(60))
        for rows in (None, 1, 7):
            if rows is not None:
                monkeypatch.setattr(core, "_BLOCK_BYTES", rows * 8 * pts.size)
            table = core.NeighbourTable.build(pts)
            assert np.array_equal(table.index, want)
            assert np.array_equal(table.sq, np.take_along_axis(pairwise_sq(pts, pts), want, 1))
        assert core.NeighbourTable.build(pts[:10]).index.shape == (10, 9)


class TestTopk:
    """`_topk` against the first k columns of the stable argsort, on both
    sides of `TOPK_CROSSOVER`, at k = n - 1 and at k = n."""

    @pytest.mark.parametrize("pick", ["1", "crossover-1", "crossover", "crossover+1",
                                      "n-1", "n"])
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 40),
           cols=st.integers(1, 300), lattice=st.booleans())
    def test_equals_stable_argsort(self, pick, seed, rows, cols, lattice):
        rng = np.random.default_rng(seed)
        sq = rng.uniform(0, 10, size=(rows, cols))
        if lattice:  # many exact ties
            sq = np.round(sq)
        # At most one inf per row: the excluded point.
        hit = np.flatnonzero(rng.random(rows) < 0.5)
        sq[hit, rng.integers(0, cols, size=len(hit))] = np.inf
        c = core.TOPK_CROSSOVER
        k = {"1": 1, "crossover-1": c - 1, "crossover": c, "crossover+1": c + 1,
             "n-1": cols - 1, "n": cols}[pick]
        k = min(max(k, 1), cols)
        before = sq.copy()
        got = core._topk(sq, k)
        assert np.array_equal(got, np.argsort(sq, axis=1, kind="stable")[:, :k])
        assert np.array_equal(sq, before)


class TestPairwiseSq:
    # Below 8 columns the distances are summed column by column, which must
    # give the bits of the broadcast sum; from 8 the broadcast sum is kept.
    @pytest.mark.parametrize("dims", [1, 2, 7, 8, 9])
    def test_bits_equal_broadcast_sum(self, dims):
        rng = np.random.default_rng(dims)
        scale = 10.0 ** rng.uniform(-3, 3, size=dims)
        a = rng.normal(size=(23, dims)) * scale
        b = rng.normal(size=(29, dims)) * scale
        want = ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)
        assert np.array_equal(pairwise_sq(a, b).view(np.uint64), want.view(np.uint64))

    def test_symmetric_bits(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(17, 3)), rng.normal(size=(11, 3))
        assert np.array_equal(pairwise_sq(a, b).T.view(np.uint64),
                              pairwise_sq(b, a).view(np.uint64))


class TestDataset:
    def test_rejects_nan(self):
        with pytest.raises(SkewbenchError, match="finite"):
            Dataset(np.array([[0.0, np.nan]]), np.array([0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(SkewbenchError):
            Dataset(np.zeros((3, 2)), np.array([0, 1]))
        with pytest.raises(SkewbenchError):
            Dataset(np.zeros((3, 2)), np.array([0, 1, 0]), kinds=np.array([0, 1]))

    def test_arrays_are_read_only(self):
        ds = make_dataset({0: 3, 1: 2})
        with pytest.raises(ValueError):
            ds.points[0, 0] = 99.0
        with pytest.raises(ValueError):
            ds.labels[0] = 5

    @pytest.mark.parametrize("points,labels,kinds,match", [
        ([[0.0], [np.inf]], [0, 1], None, "finite"),
        ([0.0, 1.0], [0, 1], None, "2-D matrix"),
        ([[0.0], [1.0]], [0, -1], None, "nonnegative"),
        ([[0.0], [1.0]], [0, 1], [0, 4], "ExampleKind range"),
    ])
    def test_public_construction_checks(self, points, labels, kinds, match):
        with pytest.raises(SkewbenchError, match=match):
            Dataset(np.array(points), np.array(labels), kinds=kinds)

    def test_subset_arrays_are_read_only(self):
        ds = Dataset(np.arange(8.0).reshape(4, 2), np.array([0, 0, 1, 1]),
                     kinds=np.array([3, 3, 0, 1])).with_neighbour_table()
        sub = ds.subset([2, 0, 2])
        for arr, dtype in ((sub.points, np.float64), (sub.labels, np.int64),
                           (sub.kinds, np.uint8), (sub.rows, np.intp)):
            assert arr.dtype == dtype and len(arr) == 3
            with pytest.raises(ValueError):
                arr[0] = 1
        with pytest.raises(SkewbenchError, match="1-D"):
            ds.subset([[0, 1]])

    def test_subset_preserves_order_and_kinds(self):
        ds = Dataset(np.arange(8.0).reshape(4, 2), np.array([0, 0, 1, 1]),
                     kinds=np.array([3, 3, 0, 1]))
        sub = ds.subset([2, 0])
        assert sub.points.tolist() == [[4.0, 5.0], [0.0, 1.0]]
        assert sub.labels.tolist() == [1, 0]
        assert sub.kinds.tolist() == [0, 3]

    def test_subset_keeps_the_table_and_its_rows(self):
        ds = Dataset(np.arange(8.0).reshape(4, 2), np.array([0, 0, 1, 1]))
        assert ds.subset([2, 0]).table is None
        unit = ds.with_neighbour_table()
        sub = unit.subset([3, 1, 3]).subset([2, 0])
        assert sub.table is unit.table
        assert sub.rows.tolist() == [3, 3]
        with pytest.raises(SkewbenchError, match="needs the table row"):
            Dataset(ds.points, ds.labels, table=unit.table)
        with pytest.raises(SkewbenchError, match="must match the point count"):
            Dataset(ds.points, ds.labels, table=unit.table, rows=[0, 1])


class TestSeeds:
    def test_derivation_is_pure(self):
        assert derive_seed(42, "blobs", 3) == derive_seed(42, "blobs", 3)

    def test_distinct_streams(self):
        seen = {derive_seed(42, p, i) for p in ("a", "b", "centers") for i in range(20)}
        assert len(seen) == 60

    def test_child_streams_reproduce(self):
        a = RngSeed(9).child("x", 1).generator().random(4)
        b = RngSeed(9).child("x", 1).generator().random(4)
        assert np.array_equal(a, b)

    def test_vectors_with_index_above_32_bits(self):
        # All 64 index bits are mixed in: a 32-bit mask would map 2**32 + 3 onto 3.
        assert derive_seed(42, "blobs", 3) == 0x25183357FE5AAAF8
        assert derive_seed(42, "blobs", 2 ** 32 + 3) == 0x86CA2CBA0A7D4C30
        assert derive_seed(2 ** 64 - 1, "fold", 2 ** 64 - 1) == 0xD734F6EB27F1ABB2

    def test_value_masked_to_64_bits(self):
        assert RngSeed(2 ** 70 + 5).value == RngSeed(5).value

    @given(st.integers(0, 2 ** 64 - 1), st.text(max_size=12), st.integers(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_derived_seed_in_range(self, parent, purpose, index):
        child = derive_seed(parent, purpose, index)
        assert 0 <= child < 2 ** 64


class TestExampleKind:
    def test_tag_round_trip(self):
        for kind in ExampleKind:
            assert ExampleKind.from_tag(kind.tag) is kind

    def test_unknown_tag(self):
        with pytest.raises(SkewbenchError, match="unknown kind tag"):
            ExampleKind.from_tag("weird")
