"""Synthesis of imbalanced two-class datasets from isotropic Gaussian sub-clusters.

The minority class decomposes into sub-clusters; a configurable share of its
points is relocated into a borderline band around each sub-cluster or deep
into majority territory (rare examples). Majority points default to a single
blob whose center is drawn inside the same box, at the same separation, so
that with zero disturbance the classes do not overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (Dataset, ExampleKind, RngSeed, SkewbenchError, as_seed,
                   _frozen_array, pairwise_sq, squares_overflow)

MAJORITY_LABEL = 0
MINORITY_LABEL = 1

_MAX_ATTEMPTS = 10_000

# Sub-region radius in units of the sub-cluster sigma: covers roughly 86% of
# an isotropic 2-D Gaussian. The borderline band is one radius wide and the
# rare-example exclusion zone half a radius wider.
SUBREGION_RADIUS_SIGMA = 2.0
BORDERLINE_BAND_SIGMA = 2.0
RARE_EXCLUSION_SIGMA = 3.0
RARE_BALL_SIGMA = 2.0
RARE_PAIR_PROBABILITY = 0.5
RARE_PAIR_JITTER_SIGMA = 0.1
# Farthest a generated point lies from its center, in sub_sigma: a borderline
# point within 4, a rare one within 2 plus its jitter, and a blob point within
# 12.3, beyond the largest draw numpy's ziggurat tail makes from 53-bit uniforms.
REACH_SIGMA = 13.0

# Largest n_samples a GenSpec accepts. Generation holds n * dims float64
# coordinates and the k-NN and MeanShift work grows as n^2, so a larger
# dataset could not be processed; it is refused before anything is allocated.
MAX_SAMPLES = 10_000_000
# Largest dims a GenSpec accepts. Each point holds dims coordinates and every
# distance costs dims operations. It also keeps dims within the float range, in
# which the overflow check on squared distances below is computed.
MAX_DIMS = 10_000


def largest_remainder(weights, total: int) -> np.ndarray:
    """Split `total` into integer parts proportional to `weights`.

    Floors the exact shares, then hands the leftover units to the largest
    fractional remainders; ties go to the lower index. The parts always sum
    to `total` exactly.
    """
    w = np.asarray(weights, dtype=np.float64)
    if total < 0 or np.any(w < 0) or (w.sum() <= 0 and total > 0):
        raise SkewbenchError("largest_remainder needs nonnegative weights and total")
    if total == 0:
        return np.zeros(len(w), dtype=np.int64)
    exact = w * (total / w.sum())
    parts = np.floor(exact).astype(np.int64)
    remainder = total - int(parts.sum())
    if remainder > 0:
        frac = exact - parts
        order = np.lexsort((np.arange(len(w)), -frac))
        parts[order[:remainder]] += 1
    return parts


def _even_split(total: int, groups: int) -> np.ndarray:
    base, extra = divmod(total, groups)
    return np.array([base + (1 if i < extra else 0) for i in range(groups)], dtype=np.int64)


@dataclass(frozen=True)
class GenSpec:
    """Full recipe for one synthetic imbalanced dataset."""

    n_samples: int = 400
    class_ratio: tuple[int, int] = (79, 21)  # (majority parts, minority parts)
    seed: RngSeed | int = 0
    dims: int = 2
    minority_subclusters: int = 2
    majority_subclusters: int = 1
    sub_sigma: float = 1.0
    center_box: tuple[float, float] = (0.0, 20.0)
    min_center_separation: float = 5.0
    disturbance_ratio: float = 0.0
    rare_fraction: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", as_seed(self.seed))
        maj_parts, min_parts = self.class_ratio
        if min_parts < 1 or maj_parts < min_parts:
            raise SkewbenchError("class_ratio must be (majority_parts >= minority_parts >= 1)")
        if not 2 <= self.n_samples <= MAX_SAMPLES:
            raise SkewbenchError(f"n_samples must lie in [2, {MAX_SAMPLES}], "
                                 f"got {self.n_samples}")
        if not 1 <= self.dims <= MAX_DIMS:
            raise SkewbenchError(f"dims must lie in [1, {MAX_DIMS}], got {self.dims}")
        if self.minority_subclusters < 1 or self.majority_subclusters < 1:
            raise SkewbenchError("sub-cluster counts must be >= 1")
        if not self.sub_sigma > 0:
            raise SkewbenchError("sub_sigma must be positive")
        low, high = self.center_box
        if not (high > low and np.isfinite(high - low)):
            raise SkewbenchError("center_box must be a nondegenerate finite interval")
        if squares_overflow(self.span(), self.dims):
            raise SkewbenchError(
                f"sub_sigma={self.sub_sigma:g} with center_box width {high - low:g} "
                f"in {self.dims} dims is too large: squared distances overflow")
        if not self.min_center_separation >= 0:
            raise SkewbenchError("min_center_separation must be >= 0")
        for name in ("disturbance_ratio", "rare_fraction"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise SkewbenchError(f"{name} must lie in [0, 1]")
        if self.disturbance_ratio + self.rare_fraction > 1.0 + 1e-9:
            raise SkewbenchError("disturbance_ratio + rare_fraction must not exceed 1")
        n_maj, n_min = self.class_counts()
        if n_min < self.minority_subclusters:
            raise SkewbenchError("minority count smaller than minority_subclusters")
        if n_maj < self.majority_subclusters:
            raise SkewbenchError("majority count smaller than majority_subclusters")

    def span(self) -> float:
        """Bound on how far apart two generated points lie along any axis.

        Every point lies within REACH_SIGMA * sub_sigma of a center in center_box.
        """
        low, high = self.center_box
        return float(high - low) + 2.0 * REACH_SIGMA * float(self.sub_sigma)

    def class_counts(self) -> tuple[int, int]:
        """(majority, minority) counts from the rounding rule on the ratio."""
        maj_parts, min_parts = self.class_ratio
        n_min = int(round(self.n_samples * min_parts / (maj_parts + min_parts)))
        return self.n_samples - n_min, n_min

    def kind_counts(self) -> tuple[int, int, int]:
        """(safe, borderline, rare) minority counts, largest-remainder rounded."""
        _, n_min = self.class_counts()
        safe = max(0.0, 1.0 - self.disturbance_ratio - self.rare_fraction)
        parts = largest_remainder([safe, self.disturbance_ratio, self.rare_fraction], n_min)
        return int(parts[0]), int(parts[1]), int(parts[2])


@dataclass(frozen=True)
class GroundTruth:
    """Generator-side truth: centers and per-point sub-cluster ids.

    `subcluster_assignment` covers every dataset row (majority rows first,
    then minority rows) with class-local sub-cluster indices. The kind of each
    row is on the dataset itself, in `Dataset.kinds`.
    """

    minority_centers: np.ndarray
    majority_centers: np.ndarray
    subcluster_assignment: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "minority_centers",
                           _frozen_array(self.minority_centers, np.float64))
        object.__setattr__(self, "majority_centers",
                           _frozen_array(self.majority_centers, np.float64))
        object.__setattr__(self, "subcluster_assignment",
                           _frozen_array(self.subcluster_assignment, np.int64))


def sample_centers(count: int, box: tuple[float, float], min_sep: float,
                   rng: np.random.Generator, dims: int = 2) -> np.ndarray:
    """Rejection-sample `count` centers uniform in the box, pairwise >= min_sep."""
    low, high = box
    if count < 1:
        raise SkewbenchError("center count must be >= 1")
    if not (high > low):
        raise SkewbenchError("center_box must be a nondegenerate interval")
    centers: list[np.ndarray] = []
    attempts = 0
    while len(centers) < count:
        if attempts >= _MAX_ATTEMPTS:
            raise SkewbenchError(
                f"center packing infeasible: {count} centers with separation {min_sep} "
                f"in box [{low}, {high}]^{dims}")
        attempts += 1
        candidate = rng.uniform(low, high, size=dims)
        if all(np.sqrt(np.sum((candidate - c) ** 2)) >= min_sep for c in centers):
            centers.append(candidate)
    return np.array(centers)


def generate_blobs(centers: np.ndarray, counts, sigma: float,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sample isotropic Gaussian blobs around each center.

    Returns the stacked points (cluster 0 block first) and the per-point
    cluster assignment.
    """
    centers = np.asarray(centers, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.int64)
    if len(counts) != len(centers):
        raise SkewbenchError("counts must align with centers")
    if sigma <= 0:
        raise SkewbenchError("sigma must be positive")
    blocks = []
    assignment = []
    for j, (center, c) in enumerate(zip(centers, counts)):
        blocks.append(center + sigma * rng.standard_normal((int(c), len(center))))
        assignment.extend([j] * int(c))
    points = np.vstack(blocks) if blocks else np.empty((0, centers.shape[1]))
    return points, np.array(assignment, dtype=np.int64)


def _unit_vectors(rng: np.random.Generator, count: int, dims: int) -> np.ndarray:
    vecs = rng.standard_normal((count, dims))
    norms = np.sqrt(np.sum(vecs ** 2, axis=1, keepdims=True))
    # Zero-norm draws are measure-zero; nudge deterministically if one occurs.
    norms[norms == 0.0] = 1.0
    return vecs / norms


def apply_disturbance(points: np.ndarray, assignment: np.ndarray, centers: np.ndarray,
                      sub_sigma: float, count: int,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Relocate `count` minority points into the borderline band around their sub-cluster.

    Selects the points without replacement, allocated across sub-clusters
    proportionally to their sizes, and repositions each uniformly on the shell
    [R, 2R] around its sub-cluster center, R = 2 * sub_sigma. Relocated points
    are tagged BORDERLINE, all others SAFE.
    """
    points = np.array(points, dtype=np.float64)
    assignment = np.asarray(assignment, dtype=np.int64)
    kinds = np.full(len(points), int(ExampleKind.SAFE), dtype=np.uint8)
    if count == 0:
        return points, kinds
    n_clusters = len(centers)
    sizes = np.array([np.sum(assignment == j) for j in range(n_clusters)])
    if count > sizes.sum():
        raise SkewbenchError("not enough minority points to disturb")
    # No share exceeds its cluster's size: below sizes.sum() each exact share
    # is under its size, so its floor plus one leftover unit is at most the size.
    per_cluster = largest_remainder(sizes, count)

    radius_lo = SUBREGION_RADIUS_SIGMA * sub_sigma
    band = BORDERLINE_BAND_SIGMA * sub_sigma
    for j in range(n_clusters):
        m = int(per_cluster[j])
        if m == 0:
            continue
        members = np.flatnonzero(assignment == j)
        chosen = rng.choice(members, size=m, replace=False)
        radii = radius_lo + band * rng.random(m)
        dirs = _unit_vectors(rng, m, points.shape[1])
        points[chosen] = centers[j] + radii[:, None] * dirs
        kinds[chosen] = int(ExampleKind.BORDERLINE)
    return points, kinds


def inject_rare(points: np.ndarray, kinds: np.ndarray, minority_centers: np.ndarray,
                majority_centers: np.ndarray, sub_sigma: float, count: int,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Relocate `count` SAFE minority points deep into majority territory, tagged RARE.

    Loci are drawn uniformly from a ball of radius 2 * sub_sigma around a
    majority center, rejected until every placed point is more than
    3 * sub_sigma from all minority centers. Points are placed singly or in
    jittered pairs at the same locus (pair probability 0.5).
    """
    if len(majority_centers) == 0:
        raise SkewbenchError("rare injection requires at least one majority center")
    points = np.array(points, dtype=np.float64)
    kinds = np.array(kinds, dtype=np.uint8)
    if count == 0:
        return points, kinds
    eligible = np.flatnonzero(kinds == int(ExampleKind.SAFE))
    if count > len(eligible):
        raise SkewbenchError("not enough safe minority points to convert to rare")
    chosen = rng.choice(eligible, size=count, replace=False)

    dims = points.shape[1]
    exclusion = RARE_EXCLUSION_SIGMA * sub_sigma
    ball = RARE_BALL_SIGMA * sub_sigma
    placed = 0
    attempts = 0
    while placed < count:
        group = 1
        if count - placed >= 2 and rng.random() < RARE_PAIR_PROBABILITY:
            group = 2
        while True:
            if attempts >= _MAX_ATTEMPTS:
                raise SkewbenchError("rare placement infeasible within attempt budget")
            attempts += 1
            center = majority_centers[rng.integers(len(majority_centers))]
            direction = _unit_vectors(rng, 1, dims)[0]
            radius = ball * rng.random() ** (1.0 / dims)
            locus = center + radius * direction
            if group == 1:
                candidate = locus[None, :]
            else:
                jitter = RARE_PAIR_JITTER_SIGMA * sub_sigma * rng.standard_normal((2, dims))
                candidate = locus[None, :] + jitter
            gaps = np.sqrt(pairwise_sq(candidate, minority_centers))
            if np.all(gaps > exclusion):
                break
        for row in candidate:
            points[chosen[placed]] = row
            kinds[chosen[placed]] = int(ExampleKind.RARE)
            placed += 1
    return points, kinds


def generate_imbalanced(spec: GenSpec) -> tuple[Dataset, GroundTruth]:
    """Run the full generation pipeline for one GenSpec.

    Majority rows come first (label 0), then minority rows (label 1).
    Deterministic: the same spec always yields bit-identical output.
    """
    seed = spec.seed
    n_maj, n_min = spec.class_counts()
    k_min = spec.minority_subclusters
    k_maj = spec.majority_subclusters

    centers = sample_centers(k_min + k_maj, spec.center_box, spec.min_center_separation,
                             seed.child("centers").generator(), spec.dims)
    minority_centers = centers[:k_min]
    majority_centers = centers[k_min:]

    maj_points, maj_assign = generate_blobs(
        majority_centers, _even_split(n_maj, k_maj), spec.sub_sigma,
        seed.child("majority-points").generator())
    min_points, min_assign = generate_blobs(
        minority_centers, _even_split(n_min, k_min), spec.sub_sigma,
        seed.child("minority-points").generator())

    _, n_borderline, n_rare = spec.kind_counts()
    min_points, min_kinds = apply_disturbance(
        min_points, min_assign, minority_centers, spec.sub_sigma, n_borderline,
        seed.child("disturbance").generator())
    min_points, min_kinds = inject_rare(
        min_points, min_kinds, minority_centers, majority_centers, spec.sub_sigma, n_rare,
        seed.child("rare").generator())

    points = np.vstack([maj_points, min_points])
    labels = np.concatenate([np.full(n_maj, MAJORITY_LABEL, dtype=np.int64),
                             np.full(n_min, MINORITY_LABEL, dtype=np.int64)])
    kinds = np.concatenate([np.full(n_maj, int(ExampleKind.MAJORITY), dtype=np.uint8),
                            min_kinds])
    ds = Dataset(points, labels, kinds)
    gt = GroundTruth(minority_centers=minority_centers,
                     majority_centers=majority_centers,
                     subcluster_assignment=np.concatenate([maj_assign, min_assign]))
    return ds, gt
