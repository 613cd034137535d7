"""Confusion metrics, rank AUC, stratified cross-validation, experiment grids.

The experiment runner reproduces the benchmark layout: a grid of generator
cells (sub-cluster count x sample size x ratio x disturbance), each crossed
with resampling methods and classifiers under repeated stratified k-fold CV.
Resampling is applied strictly inside the training folds. Every work unit
draws its randomness from seeds derived from the master seed and the unit's
position, so reports are byte-identical across runs and thread counts.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .classify import ClassifierConfig, KnnClassifier, TreeClassifier
from .core import Dataset, RngSeed, SkewbenchError, as_seed, summarize
from .datagen import GenSpec, generate_imbalanced
from .resample import Base, MethodConfig, check_spread

METRIC_NAMES = ("sensitivity", "specificity", "accuracy", "gmean", "auc")

THREADS_ENV_VAR = "SKEWBENCH_THREADS"


@dataclass(frozen=True)
class ConfusionMatrix:
    """Binary counts with the minority class as positive."""

    tp: int
    fn: int
    tn: int
    fp: int


@dataclass(frozen=True)
class Metrics:
    sensitivity: float
    specificity: float
    accuracy: float
    gmean: float
    auc: float = float("nan")


def confusion(truth, pred, minority: int) -> ConfusionMatrix:
    t = np.asarray(truth)
    p = np.asarray(pred)
    if t.shape != p.shape or t.ndim != 1:
        raise SkewbenchError("truth and prediction lengths differ")
    pos = t == minority
    hit = p == minority
    return ConfusionMatrix(
        tp=int(np.sum(pos & hit)),
        fn=int(np.sum(pos & ~hit)),
        tn=int(np.sum(~pos & ~hit)),
        fp=int(np.sum(~pos & hit)),
    )


def gmean(sensitivity: float, specificity: float) -> float:
    return math.sqrt(sensitivity * specificity)


def metrics_from(cm: ConfusionMatrix) -> Metrics:
    """All confusion-derived metrics; AUC stays NaN until scores are ranked."""
    pos = cm.tp + cm.fn
    neg = cm.tn + cm.fp
    if pos == 0 or neg == 0:
        raise SkewbenchError("fold lacks a class: cannot compute class rates")
    sens = cm.tp / pos
    spec = cm.tn / neg
    return Metrics(
        sensitivity=sens,
        specificity=spec,
        accuracy=(cm.tp + cm.tn) / (pos + neg),
        gmean=gmean(sens, spec),
    )


def _midranks(values: np.ndarray) -> np.ndarray:
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


def auc(scores, truth, minority: int) -> float:
    """Area under ROC via the rank (Mann-Whitney) statistic, ties counted 1/2."""
    s = np.asarray(scores, dtype=np.float64)
    t = np.asarray(truth)
    if s.shape != t.shape or s.ndim != 1:
        raise SkewbenchError("scores and truth lengths differ")
    pos = t == minority
    n_pos = int(pos.sum())
    n_neg = len(t) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SkewbenchError("fold lacks a class: AUC needs both classes")
    ranks = _midranks(s)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def stratified_kfold(ds: Dataset, folds: int, seed: RngSeed | int) -> np.ndarray:
    """Per-class shuffled round-robin fold assignment.

    Guarantees per-class fold sizes differ by at most one, so every fold holds
    both classes whenever the minority count reaches the fold count.
    """
    if folds < 2:
        raise SkewbenchError("folds must be >= 2")
    s = summarize(ds)
    if s.counts[s.minority_label] < folds:
        raise SkewbenchError(
            f"minority count {s.counts[s.minority_label]} smaller than folds={folds}")
    rng = as_seed(seed).generator()
    assignment = np.empty(ds.n, dtype=np.int64)
    for label in sorted(s.counts):
        rows = np.flatnonzero(ds.labels == label)
        perm = rng.permutation(rows)
        assignment[perm] = np.arange(len(perm)) % folds
    return assignment


def evaluate_folds(ds: Dataset, fold_assignment: np.ndarray,
                   methods: tuple[MethodConfig, ...],
                   classifiers: tuple[ClassifierConfig, ...],
                   seed: RngSeed, minority: int,
                   subclusters_full: np.ndarray | None = None,
                   ) -> dict[tuple[str, str], list[Metrics]]:
    """One CV pass: resample each training fold, evaluate on the raw test fold.

    `subclusters_full` optionally carries per-row sub-cluster ids (ground
    truth) for cluster-aware methods; only the minority entries are used.
    """
    folds = int(fold_assignment.max()) + 1
    results: dict[tuple[str, str], list[Metrics]] = {
        (m.name, c.name): [] for m in methods for c in classifiers}
    for fold in range(folds):
        train_rows = np.flatnonzero(fold_assignment != fold)
        test_rows = np.flatnonzero(fold_assignment == fold)
        train = ds.subset(train_rows)
        test_points = ds.points[test_rows]
        test_labels = ds.labels[test_rows]
        minority_clusters = None
        if subclusters_full is not None:
            minority_clusters = subclusters_full[train_rows][train.labels == minority]
        for m_index, method in enumerate(methods):
            rng = seed.child("method", m_index).child("fold", fold).generator()
            resampled = method.apply(train, rng, minority_clusters=minority_clusters)
            for clf in classifiers:
                pred, scores = clf.fit_predict(resampled, minority, test_points)
                metrics = metrics_from(confusion(test_labels, pred, minority))
                metrics = replace(metrics, auc=auc(scores, test_labels, minority))
                results[(method.name, clf.name)].append(metrics)
    return results


@dataclass(frozen=True)
class CellKey:
    subclusters: int
    size: int
    ratio: tuple[int, int]
    disturbance: float

    def describe(self) -> str:
        return (f"subclusters={self.subclusters} size={self.size} "
                f"ratio={self.ratio[0]}:{self.ratio[1]} disturbance={self.disturbance:g}")


@dataclass(frozen=True)
class ExperimentSpec:
    """The grid axes and CV protocol, plus the generator settings every cell shares.

    Each cell generates from `template` with its own size, ratio, sub-cluster
    count, disturbance and seed.
    """

    subclusters: tuple[int, ...] = (2,)
    sizes: tuple[int, ...] = (400,)
    ratios: tuple[tuple[int, int], ...] = ((5, 1),)
    disturbances: tuple[float, ...] = (0.0,)
    methods: tuple[MethodConfig, ...] = (Base(),)
    classifiers: tuple[ClassifierConfig, ...] = (KnnClassifier(), TreeClassifier())
    folds: int = 5
    repeats: int = 10
    seed: int = 0
    template: GenSpec = field(default_factory=GenSpec)

    def __post_init__(self) -> None:
        for name in ("subclusters", "sizes", "ratios", "disturbances",
                     "methods", "classifiers"):
            if len(getattr(self, name)) == 0:
                raise SkewbenchError(f"experiment grid field {name} must be nonempty")
        if any(not 0.0 <= d <= 1.0 for d in self.disturbances):
            raise SkewbenchError("experiment disturbances must lie in [0, 1]")
        if self.repeats < 1:
            raise SkewbenchError("repeats must be >= 1")
        if self.folds < 2:
            raise SkewbenchError("folds must be >= 2")
        for method in self.methods:
            check_spread(method, self.template.span(), self.template.dims)

    def cells(self) -> list[CellKey]:
        return [CellKey(sc, size, ratio, dist)
                for sc in self.subclusters
                for size in self.sizes
                for ratio in self.ratios
                for dist in self.disturbances]


@dataclass(frozen=True)
class ReportRow:
    cell: CellKey
    method: str
    classifier: str
    n_evals: int
    means: dict[str, float]
    stds: dict[str, float]
    error: str | None = None


@dataclass(frozen=True)
class ExperimentReport:
    spec: ExperimentSpec
    rows: tuple[ReportRow, ...]

    def row(self, cell: CellKey, method: str, classifier: str) -> ReportRow:
        for r in self.rows:
            if r.cell == cell and r.method == method and r.classifier == classifier:
                return r
        raise KeyError((cell, method, classifier))

    @property
    def error_count(self) -> int:
        return sum(1 for r in self.rows if r.error)


def _cell_gen_spec(spec: ExperimentSpec, cell: CellKey, seed: RngSeed) -> GenSpec:
    # safe_fraction stays derived: a fixed share could not sum to 1 with every
    # disturbance on the grid.
    return replace(spec.template, n_samples=cell.size, class_ratio=cell.ratio, seed=seed,
                   minority_subclusters=cell.subclusters,
                   disturbance_ratio=cell.disturbance, safe_fraction=None)


def _run_unit(spec: ExperimentSpec, cell: CellKey, cell_index: int, repeat: int,
              ) -> dict[tuple[str, str], list[Metrics]]:
    unit_seed = RngSeed(spec.seed).child("cell", cell_index).child("repeat", repeat)
    gen = _cell_gen_spec(spec, cell, unit_seed.child("data"))
    ds, gt = generate_imbalanced(gen)
    minority = summarize(ds).minority_label
    assignment = stratified_kfold(ds, spec.folds, unit_seed.child("folds"))
    return evaluate_folds(ds, assignment, spec.methods, spec.classifiers,
                          unit_seed, minority, subclusters_full=gt.subcluster_assignment)


def aggregate(values: list[Metrics]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-metric mean and population std of `values`; NaN when there are none."""
    means: dict[str, float] = {}
    stds: dict[str, float] = {}
    for metric in METRIC_NAMES:
        data = np.array([getattr(v, metric) for v in values])
        means[metric] = float(data.mean()) if len(data) else float("nan")
        stds[metric] = float(data.std()) if len(data) else float("nan")
    return means, stds


def resolve_threads(threads: int | None = None) -> int:
    """Worker count: explicit argument, else SKEWBENCH_THREADS (0 = auto)."""
    if threads is None:
        raw = os.environ.get(THREADS_ENV_VAR, "1")
        try:
            threads = int(raw)
        except ValueError:
            raise SkewbenchError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}")
    if threads == 0:
        threads = os.cpu_count() or 1
    if threads < 1:
        raise SkewbenchError("thread count must be >= 1 (or 0 for auto)")
    return threads


def run_experiment(spec: ExperimentSpec, threads: int | None = None,
                   progress=None) -> ExperimentReport:
    """Run the full grid; failures are recorded per cell, never raised.

    Work units are (cell, repeat) pairs evaluated in parallel; aggregation
    walks them in index order, so the report does not depend on scheduling.
    """
    cells = spec.cells()
    units = [(ci, r) for ci in range(len(cells)) for r in range(spec.repeats)]
    workers = resolve_threads(threads)

    def run(unit: tuple[int, int]):
        ci, r = unit
        try:
            return unit, _run_unit(spec, cells[ci], ci, r), None
        except SkewbenchError as exc:
            return unit, None, str(exc)

    outcomes: dict[tuple[int, int], tuple[dict | None, str | None]] = {}

    def consume(iterator) -> None:
        for unit, result, error in iterator:
            outcomes[unit] = (result, error)
            if progress is not None and unit[1] == spec.repeats - 1:
                progress(f"cell {unit[0] + 1}/{len(cells)} finished "
                         f"({cells[unit[0]].describe()})")

    if workers == 1:
        consume(map(run, units))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            consume(pool.map(run, units))

    rows: list[ReportRow] = []
    for ci, cell in enumerate(cells):
        collected: dict[tuple[str, str], list[Metrics]] = {
            (m.name, c.name): [] for m in spec.methods for c in spec.classifiers}
        errors: list[str] = []
        for r in range(spec.repeats):
            result, error = outcomes[(ci, r)]
            if error is not None:
                errors.append(f"repeat {r}: {error}")
                continue
            for key, values in result.items():
                collected[key].extend(values)
        for method in spec.methods:
            for clf in spec.classifiers:
                values = collected[(method.name, clf.name)]
                means, stds = aggregate(values)
                rows.append(ReportRow(cell=cell, method=method.name, classifier=clf.name,
                                      n_evals=len(values), means=means, stds=stds,
                                      error="; ".join(errors) if errors else None))
    return ExperimentReport(spec=spec, rows=tuple(rows))


def report_to_csv_text(report: ExperimentReport) -> str:
    header = ["subclusters", "size", "ratio", "disturbance", "method", "classifier",
              "n_evals"]
    for metric in METRIC_NAMES:
        header += [f"{metric}_mean", f"{metric}_std"]
    header.append("error")
    lines = [",".join(header)]
    for row in report.rows:
        cell = row.cell
        parts = [str(cell.subclusters), str(cell.size),
                 f"{cell.ratio[0]}:{cell.ratio[1]}", f"{cell.disturbance:.6g}",
                 row.method, row.classifier, str(row.n_evals)]
        for metric in METRIC_NAMES:
            mean, std = row.means[metric], row.stds[metric]
            parts.append("" if math.isnan(mean) else f"{mean:.6f}")
            parts.append("" if math.isnan(std) else f"{std:.6f}")
        # Error text goes in the last column; strip commas to keep rows parseable.
        parts.append((row.error or "").replace(",", ";"))
        lines.append(",".join(parts))
    return "\n".join(lines) + "\n"


def pivot_text(report: ExperimentReport, metric: str, method: str, classifier: str,
               ratio: tuple[int, int], disturbance: float) -> str:
    """Sub-clusters (rows) by sample size (columns) table of metric means."""
    spec = report.spec
    title = (f"metric={metric} method={method} classifier={classifier} "
             f"ratio={ratio[0]}:{ratio[1]} disturbance={disturbance:g}")
    width = max(8, *(len(str(s)) + 2 for s in spec.sizes))
    header = "subclusters |" + "".join(f"{size:>{width}}" for size in spec.sizes)
    lines = [title, header]
    for sc in spec.subclusters:
        cells = []
        for size in spec.sizes:
            row = report.row(CellKey(sc, size, ratio, disturbance), method, classifier)
            value = row.means[metric]
            cells.append(f"{'n/a':>{width}}" if math.isnan(value)
                         else f"{value:>{width}.4f}")
        lines.append(f"{sc:>11} |" + "".join(cells))
    return "\n".join(lines) + "\n"


def all_pivots_text(report: ExperimentReport) -> str:
    spec = report.spec
    blocks = []
    for metric in METRIC_NAMES:
        for method in spec.methods:
            for clf in spec.classifiers:
                for ratio in spec.ratios:
                    for dist in spec.disturbances:
                        blocks.append(pivot_text(report, metric, method.name,
                                                 clf.name, ratio, dist))
    return "\n".join(blocks)
