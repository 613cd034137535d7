"""Confusion metrics, rank AUC, stratified cross-validation, experiment grids.

The experiment runner reproduces the benchmark layout: a grid of generator
cells (sub-cluster count x sample size x ratio x disturbance), each crossed
with resampling methods and classifiers under repeated stratified k-fold CV.
Resampling is applied strictly inside the training folds. Work units run one
after another, and each draws its randomness from seeds derived from the
master seed and the unit's position, so reports are byte-identical across runs.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, replace
from functools import partial

import numpy as np

from .classify import ClassifierConfig, KnnClassifier, TreeClassifier
from .core import ConfigError, Dataset, RngSeed, SkewbenchError, as_seed, summarize
from .datagen import GenSpec, generate_imbalanced
from .resample import CO, NCR, RO, Base, MethodConfig, check_spread

METRIC_NAMES = ("sensitivity", "specificity", "accuracy", "gmean", "auc")


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
    """1-based ranks; a run of equal values at sorted positions i..j gets (i + j) / 2 + 1."""
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    starts = np.flatnonzero(np.concatenate([[True], sorted_vals[1:] != sorted_vals[:-1]]))
    runs = np.diff(np.append(starts, len(values)))
    ends = starts + runs - 1
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, runs)
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
        raise ConfigError("folds must be >= 2")
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
                   seed: RngSeed, subclusters_full: np.ndarray | None = None,
                   ) -> dict[tuple[str, str], list[Metrics]]:
    """One CV pass: resample each training fold, evaluate on the raw test fold.

    Every fold's split is built once. Then, one method at a time, every
    training fold is resampled from its own (method, fold) stream, each
    classifier gets all of those sets in one `fit_predict_many` call, and the
    folds are scored in fold order. So only one method's resampled sets are
    held at once, and the first failure raised is that of the first failing
    method: a failure of the resampler on any fold before one of a classifier.
    The minority label comes from the class counts of `ds`, once for all folds.
    `subclusters_full` optionally carries per-row sub-cluster ids (ground
    truth) for cluster-aware methods; only the minority entries are used.

    Every set made of copied rows of `ds` records which row each of its rows
    copies, so the tree fits RO and CO sets on their distinct rows. Where
    `_shares_table` says so, `ds` also gets one neighbour table, which every
    fold's training and test rows carry: NCR and the k-NN vote find their
    neighbours there.
    """
    _check_distinct(methods, classifiers)
    minority = summarize(ds).minority_label
    ds = ds.with_neighbour_table() if _shares_table(methods, classifiers) else ds.with_rows()
    folds = range(int(fold_assignment.max()) + 1)
    trains, clusters, tests = [], [], []
    for fold in folds:
        train_rows = np.flatnonzero(fold_assignment != fold)
        test_rows = np.flatnonzero(fold_assignment == fold)
        trains.append(ds.subset(train_rows))
        tests.append(ds.subset(test_rows))
        clusters.append(None if subclusters_full is None else
                        subclusters_full[train_rows][trains[-1].labels == minority])
    results: dict[tuple[str, str], list[Metrics]] = {
        (m.name, c.name): [] for m in methods for c in classifiers}
    for m_index, method in enumerate(methods):
        resampled = [method.apply(trains[fold],
                                  seed.child("method", m_index).child("fold", fold).generator(),
                                  minority_clusters=clusters[fold]) for fold in folds]
        for clf in classifiers:
            outputs = clf.fit_predict_many(resampled, minority, tests)
            results[(method.name, clf.name)].extend(
                replace(metrics_from(confusion(truth, pred, minority)),
                        auc=auc(scores, truth, minority))
                for (pred, scores), truth in zip(outputs, (t.labels for t in tests)))
    return results


def _check_distinct(methods: tuple[MethodConfig, ...],
                   classifiers: tuple[ClassifierConfig, ...]) -> None:
    """Refuse a method or classifier named twice: results are kept by name."""
    for what, configs in (("method", methods), ("classifier", classifiers)):
        names = [config.name for config in configs]
        for name in names:
            if names.count(name) > 1:
                raise ConfigError(f"{what} {name!r} is listed twice")


def _shares_table(methods: tuple[MethodConfig, ...],
                 classifiers: tuple[ClassifierConfig, ...]) -> bool:
    """Whether a unit's folds pay for one neighbour table over all its rows.

    NCR takes a k-NN vote on every training fold, and the k-NN classifier on
    every set that base, RO, CO and NCR make of copied rows; SMOTE and
    Sparsity make new points. The table costs about n^2 pairs, and k-NN
    predict on one such method about 0.8 n^2 over its folds, so one k-NN
    method alone keeps `nearest`. On `grid` units (base with k-NN, seed 42,
    best of 7 x 10, 2 vCPUs) the five folds took 0.69 ms direct against
    1.79 ms through a table at n = 200, 1.39 against 4.28 ms at 400, and
    3.10 against 5.83 ms at 600.
    """
    copied = sum(isinstance(m, (Base, RO, CO, NCR)) for m in methods)
    knn = any(isinstance(c, KnnClassifier) for c in classifiers)
    return any(isinstance(m, NCR) for m in methods) or (knn and copied >= 2)


@dataclass(frozen=True)
class CellKey:
    subclusters: int
    size: int
    ratio: tuple[int, int]
    disturbance: float

    # (GenSpec field, ExperimentSpec field that sets it): the fields above, then the seed.
    GEN_FIELDS = (("minority_subclusters", "subclusters"), ("n_samples", "sizes"),
                  ("class_ratio", "ratios"), ("disturbance_ratio", "disturbances"),
                  ("seed", "seed"))

    def describe(self) -> str:
        return (f"subclusters={self.subclusters} size={self.size} "
                f"ratio={self.ratio[0]}:{self.ratio[1]} disturbance={self.disturbance:g}")


@dataclass(frozen=True)
class ExperimentSpec:
    """The grid axes and CV protocol, plus the generator settings every cell shares.

    Each cell generates from `template` with its own CellKey.GEN_FIELDS; every
    cell's GenSpec is built here, so a cell that cannot run is refused up front.
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
        if self.repeats < 1:
            raise SkewbenchError("repeats must be >= 1")
        if self.folds < 2:
            raise SkewbenchError("folds must be >= 2")
        _check_distinct(self.methods, self.classifiers)
        for method in self.methods:
            check_spread(method, self.template.span(), self.template.dims)
        for cell in self.cells():
            _cell_gen_spec(partial(replace, self.template), cell, self.template.seed)

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


def _cell_gen_spec(build, cell: CellKey, seed: RngSeed | int) -> GenSpec:
    """`build` (GenSpec fields to GenSpec) given the cell's fields; a refusal names the cell."""
    try:
        return build(**{name: v for (name, _), v in zip(cell.GEN_FIELDS, (*astuple(cell), seed))})
    except SkewbenchError as exc:
        raise ConfigError(f"experiment cell {cell.describe()}: {exc}") from None


def _run_unit(spec: ExperimentSpec, cell: CellKey, cell_index: int, repeat: int,
              ) -> dict[tuple[str, str], list[Metrics]]:
    unit_seed = RngSeed(spec.seed).child("cell", cell_index).child("repeat", repeat)
    gen = _cell_gen_spec(partial(replace, spec.template), cell, unit_seed.child("data"))
    ds, gt = generate_imbalanced(gen)
    assignment = stratified_kfold(ds, spec.folds, unit_seed.child("folds"))
    return evaluate_folds(ds, assignment, spec.methods, spec.classifiers,
                          unit_seed, subclusters_full=gt.subcluster_assignment)


def aggregate(values: list[Metrics]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-metric mean and population std of `values`; NaN when there are none."""
    means: dict[str, float] = {}
    stds: dict[str, float] = {}
    for metric in METRIC_NAMES:
        data = np.array([getattr(v, metric) for v in values])
        means[metric] = float(data.mean()) if len(data) else float("nan")
        stds[metric] = float(data.std()) if len(data) else float("nan")
    return means, stds


def run_experiment(spec: ExperimentSpec, threads: int = 1,
                   progress=None) -> ExperimentReport:
    """Run the full grid; failures are recorded per cell, never raised.

    Work units are (cell, repeat) pairs, run one after another in index order.
    Each unit is called through the module-global `_run_unit`, so a profiler
    that rebinds that name sees every unit. `threads` accepts only 1: it stays
    for perfbench's `run_experiment(spec, threads=1)` and goes when ROADMAP
    item 8(a) moves that call.
    """
    if threads != 1:
        raise ConfigError(f"units run one at a time: threads must be 1, got {threads}")
    cells = spec.cells()
    rows: list[ReportRow] = []
    for ci, cell in enumerate(cells):
        collected: dict[tuple[str, str], list[Metrics]] = {
            (m.name, c.name): [] for m in spec.methods for c in spec.classifiers}
        errors: list[str] = []
        for r in range(spec.repeats):
            try:
                result = _run_unit(spec, cell, ci, r)
            except SkewbenchError as exc:
                errors.append(f"repeat {r}: {exc}")
                continue
            for key, values in result.items():
                collected[key].extend(values)
        if progress is not None:
            progress(f"cell {ci + 1}/{len(cells)} finished ({cell.describe()})")
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
