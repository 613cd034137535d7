"""The benchmark's workloads: generated configs, CLI steps and output checks.

Each workload is driven through the public CLI (`skewbench.cli.main`). The
configs are kept here rather than read from `configs/`, so editing a shipped
config cannot change what the benchmark measures. The overlap and grid
configs are copies of `configs/overlap_study.cfg` and `configs/table31.cfg`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

CONFIG_NAME = "workload.cfg"

OVERLAP_CFG = """\
exp.subclusters = 3
exp.sizes = 800
exp.ratios = 7:1
exp.disturbances = 0.5
exp.methods = base,ro,co,ncr
exp.classifiers = knn,tree
exp.folds = 5
exp.repeats = 20
exp.seed = 42

gen.sub_sigma = 1.0
gen.box = 0,7
gen.min_center_separation = 1.5
gen.majority_subclusters = 3
gen.rare_fraction = 0.2

ncr.k = 9
knn.k = 3
tree.max_depth = 12
tree.min_leaf = 2
"""

GRID_CFG = """\
exp.subclusters = 2,3,4,5,6
exp.sizes = 600,400,200
exp.ratios = 5:1
exp.disturbances = 0.3
exp.methods = base
exp.classifiers = knn,tree
exp.folds = 5
exp.repeats = 10
exp.seed = 42

gen.sub_sigma = 1.0
gen.box = 0,12
gen.min_center_separation = 2.0
gen.majority_subclusters = 5
gen.rare_fraction = 0.0

knn.k = 3
tree.max_depth = 12
tree.min_leaf = 2
"""

LARGE_CFG = """\
gen.n_samples = 4000
gen.ratio = 7:1
gen.minority_subclusters = 3
gen.majority_subclusters = 3
gen.box = 0,10
gen.min_center_separation = 2.0
gen.disturbance_ratio = 0.3
gen.rare_fraction = 0.1
ncr.k = 5
smote.amount_pct = 200
"""

LARGE_RESAMPLERS = ("co", "ncr", "smote", "sparsity")
LARGE_EVAL_METHODS = ("base", "ncr", "smote", "co")


@dataclass(frozen=True)
class Step:
    """One `skewbench` invocation and the files it must leave behind.

    `outputs` names files relative to the work directory; the name
    `<step>.stdout` stands for the step's captured standard output.
    """

    name: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "experiment" (operations are units) or "pipeline" (operations are steps)
    config: str
    threads: int
    default_seed: int = 42
    folds: int = 5
    cells: int = 1
    repeats: int = 1
    # Layers whose metrics the workload is meant to move: the traced run
    # fails if any of them records no calls (or, for peak_layers, no peak).
    layers: tuple[str, ...] = ()
    peak_layers: tuple[str, ...] = ()

    def steps(self, seed: int) -> tuple[Step, ...]:
        s = str(seed)
        if self.kind == "experiment":
            return (Step("experiment",
                         ("experiment", "-c", CONFIG_NAME, "--seed", s, "-o", "out"),
                         ("out/report.csv", "out/pivots.txt")),)
        steps = [Step("generate", ("generate", "-c", CONFIG_NAME, "--seed", s, "-o", "data.csv"),
                      ("data.csv", "data_centers.csv"))]
        for m in LARGE_RESAMPLERS:
            steps.append(Step(f"resample_{m}",
                              ("resample", "data.csv", "-m", m, "-c", CONFIG_NAME,
                               "--seed", s, "-o", f"{m}.csv"),
                              (f"{m}.csv",)))
        eval_argv = ["eval", "data.csv", "-c", CONFIG_NAME, "--seed", s,
                     "--folds", str(self.folds)]
        for m in LARGE_EVAL_METHODS:
            eval_argv += ["-m", m]
        steps.append(Step("eval", tuple(eval_argv), ("eval.stdout",)))
        steps.append(Step("plot", ("plot", "data.csv", "--show-kinds", "-o", "data.svg"),
                          ("data.svg",)))
        return tuple(steps)

    def build_spec(self, cfg: dict[str, str], seed: int):
        """The program's own config-to-spec step, timed as part of set-up."""
        from skewbench.config import build_experiment_spec, build_gen_spec
        if self.kind == "experiment":
            return build_experiment_spec(cfg, seed=seed)
        return build_gen_spec(cfg, seed=seed)


WORKLOADS = {
    w.name: w for w in (
        Workload("overlap", "experiment", OVERLAP_CFG, threads=1, cells=1, repeats=20,
                 layers=("classify.knn_predict_batch", "classify.tree_fit",
                         "classify.tree_predict_batch", "resample.ncr", "resample.ro",
                         "resample.co")),
        Workload("grid", "experiment", GRID_CFG, threads=2, cells=15, repeats=10,
                 layers=("classify.knn_predict_batch", "classify.tree_fit",
                         "classify.tree_predict_batch", "datagen.generate_imbalanced",
                         "evaluation.stratified_kfold", "evaluation.evaluate_folds",
                         "evaluation.metrics")),
        Workload("cli_large", "pipeline", LARGE_CFG, threads=1,
                 layers=("classify.knn_predict_batch", "resample.ncr", "resample.co",
                         "resample.smote", "resample.sparsity",
                         "clustering.estimate_bandwidth", "clustering.mean_shift",
                         "io.write_dataset_csv", "io.read_dataset_csv",
                         "plotting.scatter_svg"),
                 peak_layers=("classify.knn_predict_batch", "resample.ncr",
                              "resample.smote")),
    )
}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_digests(workload: Workload, seed: int, workdir: Path) -> dict[str, str | None]:
    """sha256 of every output the workload's steps leave; None if one is missing."""
    digests: dict[str, str | None] = {}
    for step in workload.steps(seed):
        for name in step.outputs:
            path = workdir / name
            digests[name] = sha256_file(path) if path.is_file() else None
    return digests


def digest_mismatches(expected: dict[str, str], actual: dict[str, str | None]) -> list[str]:
    """Output names whose digest differs from `expected` (missing counts as differing)."""
    return sorted(name for name in expected.keys() | actual.keys()
                  if expected.get(name) is None or expected.get(name) != actual.get(name))


@dataclass(frozen=True)
class Outcome:
    """Operations attempted and failed, and fold evaluations completed, in one iteration."""

    attempted: int
    failed: int
    evals: int


def count_outcome(workload: Workload, seed: int, workdir: Path,
                  step_codes: list[int], bad_outputs: list[str]) -> Outcome:
    """Score one iteration from its exit codes, its outputs and the digest check.

    For an experiment an operation is a (cell, repeat) unit: a cell's failed
    units are `repeats - n_evals / folds`, read from report.csv. A nonzero
    exit or an output that fails the digest check fails every unit. For the
    pipeline an operation is a CLI step, failed by a nonzero exit or by a
    bad output of its own.
    """
    steps = workload.steps(seed)
    if workload.kind == "experiment":
        report = workdir / "out" / "report.csv"
        rows = _csv_rows(report) if report.is_file() else []
        cells: dict[tuple[str, ...], int] = {}
        for row in rows:
            cells.setdefault(tuple(row[:4]), int(row[6]))
        attempted = workload.cells * workload.repeats
        if len(cells) != workload.cells or step_codes != [0] or bad_outputs:
            return Outcome(attempted, attempted, 0)
        failed = sum(workload.repeats - n // workload.folds for n in cells.values())
        return Outcome(attempted, failed, sum(int(row[6]) for row in rows))
    failed = 0
    step_codes = step_codes + [-1] * (len(steps) - len(step_codes))
    for step, code in zip(steps, step_codes):
        if code != 0 or any(name in bad_outputs for name in step.outputs):
            failed += 1
    evals = 0
    eval_out = workdir / "eval.stdout"
    if "eval.stdout" not in bad_outputs and eval_out.is_file():
        evals = len(eval_out.read_text().splitlines()[1:]) * workload.folds
    return Outcome(len(steps), failed, evals)


def _csv_rows(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines[1:] if line]
