"""Command-line front end: generate, resample, eval, experiment, plot.

Exit codes: 0 success, 1 runtime or data error, 2 usage or config error.
Every subcommand that takes --seed is byte-deterministic across runs.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
from pathlib import Path

from .config import (ConfigError, GEN_DEFAULTS, build_classifier,
                     build_experiment_spec, build_gen_spec, build_method,
                     load_config)
from .core import _BLOCK_BYTES, Dataset, RngSeed, SkewbenchError, summarize
from .datagen import generate_imbalanced
from .evaluation import (METRIC_NAMES, ExperimentSpec, aggregate, all_pivots_text,
                         evaluate_folds, report_to_csv_text, run_experiment,
                         stratified_kfold)
from .io import read_dataset_csv, write_dataset_csv, write_ground_truth_csv
from .plotting import scatter_svg
from .resample import METHOD_NAMES


def _summary_block(ds: Dataset) -> str:
    s = summarize(ds)
    return "\n".join([
        f"Number of samples: {ds.n}",
        f"Number of features: {ds.d}",
        f"Majority class label: {s.majority_label}",
        f"Number of majority class samples: {s.counts[s.majority_label]}",
        f"Minority class label: {s.minority_label}",
        f"Number of Minority class sample: {s.counts[s.minority_label]}",
        f"Imbalance Ratio : {s.imbalance_ratio:.1f}",
    ])


def _names(configs) -> list[str]:
    return [config.name for config in configs]


def _load_cfg(args) -> dict[str, str]:
    return load_config(args.config) if args.config else {}


def cmd_generate(args) -> int:
    cfg = _load_cfg(args)
    spec = build_gen_spec(cfg, seed=args.seed)
    ds, gt = generate_imbalanced(spec)
    out = Path(args.out)
    sidecar = out.with_name(out.stem + "_centers" + (out.suffix or ".csv"))
    write_dataset_csv(ds, out)
    write_ground_truth_csv(gt, sidecar)
    s = summarize(ds)
    print(f"majority / minority: {s.counts[s.majority_label]} / "
          f"{s.counts[s.minority_label]}, IR {s.imbalance_ratio:.1f}")
    safe, borderline, rare = spec.kind_counts()
    print(f"minority kinds: safe={safe} borderline={borderline} rare={rare}")
    print(f"wrote {out} and {sidecar}")
    return 0


def cmd_resample(args) -> int:
    cfg = _load_cfg(args)
    method = build_method(args.method, cfg)
    ds = read_dataset_csv(args.input)
    before = _summary_block(ds)  # refuses data without exactly two classes
    rng = RngSeed(args.seed or 0).child("cli-resample").generator()
    out_ds = method.apply(ds, rng)
    write_dataset_csv(out_ds, args.out)
    print("--- before ---")
    print(before)
    print("--- after ---")
    print(_summary_block(out_ds))
    print(f"wrote {args.out}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    ds = read_dataset_csv(args.input)
    methods = tuple(build_method(name, cfg)
                    for name in args.method or _names(ExperimentSpec.methods))
    classifiers = tuple(build_classifier(name, cfg)
                        for name in args.classifier or _names(ExperimentSpec.classifiers))
    seed = RngSeed(args.seed or 0)
    assignment = stratified_kfold(ds, args.folds, seed.child("folds"))
    results = evaluate_folds(ds, assignment, methods, classifiers, seed.child("eval"))
    print("method,classifier," + ",".join(f"{m}_mean,{m}_std" for m in METRIC_NAMES))
    for method in methods:
        for clf in classifiers:
            means, stds = aggregate(results[(method.name, clf.name)])
            cells = [f"{stat[m]:.6f}" for m in METRIC_NAMES for stat in (means, stds)]
            print(",".join([method.name, clf.name] + cells))
    return 0


def cmd_experiment(args) -> int:
    if not args.config:
        raise ConfigError("experiment requires --config")
    cfg = load_config(args.config)
    spec = build_experiment_spec(cfg, seed=args.seed)
    report = run_experiment(spec, progress=lambda msg: print(msg, file=sys.stderr))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.csv").write_text(report_to_csv_text(report),
                                        encoding="ascii", newline="\n")
    (out_dir / "pivots.txt").write_text(all_pivots_text(report),
                                        encoding="ascii", newline="\n")
    if report.error_count:
        print(f"warning: {report.error_count} report rows carry cell errors",
              file=sys.stderr)
    print(f"wrote {out_dir / 'report.csv'} and {out_dir / 'pivots.txt'}",
          file=sys.stderr)
    return 0


def cmd_plot(args) -> int:
    ds = read_dataset_csv(args.input)
    svg = scatter_svg(ds, show_centers=args.show_centers, show_kinds=args.show_kinds)
    Path(args.out).write_text(svg, encoding="ascii", newline="\n")
    return 0


def _add_common(parser: argparse.ArgumentParser, out_help: str) -> None:
    parser.add_argument("--config", "-c", help="key = value config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", "-o", required=True, help=out_help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewbench",
        description="Generate, resample, and benchmark imbalanced two-class data.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen_defaults = ", ".join(f"{k}={v}" for k, v in sorted(GEN_DEFAULTS.items()))
    p = sub.add_parser("generate", help="synthesize a dataset CSV plus ground-truth sidecar",
                       description=f"Generator config defaults: {gen_defaults}")
    _add_common(p, out_help="dataset CSV path (sidecar written next to it)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("resample", help="apply one resampling method to a dataset CSV")
    p.add_argument("input", help="input dataset CSV")
    p.add_argument("--method", "-m", required=True,
                   help=f"one of: {', '.join(METHOD_NAMES)}")
    _add_common(p, out_help="output dataset CSV")
    p.set_defaults(func=cmd_resample)

    p = sub.add_parser("eval", help="cross-validate methods and classifiers on a CSV")
    p.add_argument("input", help="input dataset CSV")
    p.add_argument("--method", "-m", action="append", help="repeatable; defaults to "
                   + " and ".join(_names(ExperimentSpec.methods)))
    p.add_argument("--classifier", action="append", help="repeatable; defaults to "
                   + " and ".join(_names(ExperimentSpec.classifiers)))
    p.add_argument("--folds", type=int, default=ExperimentSpec.folds)
    p.add_argument("--config", "-c", help="key = value config file")
    p.add_argument("--seed", type=int, help="cross-validation seed")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("experiment", help="run a full experiment grid")
    _add_common(p, out_help="output directory for report.csv and pivots.txt")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("plot", help="render a 2-D dataset as an SVG scatter")
    p.add_argument("input", help="input dataset CSV")
    p.add_argument("--show-centers", action="store_true",
                   help="mark MeanShift centers with crosses")
    p.add_argument("--show-kinds", action="store_true",
                   help="ring borderline (dashed) and rare (double) minority points")
    p.add_argument("--out", "-o", required=True, help="output SVG path")
    p.set_defaults(func=cmd_plot)
    return parser


# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Have glibc keep freed numpy temporaries in the heap for the next block.

    The row blocks of `nearest` and the level passes of `tree_fit` allocate
    and free temporaries of up to about _BLOCK_BYTES thousands of times per
    run. With glibc's defaults the larger ones are mapped afresh or trimmed
    off the top of the heap when freed, so each reuse faults its pages back
    in: about 92000 minor faults per `grid` experiment and 138000 per
    `overlap`, near a tenth of their wall time spent in the kernel on a
    2-vCPU Xeon, at a cost that varies with the machine's load. Blocks of up
    to four _BLOCK_BYTES now come from the heap, which is trimmed only when
    more than 32 _BLOCK_BYTES lie free at its top. Without glibc's `mallopt`
    this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 4 * _BLOCK_BYTES)
    mallopt(_M_TRIM_THRESHOLD, 32 * _BLOCK_BYTES)


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SkewbenchError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
