"""Byte-identity gate: CLI outputs at fixed seeds against committed sha256 digests.

`data/golden_digests.json` pins `experiment` on `configs/smoke.cfg` and on
ALL_METHODS_CONFIG (every method with both classifiers, at counts that leave
remainders across classes, sub-clusters and folds), and, for `gen.dims` = 1,
2, 3 and 9 at seed 5, the file pipeline `generate` -> `resample` (co, ncr,
smote, sparsity) -> `eval` (two runs that between them cover every method)
-> `plot --show-centers` (2-D only, the one dimension `plot` renders).
Together they cover the column-wise and the broadcast branch of
`core.pairwise_sq`, the neighbour top-k and MeanShift. At n = 300 no
`core.nearest` call is large enough for its feature-0 sweep, so each digest
is checked again with `core._BLOCK_BYTES` shrunk until calls go through the
sweep. Each digest is also checked with every query of the neighbour tables
that `evaluate_folds` shares across a unit's folds falling back to
`core.nearest`, scanned and swept. A change that alters one output byte
fails here; only a change meant to alter outputs may rewrite the file:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from skewbench.cli import main

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).parent / "data" / "golden_digests.json"
DIMS = (1, 2, 3, 9)
SEED = "5"
GEN_CONFIG = """\
gen.n_samples = 300
gen.ratio = 4:1
gen.dims = {dims}
gen.disturbance_ratio = 0.2
gen.rare_fraction = 0.1
"""
RESAMPLERS = ("co", "ncr", "smote", "sparsity")
CLASSIFIER_ARGS = ("--classifier", "knn", "--classifier", "tree", "--folds", "3")
EVAL_ARGS = {"eval.txt": ("-m", "base", "-m", "ncr", "-m", "smote", "-m", "co"),
             "eval_ro_sparsity.txt": ("-m", "ro", "-m", "sparsity")}
# 137 rows at 3:1 are 103 majority rows in 2 sub-clusters and 34 minority rows
# in 3, and 4 folds split neither class evenly.
ALL_METHODS_CONFIG = """\
exp.subclusters = 3
exp.sizes = 137
exp.ratios = 3:1
exp.disturbances = 0.2
exp.methods = base,ro,co,smote,ncr,sparsity
exp.classifiers = knn,tree
exp.folds = 4
exp.repeats = 2
exp.seed = 11

gen.majority_subclusters = 2
gen.rare_fraction = 0.1
gen.box = 0,12
gen.min_center_separation = 3.0
"""


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code == 0, f"exit {code}: {argv}"
    return out.getvalue()


def experiment_digests(work: Path, name: str, config: Path) -> dict[str, str]:
    _run(["experiment", "--config", str(config), "--out", str(work / name)])
    return {f"{name}/{file}": _sha((work / name / file).read_bytes())
            for file in ("report.csv", "pivots.txt")}


def smoke_digests(work: Path) -> dict[str, str]:
    return experiment_digests(work, "smoke", ROOT / "configs" / "smoke.cfg")


def all_methods_digests(work: Path) -> dict[str, str]:
    config = work / "all_methods.cfg"
    config.write_text(ALL_METHODS_CONFIG)
    return experiment_digests(work, "all_methods", config)


def pipeline_digests(work: Path, dims: int) -> dict[str, str]:
    cfg = work / f"d{dims}.cfg"
    cfg.write_text(GEN_CONFIG.format(dims=dims))
    data = work / f"d{dims}.csv"
    _run(["generate", "--config", str(cfg), "--seed", SEED, "--out", str(data)])
    files = {"gen.csv": data, "gen_centers.csv": work / f"d{dims}_centers.csv"}
    for method in RESAMPLERS:
        files[f"{method}.csv"] = work / f"d{dims}_{method}.csv"
        _run(["resample", str(data), "--method", method, "--seed", SEED,
              "--out", str(files[f"{method}.csv"])])
    got = {name: _sha(path.read_bytes()) for name, path in files.items()}
    for name, methods in EVAL_ARGS.items():
        got[name] = _sha(_run(["eval", str(data), "--seed", SEED, *methods,
                               *CLASSIFIER_ARGS]).encode())
    if dims == 2:
        svg = work / "d2.svg"
        _run(["plot", str(data), "--show-centers", "--out", str(svg)])
        got["plot.svg"] = _sha(svg.read_bytes())
    return {f"d{dims}/{name}": digest for name, digest in got.items()}


def test_smoke_experiment_matches_golden(tmp_path):
    want = json.loads(DIGESTS.read_text())
    got = smoke_digests(tmp_path)
    assert got == {key: want[key] for key in got}


def test_all_methods_experiment_matches_golden(tmp_path):
    want = json.loads(DIGESTS.read_text())
    got = all_methods_digests(tmp_path)
    assert got == {key: want[key] for key in want if key.startswith("all_methods/")}


@pytest.mark.parametrize("dims", DIMS)
def test_pipeline_matches_golden(tmp_path, dims):
    want = json.loads(DIGESTS.read_text())
    got = pipeline_digests(tmp_path, dims)
    assert got == {key: want[key] for key in want if key.startswith(f"d{dims}/")}


# At 64 KiB the smoke experiment's calls (40 queries against at most 136
# points) still fit one block; 8 KiB sends them through the sweep too. Its
# neighbour table settles every query, so the sweep runs on fallback only.
def test_swept_smoke_experiment_matches_golden(tmp_path, force_sweep, force_table_fallback):
    want = json.loads(DIGESTS.read_text())
    sweeps = force_sweep(8 << 10)
    got = smoke_digests(tmp_path)
    assert got == {key: want[key] for key in got}
    assert sweeps


def test_swept_all_methods_experiment_matches_golden(tmp_path, force_sweep):
    want = json.loads(DIGESTS.read_text())
    sweeps = force_sweep(8 << 10)
    got = all_methods_digests(tmp_path)
    assert got == {key: want[key] for key in want if key.startswith("all_methods/")}
    assert sweeps


@pytest.mark.parametrize("block_kib", [64, 8])
@pytest.mark.parametrize("dims", DIMS)
def test_swept_pipeline_matches_golden(tmp_path, force_sweep, dims, block_kib):
    want = json.loads(DIGESTS.read_text())
    sweeps = force_sweep(block_kib << 10)
    got = pipeline_digests(tmp_path, dims)
    assert got == {key: want[key] for key in want if key.startswith(f"d{dims}/")}
    assert sweeps


# Every run digested above shares a neighbour table in some unit or `eval`;
# with each table query sent to `core.nearest` the bytes must not move,
# whether that call scans or sweeps.
@pytest.mark.parametrize("block_kib", [None, 8])
@pytest.mark.parametrize("run", ["smoke", "all_methods", *(f"d{dims}" for dims in DIMS)])
def test_table_fallback_matches_golden(tmp_path, force_sweep, force_table_fallback,
                                       run, block_kib):
    want = json.loads(DIGESTS.read_text())
    if block_kib is not None:
        force_sweep(block_kib << 10)
    if run == "smoke":
        got = smoke_digests(tmp_path)
    elif run == "all_methods":
        got = all_methods_digests(tmp_path)
    else:
        got = pipeline_digests(tmp_path, int(run[1:]))
    assert got == {key: want[key] for key in want if key.startswith(f"{run}/")}
    assert force_table_fallback


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        digests = smoke_digests(work) | all_methods_digests(work)
        for dims in DIMS:
            digests.update(pipeline_digests(work, dims))
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
