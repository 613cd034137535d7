"""Byte-identity gate: CLI outputs at fixed seeds against committed sha256 digests.

`data/golden_digests.json` pins `experiment` on `configs/smoke.cfg` and, for
`gen.dims` = 1, 2, 3 and 9 at seed 5, the file pipeline `generate` ->
`resample` (co, ncr, smote, sparsity) -> `eval` -> `plot --show-centers`
(2-D only, the one dimension `plot` renders). Together they cover the
column-wise and the broadcast branch of `core.pairwise_sq`, the neighbour
top-k and MeanShift. At n = 300 no `core.nearest` call is large enough for
its feature-0 sweep, so each digest is checked again with `core._BLOCK_BYTES`
shrunk until calls go through the sweep. A change that alters one output
byte fails here; only a change meant to alter outputs may rewrite the file:

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
EVAL_ARGS = ("-m", "base", "-m", "ncr", "-m", "smote", "-m", "co",
             "--classifier", "knn", "--classifier", "tree", "--folds", "3")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code == 0, f"exit {code}: {argv}"
    return out.getvalue()


def smoke_digests(work: Path) -> dict[str, str]:
    _run(["experiment", "--config", str(ROOT / "configs" / "smoke.cfg"),
          "--out", str(work / "smoke")])
    return {f"smoke/{name}": _sha((work / "smoke" / name).read_bytes())
            for name in ("report.csv", "pivots.txt")}


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
    got["eval.txt"] = _sha(_run(["eval", str(data), "--seed", SEED, *EVAL_ARGS]).encode())
    if dims == 2:
        svg = work / "d2.svg"
        _run(["plot", str(data), "--show-centers", "--out", str(svg)])
        got["plot.svg"] = _sha(svg.read_bytes())
    return {f"d{dims}/{name}": digest for name, digest in got.items()}


def test_smoke_experiment_matches_golden(tmp_path):
    want = json.loads(DIGESTS.read_text())
    got = smoke_digests(tmp_path)
    assert got == {key: want[key] for key in got}


@pytest.mark.parametrize("dims", DIMS)
def test_pipeline_matches_golden(tmp_path, dims):
    want = json.loads(DIGESTS.read_text())
    got = pipeline_digests(tmp_path, dims)
    assert got == {key: want[key] for key in want if key.startswith(f"d{dims}/")}


# At 64 KiB the smoke experiment's calls (40 queries against at most 136
# points) still fit one block; 8 KiB sends them through the sweep too.
def test_swept_smoke_experiment_matches_golden(tmp_path, force_sweep):
    want = json.loads(DIGESTS.read_text())
    sweeps = force_sweep(8 << 10)
    got = smoke_digests(tmp_path)
    assert got == {key: want[key] for key in got}
    assert sweeps


@pytest.mark.parametrize("block_kib", [64, 8])
@pytest.mark.parametrize("dims", DIMS)
def test_swept_pipeline_matches_golden(tmp_path, force_sweep, dims, block_kib):
    want = json.loads(DIGESTS.read_text())
    sweeps = force_sweep(block_kib << 10)
    got = pipeline_digests(tmp_path, dims)
    assert got == {key: want[key] for key in want if key.startswith(f"d{dims}/")}
    assert sweeps


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        digests = smoke_digests(work)
        for dims in DIMS:
            digests.update(pipeline_digests(work, dims))
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
