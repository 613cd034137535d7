"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 2 and 3 run the shipped experiment configs end to end, so this file
doubles as the reproduction script for the benchmark's headline results.
"""

import math
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from skewbench.cli import main
from skewbench.config import build_experiment_spec, load_config
from skewbench.core import Dataset, RngSeed, summarize
from skewbench.classify import knn_fit, knn_predict_batch
from skewbench.clustering import estimate_bandwidth, mean_shift
from skewbench.datagen import GenSpec, generate_imbalanced
from skewbench.evaluation import (CellKey, ConfusionMatrix, auc, gmean,
                                  metrics_from, run_experiment)
from skewbench.resample import ncr, random_oversample, cluster_oversample

REPO_ROOT = Path(__file__).resolve().parent.parent


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, \
            f"criterion {number} exceeded its {budget_seconds:.0f}s budget"
    except BaseException:
        print(f"\nFAIL criterion {number}: {description}")
        raise
    print(f"\nPASS criterion {number}: {description} ({elapsed:.1f}s)")


def test_criterion_1_resampling_bookkeeping():
    with criterion(1, "resampling bookkeeping on a 316/84 dataset", 1.0):
        ds, gt = generate_imbalanced(GenSpec(n_samples=400, class_ratio=(79, 21),
                                             seed=11, minority_subclusters=2,
                                             disturbance_ratio=0.2,
                                             center_box=(0.0, 14.0),
                                             min_center_separation=3.0))
        assert summarize(ds).counts == {0: 316, 1: 84}

        ro = random_oversample(ds, RngSeed(1).generator())
        s_ro = summarize(ro)
        assert ro.n == 632
        assert s_ro.counts == {0: 316, 1: 316}
        assert s_ro.imbalance_ratio == 1.0

        co = cluster_oversample(ds, RngSeed(2).generator(),
                                clusters=gt.subcluster_assignment[ds.labels == 1])
        s_co = summarize(co)
        assert co.n == 632
        assert s_co.counts == {0: 316, 1: 316}
        assert s_co.imbalance_ratio == 1.0

        cleaned = ncr(ds, k=3)
        s_ncr = summarize(cleaned)
        assert s_ncr.counts[1] == 84
        assert cleaned.n <= 400
        assert s_ncr.imbalance_ratio <= 3.77


def test_criterion_2_subcluster_degradation_trend():
    with criterion(2, "more minority sub-clusters degrade the primary metric "
                      "(AUC) in every size column", 300.0):
        spec = build_experiment_spec(load_config(REPO_ROOT / "configs" / "table31.cfg"))
        report = run_experiment(spec, threads=1)
        assert report.error_count == 0
        for clf in ("knn", "tree"):
            for size in spec.sizes:
                low = report.row(CellKey(2, size, (5, 1), 0.3), "base", clf)
                high = report.row(CellKey(6, size, (5, 1), 0.3), "base", clf)
                # All metrics are reported; the trend is asserted on AUC.
                print(f"  {clf} size={size}: auc {low.means['auc']:.3f} -> "
                      f"{high.means['auc']:.3f}, gmean {low.means['gmean']:.3f} -> "
                      f"{high.means['gmean']:.3f}, accuracy "
                      f"{low.means['accuracy']:.3f} -> {high.means['accuracy']:.3f}")
                assert high.means["auc"] < low.means["auc"]


def test_criterion_3_overlap_study_ncr_claims():
    with criterion(3, "NCR beats Base/RO/CO on sensitivity and G-mean under "
                      "heavy overlap while losing specificity", 600.0):
        spec = build_experiment_spec(load_config(REPO_ROOT / "configs" /
                                                 "overlap_study.cfg"))
        assert spec.repeats == 20
        assert spec.disturbances == (0.5,)  # borderline fraction >= 0.3
        report = run_experiment(spec, threads=1)
        assert report.error_count == 0
        cell = CellKey(3, 800, (7, 1), 0.5)
        for clf in ("knn", "tree"):
            rows = {m: report.row(cell, m, clf) for m in ("base", "ro", "co", "ncr")}
            line = " ".join(
                f"{m}: sens={rows[m].means['sensitivity']:.3f} "
                f"gmean={rows[m].means['gmean']:.3f} "
                f"spec={rows[m].means['specificity']:.3f}" for m in rows)
            print(f"  {clf} {line}")
            for metric in ("sensitivity", "gmean"):
                for other in ("base", "ro", "co"):
                    assert rows["ncr"].means[metric] > rows[other].means[metric], \
                        f"{clf}: ncr {metric} not above {other}"
            assert rows["ncr"].means["specificity"] < rows["base"].means["specificity"]


def test_criterion_4_metric_unit_suite():
    with criterion(4, "metric unit values at 1e-12", 1.0):
        assert abs(gmean(0.81, 0.64) - 0.72) <= 1e-12
        m = metrics_from(ConfusionMatrix(tp=81, fn=19, tn=64, fp=36))
        assert abs(m.gmean - 0.72) <= 1e-12
        assert abs(auc([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0], minority=1) - 0.75) <= 1e-12
        assert abs(auc([0.4] * 8, [1, 1, 0, 0, 0, 0, 0, 0], minority=1) - 0.5) <= 1e-12


def test_criterion_5_oracle_equivalence():
    with criterion(5, "k-NN and NCR match brute-force oracles", 30.0):
        from skewbench.core import nearest

        checked_queries = 0
        for case in range(100):
            rng = RngSeed(5000 + case).generator()
            n = int(rng.integers(10, 61))
            d = int(rng.integers(1, 5))
            # Half the instances live on a coarse lattice to force ties.
            pts = rng.normal(size=(n, d)) * 3
            if case % 2 == 0:
                pts = np.round(pts)
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            ds = Dataset(pts, labels)
            k = int(rng.integers(1, min(n, 8) + 1))
            query = np.round(rng.normal(size=d) * 3) if case % 2 == 0 \
                else rng.normal(size=d)

            order = sorted(range(n),
                           key=lambda i: (float(np.sum((pts[i] - query) ** 2)), i))
            assert nearest(ds.points, query[None, :], k)[0].tolist() == order[:k]

            model = knn_fit(ds, k=k, minority_label=1)
            pred, scores = knn_predict_batch(model, query[None, :])
            votes = sum(1 for i in order[:k] if labels[i] == 1)
            assert pred[0] == (1 if votes * 2 > k else 0)
            assert scores[0] == votes / k
            checked_queries += 1
        assert checked_queries == 100

        for case in range(40):
            rng = RngSeed(6000 + case).generator()
            n_maj = int(rng.integers(12, 30))
            n_min = int(rng.integers(4, 11))
            n = n_maj + n_min
            pts = np.round(rng.normal(size=(n, 2)) * 3)
            labels = np.array([0] * n_maj + [1] * n_min)
            ds = Dataset(pts, labels)
            k = 3
            removed = set()
            neighborhoods = {}
            for i in range(n):
                order = sorted((j for j in range(n) if j != i),
                               key=lambda j: (float(np.sum((pts[j] - pts[i]) ** 2)), j))
                nbrs = order[:k]
                predicted_minority = sum(labels[j] for j in nbrs) * 2 > k
                neighborhoods[i] = (nbrs, predicted_minority)
            for i in range(n):
                nbrs, predicted_minority = neighborhoods[i]
                if labels[i] == 0 and predicted_minority:
                    removed.add(i)
                elif labels[i] == 1 and not predicted_minority:
                    removed.update(j for j in nbrs if labels[j] == 0)
            kept = [i for i in range(n) if i not in removed]
            out = ncr(ds, k=k)
            assert np.array_equal(out.points, pts[kept])
            assert np.array_equal(out.labels, labels[kept])


def test_criterion_6_clustering_recovery():
    with criterion(6, "MeanShift recovers the generated blob count in >= 95% "
                      "of 40 seeded runs", 60.0):
        successes = 0
        runs = 0
        for true_count in range(2, 7):
            for seed in range(8):
                spec = GenSpec(n_samples=480, class_ratio=(5, 1),
                               seed=1000 * true_count + seed,
                               minority_subclusters=true_count - 1,
                               majority_subclusters=1, sub_sigma=1.0,
                               center_box=(0.0, 40.0), min_center_separation=8.0)
                ds, _ = generate_imbalanced(spec)
                bandwidth = estimate_bandwidth(ds.points)
                model = mean_shift(ds.points, bandwidth)
                runs += 1
                successes += int(len(model.centers) == true_count)
        print(f"  recovered {successes}/{runs}")
        assert runs == 40
        assert successes >= math.ceil(0.95 * runs)


def test_criterion_7_byte_determinism(tmp_path, monkeypatch):
    with criterion(7, "seeded commands are byte-identical across runs and "
                      "thread counts 1 and 4", 120.0):
        gen_cfg = tmp_path / "gen.cfg"
        gen_cfg.write_text("gen.n_samples = 200\ngen.ratio = 5:1\n"
                           "gen.disturbance_ratio = 0.3\ngen.rare_fraction = 0.1\n"
                           "gen.box = 0,14\ngen.min_center_separation = 3.0\n")
        outputs: dict[str, list[bytes]] = {}
        for attempt, threads in enumerate(("1", "4")):
            monkeypatch.setenv("SKEWBENCH_THREADS", threads)
            work = tmp_path / f"run{attempt}"
            work.mkdir()
            data = work / "data.csv"
            assert main(["generate", "--config", str(gen_cfg), "--seed", "13",
                         "--out", str(data)]) == 0
            assert main(["resample", str(data), "--method", "smote", "--seed", "3",
                         "--out", str(work / "smote.csv")]) == 0
            assert main(["plot", str(data), "--show-centers", "--show-kinds",
                         "--out", str(work / "plot.svg")]) == 0
            assert main(["experiment", "--config",
                         str(REPO_ROOT / "configs" / "smoke.cfg"),
                         "--out", str(work / "exp")]) == 0
            for name, path in [("data", data),
                               ("centers", work / "data_centers.csv"),
                               ("smote", work / "smote.csv"),
                               ("svg", work / "plot.svg"),
                               ("report", work / "exp" / "report.csv"),
                               ("pivots", work / "exp" / "pivots.txt")]:
                outputs.setdefault(name, []).append(path.read_bytes())
        for name, blobs in outputs.items():
            assert blobs[0] == blobs[1], f"{name} differs across thread counts"
        # Second consecutive run at the same thread count must also be identical.
        monkeypatch.setenv("SKEWBENCH_THREADS", "1")
        rerun = tmp_path / "rerun"
        rerun.mkdir()
        data = rerun / "data.csv"
        assert main(["generate", "--config", str(gen_cfg), "--seed", "13",
                     "--out", str(data)]) == 0
        assert main(["plot", str(data), "--show-centers", "--show-kinds",
                     "--out", str(rerun / "plot.svg")]) == 0
        assert main(["experiment", "--config",
                     str(REPO_ROOT / "configs" / "smoke.cfg"),
                     "--out", str(rerun / "exp")]) == 0
        assert outputs["data"][0] == data.read_bytes()
        assert outputs["svg"][0] == (rerun / "plot.svg").read_bytes()
        assert outputs["report"][0] == (rerun / "exp" / "report.csv").read_bytes()


def test_criterion_8_property_suites_standalone():
    with criterion(8, "randomized property suites (1000 cases) pass standalone",
                   120.0):
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q",
             str(REPO_ROOT / "tests" / "test_properties.py")],
            capture_output=True, text=True, cwd=REPO_ROOT)
        print("  " + (proc.stdout.strip().splitlines() or ["no output"])[-1])
        assert proc.returncode == 0, proc.stdout + proc.stderr
