"""Self-tests for the benchmark's own code: python3 -m pytest perfbench"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402
from workloads import (WORKLOADS, count_outcome, digest_mismatches,  # noqa: E402
                       output_digests)


def test_self_time_subtracts_direct_children_and_counter_time():
    spans = [
        Span(0, None, "a", 0.0, 10.0),
        Span(1, 0, "b", 1.0, 6.0),
        Span(2, 1, "c", 2.0, 3.0),
        Span(3, 0, "d", 7.0, 9.0, hook_s=0.5),
        Span(4, None, "a", 20.0, 21.0),
    ]
    assert tracing.self_times(spans) == pytest.approx(
        {"a": 3.0 + 1.0, "b": 4.0, "c": 1.0, "d": 1.5})


def test_recorder_nests_spans_per_call():
    ticks = itertools.count()
    rec = tracing.Recorder(clock=lambda: float(next(ticks)), cpu_clock=lambda: 0.0)
    inner = rec.wrap("inner", lambda x: x + 1, lambda result, x: {"rows": result})
    outer = rec.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    by_name = {s.name: s for s in rec.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["inner"].counters == {"rows": 2}
    # ticks: outer start 0, inner start 1 / returned 2 / end 3, outer returned 4 / end 5
    assert tracing.self_times(rec.spans) == {"inner": 1.0, "outer": 2.0}
    summary = tracing.summarize(rec.spans)
    assert summary["layers"]["inner"]["calls"] == 1
    assert summary["layers"]["inner"]["counters"] == {"rows": 2}


def test_failed_call_is_recorded_and_reraised():
    rec = tracing.Recorder()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        rec.wrap("boom", boom)()
    assert [s.failed for s in rec.spans] == [True]


def test_every_emitted_metric_name_follows_the_rule_and_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = run.per_layer_names()
    emitted, _ = run.layer_metrics({"layers": {}, "units": []}, {}, 1.0, 1.0, 1)
    assert list(emitted) == [name for name, _ in per_layer]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert tracing.NAME_RE.fullmatch(name), name
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_unit_percentiles_need_ten_samples_beyond_p90():
    units = [{"wall_s": i / 1000.0, "cpu_s": i / 2000.0, "failed": False} for i in range(1, 101)]
    metrics, notes = run.layer_metrics({"layers": {}, "units": units}, {}, 2.0, 3.0, 2)
    assert metrics["evaluation.unit_p90_ms"][0] > metrics["evaluation.unit_p50_ms"][0] > 0
    assert metrics["evaluation.unit_cpu_share"][0] == pytest.approx(0.5)
    assert metrics["trace.overhead"][0] == pytest.approx(1.5)
    assert notes["not_measured"] == []
    metrics, notes = run.layer_metrics({"layers": {}, "units": units[:20]}, {}, 1.0, 1.0, 1)
    assert metrics["evaluation.unit_p90_ms"][0] == 0.0
    assert notes["not_measured"] == ["evaluation.unit_p90_ms"]


def test_digest_check_catches_a_one_byte_change(tmp_path):
    workload = WORKLOADS["overlap"]
    (tmp_path / "out").mkdir()
    rows = ["subclusters,size,ratio,disturbance,method,classifier,n_evals"]
    rows += [f"3,800,7:1,0.5,{m},{c},100" for m in ("base", "ro", "co", "ncr")
             for c in ("knn", "tree")]
    (tmp_path / "out" / "report.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "out" / "pivots.txt").write_text("pivot\n")
    expected = output_digests(workload, 42, tmp_path)
    assert digest_mismatches(expected, expected) == []
    assert count_outcome(workload, 42, tmp_path, [0], []).failed == 0

    data = bytearray((tmp_path / "out" / "pivots.txt").read_bytes())
    data[0] ^= 1
    (tmp_path / "out" / "pivots.txt").write_bytes(bytes(data))
    bad = digest_mismatches(expected, output_digests(workload, 42, tmp_path))
    assert bad == ["out/pivots.txt"]
    assert count_outcome(workload, 42, tmp_path, [0], bad).failed == 20


def test_failed_units_are_read_from_n_evals(tmp_path):
    workload = WORKLOADS["overlap"]
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "report.csv").write_text(
        "header\n3,800,7:1,0.5,base,knn,90,\n3,800,7:1,0.5,base,tree,90,\n")
    outcome = count_outcome(workload, 42, tmp_path, [0], [])
    assert (outcome.attempted, outcome.failed, outcome.evals) == (20, 2, 180)


def _bindings():
    """Every (module, name) in skewbench that holds one of the layer functions."""
    import importlib
    importlib.import_module("skewbench.cli")
    originals = {id(getattr(importlib.import_module(m), f)) for m, f, _, _ in tracing.LAYERS}
    return {(mod, name): value for mod_name, mod in list(sys.modules.items())
            if mod_name.split(".")[0] == "skewbench"
            for name, value in vars(mod).items() if id(value) in originals}


def test_wrappers_reach_by_name_imports_and_are_restored():
    from skewbench.evaluation import ExperimentSpec, KnnClassifier, TreeClassifier, \
        run_experiment
    before = _bindings()
    rec = tracing.Recorder()
    with tracing.patched(rec.wrap) as patches:
        assert len(patches) == len(before)
        for (module, name), original in before.items():
            assert getattr(module, name) is not original
        spec = ExperimentSpec(subclusters=(2,), sizes=(120,), ratios=((5, 1),),
                              disturbances=(0.0,), classifiers=(KnnClassifier(),
                                                                TreeClassifier()),
                              folds=3, repeats=1, seed=3)
        run_experiment(spec, threads=1)
    for (module, name), original in before.items():
        assert getattr(module, name) is original
    layers = tracing.summarize(rec.spans)["layers"]
    for layer in ("classify.tree_fit", "classify.knn_predict_batch", "evaluation.unit",
                  "datagen.generate_imbalanced", "evaluation.metrics"):
        assert layers[layer]["calls"] > 0, layer
    assert layers["classify.tree_fit"]["calls"] == 3


def test_peak_meter_folds_nested_peaks_into_the_caller():
    meter = tracing.PeakMeter()
    inner = meter.wrap("inner", lambda: np.ones(4 * 2**20 // 8).sum())
    outer = meter.wrap("outer", lambda: (np.ones(2 * 2**20 // 8), inner())[1])
    outer()
    mb = {k: v / 2**20 for k, v in meter.peaks.items()}
    assert 3.9 < mb["inner"] < 4.5
    assert 5.9 < mb["outer"] < 7.0


def test_run_refuses_a_directory_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_layer_without_calls_fails_the_traced_run():
    empty, _ = run.layer_metrics({"layers": {}, "units": []}, {}, 1.0, 1.0, 1)
    workload = WORKLOADS["cli_large"]
    missing = run.missing_layers(workload, empty)
    assert "resample.ncr.self_s" in missing and "resample.ncr.peak_mb" in missing
    assert len(missing) == len(workload.layers) + len(workload.peak_layers)


def test_wrappers_are_restored_when_wrapping_fails_part_way():
    before = _bindings()
    broken = tracing.LAYERS + (("skewbench.evaluation", "no_such_function", "x.y", None),)
    with pytest.raises(AttributeError):
        with tracing.patched(tracing.Recorder().wrap, broken):
            pass
    for (module, name), original in before.items():
        assert getattr(module, name) is original
