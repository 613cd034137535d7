"""skewbench benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload overlap|grid|cli_large --seed N \
        --seconds S --trace 0|1

Run from a checkout that holds `src/skewbench`. Every iteration is a fresh
child process (perfbench/child.py) that drives `skewbench.cli.main`.

--trace 0 runs ten set-up probes, then at least two whole iterations and
more while the next one is expected to end within S seconds, and reports the
end-to-end metrics. --trace 1 ignores S and runs three passes of one
iteration each: an untraced reference, a timing pass with spans around every
layer function, and a tracemalloc pass (one thread) for per-call allocation
peaks; it reports the per-layer metrics.

Every pass's outputs are hashed. At the workload's default seed they must
match expected_digests.json; at other seeds they must match the first
iteration of the run and any earlier run of the same source tree in this
checkout (cached under .perfbench_work/digests). The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import CONFIG_NAME, WORKLOADS, Outcome, Workload, count_outcome, \
    digest_mismatches, output_digests

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 10
MIN_ITERATIONS = 2
RUN_LIMIT_S = 170.0

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("evals_per_s", "1/s"), ("success_rate", "ratio"))

# Per-layer metrics: layer -> fields. A field is calls, self_s, peak_mb or the
# name of a counter that tracing.LAYERS computes; FIELD_UNITS gives its unit.
LAYER_FIELDS = {
    "classify.knn_predict_batch": ("calls", "self_s", "pairs", "peak_mb"),
    "classify.tree_fit": ("calls", "self_s", "rows", "nodes", "depth_max"),
    "classify.tree_predict_batch": ("calls", "self_s"),
    "resample.ncr": ("calls", "self_s", "rows_in", "rows_out", "peak_mb"),
    "resample.ro": ("calls", "self_s", "rows_in", "rows_out"),
    "resample.co": ("calls", "self_s", "rows_in", "rows_out"),
    "resample.smote": ("calls", "self_s", "rows_in", "rows_out", "peak_mb"),
    "resample.sparsity": ("calls", "self_s", "rows_in", "rows_out"),
    "datagen.generate_imbalanced": ("calls", "self_s", "rows"),
    "evaluation.stratified_kfold": ("self_s",),
    "evaluation.evaluate_folds": ("self_s",),
    "evaluation.metrics": ("calls", "self_s"),
    "clustering.estimate_bandwidth": ("calls", "self_s", "peak_mb"),
    "clustering.mean_shift": ("calls", "self_s", "peak_mb", "clusters"),
    "io.write_dataset_csv": ("calls", "self_s", "bytes"),
    "io.read_dataset_csv": ("calls", "self_s", "bytes"),
    "plotting.scatter_svg": ("self_s", "bytes"),
}
FIELD_UNITS = {"calls": "count", "self_s": "s", "peak_mb": "MB", "bytes": "bytes"}
RUN_METRICS = (("evaluation.units", "count"), ("evaluation.units_failed", "count"),
               ("evaluation.unit_cpu_share", "ratio"), ("evaluation.unit_p50_ms", "ms"),
               ("evaluation.unit_p90_ms", "ms"), ("trace.overhead", "ratio"),
               ("trace.unattributed_s", "s"))


def per_layer_names() -> list[tuple[str, str]]:
    """(metric, unit) for every per-layer metric, in report order."""
    names = [(f"{layer}.{f}", FIELD_UNITS.get(f, "count"))
             for layer, fields in LAYER_FIELDS.items() for f in fields]
    return names + list(RUN_METRICS)


@dataclass
class Pass:
    """One child process: its resource use, its report and its outcome."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    report: dict
    digests: dict[str, str | None]
    outcome: Outcome | None = None


class Bench:
    def __init__(self, workload: Workload, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.src_hash = source_hash(ROOT / "src")
        self.reference = self._known_digests()
        self.problems: list[str] = []  # failed children and digest mismatches

    def _known_digests(self) -> dict[str, str] | None:
        if self.seed == self.workload.default_seed:
            return json.loads((HERE / "expected_digests.json").read_text())[self.workload.name]
        cache = self._cache_path()
        return json.loads(cache.read_text()) if cache.is_file() else None

    def _cache_path(self) -> Path:
        return WORK / "digests" / f"{self.workload.name}-{self.seed}-{self.src_hash[:16]}.json"

    def spawn(self, tag: str, setup_only: bool = False, trace: str = "off",
              threads: int | None = None) -> Pass:
        """Start one child, wait for it and collect its rusage and report."""
        workdir = WORK / f"{self.workload.name}-{os.getpid()}-{tag}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        (workdir / CONFIG_NAME).write_text(self.workload.config, encoding="ascii")
        result = workdir / "child_result.json"
        # skewbench makes no BLAS calls; OpenBLAS's own thread pool only made
        # import time bimodal (0.12 s or 0.20 s, as the second vCPU was free).
        env = dict(os.environ, SKEWBENCH_THREADS=str(threads or self.workload.threads),
                   OPENBLAS_NUM_THREADS="1")
        argv = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT),
                "--workload", self.workload.name, "--seed", str(self.seed),
                "--workdir", str(workdir), "--result", str(result), "--trace", trace]
        if setup_only:
            argv.append("--setup-only")
        timeout = max(1.0, self.deadline - time.perf_counter())
        with open(workdir / "child.log", "w") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env,
                                    cwd=workdir)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        report = json.loads(result.read_text()) if proc.returncode == 0 and result.is_file() else {}
        if proc.returncode != 0:
            sys.stderr.write((workdir / "child.log").read_text()[-2000:])
            self.problems.append(f"{tag}: child exited with {proc.returncode}")
        p = Pass(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, report, {})
        if not setup_only:
            p.digests = output_digests(self.workload, self.seed, workdir)
            p.outcome = self._score(p, workdir, tag)
        shutil.rmtree(workdir, ignore_errors=True)
        return p

    def _score(self, p: Pass, workdir: Path, tag: str) -> Outcome:
        codes = p.report.get("codes", [])
        ok = bool(codes) and all(c == 0 for c in codes) and None not in p.digests.values()
        if self.reference is None and ok:
            self.reference = dict(p.digests)
            cache = self._cache_path()
            cache.parent.mkdir(parents=True, exist_ok=True)
            cache.write_text(json.dumps(self.reference, indent=1, sort_keys=True))
        bad = digest_mismatches(self.reference or {}, p.digests)
        if bad:
            self.problems.append(f"{tag}: output digest mismatch in {', '.join(bad)}")
        return count_outcome(self.workload, self.seed, workdir, codes, bad)


def source_hash(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git itself so nothing outside it is read."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, list[Pass], dict]:
    probes = [bench.spawn(f"setup{i}", setup_only=True) for i in range(SETUP_PROBES)]
    started = time.perf_counter()
    runs: list[Pass] = []
    while (len(runs) < MIN_ITERATIONS
           or time.perf_counter() + runs[-1].wall_s <= started + seconds):
        runs.append(bench.spawn(f"iter{len(runs)}"))
    setups = [p.report["setup_s"] for p in probes + runs if "setup_s" in p.report]
    attempted = sum(p.outcome.attempted for p in runs)
    failed = sum(p.outcome.failed for p in runs)
    # Other tenants of the machine only ever slow an iteration down (the same
    # inputs were measured 11.0 s and 14.4 s in one run), so times are the
    # fastest iteration's; the median is taken across runs.
    metrics = {
        "wall_s": min(p.wall_s for p in runs),
        "cpu_s": min(p.cpu_s for p in runs),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": statistics.median(p.rss_mb for p in runs),
        "evals_per_s": max(p.outcome.evals / p.wall_s for p in runs),
        "success_rate": 1.0 - failed / attempted,
    }
    fastest = min(runs, key=lambda p: p.wall_s)
    samples = {"iterations": len(runs), "setup_samples": len(setups),
               "iteration_wall_s": [round(p.wall_s, 4) for p in runs],
               "fastest_step_s": {k: round(v, 4) for k, v in fastest.report.get("step_s", {}).items()}}
    return {k: (metrics[k], unit) for k, unit in END_TO_END}, runs, samples


def traced(bench: Bench) -> tuple[dict, list[Pass], dict]:
    plain = bench.spawn("untraced")
    timed = bench.spawn("timed", trace="time")
    peak = bench.spawn("peak", trace="peak", threads=1)
    metrics, notes = layer_metrics(timed.report.get("trace", {"layers": {}, "units": []}),
                                   peak.report.get("peaks", {}), plain.wall_s, timed.wall_s,
                                   bench.workload.threads)
    return metrics, [plain, timed, peak], notes


def layer_metrics(trace: dict, peaks: dict, wall_plain: float, wall_traced: float,
                  threads: int) -> tuple[dict, dict]:
    """Per-layer metrics from a timing-pass summary and a memory-pass peak map.

    A metric the run cannot measure reads 0 and is listed in
    notes["not_measured"]: unit metrics without units, and p90 unless at
    least ten unit samples lie above it.
    """
    layers = trace["layers"]
    out: dict[str, tuple[float, str]] = {}
    for layer, fields in LAYER_FIELDS.items():
        entry = layers.get(layer, {"calls": 0, "self_s": 0.0, "counters": {}})
        for f in fields:
            if f in ("calls", "self_s"):
                value = entry[f]
            elif f == "peak_mb":
                value = peaks.get(layer, 0) / 2**20
            else:
                value = entry["counters"].get(f, 0)
            out[f"{layer}.{f}"] = (value, FIELD_UNITS.get(f, "count"))

    units = trace["units"]
    walls_ms = [u["wall_s"] * 1000.0 for u in units]
    not_measured = []
    p50 = statistics.median(walls_ms) if walls_ms else 0.0
    p90, beyond_p90 = 0.0, 0
    if len(walls_ms) >= 2:
        p90 = statistics.quantiles(walls_ms, n=10)[8]
        beyond_p90 = sum(w > p90 for w in walls_ms)
    if beyond_p90 < 10:
        p90 = 0.0
        not_measured.append("evaluation.unit_p90_ms")
    if not units:
        not_measured += ["evaluation.unit_cpu_share", "evaluation.unit_p50_ms"]
    wall_sum = sum(u["wall_s"] for u in units)
    self_total = sum(entry["self_s"] for entry in layers.values())
    run_values = {
        "evaluation.units": len(units),
        "evaluation.units_failed": sum(u["failed"] for u in units),
        "evaluation.unit_cpu_share": sum(u["cpu_s"] for u in units) / wall_sum if wall_sum else 0.0,
        "evaluation.unit_p50_ms": p50,
        "evaluation.unit_p90_ms": p90,
        "trace.overhead": wall_traced / wall_plain,
        # thread-seconds the run had, minus the time some layer accounts for
        "trace.unattributed_s": wall_traced * threads - self_total,
    }
    for name, unit in RUN_METRICS:
        out[name] = (run_values[name], unit)
    notes = {"unit_samples": len(units), "unit_samples_beyond_p90": beyond_p90,
             "not_measured": not_measured}
    return out, notes


def missing_layers(workload: Workload, metrics: dict) -> list[str]:
    """Layers the workload must exercise that recorded no calls (so no self time) or no peak."""
    missing = [f"{layer}.self_s" for layer in workload.layers
               if metrics[f"{layer}.self_s"][0] <= 0]
    missing += [f"{layer}.peak_mb" for layer in workload.peak_layers
                if metrics[f"{layer}.peak_mb"][0] <= 0]
    return missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "skewbench" / "cli.py").is_file():
        print(f"error: no skewbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    bench = Bench(workload, args.seed, time.perf_counter() + RUN_LIMIT_S)
    if args.trace:
        metrics, passes, samples = traced(bench)
        missing = missing_layers(workload, metrics)
        if missing:
            print(f"error: nothing recorded for {', '.join(missing)}", file=sys.stderr)
    else:
        metrics, passes, samples = end_to_end(bench, args.seconds)
        missing = []
    for line in bench.problems:
        print(f"error: {line}", file=sys.stderr)

    attempted = sum(p.outcome.attempted for p in passes)
    failed = sum(p.outcome.failed for p in passes)
    first = next((p.report for p in passes if "numpy" in p.report), {})
    env = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
           "skewbench_threads": workload.threads,
           "memory_pass_threads": 1 if args.trace else None,
           "python": first.get("python"), "numpy": first.get("numpy"),
           "nproc": os.cpu_count(), "git_commit": git_commit(), "src_sha256": bench.src_hash,
           "error_rate": failed / attempted, **samples}
    print("# env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"# {name:40s} {value:14.6g} {unit}")
    result = {
        "correct": not bench.problems and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
