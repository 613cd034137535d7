"""One fresh process per workload iteration: set-up, then the CLI steps.

    python3 perfbench/child.py --root R --workload W --seed N --workdir D \
        --result F [--setup-only] [--trace off|time|peak]

Set-up is timed in here (import skewbench, load the config, build the spec)
because only this process starts cold. The steps call `skewbench.cli.main`
in order, with the working directory set to D; each step's standard output
goes to `<step>.stdout`. Exit codes, set-up time and, with tracing, the
trace summary are written to F as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
import traceback
from pathlib import Path

from workloads import CONFIG_NAME, WORKLOADS


def run_step(main, argv) -> int:
    try:
        return int(main(list(argv)) or 0)
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed operation, not a crashed benchmark
        traceback.print_exc()
        return -1


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", choices=("off", "time", "peak"), default="off")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    src = Path(args.root).resolve() / "src"
    os.chdir(args.workdir)
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import skewbench.cli
    from skewbench.config import load_config
    workload.build_spec(load_config(CONFIG_NAME), args.seed)
    setup_s = time.perf_counter() - t0

    import numpy
    if not Path(skewbench.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported skewbench from {skewbench.cli.__file__}, not {src}")
    result: dict = {"setup_s": setup_s, "numpy": numpy.__version__,
                    "python": sys.version.split()[0], "codes": [], "step_s": {}}

    if not args.setup_only:
        tracer, patches = None, contextlib.nullcontext()
        if args.trace != "off":
            import tracing
            layers = tracing.LAYERS
            if args.trace == "time":
                tracer = tracing.Recorder()
            else:
                tracer = tracing.PeakMeter()
                layers = tuple(row for row in layers if row[2] in tracing.PEAK_LAYERS)
            patches = tracing.patched(tracer.wrap, layers)
        with patches:
            for step in workload.steps(args.seed):
                start = time.perf_counter()
                with open(f"{step.name}.stdout", "w", encoding="ascii") as out, \
                        contextlib.redirect_stdout(out):
                    result["codes"].append(run_step(skewbench.cli.main, step.argv))
                result["step_s"][step.name] = time.perf_counter() - start
        if args.trace == "time":
            result["trace"] = tracing.summarize(tracer.spans)
        elif args.trace == "peak":
            result["peaks"] = tracer.peaks

    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
