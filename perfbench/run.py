"""Repository benchmark: Date16 Monte Carlo campaigns and a Sobol service.

Run from anywhere; the program is imported from ``src/`` next to this
directory::

    python3 perfbench/run.py --workload date16_mc_blocked --seed 1 \\
        --seconds 50 --trace 0

Workloads (inputs in ``perfbench/workloads.json``):

* ``date16_mc_blocked`` -- the paper's MC study, sample-blocked solves;
* ``ishigami_sobol_service`` -- two closed-loop HTTP clients submitting
  Ishigami Saltelli campaigns to an in-process service.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` wrappers around the program's public calls record
spans, and it carries the per-layer metrics instead.  The line before it
records the machine (CPU, core count, library versions) and a fixed
dense reference kernel timed before and after the run, so a noisy
verdict can be traced to machine-speed drift.  ``--smoke`` shrinks
every unit of work for the benchmark's own tests.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("date16_mc_blocked", "ishigami_sobol_service")
#: Every BLAS/OpenMP pool in the workload process runs one thread: with
#: the default two on two shared cores, runs spread wider.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def parse_arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny units of work (the benchmark's tests)")
    arguments = parser.parse_args(argv)
    if arguments.seed < 0:
        parser.error("--seed must be >= 0")
    if arguments.seconds <= 0:
        parser.error("--seconds must be > 0")
    return arguments


def machine_info():
    import numpy
    import scipy

    def blas_version(module):
        try:
            blas = module.show_config(mode="dicts")[
                "Build Dependencies"]["blas"]
            return f"{blas.get('name')} {blas.get('version')}"
        except (KeyError, TypeError, ValueError):
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_version(numpy),
        "scipy_blas": blas_version(scipy),
        "threads": {name: os.environ[name] for name in THREAD_VARIABLES},
    }


def reference_kernel_s(repeats=5):
    """Median seconds of a fixed dense kernel: the machine-speed probe."""
    import numpy as np

    matrix = np.random.default_rng(0).random((320, 320))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        product = matrix
        for _ in range(8):
            product = product @ matrix
            product /= np.abs(product).max()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def with_units(values, declared):
    """``values`` in the order and with the units ``BENCHMARK.json``
    declares for them."""
    return {metric["name"]: {"value": float(values[metric["name"]]),
                             "unit": metric["unit"]}
            for metric in declared}


def main(argv=None):
    arguments = parse_arguments(argv)
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import spans
    import workloads

    work_root = os.path.join(HERE, ".work")
    work_dir = os.path.join(
        work_root, f"{arguments.workload}-{arguments.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    # Anything the program puts in a temporary directory stays in the
    # checkout too.
    os.environ["TMPDIR"] = work_dir
    tempfile.tempdir = work_dir
    config = workloads.load_config(arguments.workload, arguments.smoke)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    context = {"workload": arguments.workload, "seed": arguments.seed,
               "trace": arguments.trace, "smoke": arguments.smoke,
               "machine": machine_info(),
               "reference_kernel_before_s": reference_kernel_s()}
    tracer = None
    if arguments.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    try:
        outcome = workloads.run(config, arguments.seed, arguments.seconds,
                                work_dir, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)
    context["reference_kernel_after_s"] = reference_kernel_s()
    context["units"] = len(outcome.units)
    context["jobs"] = sum(len(unit.latencies_s) for unit in outcome.units)
    context["check"] = outcome.check

    if tracer is not None:
        traced = [unit for unit in outcome.units if unit.traced]
        untraced = [unit for unit in outcome.units if not unit.traced]
        metrics = with_units(
            spans.layer_metrics(tracer.spans, traced, untraced,
                                outcome.job_records),
            benchmark["per_layer"])
        trace_path = os.path.join(
            work_root, f"trace-{arguments.workload}-{arguments.seed}.jsonl")
        tracer.write(trace_path)
        context["trace_file"] = os.path.relpath(trace_path, ROOT)
    else:
        metrics = with_units(outcome.end_to_end(), benchmark["end_to_end"])
    print(json.dumps(context, sort_keys=True))
    print(json.dumps({
        "correct": bool(outcome.correct),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
