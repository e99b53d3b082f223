"""Sample-blocked solves vs the per-sample Python loop: wall-clock.

The Monte Carlo hot path used to advance one coupled transient per
elongation sample -- a Python loop of rank-1-ish Woodbury solves and
O(n) vector work per sample.  The blocked fast path advances all S
samples of a chunk through the same time grid at once: one multi-RHS
SuperLU backsolve against an ``(n, S)`` right-hand-side block plus a
stacked ``(S, k, k)`` batched core solve per fixed-point iteration,
turning the per-sample BLAS-2 work into BLAS-3.

Two configurations evaluate the same 64-sample elongation chunk on one
Date16 study each:

* ``per-sample`` -- ``evaluate_traces`` row by row (the old loop);
* ``blocked``    -- ``evaluate_traces_block`` on the full chunk.

Cold = first evaluation against an empty factorization cache; warm = a
second evaluation of the same study (base LUs cached, pure hot-loop
cost).  The acceptance gate asserts the blocked path >= 2x the loop's
warm wall-clock, and that the blocked traces match the loop to 1e-10
relative.

Run standalone (``--smoke`` shrinks mesh and horizon for CI)::

    python benchmarks/bench_batched_solves.py [--smoke]

    REPRO_BATCHED_REPEATS      timing repeats per config (default 3)
    REPRO_BATCHED_MIN_SPEEDUP  warm-cache gate (default 2.0; noisy
                               shared runners may need to lower it)
    REPRO_BATCHED_SAMPLES      chunk size (default 64)
    REPRO_BENCH_RESOLUTION     mesh preset for the full run
                               (default coarse)
"""

import argparse
import os
import sys
import time

import numpy as np

#: Deterministic seed for the elongation chunk (matches campaign LHS).
_SEED = 0

#: Blocked vs per-sample trace agreement, relative to the trace scale.
_RTOL = 1.0e-10


def _build_study(resolution, parameters):
    from repro.package3d.uq_study import Date16UncertaintyStudy
    from repro.solvers.cache import FactorizationCache

    return Date16UncertaintyStudy(
        resolution=resolution,
        parameters=parameters,
        factorization_cache=FactorizationCache(max_entries=16),
    )


def _sample_chunk(study, num_samples):
    """``(S, W)`` elongation deltas from the study's own distribution."""
    from repro.uq.sampling import latin_hypercube

    points = latin_hypercube(num_samples, study.num_wires, seed=_SEED)
    distribution = study.elongation_distribution
    return np.column_stack([
        distribution.ppf(points[:, wire])
        for wire in range(study.num_wires)
    ])


def _time_configurations(resolution, parameters, num_samples, repeats):
    """Best-of-``repeats`` cold/warm seconds per configuration.

    Rounds are interleaved across configurations (so load drift on a
    shared machine hits every configuration alike) and aggregated with
    ``min`` -- scheduling noise only ever adds time.
    """
    results = {
        name: {"name": name, "cold": [], "warm": []}
        for name in ("per-sample", "blocked")
    }
    for _ in range(repeats):
        study = _build_study(resolution, parameters)
        deltas = _sample_chunk(study, num_samples)

        start = time.perf_counter()
        loop_traces = np.stack(
            [study.evaluate_traces(row) for row in deltas]
        )
        results["per-sample"]["cold"].append(time.perf_counter() - start)
        start = time.perf_counter()
        np.stack([study.evaluate_traces(row) for row in deltas])
        results["per-sample"]["warm"].append(time.perf_counter() - start)
        results["per-sample"]["traces"] = loop_traces

        study = _build_study(resolution, parameters)
        start = time.perf_counter()
        block_traces = study.evaluate_traces_block(deltas)
        results["blocked"]["cold"].append(time.perf_counter() - start)
        start = time.perf_counter()
        study.evaluate_traces_block(deltas)
        results["blocked"]["warm"].append(time.perf_counter() - start)
        results["blocked"]["traces"] = block_traces

    for entry in results.values():
        entry["cold"] = float(np.min(entry["cold"]))
        entry["warm"] = float(np.min(entry["warm"]))
    return results


def run_comparison(resolution="coarse", parameters=None, num_samples=64,
                   repeats=3, min_speedup=None, out=sys.stdout):
    """Blocked vs per-sample on one chunk; returns the result record.

    ``min_speedup`` (full runs) asserts the blocked warm speedup;
    ``None`` (smoke) only checks the equivalence and structure.
    Returns a dict with the artifact ``table`` and the ``timings``.
    """
    from repro.reporting.tables import format_table

    print(f"timing 2 configurations x {repeats} interleaved rounds "
          f"({num_samples}-sample chunk) ...", file=out, flush=True)
    results = _time_configurations(
        resolution, parameters, num_samples, repeats
    )

    loop = results["per-sample"]
    rows = []
    for name in ("per-sample", "blocked"):
        r = results[name]
        deviation = float(np.max(np.abs(r["traces"] - loop["traces"])))
        rows.append((
            name,
            f"{r['cold']:.3f}", f"{r['warm']:.3f}",
            f"{loop['cold'] / r['cold']:.2f}x",
            f"{loop['warm'] / r['warm']:.2f}x",
            f"{r['cold'] / num_samples * 1e3:.1f}",
            f"{deviation:.2e}",
        ))
    table = format_table(
        ("configuration", "cold [s]", "warm [s]", "cold speedup",
         "warm speedup", "amortized [ms/sample]", "max |dT| [K]"),
        rows,
        title=f"BATCHED SOLVES ({resolution} mesh, "
              f"S={num_samples}, best of {repeats})",
    )
    print("\n" + table, file=out)

    # Equivalence gate: the blocked chunk reproduces the loop to
    # rounding.
    blocked = results["blocked"]
    scale = float(np.max(np.abs(loop["traces"])))
    deviation = float(np.max(np.abs(blocked["traces"] - loop["traces"])))
    assert deviation <= _RTOL * scale, (
        f"blocked traces deviate {deviation:.3e} K from the per-sample "
        f"loop (allowed {_RTOL * scale:.3e})"
    )
    if min_speedup is not None:
        speedup = loop["warm"] / blocked["warm"]
        assert speedup >= min_speedup, (
            f"blocked warm speedup {speedup:.2f}x is below the "
            f"{min_speedup:.2f}x acceptance threshold"
        )
        print(f"\nwarm-cache speedup {speedup:.2f}x "
              f"(gate: >= {min_speedup:.2f}x)", file=out)
    return {
        "table": table,
        "timings": {
            "per_sample_cold": loop["cold"],
            "per_sample_warm": loop["warm"],
            "blocked_cold": blocked["cold"],
            "blocked_warm": blocked["warm"],
        },
    }


def _smoke_parameters():
    """A few-step horizon so CI exercises every code path in seconds."""
    from repro.package3d.chip_example import Date16Parameters

    return Date16Parameters(end_time=10.0, num_time_points=11)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny mesh + short horizon, equivalence checks only "
             "(the CI rot gate; no wall-clock assertion)",
    )
    arguments = parser.parse_args(argv)

    if arguments.smoke:
        run_comparison(
            resolution=(0.9e-3, 0.4e-3),  # tiny custom mesh spacing
            parameters=_smoke_parameters(),
            num_samples=8,
            repeats=1,
            min_speedup=None,
        )
    else:
        result = run_comparison(
            resolution=os.environ.get("REPRO_BENCH_RESOLUTION", "coarse"),
            num_samples=int(os.environ.get("REPRO_BATCHED_SAMPLES", "64")),
            repeats=int(os.environ.get("REPRO_BATCHED_REPEATS", "3")),
            min_speedup=float(
                os.environ.get("REPRO_BATCHED_MIN_SPEEDUP", "2.0")
            ),
        )
        try:
            from .conftest import write_artifact, write_bench_json
        except ImportError:
            from conftest import write_artifact, write_bench_json
        path = write_artifact("batched_solves.txt", result["table"])
        json_path = write_bench_json(
            "batched_solves", timings=result["timings"]
        )
        print(f"\n[artifact] {path}")
        print(f"[artifact] {json_path}")
    return 0


def test_batched_solves_benchmark(benchmark):
    """Nightly harness entry: the full comparison incl. the 2x gate."""
    result = benchmark.pedantic(
        lambda: run_comparison(
            resolution=os.environ.get("REPRO_BENCH_RESOLUTION", "coarse"),
            num_samples=int(os.environ.get("REPRO_BATCHED_SAMPLES", "64")),
            repeats=int(os.environ.get("REPRO_BATCHED_REPEATS", "3")),
            min_speedup=float(
                os.environ.get("REPRO_BATCHED_MIN_SPEEDUP", "2.0")
            ),
        ),
        rounds=1, iterations=1,
    )
    from .conftest import bench_timings, write_artifact, write_bench_json

    path = write_artifact("batched_solves.txt", result["table"])
    write_bench_json(
        "batched_solves",
        timings={**bench_timings(benchmark), **result["timings"]},
    )
    print(f"\n[artifact] {path}")


if __name__ == "__main__":
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "src")
    )
    sys.exit(main())
