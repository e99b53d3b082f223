"""Streaming vs rows-kept Jansen reduction across output sizes.

The point of the streaming reduction is memory: a jansen reducer with a
bootstrap keeps the ``(M (d + 2 + pairs + groups), K)`` output matrix of
a second-order campaign (the bootstrap resamples its rows), while with
``num_bootstrap=0`` the :class:`~repro.uq.sensitivity.
StreamingJansenAccumulator` folds each checkpointed chunk into running
sums and retains only the ``A``/``B`` blocks plus one ``(K,)`` sum pair
per swap block.  This bench sweeps the output size ``K`` of a vector QoI
(the Sobol g-function scaled by a weight vector), re-reduces one
completed second-order campaign store both ways, verifies the point
estimates are bit-identical, and reports wall time (the rows-kept time
includes its ``_KEPT_BOOTSTRAP``-replicate bootstrap) plus the bytes
each strategy holds.

    REPRO_STREAM_BASE_SAMPLES   base samples M (default 64)
    REPRO_STREAM_OUTPUT_SIZES   comma-separated K sweep (default
                                "8,256,4096")
"""

import contextlib
import os
import time

import numpy as np

from repro.campaign import (
    ArtifactStore,
    JansenReducer,
    ScenarioSpec,
    SensitivitySpec,
    run_campaign,
)
from repro.reporting.tables import format_table
from repro.uq.analytic import sobol_g_distribution

from .conftest import bench_timings, write_artifact, write_bench_json

_G_COEFFICIENTS = [0.0, 0.5, 3.0, 9.0, 99.0, 99.0]

#: Bootstrap replicates of the rows-kept reduction.
_KEPT_BOOTSTRAP = 2


def _drop_reducer_state(store):
    """Remove the reduction snapshot so a re-reduce folds every chunk."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(ArtifactStore(store).reducer_state_path)


def _base_samples():
    return int(os.environ.get("REPRO_STREAM_BASE_SAMPLES", "64"))


def _output_sizes():
    raw = os.environ.get("REPRO_STREAM_OUTPUT_SIZES", "8,256,4096")
    return [int(part) for part in raw.split(",") if part.strip()]


def _make_spec(num_base_samples, output_size):
    weights = (1.0 + np.arange(output_size) % 7).tolist()
    dimension = len(_G_COEFFICIENTS)
    return SensitivitySpec(
        name=f"stream-bench-k{output_size}",
        scenario=ScenarioSpec(
            problem="sobol-g",
            options={"a": _G_COEFFICIENTS, "weights": weights},
            module="repro.uq.analytic",
        ),
        distribution=sobol_g_distribution(),
        dimension=dimension,
        num_base_samples=num_base_samples,
        seed=17,
        chunk_size=max(1, num_base_samples // 2),
        sampler="random",
        second_order=True,
        groups=[[0, 1, 2], [3, 4, 5]],
        num_bootstrap=0,
    )


def _reduce_bytes(spec, output_size, streaming):
    """Floats held by the reduction strategy, in bytes."""
    m = spec.num_base_samples
    plan = spec.plan
    if streaming:
        retained = 2 * m + 2 * (plan.num_blocks - 2)
    else:
        retained = spec.num_samples
    return retained * output_size * 8


def test_streaming_reduction_scaling(benchmark, tmp_path):
    num_base_samples = _base_samples()
    rows = []
    last = None
    for output_size in _output_sizes():
        spec = _make_spec(num_base_samples, output_size)
        store = str(tmp_path / f"store-k{output_size}")
        # Populate the store once; the timed calls below are pure
        # re-reduces of the checkpointed chunks.  Drop the reduction
        # snapshot the populate run checkpointed, so the timed streaming
        # call measures the per-chunk fold, not a state restore.
        run_campaign(spec, store=store,
                     reducer=JansenReducer(spec, num_bootstrap=0))
        _drop_reducer_state(store)

        start = time.perf_counter()
        in_memory = run_campaign(
            spec, store=store,
            reducer=JansenReducer(spec, num_bootstrap=_KEPT_BOOTSTRAP),
        )
        memory_elapsed = time.perf_counter() - start
        start = time.perf_counter()
        streamed = run_campaign(
            spec, store=store,
            reducer=JansenReducer(spec, num_bootstrap=0),
        )
        stream_elapsed = time.perf_counter() - start
        _drop_reducer_state(store)
        assert in_memory.num_evaluated == 0
        assert streamed.num_evaluated == 0
        assert streamed.streamed and not in_memory.streamed
        assert np.array_equal(in_memory.first_order, streamed.first_order)
        assert np.array_equal(in_memory.total, streamed.total)
        assert np.array_equal(in_memory.second_order.interaction,
                              streamed.second_order.interaction)
        assert np.array_equal(in_memory.group_indices.total,
                              streamed.group_indices.total)
        matrix_bytes = _reduce_bytes(spec, output_size, False)
        sum_bytes = _reduce_bytes(spec, output_size, True)
        rows.append((
            str(output_size),
            f"{memory_elapsed * 1e3:.1f}",
            f"{stream_elapsed * 1e3:.1f}",
            f"{matrix_bytes / 1e6:.2f}",
            f"{sum_bytes / 1e6:.2f}",
            f"{matrix_bytes / sum_bytes:.1f}x",
        ))
        last = (spec, store)

    spec, store = last

    def streaming_reduce():
        _drop_reducer_state(store)
        return run_campaign(spec, store=store,
                            reducer=JansenReducer(spec, num_bootstrap=0))

    benchmark.pedantic(streaming_reduce, rounds=1, iterations=1)

    text = format_table(
        ["K", "rows kept [ms]", "stream [ms]", "matrix [MB]", "sums [MB]",
         "saving"],
        rows,
        title=(
            f"STREAMING JANSEN REDUCTION (sobol-g, M={num_base_samples}, "
            f"d={len(_G_COEFFICIENTS)}, {spec.plan.num_pairs} pairs, "
            f"{spec.plan.num_groups} groups, "
            f"{spec.num_samples} evaluations)"
        ),
    )
    path = write_artifact("streaming_reduction.txt", text)
    write_bench_json(
        "streaming_reduction",
        timings=bench_timings(benchmark),
        counters={
            "output_sizes": len(rows),
            "evaluations": spec.num_samples,
        },
    )
    print("\n" + text)
    print(f"\n[artifact] {path}")
