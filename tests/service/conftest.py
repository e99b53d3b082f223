"""Shared service-test fixtures: spec builders and store comparison."""

import numpy as np

from repro.campaign import ArtifactStore, CampaignSpec, ScenarioSpec

from .problems import CACHED_PROBLEM, MODULE, SLEEPY_PROBLEM


def make_cached_spec(num_samples=20, chunk_size=5, seed=11, size=12,
                     name=None):
    """A campaign over the shared-cache-backed sparse-solve problem."""
    return CampaignSpec(
        name=name or f"cached-{num_samples}-{seed}",
        scenario=ScenarioSpec(
            problem=CACHED_PROBLEM,
            qoi="identity",
            options={"size": size},
            module=MODULE,
        ),
        distribution={"kind": "normal", "mu": 0.0, "sigma": 1.0},
        dimension=4,
        num_samples=num_samples,
        seed=seed,
        chunk_size=chunk_size,
    )


def make_sleepy_spec(num_samples=30, chunk_size=3, seed=5, sleep_s=0.02,
                     name=None):
    """A slow-but-cheap campaign a kill test can interrupt mid-run."""
    return CampaignSpec(
        name=name or f"sleepy-{num_samples}-{seed}",
        scenario=ScenarioSpec(
            problem=SLEEPY_PROBLEM,
            qoi="identity",
            options={"sleep_s": sleep_s},
            module=MODULE,
        ),
        distribution={"kind": "normal", "mu": 0.0, "sigma": 1.0},
        dimension=3,
        num_samples=num_samples,
        seed=seed,
        chunk_size=chunk_size,
    )


def assert_stores_bitwise_equal(path_a, path_b):
    """Bitwise equality of two stores' checkpointed data.

    A chunk's log record also holds its telemetry, whose timings differ
    between runs, and two stores may record chunks in different orders,
    so equality is asserted on the *arrays* (indices, parameters,
    outputs) plus the summary dict -- the same contract the
    fault-tolerance tests use.
    """
    store_a = ArtifactStore(str(path_a))
    store_b = ArtifactStore(str(path_b))
    chunks_a = store_a.completed_chunks()
    chunks_b = store_b.completed_chunks()
    assert chunks_a == chunks_b
    for index in chunks_a:
        indices_a, parameters_a, outputs_a = store_a.read_chunk(index)
        indices_b, parameters_b, outputs_b = store_b.read_chunk(index)
        assert np.array_equal(indices_a, indices_b)
        assert np.array_equal(parameters_a, parameters_b)
        assert np.array_equal(outputs_a, outputs_b)
    assert store_a.read_summary() == store_b.read_summary()
