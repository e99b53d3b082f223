"""Cross-layer equivalence: sample-blocked campaigns vs per-sample goldens.

The blocked fast path restructures the Monte Carlo hot loop from one
coupled transient per sample into batched multi-RHS linear algebra.
These tests pin the contract: a blocked campaign reproduces the
per-sample study to rounding (1e-10 relative to the output magnitude)
at every chunk size, and the campaign
engine's determinism guarantees (serial == process, kill/resume) stay
bit-identical with blocking on.
"""

import numpy as np
import pytest

from repro.campaign import (
    ArtifactStore,
    ParallelExecutor,
    SerialExecutor,
    resume_campaign,
    run_campaign,
)
from repro.campaign.executor import evaluate_chunk, resolve_model
from repro.campaign.runner import campaign_chunks
from repro.package3d.chip_example import Date16Parameters
from repro.package3d.scenarios import date16_campaign_spec
from repro.package3d.uq_study import Date16UncertaintyStudy

#: Tiny mesh + short transient: every matrix cell stays test-suite fast.
_TINY = {
    "parameters": Date16Parameters(end_time=10.0, num_time_points=6),
    "resolution": (0.9e-3, 0.4e-3),
}


#: Blocked vs per-sample agreement, relative to the output magnitude.
RTOL = 1.0e-10


def _assert_close(actual, expected, scale):
    """Golden comparison with an absolute floor at ``RTOL * scale``.

    ``scale`` is the magnitude of the raw outputs: quantities formed by
    cancellation (a standard deviation of ~322 K temperatures) inherit
    their absolute rounding, not a relative one.
    """
    assert np.allclose(actual, expected, rtol=RTOL, atol=RTOL * scale)


def _tiny_spec(num_samples=14, chunk_size=7, **kwargs):
    return date16_campaign_spec(
        num_samples=num_samples,
        chunk_size=chunk_size,
        qoi="final",
        seed=5,
        **_TINY,
        **kwargs,
    )


def _segmented_spec(num_samples, chunk_size):
    """A three-segment-wire spec: no block evaluator, so the row loop."""
    spec = _tiny_spec(num_samples=num_samples, chunk_size=chunk_size)
    spec.scenario.options["num_segments"] = 3
    return spec


@pytest.fixture(scope="module")
def golden():
    """Per-sample study outputs for the module's 14-sample design."""
    spec = _tiny_spec()
    parameters = np.stack([
        np.asarray(spec.unit_points([index]))[0]
        for index in range(spec.num_samples)
    ])
    from repro.uq.sampling import map_to_distributions

    deltas = map_to_distributions(parameters, spec.build_distribution())
    study = Date16UncertaintyStudy(tolerance=1e-3, **_TINY)
    outputs = np.stack(
        [study.evaluate_traces(row)[-1] for row in deltas]
    )
    return deltas, outputs


class TestChunkSizeMatrix:
    @pytest.mark.parametrize("chunk_size", [1, 7, 64])
    def test_blocked_matches_per_sample_golden(self, chunk_size, golden,
                                               tmp_path):
        deltas, outputs = golden
        spec = _tiny_spec(chunk_size=chunk_size)
        store = ArtifactStore(tmp_path / "store")
        result = run_campaign(spec, store=store)
        assert np.array_equal(result.parameters, deltas)
        # Statistics are folded chunk-by-chunk (Welford), so they can
        # never be bit-identical to numpy's pairwise mean either.
        scale = float(np.abs(outputs).max())
        _assert_close(result.mean, outputs.mean(axis=0), scale)
        _assert_close(result.std, outputs.std(axis=0, ddof=1), scale)
        # The per-sample outputs themselves are checkpointed: compare
        # those against the golden rows directly.
        stored = np.concatenate([
            store.read_chunk(index)[2] for index in range(spec.num_chunks)
        ])
        _assert_close(stored, outputs, scale)


class TestBackendDeterminism:
    def test_serial_and_process_bitwise(self, tmp_path):
        spec = _tiny_spec()
        serial = run_campaign(spec, store=tmp_path / "serial",
                              executor=SerialExecutor())
        parallel = run_campaign(spec, store=tmp_path / "parallel",
                                executor=ParallelExecutor(num_workers=2))
        assert np.array_equal(serial.mean, parallel.mean)
        assert np.array_equal(serial.std, parallel.std)

    def test_kill_resume_at_chunk_boundary_bitwise(self, tmp_path):
        spec = _tiny_spec()
        reference = run_campaign(spec, store=tmp_path / "reference")

        store = ArtifactStore(tmp_path / "resumed").initialize(spec)
        model = resolve_model(spec.scenario)
        for chunk in campaign_chunks(spec, [0]):
            store.write_chunk(evaluate_chunk(model, chunk))
        resumed = resume_campaign(store)
        assert resumed.num_evaluated == spec.num_samples - spec.chunk_size
        assert np.array_equal(resumed.mean, reference.mean)
        assert np.array_equal(resumed.std, reference.std)


class TestLegacyBackendPin:
    """Stores written when scenarios pinned an array backend."""

    def test_store_pinning_numpy_resumes_bitwise(self, tmp_path):
        spec = _tiny_spec(num_samples=4, chunk_size=2)
        reference = run_campaign(spec, store=tmp_path / "reference")
        pinned = _tiny_spec(num_samples=4, chunk_size=2)
        pinned.scenario.options["array_backend"] = "numpy"
        store = ArtifactStore(tmp_path / "pinned").initialize(pinned)
        model = resolve_model(spec.scenario)
        for chunk in campaign_chunks(spec, [0]):
            store.write_chunk(evaluate_chunk(model, chunk))
        resumed = resume_campaign(store)
        assert resumed.num_evaluated == spec.num_samples - spec.chunk_size
        assert np.array_equal(resumed.mean, reference.mean)
        assert np.array_equal(resumed.std, reference.std)

    def test_store_pinning_another_backend_is_refused(self, tmp_path):
        from repro.errors import CampaignError

        spec = _tiny_spec(num_samples=2, chunk_size=2)
        spec.scenario.options["array_backend"] = "cupy"
        store = ArtifactStore(tmp_path / "store").initialize(spec)
        with pytest.raises(CampaignError,
                           match="array backends were removed"):
            resume_campaign(store)
        assert store.completed_chunks() == []


class TestRemovedTimeStepping:
    """Specs and stores written when scenarios could pick adaptive
    time stepping."""

    @staticmethod
    def _run(spec, path):
        result = run_campaign(spec, store=path)
        return result, ArtifactStore(path).read_summary()

    def test_pinned_fixed_stepping_is_bitwise_unchanged(self, tmp_path):
        # The benchmark's date16 workload pins exactly these options.
        plain = _tiny_spec(num_samples=2, chunk_size=2)
        plain.scenario.options.update({"resolution": "coarse",
                                       "mode": "fast"})
        pinned = _tiny_spec(num_samples=2, chunk_size=2)
        pinned.scenario.options.update({"resolution": "coarse",
                                        "mode": "fast",
                                        "time_stepping": "fixed"})
        reference, reference_summary = self._run(plain, tmp_path / "plain")
        result, summary = self._run(pinned, tmp_path / "pinned")
        assert np.array_equal(result.mean, reference.mean)
        assert np.array_equal(result.std, reference.std)
        assert summary == reference_summary

    def test_stray_adaptive_keys_under_fixed_stepping_run(self, tmp_path):
        reference = run_campaign(_tiny_spec(num_samples=2, chunk_size=2),
                                 store=tmp_path / "plain")
        spec = _tiny_spec(num_samples=2, chunk_size=2)
        spec.scenario.options.update({"quantize_dt": False,
                                      "adaptive_tolerance": 0.5})
        result = run_campaign(spec, store=tmp_path / "stray")
        assert np.array_equal(result.mean, reference.mean)
        assert np.array_equal(result.std, reference.std)

    def test_adaptive_spec_is_refused_on_run(self, tmp_path):
        from repro.errors import CampaignError

        spec = _tiny_spec(num_samples=2, chunk_size=2)
        spec.scenario.options["time_stepping"] = "adaptive"
        with pytest.raises(CampaignError,
                           match="adaptive time stepping was removed"):
            run_campaign(spec, store=tmp_path / "store")

    def test_adaptive_store_is_refused_on_resume(self, tmp_path):
        from repro.errors import CampaignError

        spec = _tiny_spec(num_samples=2, chunk_size=2)
        spec.scenario.options["time_stepping"] = "adaptive"
        store = ArtifactStore(tmp_path / "store").initialize(spec)
        with pytest.raises(CampaignError,
                           match="adaptive time stepping was removed"):
            resume_campaign(store)
        assert store.completed_chunks() == []


class TestRowLoopFallback:
    def test_segmented_scenario_has_no_block_interface(self):
        spec = _segmented_spec(num_samples=2, chunk_size=2)
        model = resolve_model(spec.scenario)
        assert getattr(model, "evaluate_block", None) is None

    def test_segmented_campaign_runs_on_the_row_loop(self, tmp_path):
        spec = _segmented_spec(num_samples=2, chunk_size=2)
        store = ArtifactStore(tmp_path / "store")
        result = run_campaign(spec, store=store, telemetry=True)
        assert result.mean.shape == (12,)
        counters = store.read_telemetry()["metrics"]["counters"]
        assert counters.get("campaign.loop_solves") == 2
        assert "campaign.blocked_solves" not in counters

    def test_fixed_campaign_records_blocked_counters(self, tmp_path):
        spec = _tiny_spec(num_samples=4, chunk_size=2)
        store = ArtifactStore(tmp_path / "store")
        run_campaign(spec, store=store, telemetry=True)
        data = store.read_telemetry()
        counters = data["metrics"]["counters"]
        assert counters.get("campaign.blocked_solves") == 4
        assert "campaign.loop_solves" not in counters
        assert data["metrics"]["gauges"]["campaign.batch_size"] == 2


class TestFixedPointTelemetry:
    @pytest.mark.parametrize("num_segments", [1, 3],
                             ids=["blocked", "row-loop"])
    def test_fixed_point_iterations_reported(self, tmp_path, num_segments):
        from repro.reporting.telemetry import format_timings_report

        spec = _tiny_spec(num_samples=4, chunk_size=2)
        spec.scenario.options["num_segments"] = num_segments
        store = ArtifactStore(tmp_path / "store")
        run_campaign(spec, store=store, telemetry=True)
        telemetry = store.read_telemetry()
        counters = telemetry["metrics"]["counters"]
        steps = counters["solver.coupled_steps"]
        iterations = counters["solver.fixed_point_iterations"]
        # 4 samples x 5 steps of the 6-point grid.
        assert steps == 20
        assert iterations >= steps
        # Fast mode: every outer pass runs at least one port iteration.
        ports = counters["solver.port_iterations"]
        assert ports >= iterations
        assert (
            f"Fixed point: {iterations} iterations over {steps} "
            f"sample-steps ({iterations / steps:.2f} per step), "
            f"{ports} port iterations ({ports / steps:.2f} per step)"
        ) in format_timings_report(telemetry)
