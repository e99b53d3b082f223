"""Campaigns over the real Date16 problem.

The quick test keeps the default suite fast; the ``slow``-marked test is
the PR acceptance campaign (64 samples, 4 workers, kill + resume), run
with ``pytest -m slow tests/campaign/test_date16_campaign.py``.
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
from repro.package3d.scenarios import date16_campaign_spec
from repro.package3d.uq_study import Date16UncertaintyStudy


def test_parameter_overrides_reach_the_worker_model():
    """Custom Date16Parameters shape the built problem, not just sampling."""
    from repro.package3d.chip_example import Date16Parameters
    from repro.package3d.scenarios import build_date16_model

    custom = Date16Parameters(pair_voltage=0.08)
    spec = date16_campaign_spec(num_samples=2, parameters=custom)
    assert spec.scenario.options["parameters"]["pair_voltage"] == 0.08
    # The spec round-trips through JSON with the overrides intact.
    import json

    rebuilt = json.loads(spec.to_json())
    assert rebuilt["scenario"]["options"]["parameters"]["pair_voltage"] == 0.08

    model = build_date16_model(spec.scenario)
    study = model.__self__
    assert study.parameters.pair_voltage == 0.08


def test_small_serial_campaign_matches_study(tmp_path):
    """A 3-sample campaign equals the in-process study on the same deltas."""
    spec = date16_campaign_spec(num_samples=3, chunk_size=2, qoi="final")
    result = run_campaign(spec, store=tmp_path / "store")

    study = Date16UncertaintyStudy(resolution="coarse", tolerance=1e-3)
    outputs = np.stack(
        [study.evaluate_traces(row)[-1] for row in result.parameters]
    )
    assert result.mean.shape == (12,)
    assert np.allclose(result.mean, outputs.mean(axis=0), rtol=0, atol=1e-9)
    assert np.allclose(result.std, outputs.std(axis=0, ddof=1),
                       rtol=0, atol=1e-9)
    # Sanity: the wires heat up from ambient.
    assert np.all(result.mean > 300.0)


@pytest.mark.slow
def test_acceptance_64_samples_parallel_and_resume(tmp_path):
    """The PR acceptance criterion, end to end."""
    spec = date16_campaign_spec(num_samples=64, chunk_size=4, qoi="final")

    serial = run_campaign(spec, store=tmp_path / "serial",
                          executor=SerialExecutor())
    parallel = run_campaign(spec, store=tmp_path / "parallel",
                            executor=ParallelExecutor(num_workers=4))
    assert np.allclose(serial.mean, parallel.mean, rtol=0, atol=1e-12)
    assert np.allclose(serial.std, parallel.std, rtol=0, atol=1e-12)

    # Killed-then-resumed: checkpoint 5 of 16 chunks, then resume.
    store = ArtifactStore(tmp_path / "resumed").initialize(spec)
    model = resolve_model(spec.scenario)
    for chunk in campaign_chunks(spec, [0, 3, 7, 11, 15]):
        store.write_chunk(evaluate_chunk(model, chunk))
    resumed = resume_campaign(store, executor=ParallelExecutor(num_workers=4))
    assert resumed.num_evaluated == 44
    assert np.array_equal(resumed.mean, serial.mean)
    assert np.array_equal(resumed.std, serial.std)


def test_row_loop_campaign_bit_identical_across_backends(tmp_path):
    """Campaigns on the per-sample row loop (three-segment wires have no
    block evaluator) stay deterministic: serial and process backends
    agree bitwise, and a killed-then-resumed run reproduces the
    uninterrupted statistics exactly."""
    spec = date16_campaign_spec(num_samples=4, chunk_size=2, qoi="final")
    spec.scenario.options["num_segments"] = 3
    assert getattr(resolve_model(spec.scenario), "evaluate_block",
                   None) is None
    serial = run_campaign(spec, store=tmp_path / "serial",
                          executor=SerialExecutor())
    parallel = run_campaign(spec, store=tmp_path / "parallel",
                            executor=ParallelExecutor(num_workers=2))
    assert np.array_equal(serial.mean, parallel.mean)
    assert np.array_equal(serial.std, parallel.std)

    # Kill after the first chunk, then resume.
    store = ArtifactStore(tmp_path / "resumed").initialize(spec)
    model = resolve_model(spec.scenario)
    for chunk in campaign_chunks(spec, [0]):
        store.write_chunk(evaluate_chunk(model, chunk))
    resumed = resume_campaign(store, executor=SerialExecutor())
    assert resumed.num_evaluated == 2
    assert np.array_equal(resumed.mean, serial.mean)
    assert np.array_equal(resumed.std, serial.std)
    assert np.all(serial.mean > 300.0)
