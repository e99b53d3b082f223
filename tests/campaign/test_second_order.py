"""Tests for second-order / grouped Sobol campaigns and the streaming
reduction: extended plan layout, spec round-trips (including legacy
PR-2 specs), executor/chunking/kill-resume bitwise equivalence and the
CLI flags."""

import json

import numpy as np
import pytest

from repro.campaign import (
    ArtifactStore,
    CampaignSpec,
    JansenReducer,
    ParallelExecutor,
    SaltelliPlan,
    SensitivitySpec,
    SerialExecutor,
    resume_campaign,
    run_campaign,
)
from repro.campaign.executor import evaluate_chunk, resolve_model
from repro.campaign.runner import campaign_chunks, campaign_parameters
from repro.errors import CampaignError
from repro.uq.sensitivity import all_pairs

from .conftest import make_toy_sensitivity_spec

GROUPS = [[0, 1], [2, 3]]


def make_extended_spec(num_base_samples=8, chunk_size=7, **overrides):
    settings = dict(
        num_base_samples=num_base_samples,
        chunk_size=chunk_size,
        second_order=True,
        groups=GROUPS,
        qoi="identity",
    )
    settings.update(overrides)
    return make_toy_sensitivity_spec(**settings)


class TestExtendedPlanLayout:
    def test_block_counts_and_labels(self):
        plan = SaltelliPlan(8, 3, second_order=True, groups=[(0, 2)])
        assert plan.num_pairs == 3
        assert plan.num_groups == 1
        assert plan.num_blocks == 2 + 3 + 3 + 1
        assert plan.num_evaluations == 8 * 9
        assert plan.block_label(0) == "A"
        assert plan.block_label(4) == "AB_2"
        assert plan.block_label(5) == "AB_0_1"
        assert plan.block_label(7) == "AB_1_2"
        assert plan.block_label(8) == "G0"
        assert plan.pairs == all_pairs(3)

    def test_swap_columns(self):
        plan = SaltelliPlan(4, 3, second_order=True, groups=[(0, 1, 2)])
        assert plan.swap_columns(0) == ()
        assert plan.swap_columns(1) == (0, 1, 2)
        assert plan.swap_columns(2) == (0,)
        assert plan.swap_columns(5) == (0, 1)
        assert plan.swap_columns(8) == (0, 1, 2)

    def test_every_index_covered_once(self):
        plan = SaltelliPlan(4, 2, second_order=True, groups=[(0, 1)])
        covered = [g for block in range(plan.num_blocks)
                   for g in plan.block_range(block)]
        assert sorted(covered) == list(range(plan.num_evaluations))

    def test_compose_pair_and_group_blocks(self):
        m, d = 6, 3
        base = np.arange(2 * m * d, dtype=float).reshape(2 * m, d)
        a, b = base[:m], base[m:]
        plan = SaltelliPlan(m, d, second_order=True, groups=[(1, 2)])
        pair_block = plan.compose(
            base, plan.block_range(2 + d)  # AB_01
        )
        assert np.array_equal(pair_block[:, 0], b[:, 0])
        assert np.array_equal(pair_block[:, 1], b[:, 1])
        assert np.array_equal(pair_block[:, 2], a[:, 2])
        group_block = plan.compose(
            base, plan.block_range(plan.num_blocks - 1)
        )
        assert np.array_equal(group_block[:, 0], a[:, 0])
        assert np.array_equal(group_block[:, 1:], b[:, 1:])

    def test_plan_without_extensions_unchanged(self):
        """No extensions -> the original M (d + 2) layout and dict."""
        plan = SaltelliPlan(8, 3)
        assert plan.num_blocks == 5
        assert plan.to_dict() == {"num_base_samples": 8, "dimension": 3}

    def test_plan_dict_roundtrip(self):
        plan = SaltelliPlan(8, 4, second_order=True, groups=[(0, 3)])
        loaded = SaltelliPlan.from_dict(plan.to_dict())
        assert loaded.to_dict() == plan.to_dict()
        assert loaded.pairs == plan.pairs
        assert loaded.groups == plan.groups

    def test_invalid_groups_rejected(self):
        with pytest.raises(CampaignError):
            SaltelliPlan(4, 3, groups=[(0, 5)])
        with pytest.raises(CampaignError):
            SaltelliPlan(4, 3, groups=[()])
        with pytest.raises(CampaignError):
            SaltelliPlan(4, 3, groups=[(1, 1)])

    def test_non_integer_group_entries_rejected_cleanly(self):
        """Hand-written spec JSON with bad group entries must fail with
        the spec-level error, not a raw ValueError or a silently
        truncated float."""
        with pytest.raises(CampaignError, match="not an integer"):
            SaltelliPlan(4, 3, groups=[["x", 1]])
        with pytest.raises(CampaignError, match="not an integer"):
            SaltelliPlan(4, 3, groups=[[0, 1.5]])
        data = make_extended_spec().to_dict()
        data["groups"] = [[0, 1.5]]
        with pytest.raises(CampaignError, match="not an integer"):
            CampaignSpec.from_dict(data)


class TestSpecRoundTrip:
    def test_legacy_spec_dict_loads_unchanged(self, toy_sensitivity_spec):
        """A PR-2 spec dict (no second-order/group keys) still loads,
        runs, and re-serializes without the new keys."""
        legacy = toy_sensitivity_spec.to_dict()
        assert "second_order" not in legacy
        assert "groups" not in legacy
        loaded = CampaignSpec.from_dict(json.loads(json.dumps(legacy)))
        assert isinstance(loaded, SensitivitySpec)
        assert loaded.to_dict() == legacy
        assert loaded.plan.num_blocks == loaded.dimension + 2
        result = run_campaign(
            loaded, reducer=JansenReducer(loaded, num_bootstrap=0)
        )
        assert result.second_order is None
        assert result.group_indices is None

    def test_extended_spec_roundtrip(self):
        spec = make_extended_spec()
        data = spec.to_dict()
        assert data["second_order"] is True
        assert data["groups"] == GROUPS
        loaded = CampaignSpec.from_json(spec.to_json())
        assert isinstance(loaded, SensitivitySpec)
        assert loaded.to_dict() == data
        assert loaded.plan.pairs == all_pairs(4)
        assert loaded.num_samples == 8 * (2 + 4 + 6 + 2)

    def test_extended_spec_survives_store_reload(self, tmp_path):
        spec = make_extended_spec()
        store = ArtifactStore(tmp_path / "store").initialize(spec)
        reloaded = store.load_spec()
        assert isinstance(reloaded, SensitivitySpec)
        assert reloaded.to_dict() == spec.to_dict()
        assert reloaded.groups == spec.groups
        # The pinned-spec equality check still accepts the spec.
        store.initialize(spec)

    def test_evaluation_budget_includes_extensions(self):
        spec = make_extended_spec()
        plan = spec.plan
        assert plan.num_pairs == 6
        assert plan.num_groups == 2
        assert spec.num_samples == plan.num_evaluations

    def test_unit_points_partition_independent(self):
        for sampler in ("random", "counter", "halton"):
            spec = make_extended_spec(sampler=sampler)
            full = campaign_parameters(spec)
            picks = [0, 17, 33, spec.num_samples - 1]
            subset = campaign_parameters(spec, picks)
            assert np.array_equal(subset, full[picks])

    def test_counter_sampler_swaps_pair_columns(self):
        spec = make_extended_spec(sampler="counter")
        full = campaign_parameters(spec)
        m, d = spec.num_base_samples, spec.dimension
        a = full[:m]
        b = full[m:2 * m]
        # First pair block AB_01 sits right after the AB_i blocks.
        block = full[(2 + d) * m:(3 + d) * m]
        assert np.array_equal(block[:, :2], b[:, :2])
        assert np.array_equal(block[:, 2:], a[:, 2:])
        # Last group block swaps columns 2 and 3.
        group_block = full[-m:]
        assert np.array_equal(group_block[:, 2:], b[:, 2:])
        assert np.array_equal(group_block[:, :2], a[:, :2])


class TestStreamingCampaignEquivalence:
    def test_streaming_matches_in_memory_bitwise(self):
        """Streaming (no bootstrap) and keeping the rows for a bootstrap
        give bit-identical point estimates."""
        spec = make_extended_spec()
        in_memory = run_campaign(spec, reducer=JansenReducer(
            spec, num_bootstrap=5
        ))
        streamed = run_campaign(spec, reducer=JansenReducer(
            spec, num_bootstrap=0
        ))
        assert streamed.streamed and not in_memory.streamed
        _assert_results_equal(streamed, in_memory)

    @pytest.mark.parametrize("chunk_size", (1, 7, 64, None))
    def test_chunk_sizes_bitwise(self, chunk_size):
        """Chunk sizes 1, 7, 64 and M(d+2+p+g) (one chunk) all match."""
        one_chunk = make_extended_spec(chunk_size=112)
        reference = run_campaign(
            one_chunk, reducer=JansenReducer(one_chunk, num_bootstrap=0)
        )
        spec = make_extended_spec(
            chunk_size=chunk_size if chunk_size else 112
        )
        result = run_campaign(
            spec, reducer=JansenReducer(spec, num_bootstrap=0)
        )
        _assert_results_equal(result, reference)

    @pytest.mark.parametrize("workers", (1, 4))
    def test_worker_counts_bitwise(self, workers):
        spec = make_extended_spec()
        serial = run_campaign(
            spec, executor=SerialExecutor(),
            reducer=JansenReducer(spec, num_bootstrap=0),
        )
        parallel = run_campaign(
            spec, executor=ParallelExecutor(num_workers=workers),
            reducer=JansenReducer(spec, num_bootstrap=0),
        )
        _assert_results_equal(parallel, serial)

    def test_kill_resume_at_every_chunk_boundary(self, tmp_path):
        """Killing after k completed chunks and resuming (streaming)
        reproduces the uninterrupted reduction bit for bit, for every
        k."""
        spec = make_extended_spec()
        uninterrupted = run_campaign(
            spec, reducer=JansenReducer(spec, num_bootstrap=0)
        )
        model = resolve_model(spec.scenario)
        for completed in range(spec.num_chunks + 1):
            store = ArtifactStore(
                tmp_path / f"store-{completed}"
            ).initialize(spec)
            for chunk in campaign_chunks(spec, range(completed)):
                store.write_chunk(evaluate_chunk(model, chunk))
            resumed = resume_campaign(store, reducer={
                "kind": "jansen", "num_bootstrap": 0,
            })
            expected_remaining = spec.num_samples - min(
                completed * spec.chunk_size, spec.num_samples
            )
            assert resumed.num_evaluated == expected_remaining
            _assert_results_equal(resumed, uninterrupted)

    def test_bootstrap_intervals_cover_extensions_and_resume(
            self, tmp_path):
        spec = make_extended_spec()
        store = ArtifactStore(tmp_path / "store")
        result = run_campaign(
            spec, store=store, reducer=JansenReducer(spec, num_bootstrap=25)
        )
        interval = result.interval
        assert interval.has_second_order
        assert interval.has_groups
        assert interval.second_order_lower.shape == \
            result.second_order.interaction.shape
        assert interval.group_total_upper.shape == \
            result.group_indices.total.shape
        resumed = resume_campaign(
            store, reducer={"kind": "jansen", "num_bootstrap": 25}
        )
        assert np.array_equal(interval.second_order_lower,
                              resumed.interval.second_order_lower,
                              equal_nan=True)
        assert np.array_equal(interval.group_total_upper,
                              resumed.interval.group_total_upper,
                              equal_nan=True)

    def test_streaming_with_bootstrap_rejected(self):
        """A persisted reducer dict with the old ``streaming`` entry
        loads with the entry dropped, and still refuses a bootstrap."""
        spec = make_extended_spec()
        with pytest.raises(CampaignError, match="streaming"):
            run_campaign(spec, reducer={
                "kind": "jansen", "num_bootstrap": 10, "streaming": True,
            })
        for streaming in (True, False):
            result = run_campaign(spec, reducer={
                "kind": "jansen", "num_bootstrap": 0,
                "streaming": streaming,
            })
            assert result.streamed
        # The class itself takes no streaming option.
        with pytest.raises(TypeError):
            JansenReducer(spec, streaming=True)

    def test_default_streams_only_without_bootstrap(self):
        spec = make_extended_spec()
        assert run_campaign(
            spec, reducer=JansenReducer(spec, num_bootstrap=0)
        ).streamed
        assert not run_campaign(
            spec, reducer=JansenReducer(spec, num_bootstrap=5)
        ).streamed

    @pytest.mark.filterwarnings("error")
    def test_zero_variance_pair_components_flagged_not_warned(self):
        """The toy constant-pad QoI exercises the NaN contract through
        the full campaign: pair/group indices report NaN for the
        constant component and no division warning escapes."""
        spec = make_extended_spec(qoi="test-constant-pad")
        result = run_campaign(
            spec, reducer=JansenReducer(spec, num_bootstrap=10)
        )
        assert np.all(np.isnan(result.second_order.closed[:, 1]))
        assert np.all(np.isnan(result.second_order.interaction[:, 1]))
        assert np.all(np.isnan(result.group_indices.total[:, 1]))
        assert np.all(np.isfinite(result.second_order.closed[:, 0]))
        assert np.all(
            np.isnan(result.interval.second_order_lower[:, 1])
        )


class TestExtendedSummaryAndReport:
    def test_summary_carries_extension_tables(self):
        spec = make_extended_spec()
        result = run_campaign(
            spec, reducer=JansenReducer(spec, num_bootstrap=10)
        )
        summary = result.summary()
        assert summary["pairs"] == [list(p) for p in all_pairs(4)]
        assert len(summary["second_order"]) == 6
        assert len(summary["closed_second_order"]) == 6
        assert summary["groups"] == GROUPS
        assert len(summary["group_total"]) == 2
        assert "second_order_lower" in summary
        assert "group_total_upper" in summary
        assert summary["interaction_ranking"][0] == int(np.argmax(
            np.asarray(summary["second_order"])
        ))
        # Everything JSON-serializable (the store summary contract).
        json.dumps(summary)

    def test_report_renders_interaction_and_group_tables(self):
        from repro.reporting.sensitivity import format_sensitivity_summary

        spec = make_extended_spec()
        result = run_campaign(
            spec, reducer=JansenReducer(spec, num_bootstrap=10)
        )
        text = format_sensitivity_summary(result.summary())
        assert "Pair interactions" in text
        assert "S_ij" in text
        assert "Factor groups" in text
        assert "{x02,x03}" in text
        assert "Pair blocks AB_ij" in text

    def test_report_without_extensions_unchanged(self,
                                                 toy_sensitivity_spec):
        from repro.reporting.sensitivity import format_sensitivity_summary

        result = run_campaign(toy_sensitivity_spec, reducer=JansenReducer(
            toy_sensitivity_spec, num_bootstrap=0
        ))
        text = format_sensitivity_summary(result.summary())
        assert "Pair interactions" not in text
        assert "Factor groups" not in text


class TestSecondOrderCli:
    def test_sobol_spec_flags(self, tmp_path, capsys):
        from repro.campaign.cli import main

        out = tmp_path / "d16.json"
        assert main(["sobol", "spec", "date16", "--samples", "4",
                     "--second-order", "--groups", "0,1,2,3,4,5;6,7,8,9,10,11",
                     "-o", str(out)]) == 0
        loaded = CampaignSpec.load(out)
        assert isinstance(loaded, SensitivitySpec)
        assert loaded.second_order
        assert loaded.groups == [tuple(range(6)), tuple(range(6, 12))]
        assert loaded.num_samples == 4 * (2 + 12 + 66 + 2)
        assert "wrote" in capsys.readouterr().out

    def test_sobol_spec_bad_groups(self, tmp_path, capsys):
        from repro.campaign.cli import main

        assert main(["sobol", "spec", "date16", "--groups", "0,x",
                     "-o", str(tmp_path / "x.json")]) == 1
        assert "invalid factor group" in capsys.readouterr().err

    def test_sobol_run_streaming_flag(self, tmp_path, capsys):
        """``--bootstrap 0`` streams: no CI columns, and the running
        sums are checkpointed."""
        from repro.campaign.cli import main

        spec = make_extended_spec()
        path = str(spec.save(tmp_path / "sens.json"))
        store = str(tmp_path / "store")
        assert main(["run", path, "--store", store,
                     "--bootstrap", "0", "--quiet"]) == 0
        output = capsys.readouterr().out
        assert "Pair interactions" in output
        assert "Factor groups" in output
        assert "CI" not in output
        assert ArtifactStore(store).read_reducer_state() is not None
        assert main(["report", store]) == 0
        assert capsys.readouterr().out == output

    def test_sobol_run_streaming_with_bootstrap_rejected(
            self, tmp_path, capsys):
        """A spec pinning the old ``streaming`` reducer entry still
        refuses a bootstrap."""
        from repro.campaign.cli import main

        spec = make_extended_spec()
        spec.reducer = {"kind": "jansen", "num_bootstrap": 0,
                        "streaming": True}
        path = str(spec.save(tmp_path / "sens.json"))
        assert main(["run", path, "--bootstrap", "10", "--quiet"]) == 1
        assert "streaming" in capsys.readouterr().err

    def test_sobol_resume_streaming(self, tmp_path, capsys):
        from repro.campaign.cli import main

        spec = make_extended_spec()
        store = ArtifactStore(str(tmp_path / "store")).initialize(spec)
        model = resolve_model(spec.scenario)
        for chunk in campaign_chunks(spec, [0, 2]):
            store.write_chunk(evaluate_chunk(model, chunk))
        assert main(["resume", store.path, "--bootstrap", "0",
                     "--quiet"]) == 0
        assert store.completed_chunks() == list(range(spec.num_chunks))
        assert store.read_reducer_state() is not None
        assert "Pair interactions" in capsys.readouterr().out

    def test_streaming_flag_removed(self, tmp_path, capsys):
        from repro.campaign.cli import main

        path = str(make_extended_spec().save(tmp_path / "sens.json"))
        with pytest.raises(SystemExit):
            main(["run", path, "--streaming", "--quiet"])
        assert "--streaming" in capsys.readouterr().err


def _assert_results_equal(result, reference):
    assert np.array_equal(result.first_order, reference.first_order,
                          equal_nan=True)
    assert np.array_equal(result.total, reference.total, equal_nan=True)
    assert np.array_equal(np.asarray(result.variance),
                          np.asarray(reference.variance))
    assert np.array_equal(result.second_order.closed,
                          reference.second_order.closed, equal_nan=True)
    assert np.array_equal(result.second_order.interaction,
                          reference.second_order.interaction,
                          equal_nan=True)
    assert np.array_equal(result.second_order.total,
                          reference.second_order.total, equal_nan=True)
    assert np.array_equal(result.group_indices.closed,
                          reference.group_indices.closed, equal_nan=True)
    assert np.array_equal(result.group_indices.total,
                          reference.group_indices.total, equal_nan=True)
    assert np.array_equal(result.parameters, reference.parameters)
