"""Tests for the repro-campaign command line interface."""


import pytest

from repro.campaign import ArtifactStore, CampaignSpec
from repro.campaign.cli import main

from .conftest import make_toy_spec


@pytest.fixture
def toy_spec_path(tmp_path):
    spec = make_toy_spec(num_samples=12, chunk_size=4)
    return str(spec.save(tmp_path / "spec.json"))


class TestSpecCommand:
    def test_writes_date16_template(self, tmp_path, capsys):
        out = tmp_path / "date16.json"
        code = main(["spec", "date16", "--samples", "16",
                     "--chunk-size", "4", "-o", str(out)])
        assert code == 0
        spec = CampaignSpec.load(out)
        assert spec.scenario.problem == "date16"
        assert spec.num_samples == 16
        assert spec.dimension == 12
        assert "wrote" in capsys.readouterr().out

    def test_unknown_problem_fails(self, tmp_path, capsys):
        code = main(["spec", "mystery", "-o", str(tmp_path / "x.json")])
        assert code == 2
        assert "no spec template" in capsys.readouterr().err

    def test_removed_time_stepping_flag_fails(self, tmp_path, capsys):
        out = tmp_path / "adaptive.json"
        with pytest.raises(SystemExit) as exit_info:
            main(["spec", "date16", "--time-stepping", "adaptive",
                  "-o", str(out)])
        assert exit_info.value.code != 0
        assert "--time-stepping" in capsys.readouterr().err
        assert not out.exists()


class TestRunCommand:
    def test_run_without_store(self, toy_spec_path, capsys):
        code = main(["run", toy_spec_path, "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Campaign summary" in out
        assert "Samples M" in out

    def test_run_with_store_then_report(self, toy_spec_path, tmp_path,
                                        capsys):
        store_dir = str(tmp_path / "store")
        assert main(["run", toy_spec_path, "--store", store_dir,
                     "--quiet"]) == 0
        run_output = capsys.readouterr().out
        assert main(["report", store_dir]) == 0
        report_output = capsys.readouterr().out
        assert report_output == run_output
        summary = ArtifactStore(store_dir).read_summary()
        assert summary["num_samples"] == 12

    def test_progress_lines_on_stderr(self, toy_spec_path, tmp_path,
                                      capsys):
        assert main(["run", toy_spec_path, "--store",
                     str(tmp_path / "s")]) == 0
        captured = capsys.readouterr()
        assert "chunk 3/3 complete" in captured.err


class TestResumeCommand:
    def test_resume_completes_partial_store(self, toy_spec_path, tmp_path,
                                            capsys):
        from repro.campaign.executor import evaluate_chunk, resolve_model
        from repro.campaign.runner import campaign_chunks

        spec = CampaignSpec.load(toy_spec_path)
        store_dir = str(tmp_path / "store")
        store = ArtifactStore(store_dir).initialize(spec)
        model = resolve_model(spec.scenario)
        for chunk in campaign_chunks(spec, [1]):
            store.write_chunk(evaluate_chunk(model, chunk))

        assert main(["resume", store_dir, "--quiet"]) == 0
        assert store.completed_chunks() == [0, 1, 2]
        capsys.readouterr()
        # An immediately repeated resume recomputes nothing and reports
        # the identical summary.
        assert main(["resume", store_dir, "--quiet"]) == 0
        assert "Campaign summary" in capsys.readouterr().out


class TestReportCommand:
    def test_report_without_summary_fails_cleanly(self, toy_spec_path,
                                                  tmp_path, capsys):
        spec = CampaignSpec.load(toy_spec_path)
        store_dir = str(tmp_path / "store")
        ArtifactStore(store_dir).initialize(spec)
        assert main(["report", store_dir]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_spec_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err


class TestParallelCli:
    def test_parallel_run_matches_serial(self, toy_spec_path, tmp_path,
                                         capsys):
        serial_store = str(tmp_path / "serial")
        parallel_store = str(tmp_path / "parallel")
        assert main(["run", toy_spec_path, "--store", serial_store,
                     "--quiet"]) == 0
        assert main(["run", toy_spec_path, "--store", parallel_store,
                     "--executor", "process", "--workers", "2",
                     "--quiet"]) == 0
        capsys.readouterr()
        serial = ArtifactStore(serial_store).read_summary()
        parallel = ArtifactStore(parallel_store).read_summary()
        assert serial == parallel


class TestExecutorBackendCli:
    def test_thread_backend_matches_serial(self, toy_spec_path, tmp_path,
                                           capsys):
        serial_store = str(tmp_path / "serial")
        thread_store = str(tmp_path / "thread")
        assert main(["run", toy_spec_path, "--store", serial_store,
                     "--quiet"]) == 0
        assert main(["run", toy_spec_path, "--store", thread_store,
                     "--executor", "thread", "--workers", "2",
                     "--quiet"]) == 0
        capsys.readouterr()
        assert ArtifactStore(serial_store).read_summary() == \
            ArtifactStore(thread_store).read_summary()

    def test_workers_with_serial_executor_errors(self, toy_spec_path,
                                                 capsys):
        """The --workers footgun: refused, not silently ignored."""
        assert main(["run", toy_spec_path, "--workers", "4",
                     "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "serial" in err

    def test_unknown_backend_lists_registered(self, toy_spec_path,
                                              capsys):
        assert main(["run", toy_spec_path, "--executor", "gpu",
                     "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "unknown executor backend" in err
        assert "serial" in err and "process" in err


class TestReducerCli:
    def test_pce_run_and_report(self, tmp_path, capsys):
        spec = make_toy_spec(num_samples=32, chunk_size=8)
        spec.distribution = {"kind": "uniform", "lower": -1.0,
                             "upper": 1.0}
        path = str(spec.save(tmp_path / "spec.json"))
        store = str(tmp_path / "store")
        assert main(["run", path, "--store", store, "--reducer", "pce",
                     "--pce-degree", "2", "--quiet"]) == 0
        run_output = capsys.readouterr().out
        assert "PCE surrogate campaign" in run_output
        assert main(["report", store]) == 0
        assert capsys.readouterr().out == run_output

    def test_pce_reduce_of_existing_store(self, toy_spec_path, tmp_path,
                                          capsys):
        """resume --reducer pce refits from checkpoints, no new solves."""
        store = str(tmp_path / "store")
        assert main(["run", toy_spec_path, "--store", store,
                     "--quiet"]) == 0
        capsys.readouterr()
        assert main(["resume", store, "--reducer", "pce",
                     "--pce-degree", "1", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "PCE surrogate campaign" in out

    def test_bootstrap_flag_rejected_for_moments(self, toy_spec_path,
                                                 capsys):
        assert main(["run", toy_spec_path, "--bootstrap", "10",
                     "--quiet"]) == 1
        assert "jansen" in capsys.readouterr().err

    def test_pce_degree_requires_pce(self, toy_spec_path, capsys):
        assert main(["run", toy_spec_path, "--pce-degree", "3",
                     "--quiet"]) == 1
        assert "pce" in capsys.readouterr().err


class TestProvenance:
    def test_report_prints_provenance_line(self, toy_spec_path, tmp_path,
                                           capsys):
        store = str(tmp_path / "store")
        assert main(["run", toy_spec_path, "--store", store,
                     "--quiet"]) == 0
        capsys.readouterr()
        assert main(["report", store]) == 0
        out = capsys.readouterr().out
        assert "provenance: repro-date16" in out
        assert "reducer=moments" in out
        assert "executor=serial" in out

    def test_provenance_names_reducer_and_backend(self, tmp_path, capsys):
        from .conftest import make_toy_sensitivity_spec

        spec = make_toy_sensitivity_spec(num_base_samples=8, chunk_size=6)
        path = str(spec.save(tmp_path / "sens.json"))
        store = str(tmp_path / "store")
        assert main(["run", path, "--store", store, "--executor",
                     "process", "--workers", "2", "--quiet"]) == 0
        capsys.readouterr()
        provenance = ArtifactStore(store).read_provenance()
        assert provenance["reducer"] == "jansen"
        assert provenance["executor"] == "process"
        assert provenance["package_version"]


class TestTelemetryCli:
    @pytest.fixture
    def telemetry_store(self, toy_spec_path, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["run", toy_spec_path, "--store", store,
                     "--telemetry", "--quiet"]) == 0
        capsys.readouterr()
        return store

    def test_report_timings_renders_tables(self, telemetry_store, capsys):
        assert main(["report", telemetry_store, "--timings"]) == 0
        out = capsys.readouterr().out
        assert "Per-chunk timings" in out
        assert "Worker utilization" in out
        assert "straggler ratio" in out

    def test_report_timings_without_telemetry_degrades(self, toy_spec_path,
                                                       tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["run", toy_spec_path, "--store", store,
                     "--no-telemetry", "--quiet"]) == 0
        capsys.readouterr()
        assert main(["report", store, "--timings"]) == 0
        assert "No telemetry recorded" in capsys.readouterr().out

    def test_trace_summary(self, telemetry_store, capsys):
        assert main(["trace", telemetry_store]) == 0
        out = capsys.readouterr().out
        assert "Event inventory" in out
        assert "Span durations" in out
        assert "run_complete" in out

    def test_trace_validate(self, telemetry_store, capsys):
        assert main(["trace", telemetry_store, "--validate"]) == 0
        out = capsys.readouterr().out
        assert "validated" in out
        assert "3 chunk logs" in out

    def test_trace_validate_fails_without_telemetry(self, toy_spec_path,
                                                    tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["run", toy_spec_path, "--store", store,
                     "--no-telemetry", "--quiet"]) == 0
        capsys.readouterr()
        assert main(["trace", store, "--validate"]) == 1
        assert "no-telemetry" in capsys.readouterr().err

    def test_trace_dump_is_machine_readable(self, telemetry_store, capsys):
        import json

        assert main(["trace", telemetry_store, "--dump"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        events = [json.loads(line) for line in lines]
        assert len(events) > 0
        kinds = {event["event"] for event in events}
        assert {"run_start", "chunk", "span", "run_complete"} <= kinds

    def test_no_telemetry_flag_leaves_store_clean(self, toy_spec_path,
                                                  tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["run", toy_spec_path, "--store", store,
                     "--no-telemetry", "--quiet"]) == 0
        capsys.readouterr()
        assert ArtifactStore(store).telemetry_chunks() == []
