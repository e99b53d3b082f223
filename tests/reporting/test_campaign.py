"""Tests for campaign summary tables."""

import pytest

from repro.reporting.campaign import (
    format_campaign_comparison,
    format_campaign_summary,
)

SUMMARY = {
    "campaign": "date16-mc-64",
    "problem": "date16",
    "qoi": "final",
    "num_samples": 64,
    "num_chunks": 16,
    "output_size": 12,
    "mean_max": 352.125,
    "mean_min": 311.5,
    "std_max": 4.6512,
    "error_mc_max": 0.5814,
    "argmax_output": 7,
}


class TestSummaryTable:
    def test_known_rows_in_order(self):
        text = format_campaign_summary(SUMMARY)
        lines = text.splitlines()
        assert lines[0] == "Campaign summary"
        assert "Campaign" in lines[3] and "date16-mc-64" in lines[3]
        assert text.index("Samples M") < text.index("max E [K]")
        assert "4.6512" in text

    def test_extra_keys_appended(self):
        summary = dict(SUMMARY, band_crossing_time=36.0)
        text = format_campaign_summary(summary)
        assert "band_crossing_time" in text
        assert "36" in text

    def test_custom_title(self):
        text = format_campaign_summary(SUMMARY, title="MY CAMPAIGN")
        assert text.startswith("MY CAMPAIGN")


class TestComparisonTable:
    def test_columns_per_campaign(self):
        other = dict(SUMMARY, campaign="date16-mc-128", num_samples=128)
        text = format_campaign_comparison([SUMMARY, other])
        header = text.splitlines()[1]
        assert "date16-mc-64" in header
        assert "date16-mc-128" in header
        assert "128" in text

    def test_missing_keys_render_dash(self):
        partial = {"campaign": "tiny", "num_samples": 4}
        text = format_campaign_comparison([SUMMARY, partial])
        assert " - " in text or "- " in text

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            format_campaign_comparison([])


class TestBlockedEvaluationLine:
    @staticmethod
    def _telemetry(counters, gauges=None):
        return {
            "chunks": {
                0: [{"event": "chunk", "chunk": 0, "samples": 8,
                     "wall_s": 0.5, "worker": "w0"}],
            },
            "metrics": {"counters": counters, "gauges": gauges or {}},
        }

    def test_blocked_split_rendered(self):
        from repro.reporting.telemetry import format_timings_report

        report = format_timings_report(self._telemetry(
            {"campaign.blocked_solves": 48, "campaign.loop_solves": 16},
            {"campaign.batch_size": 8},
        ))
        assert "48 samples blocked" in report
        assert "16 per-sample fallback" in report
        assert "75.0% blocked" in report
        assert "last batch size 8" in report

    def test_line_absent_without_counters(self):
        from repro.reporting.telemetry import format_timings_report

        report = format_timings_report(self._telemetry({}))
        assert "Blocked evaluation" not in report

    def test_pure_fallback_campaign(self):
        from repro.reporting.telemetry import format_timings_report

        report = format_timings_report(
            self._telemetry({"campaign.loop_solves": 24})
        )
        assert "0 samples blocked" in report
        assert "24 per-sample fallback" in report


class TestTraceSummarySamples:
    def test_samples_records_form_the_sample_row(self):
        """Each row-loop chunk's ``samples`` record contributes one
        ``sample`` duration per row to the span table."""
        from repro.reporting.telemetry import format_trace_summary

        telemetry = {
            "chunks": {
                index: [
                    {"event": "span", "name": "chunk", "t0_s": 0.0,
                     "wall_s": 1.0, "parent": None},
                    {"event": "samples", "count": 2,
                     "wall_s": [0.25, 0.5 + index]},
                ]
                for index in range(2)
            },
            "run": [],
        }
        cells = [line.replace("|", " ").split()
                 for line in format_trace_summary(telemetry).splitlines()]
        rows = {row[0]: row[1:] for row in cells
                if row[:1] in (["chunk"], ["sample"])}
        # Name -> count, total, mean, max.
        assert rows["sample"] == ["4", "2.5", "0.625", "1.5"]
        assert rows["chunk"] == ["2", "2", "1", "1"]
