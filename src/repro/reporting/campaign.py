"""Campaign summary tables (the ``repro-campaign report`` output)."""

from .tables import format_table

#: Row order and labels of the summary table; keys match
#: :meth:`repro.campaign.runner.CampaignResult.summary`.
_SUMMARY_ROWS = (
    ("campaign", "Campaign"),
    ("problem", "Problem"),
    ("qoi", "Quantity of interest"),
    ("num_samples", "Samples M"),
    ("num_chunks", "Checkpoint chunks"),
    ("output_size", "Output entries"),
    ("mean_max", "max E [K]"),
    ("mean_min", "min E [K]"),
    ("std_max", "max sigma_MC [K]"),
    ("error_mc_max", "max sigma_MC/sqrt(M) [K]"),
    ("argmax_output", "Hottest output index"),
    ("num_quarantined_chunks", "Quarantined chunks"),
    ("num_quarantined_samples", "Quarantined samples"),
)


def _format_value(value):
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def format_campaign_summary(summary, title=None):
    """ASCII table of one campaign summary dict.

    Unknown keys are appended verbatim after the well-known rows, so
    problem-specific summaries still report everything they carry.
    """
    summary = dict(summary)
    rows = []
    for key, label in _SUMMARY_ROWS:
        if key in summary:
            rows.append((label, _format_value(summary.pop(key))))
    for key in sorted(summary):
        rows.append((key, _format_value(summary[key])))
    if title is None:
        title = "Campaign summary"
    return format_table(("Quantity", "Value"), rows, title=title)


#: Extra rows a partial (in-progress / killed) summary carries on top
#: of the well-known scalars; keys match
#: :func:`repro.service.status.partial_summary`.
_PARTIAL_ROWS = (
    ("chunks_completed", "Chunks completed"),
    ("chunks_folded", "Chunks folded (frontier)"),
    ("rate_chunks_per_s", "Chunk rate [1/s]"),
)


def format_partial_summary(summary, title=None):
    """ASCII table of a partial campaign summary.

    The ``report --partial`` rendering: same table as
    :func:`format_campaign_summary` (the synthesized summary reuses the
    well-known keys, so mean/std rows land in their usual places) plus
    the progress rows, under a title that cannot be mistaken for a
    completed campaign.
    """
    summary = dict(summary)
    summary.pop("partial", None)
    rows = []
    for key, label in _SUMMARY_ROWS + _PARTIAL_ROWS:
        if key in summary:
            rows.append((label, _format_value(summary.pop(key))))
    for key in sorted(summary):
        rows.append((key, _format_value(summary[key])))
    if title is None:
        title = "Campaign summary (PARTIAL -- in progress)"
    return format_table(("Quantity", "Value"), rows, title=title)


def format_campaign_comparison(summaries, title=None):
    """Side-by-side table of several campaign summaries.

    ``summaries`` is an iterable of summary dicts (e.g. a worker-count
    scaling sweep); columns are campaigns, rows the well-known scalars.
    """
    summaries = [dict(s) for s in summaries]
    if not summaries:
        raise ValueError("need at least one summary to compare")
    headers = ["Quantity"] + [
        str(s.get("campaign", f"run {i}")) for i, s in enumerate(summaries)
    ]
    rows = []
    for key, label in _SUMMARY_ROWS:
        if key == "campaign" or not any(key in s for s in summaries):
            continue
        rows.append(
            [label] + [
                _format_value(s[key]) if key in s else "-"
                for s in summaries
            ]
        )
    return format_table(
        headers, rows, title=title or "Campaign comparison"
    )
