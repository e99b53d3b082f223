"""Reporting: ASCII tables, CSV series export, figure-data generators.

The benchmark harness regenerates every table and figure of the paper as
text/CSV artifacts; this package holds the shared formatting code.
"""

from .campaign import (
    format_campaign_comparison,
    format_campaign_summary,
)
from .figures import field_slice, fig5_data, fig7_data, fig8_data
from .sensitivity import format_pce_summary, format_sensitivity_summary
from .series import write_csv, write_series
from .tables import format_table, format_table1, format_table2
from .telemetry import format_timings_report, format_trace_summary
from .vtk import write_rectilinear_vtk

__all__ = [
    "format_campaign_summary",
    "format_campaign_comparison",
    "format_sensitivity_summary",
    "format_pce_summary",
    "format_table",
    "format_table1",
    "format_table2",
    "format_timings_report",
    "format_trace_summary",
    "write_csv",
    "write_series",
    "fig5_data",
    "fig7_data",
    "fig8_data",
    "field_slice",
    "write_rectilinear_vtk",
]
