"""Bonding wire models: geometry, lumped electrothermal elements, failure.

This package implements Section III-B (the lumped element wire model and
its stamps) and Section IV-B (the uncertain length geometry) of the paper,
the analytic steady-state baseline the paper cites (Noebauer & Moser
style) and the failure criterion of Section V-D: a wire fails when it
passes a static critical temperature.
"""

from .failure import (
    FailureAssessment,
    assess_failure,
    first_crossing_time,
    preece_fusing_current,
)
from .geometry import (
    WireLengthModel,
    bending_elongation_arc,
    bending_elongation_triangle,
    misplacement_elongation,
    relative_elongation,
    total_length,
)
from .lumped import LumpedBondWire, WireStamp, stamp_conductance_matrix
from .models import AnalyticWireModel, FinWireSolution

__all__ = [
    "LumpedBondWire",
    "WireStamp",
    "stamp_conductance_matrix",
    "WireLengthModel",
    "relative_elongation",
    "total_length",
    "misplacement_elongation",
    "bending_elongation_arc",
    "bending_elongation_triangle",
    "AnalyticWireModel",
    "FinWireSolution",
    "FailureAssessment",
    "assess_failure",
    "first_crossing_time",
    "preece_fusing_current",
]
