"""The coupled electrothermal field-circuit solver (Sections II-III).

* :mod:`repro.coupled.problem` -- :class:`ElectrothermalProblem`: grid,
  materials, boundary conditions and bonding wires in one validated object,
  plus the wire topology (stamps, internal nodes of multi-segment wires),
* :mod:`repro.coupled.electrical` -- the stationary current sub-problem,
* :mod:`repro.coupled.thermal` -- the transient thermal sub-problem
  (standalone, for verification),
* :mod:`repro.coupled.electrothermal` -- the coupled nonlinear transient
  solver with the paper's implicit Euler / successive substitution scheme
  and a Woodbury-accelerated fast path for Monte Carlo,
* :mod:`repro.coupled.quantities` -- results containers and the paper's
  quantities of interest (wire temperatures, E_max(t)).
"""

from .electrical import solve_stationary_current
from .energy import EnergyAudit, audit_energy
from .excitation import (
    ConstantWaveform,
    PulseTrainWaveform,
    RampWaveform,
    StepWaveform,
    Waveform,
    as_waveform,
)
from .electrothermal import CoupledSolver
from .problem import ElectrothermalProblem, WireTopology
from .quantities import StationaryResult, TransientResult
from .thermal import solve_thermal_transient

__all__ = [
    "ElectrothermalProblem",
    "WireTopology",
    "CoupledSolver",
    "TransientResult",
    "StationaryResult",
    "solve_stationary_current",
    "solve_thermal_transient",
    "Waveform",
    "ConstantWaveform",
    "StepWaveform",
    "PulseTrainWaveform",
    "RampWaveform",
    "as_waveform",
    "audit_energy",
    "EnergyAudit",
]
