"""repro: electrothermal FIT simulation of bonding wire degradation.

A from-scratch reproduction of Casper et al., "Electrothermal Simulation of
Bonding Wire Degradation under Uncertain Geometries" (DATE 2016): a 3D
Finite Integration Technique electrothermal field solver with lumped
bonding-wire field-circuit coupling, plus the uncertainty quantification
stack that propagates uncertain wire geometries to wire temperatures.

Quickstart::

    from repro import build_date16_problem, CoupledSolver, TimeGrid

    problem, mesh = build_date16_problem(resolution="coarse")
    solver = CoupledSolver(problem, mode="fast")
    result = solver.solve_transient(TimeGrid.from_num_points(50.0, 51))
    print(result.summary())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from .bondwire import (
    AnalyticWireModel,
    LumpedBondWire,
    WireLengthModel,
    assess_failure,
)
from .constants import (
    EMISSIVITY_DEFAULT,
    HEAT_TRANSFER_COEFFICIENT_DEFAULT,
    STEFAN_BOLTZMANN,
    T_AMBIENT_DEFAULT,
    T_CRITICAL_DEFAULT,
    T_REFERENCE,
)
from .coupled import (
    CoupledSolver,
    ElectrothermalProblem,
    StationaryResult,
    TransientResult,
    solve_stationary_current,
)
from .coupled.excitation import (
    ConstantWaveform,
    PulseTrainWaveform,
    RampWaveform,
    StepWaveform,
)
from .campaign import (
    ArtifactStore,
    CampaignResult,
    CampaignSpec,
    ParallelExecutor,
    ScenarioSpec,
    SerialExecutor,
    SurrogateResult,
    register_backend,
    register_reducer,
    resume_campaign,
    run_campaign,
)
from .errors import ReproError
from .fit import (
    ConvectionBC,
    DirichletBC,
    FITDiscretization,
    MaterialField,
    RadiationBC,
)
from .grid import TensorGrid
from .materials import Material, get_material
from .package3d import (
    Date16Parameters,
    build_date16_problem,
    date16_layout,
    date16_xray_measurements,
    wire_lengths_from_deltas,
)
from .solvers import TimeGrid
from .uq import (
    MonteCarloStudy,
    NormalDistribution,
    PolynomialChaosExpansion,
    StochasticCollocation,
    fit_normal,
    monte_carlo_error,
    sobol_indices,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # constants
    "STEFAN_BOLTZMANN",
    "T_REFERENCE",
    "T_AMBIENT_DEFAULT",
    "T_CRITICAL_DEFAULT",
    "HEAT_TRANSFER_COEFFICIENT_DEFAULT",
    "EMISSIVITY_DEFAULT",
    # errors
    "ReproError",
    # grid / fit
    "TensorGrid",
    "FITDiscretization",
    "MaterialField",
    "DirichletBC",
    "ConvectionBC",
    "RadiationBC",
    # materials
    "Material",
    "get_material",
    # bond wires
    "LumpedBondWire",
    "WireLengthModel",
    "AnalyticWireModel",
    "assess_failure",
    # waveforms
    "ConstantWaveform",
    "StepWaveform",
    "PulseTrainWaveform",
    "RampWaveform",
    # coupled solver
    "ElectrothermalProblem",
    "CoupledSolver",
    "TransientResult",
    "StationaryResult",
    "solve_stationary_current",
    "TimeGrid",
    # campaign engine
    "ScenarioSpec",
    "CampaignSpec",
    "SerialExecutor",
    "ParallelExecutor",
    "register_backend",
    "register_reducer",
    "ArtifactStore",
    "CampaignResult",
    "SurrogateResult",
    "run_campaign",
    "resume_campaign",
    # uq
    "NormalDistribution",
    "fit_normal",
    "MonteCarloStudy",
    "StochasticCollocation",
    "PolynomialChaosExpansion",
    "monte_carlo_error",
    "sobol_indices",
    # package example
    "Date16Parameters",
    "date16_layout",
    "build_date16_problem",
    "date16_xray_measurements",
    "wire_lengths_from_deltas",
]
