"""Campaign engine: batch execution of UQ scenarios at scale.

The paper's headline workload -- thousands of Monte Carlo evaluations of
one electrothermal problem with perturbed wire geometries -- is
embarrassingly parallel once the per-worker setup (mesh, base LU,
Woodbury operators) is amortized.  This package turns a one-process
study loop into a distributable, checkpointed, resumable campaign:

* :mod:`~repro.campaign.spec` -- declarative, JSON-serializable
  :class:`ScenarioSpec` / :class:`CampaignSpec`;
* :mod:`~repro.campaign.registry` -- names -> problem builders, QoI
  extractors, waveforms, distributions;
* :mod:`~repro.campaign.executor` -- registry-backed executor backends:
  :class:`SerialExecutor`, the pool :class:`ParallelExecutor` over
  processes or threads (model built once per worker), and
  :func:`register_backend` for user backends (Dask, MPI, ...);
* :mod:`~repro.campaign.reducer` -- registry-backed streaming reducers
  (what the evaluations become): :class:`MomentsReducer` running
  statistics, :class:`JansenReducer` Sobol indices,
  :class:`PCEReducer` surrogate fits, and :func:`register_reducer`;
* :mod:`~repro.campaign.faults` -- elastic fault tolerance:
  :class:`RetryPolicy` retries failed chunks (exponential backoff,
  deterministic jitter, straggler timeouts) and chunks that exhaust
  their retries are quarantined as :class:`ChunkFailure` records, so
  one poisoned sample cannot wedge a million-sample campaign;
* :mod:`~repro.campaign.store` -- the resumable :class:`ArtifactStore`
  (``manifest.json`` + the append-only, checksummed ``chunks.log``
  with one record per completed chunk + the reduction-state
  snapshot);
* :mod:`~repro.campaign.runner` -- deterministic per-sample seeding,
  chunked execution, ordered reducer folding, :func:`run_campaign` /
  :func:`resume_campaign` (one path for every campaign kind);
* :mod:`~repro.campaign.cli` -- the ``repro-campaign`` command
  (``spec`` / ``run`` / ``resume`` / ``report``).

Every executor backend and every kill/resume cycle produces bit-identical
results, because parameters are a pure function of the spec and the
reducer only ever sees the checkpointed chunk outputs in chunk order.
"""

from .executor import (
    ChunkResult,
    Executor,
    ParallelExecutor,
    SerialExecutor,
    WorkChunk,
    make_executor,
    register_backend,
    registered_backends,
)
from .faults import ChunkEvaluationError, ChunkFailure, RetryPolicy
from .reducer import (
    JansenReducer,
    MomentsReducer,
    PCEReducer,
    Reducer,
    SurrogateResult,
    register_reducer,
    registered_reducers,
    resolve_reducer,
)
from .registry import (
    build_distribution,
    build_waveform,
    distribution_to_spec,
    get_problem,
    get_qoi,
    register_problem,
    register_qoi,
    registered_problems,
    registered_qois,
    waveform_to_spec,
)
from .runner import (
    CampaignResult,
    campaign_chunks,
    campaign_parameters,
    resume_campaign,
    run_campaign,
    unit_sample,
)
from .sensitivity import (
    SaltelliPlan,
    SensitivityResult,
    SensitivitySpec,
)
from .spec import CampaignSpec, ScenarioSpec
from .store import ArtifactStore, StoreLock

__all__ = [
    "ScenarioSpec",
    "CampaignSpec",
    "SaltelliPlan",
    "SensitivitySpec",
    "SensitivityResult",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "WorkChunk",
    "ChunkResult",
    "ChunkEvaluationError",
    "ChunkFailure",
    "RetryPolicy",
    "make_executor",
    "register_backend",
    "registered_backends",
    "Reducer",
    "MomentsReducer",
    "JansenReducer",
    "PCEReducer",
    "SurrogateResult",
    "register_reducer",
    "registered_reducers",
    "resolve_reducer",
    "ArtifactStore",
    "StoreLock",
    "CampaignResult",
    "run_campaign",
    "resume_campaign",
    "campaign_parameters",
    "campaign_chunks",
    "unit_sample",
    "register_problem",
    "register_qoi",
    "get_problem",
    "get_qoi",
    "registered_problems",
    "registered_qois",
    "build_waveform",
    "waveform_to_spec",
    "build_distribution",
    "distribution_to_spec",
]
