"""Campaign registry entries for the DATE'16 package example.

Importing this module registers the ``"date16"`` problem builder and its
quantities of interest with :mod:`repro.campaign.registry` (the campaign
registry imports it lazily, so spec resolution works in freshly spawned
worker processes too).

The builder constructs one
:class:`~repro.package3d.uq_study.Date16UncertaintyStudy` per call --
i.e. once per worker process -- with the fast coupled solver, so the
mesh, the Dirichlet reduction and both Woodbury base factorizations are
paid once and every sample is pure solve cost.  The per-process shared
:func:`~repro.solvers.cache.shared_cache` additionally lets any rebuild
in the same worker (resume, second time-step size) reuse the LUs.
"""

import inspect

from ..campaign.registry import (
    _qoi_final,
    _qoi_identity,
    _qoi_max,
    register_problem,
    register_qoi,
)
from ..errors import CampaignError
from ..solvers.cache import shared_cache
from .chip_example import Date16Parameters
from .uq_study import Date16UncertaintyStudy

#: Builder options understood by :func:`build_date16_model` beyond the
#: :class:`Date16Parameters` overrides nested under ``"parameters"``.
#: ``time_stepping: "adaptive"`` switches the transient to step-doubling
#: implicit Euler (``adaptive_tolerance`` kelvin of local error per
#: step), interpolated back onto the paper's fixed 51-point grid;
#: ``quantize_dt`` (default true) snaps the controller onto the
#: geometric dt ladder so per-dt factorizations amortize, and the nested
#: ``adaptive_options`` dict forwards the remaining controller knobs
#: (``initial_dt``, ``min_dt``, ``max_dt``, ``safety``,
#: ``accept_min_dt_steps``).
_STUDY_OPTIONS = (
    "resolution", "mode", "num_segments", "truncate_elongation", "tolerance",
    "time_stepping", "adaptive_tolerance", "quantize_dt", "adaptive_options",
)


def _drop_removed_array_backend(options):
    """Accept the ``array_backend`` option of older specs and stores.

    Scenarios once pinned the solvers' array backend; numpy is the only
    linear-algebra path now, so a pinned ``"numpy"`` is dropped and any
    other pin is refused rather than silently run on numpy.
    """
    backend = options.pop("array_backend", "numpy")
    if backend != "numpy":
        raise CampaignError(
            f"date16 scenario pins array backend {backend!r}, but array "
            f"backends were removed: the solvers run on numpy only; drop "
            f"the option or set it to 'numpy'"
        )


def build_date16_model(scenario):
    """``ScenarioSpec -> model`` for the paper's package problem.

    Recognized ``scenario.options``: ``resolution`` (default
    ``"coarse"``), ``mode`` (default ``"fast"``), ``num_segments``,
    ``truncate_elongation``, ``tolerance`` and a nested ``parameters``
    dict of :class:`~repro.package3d.chip_example.Date16Parameters`
    overrides (e.g. ``{"pair_voltage": 0.05}``).
    """
    options = dict(scenario.options)
    overrides = options.pop("parameters", None) or {}
    _drop_removed_array_backend(options)
    unknown = set(options) - set(_STUDY_OPTIONS)
    if unknown:
        raise CampaignError(
            f"date16 scenario got unknown options {sorted(unknown)}; "
            f"expected {sorted(_STUDY_OPTIONS)} or 'parameters'"
        )
    try:
        parameters = Date16Parameters(**overrides)
    except TypeError as exc:
        raise CampaignError(
            f"invalid date16 parameter overrides {sorted(overrides)}: {exc}"
        ) from exc
    options.setdefault("resolution", "coarse")
    options.setdefault("mode", "fast")
    options.setdefault("tolerance", 1.0e-3)
    study = Date16UncertaintyStudy(
        parameters=parameters,
        waveform=scenario.build_waveform(),
        factorization_cache=shared_cache(),
        **options,
    )
    # The blocked model evaluates a whole campaign chunk as one blocked
    # transient when the study supports it (fixed stepping, fast mode,
    # single-segment wires); otherwise the plain per-sample callable
    # keeps the executor on the row loop.
    return study.block_model()


register_problem("date16", build_date16_model)
# Aliases onto the generic extractors (one implementation to maintain):
# traces pass through, "end temperatures" is the last trace row, "max
# temperature" the global maximum as a length-1 array.
register_qoi("date16_traces", _qoi_identity)
register_qoi("date16_end_temperatures", _qoi_final)
register_qoi("date16_max_temperature", _qoi_max)


def date16_parameter_overrides(parameters):
    """The JSON-serializable override dict equivalent to ``parameters``.

    :class:`~repro.package3d.chip_example.Date16Parameters` stores every
    constructor argument under the same attribute name, so the full
    record round-trips through ``Date16Parameters(**overrides)``.
    """
    names = inspect.signature(Date16Parameters).parameters
    return {name: getattr(parameters, name) for name in names}


def date16_elongation_distribution(parameters=None, truncate=True):
    """Spec dict of the paper's fitted elongation distribution."""
    p = parameters if parameters is not None else Date16Parameters()
    if truncate:
        return {
            "kind": "truncated_normal",
            "mu": p.elongation_mean,
            "sigma": p.elongation_std,
            "lower": 0.0,
            "upper": 0.9,
        }
    return {"kind": "normal", "mu": p.elongation_mean,
            "sigma": p.elongation_std}


def date16_campaign_spec(
    num_samples=64,
    seed=0,
    chunk_size=8,
    resolution="coarse",
    qoi="identity",
    name=None,
    parameters=None,
    waveform=None,
    time_stepping=None,
    adaptive_tolerance=None,
    quantize_dt=None,
    adaptive_options=None,
    reducer=None,
):
    """A ready-to-run :class:`~repro.campaign.spec.CampaignSpec`.

    Defaults reproduce the paper's Monte Carlo study (full wire
    temperature traces as QoI) at a campaign-friendly sample count.
    Custom ``parameters`` shape both the sampling distribution *and*
    the worker-side problem (serialized into the scenario options).
    ``time_stepping="adaptive"`` switches the workers to the adaptive
    transient (quantized onto the dt ladder by default;
    ``quantize_dt=False`` opts back into the raw controller, and
    ``adaptive_tolerance`` / ``adaptive_options`` tune it); ``reducer``
    pins a reduction into the spec (e.g. ``{"kind": "pce", "degree":
    3}`` for the surrogate mode).
    """
    from ..campaign.spec import CampaignSpec, ScenarioSpec

    p = parameters if parameters is not None else Date16Parameters()
    options = {"resolution": resolution}
    if time_stepping is not None:
        options["time_stepping"] = str(time_stepping)
    if adaptive_tolerance is not None:
        options["adaptive_tolerance"] = float(adaptive_tolerance)
    if quantize_dt is not None:
        options["quantize_dt"] = bool(quantize_dt)
    if adaptive_options is not None:
        options["adaptive_options"] = dict(adaptive_options)
    if parameters is not None:
        options["parameters"] = date16_parameter_overrides(p)
    scenario = ScenarioSpec(
        problem="date16",
        qoi=qoi,
        options=options,
        waveform=waveform,
    )
    layout_wires = 12
    return CampaignSpec(
        name=name or f"date16-mc-{num_samples}",
        scenario=scenario,
        distribution=date16_elongation_distribution(p),
        dimension=layout_wires,
        num_samples=num_samples,
        seed=seed,
        chunk_size=chunk_size,
        reducer=reducer,
    )


def date16_sensitivity_spec(
    num_base_samples=64,
    seed=0,
    chunk_size=8,
    resolution="coarse",
    qoi="final",
    name=None,
    parameters=None,
    waveform=None,
    sampler="random",
    second_order=False,
    groups=None,
):
    """A ready-to-run Sobol sensitivity campaign for the paper's problem.

    Answers the paper's Section I question -- which wire's elongation
    uncertainty drives the temperature variance -- over the 12-wire
    layout at a cost of ``M (d + 2)`` coupled solves.  The default QoI
    ``"final"`` is the vector of per-wire end temperatures, so the
    report ranks wires by their contribution to the hottest wire's
    variance; ``sampler="random"`` makes the campaign reproduce the
    in-process :func:`repro.uq.sensitivity.sobol_indices` bit for bit.

    ``second_order=True`` adds every ``AB_ij`` pair block (66 for the
    12-wire layout -- the cost grows to ``M (d + 2 + 66)``) so the
    report separates wire-pair interactions from main effects;
    ``groups`` (e.g. the two six-wire banks ``[[0, 1, 2, 3, 4, 5],
    [6, 7, 8, 9, 10, 11]]``) adds one grouped block per bank at
    marginal cost.
    """
    from ..campaign.sensitivity import SensitivitySpec
    from ..campaign.spec import ScenarioSpec

    p = parameters if parameters is not None else Date16Parameters()
    options = {"resolution": resolution}
    if parameters is not None:
        options["parameters"] = date16_parameter_overrides(p)
    scenario = ScenarioSpec(
        problem="date16",
        qoi=qoi,
        options=options,
        waveform=waveform,
    )
    layout_wires = 12
    return SensitivitySpec(
        name=name or f"date16-sobol-{num_base_samples}",
        scenario=scenario,
        distribution=date16_elongation_distribution(p),
        dimension=layout_wires,
        num_base_samples=num_base_samples,
        seed=seed,
        chunk_size=chunk_size,
        sampler=sampler,
        second_order=second_order,
        groups=groups,
    )
