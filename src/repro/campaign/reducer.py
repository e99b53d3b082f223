"""Reducers: what a campaign's evaluations reduce *to*.

The campaign runner separates three concerns: the spec says *what to
evaluate*, the executor backend says *where*, and the reducer -- this
module -- says *what the evaluations become*.  A reducer is a streaming
fold over checkpointed chunks with serializable state:

* :meth:`Reducer.fold` consumes one chunk of ``(indices, outputs)`` in
  contiguous global-index order (the runner guarantees chunk-index
  order, which is what makes every reduction bit-reproducible across
  executors, chunk sizes and kill/resume histories);
* :meth:`Reducer.state_dict` / :meth:`Reducer.load_state_dict` give the
  runner an exact float64 snapshot to checkpoint in the
  :class:`~repro.campaign.store.ArtifactStore` beside the chunk files,
  so a resume restores the *reduction*, not just the samples;
* :meth:`Reducer.finalize` turns the folded state into the
  campaign-kind-specific result object.

Three reducers ship built in:

* ``"moments"`` -- :class:`MomentsReducer`, Welford/Chan running
  statistics (the classic Monte Carlo campaign);
* ``"jansen"`` -- :class:`JansenReducer`, the streaming Jansen Sobol
  reduction including second-order/group blocks and the seeded
  bootstrap (the sensitivity campaign);
* ``"pce"`` -- :class:`PCEReducer`, fits the polynomial-chaos surrogate
  of :mod:`repro.uq.pce` from the campaign's checkpointed outputs and
  derives analytic Sobol indices from its coefficients -- global
  sensitivity at a fraction of the Saltelli solve count, with no fresh
  solves at all when the samples are already checkpointed.

User code adds kinds with :func:`register_reducer`; specs reference
them as ``{"kind": name, **options}`` in ``CampaignSpec.reducer``.
"""

import numpy as np

from ..errors import CampaignError
from ..uq.sensitivity import StreamingJansenAccumulator
from ..uq.statistics import RunningStatistics

_REDUCERS = {}


def register_reducer(kind, factory=None):
    """Register ``factory(spec, **options) -> Reducer`` under ``kind``.

    Usable directly or as a decorator; re-registering a kind overwrites
    the previous entry (idempotent module re-imports).  The factory
    receives the :class:`~repro.campaign.spec.CampaignSpec` being run
    plus the options of the reducer spec dict.
    """
    if factory is None:
        def decorator(func):
            _REDUCERS[str(kind)] = func
            return func
        return decorator
    _REDUCERS[str(kind)] = factory
    return factory


def get_reducer(kind):
    """Look up a reducer factory by kind name."""
    try:
        return _REDUCERS[kind]
    except KeyError:
        raise CampaignError(
            f"unknown reducer {kind!r}; registered: {sorted(_REDUCERS)}"
        ) from None


def registered_reducers():
    """Sorted names of every registered reducer kind."""
    return sorted(_REDUCERS)


def resolve_reducer(spec, reducer=None):
    """Normalize a reducer argument into a :class:`Reducer` instance.

    ``reducer`` may be a ready instance (returned as-is), a kind name,
    a ``{"kind": ..., **options}`` dict, or ``None`` -- which falls back
    to the spec's ``reducer`` field and finally to the spec kind's
    default (``"moments"`` for plain campaigns, ``"jansen"`` for
    sensitivity campaigns).
    """
    if isinstance(reducer, Reducer):
        return reducer
    if reducer is None:
        reducer = getattr(spec, "reducer", None)
    if reducer is None:
        reducer = {"kind": spec.default_reducer_kind}
    if isinstance(reducer, str):
        reducer = {"kind": reducer}
    if not isinstance(reducer, dict) or "kind" not in reducer:
        raise CampaignError(
            f"reducer must be a Reducer, a kind name or a dict with a "
            f"'kind' entry, got {reducer!r}"
        )
    options = dict(reducer)
    kind = options.pop("kind")
    factory = get_reducer(kind)
    try:
        return factory(spec, **options)
    except TypeError as exc:
        raise CampaignError(
            f"invalid options {sorted(options)} for reducer {kind!r}: "
            f"{exc}"
        ) from exc


class Reducer:
    """Streaming fold over evaluated campaign chunks.

    Subclasses set :attr:`kind`, implement ``fold`` / ``finalize`` /
    ``state_dict`` / ``load_state_dict`` and optionally ``merge`` (for
    commutative reductions that support tree-combining partial states;
    order-dependent folds like Jansen's leave it unimplemented).  The
    runner folds chunks in chunk-index order, checkpointing the state
    after each fold when :attr:`checkpointable` is true.
    """

    #: Registry name of this reducer (also recorded in manifests).
    kind = None

    #: Whether the runner should checkpoint ``state_dict`` per folded
    #: chunk.  Reducers whose state effectively duplicates the chunk
    #: files (an assembled output matrix) return ``False`` -- re-folding
    #: from the checkpointed chunks is just as fast as restoring.
    checkpointable = True

    #: Whether the reduction stays statistically meaningful when some
    #: samples are missing (quarantined chunks folded *around*).  Plain
    #: Monte Carlo moments just see a smaller sample; structured designs
    #: (Saltelli/Jansen, PCE regression on a fixed design) do not, so
    #: the runner refuses to finalize them over a quarantined campaign.
    tolerates_missing_samples = False

    def config_dict(self):
        """JSON-serializable identity of this reduction (kind + options).

        Stored in reducer checkpoints and manifests; a resume only
        restores a checkpoint whose config matches exactly.
        """
        return {"kind": self.kind}

    def restores(self, config):
        """Whether a checkpoint recorded under ``config`` (a
        :meth:`config_dict`) continues this reduction."""
        return config == self.config_dict()

    def fold(self, indices, outputs):
        """Fold one chunk of evaluations; ``indices`` continue the
        global stream exactly where the previous fold stopped."""
        raise NotImplementedError

    def merge(self, other):
        """Fold another partial reducer of the same kind into this one."""
        raise CampaignError(
            f"reducer {self.kind!r} folds chunks in a fixed order and "
            "does not support merging partial states"
        )

    def finalize(self, spec, parameters, num_evaluated):
        """Reduce the folded stream into the campaign result object."""
        raise NotImplementedError

    def state_dict(self):
        """Serializable state: flat dict of scalars / float64 arrays
        (exact round trip through :meth:`load_state_dict`)."""
        raise NotImplementedError

    def load_state_dict(self, state):
        """Restore :meth:`state_dict` output in place; returns ``self``."""
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}(kind={self.kind!r})"


# ----------------------------------------------------------------------
# Moments: the classic Monte Carlo mean/std campaign
# ----------------------------------------------------------------------
@register_reducer("moments")
class MomentsReducer(Reducer):
    """Welford running statistics, merged per chunk in chunk order.

    Reproduces the historic ``run_campaign`` reduction bit for bit: one
    Welford accumulator per chunk, folded into the running total with
    the parallel (Chan et al.) combination in chunk-index order.
    """

    kind = "moments"
    tolerates_missing_samples = True

    def __init__(self, spec=None):
        self.statistics = RunningStatistics()

    def fold(self, indices, outputs):
        outputs = np.asarray(outputs, dtype=float)
        chunk_statistics = RunningStatistics()
        for row in range(outputs.shape[0]):
            chunk_statistics.update(outputs[row])
        self.statistics.merge(chunk_statistics)
        return self

    def merge(self, other):
        if not isinstance(other, MomentsReducer):
            raise CampaignError(
                f"cannot merge {type(other).__name__} into MomentsReducer"
            )
        self.statistics.merge(other.statistics)
        return self

    def finalize(self, spec, parameters, num_evaluated):
        from .runner import CampaignResult

        return CampaignResult(spec, self.statistics, parameters,
                              num_evaluated)

    def state_dict(self):
        return self.statistics.state_dict()

    def load_state_dict(self, state):
        self.statistics.load_state_dict(state)
        return self


# ----------------------------------------------------------------------
# Jansen: the streaming Sobol sensitivity reduction
# ----------------------------------------------------------------------
class JansenReducer(Reducer):
    """Streaming Jansen Sobol reduction over a Saltelli design.

    Wraps the canonical
    :class:`~repro.uq.sensitivity.StreamingJansenAccumulator` (including
    second-order ``AB_ij`` and grouped-factor blocks) and its seeded
    percentile bootstrap.  Requires a
    :class:`~repro.campaign.sensitivity.SensitivitySpec`, whose
    ``num_bootstrap`` / ``confidence`` settings are the defaults so a
    flag-less resume reproduces the original confidence intervals
    exactly.

    With ``num_bootstrap=0`` the reduction streams: chunks fold into
    running sums, the full output matrix never materializes, and the
    runner checkpoints the sums.  A bootstrap resamples full rows, so
    then the reducer also keeps the output matrix; the point estimates
    come from the same per-chunk folds either way.
    """

    kind = "jansen"

    def __init__(self, spec, num_bootstrap=None, confidence=None):
        from .sensitivity import SensitivitySpec

        if not isinstance(spec, SensitivitySpec):
            raise CampaignError(
                f"the jansen reducer needs a SensitivitySpec (a Saltelli "
                f"design to reduce), got {type(spec).__name__}"
            )
        self.spec = spec
        self.plan = spec.plan
        if num_bootstrap is None:
            num_bootstrap = spec.num_bootstrap
        if confidence is None:
            confidence = spec.confidence
        self.num_bootstrap = int(num_bootstrap)
        self.confidence = float(confidence)
        self.accumulator = StreamingJansenAccumulator(
            spec.num_base_samples, spec.dimension,
            pairs=self.plan.pairs or None, groups=self.plan.groups or None,
        )
        if self.accumulator.swap_subsets != self.plan.swap_subsets:
            raise CampaignError(
                "internal error: the streaming accumulator's block layout "
                f"{self.accumulator.swap_subsets} does not match the "
                f"Saltelli plan's {self.plan.swap_subsets}"
            )
        self._outputs = None

    #: A bootstrap reduction's state is dominated by the assembled
    #: output matrix -- re-folding the checkpointed chunks on resume
    #: costs the same as restoring it, so only the streaming reduction
    #: checkpoints its (small) running sums.
    @property
    def checkpointable(self):
        return not self.num_bootstrap

    def config_dict(self):
        return {
            "kind": self.kind,
            "num_bootstrap": self.num_bootstrap,
            "confidence": self.confidence,
        }

    def restores(self, config):
        # Checkpoints written before the reduction mode followed from
        # ``num_bootstrap`` record it as ``streaming``: the same state.
        config = {key: value for key, value in (config or {}).items()
                  if key != "streaming"}
        return config == self.config_dict()

    def fold(self, indices, outputs):
        indices = np.asarray(indices, dtype=int)
        outputs = np.asarray(outputs, dtype=float)
        self.accumulator.add(indices, outputs)
        if self.num_bootstrap and indices.size:
            if self._outputs is None:
                self._outputs = np.empty(
                    (self.spec.num_samples,) + outputs.shape[1:]
                )
            self._outputs[indices] = outputs
        return self

    def finalize(self, spec, parameters, num_evaluated):
        from .sensitivity import SensitivityResult

        estimates = self.accumulator.finalize()
        interval = None
        if self.num_bootstrap:
            accumulator = self.accumulator
            blocks = self._outputs.reshape(
                (accumulator.num_blocks, accumulator.num_base_samples)
                + self._outputs.shape[1:]
            )
            interval = accumulator.bootstrap(
                blocks, num_replicates=self.num_bootstrap, seed=spec.seed,
                confidence=self.confidence,
            )
        return SensitivityResult(
            spec, estimates.first_order, interval, parameters,
            num_evaluated,
            second_order=estimates.second_order,
            group_indices=estimates.groups,
        )

    def state_dict(self):
        state = self.accumulator.state_dict()
        if self._outputs is not None:
            state["outputs"] = self._outputs.copy()
        return state

    def load_state_dict(self, state):
        state = dict(state)
        outputs = state.pop("outputs", None)
        self.accumulator.load_state_dict(state)
        self._outputs = (
            np.array(outputs, dtype=float) if outputs is not None else None
        )
        return self


@register_reducer("jansen")
def _jansen_reducer(spec, streaming=None, **options):
    """The ``"jansen"`` factory: a :class:`JansenReducer`.

    Reducer dicts persisted by older versions (store manifests, queued
    service jobs) may carry a ``streaming`` entry; the reduction now
    streams exactly when ``num_bootstrap`` is 0, so the entry is
    dropped -- except that streaming together with a bootstrap stays
    refused, since streaming folds cannot resample rows.
    """
    reducer = JansenReducer(spec, **options)
    if streaming and reducer.num_bootstrap:
        raise CampaignError(
            "the streaming reduction folds chunks into running sums and "
            "cannot resample rows for bootstrap intervals; pass "
            "num_bootstrap=0 (CLI: --bootstrap 0)"
        )
    return reducer


# ----------------------------------------------------------------------
# PCE: surrogate-accelerated global sensitivity from checkpoints
# ----------------------------------------------------------------------
@register_reducer("pce")
class PCEReducer(Reducer):
    """Fit the polynomial-chaos surrogate from campaign checkpoints.

    Assembles the checkpointed outputs and, at finalize time, fits a
    Legendre-basis :class:`~repro.uq.pce.PolynomialChaosExpansion` on
    the campaign's *unit-cube* sample points (``z = 2 u - 1``, a pure
    function of the spec -- no fresh solves).  Sobol indices are
    invariant under the per-dimension monotone map from unit cube to
    physical parameters, so the surrogate's analytic indices estimate
    the model's -- at a fraction of the ``M (d + 2)`` Saltelli solve
    count, and for free on any store that already holds Monte Carlo
    chunks.

    The state is exactly the assembled output matrix, i.e. a copy of
    the chunk files, so the runner does not checkpoint it
    (``checkpointable = False``): a resume re-folds from the chunks at
    the same cost.
    """

    kind = "pce"
    checkpointable = False

    def __init__(self, spec, degree=2):
        import math

        self.spec = spec
        self.degree = int(degree)
        if self.degree < 1:
            raise CampaignError(
                f"PCE degree must be >= 1, got {self.degree}"
            )
        # Fail before any solve is paid: the regression needs at least
        # one sample per basis term.
        num_terms = math.comb(spec.dimension + self.degree, self.degree)
        if spec.num_samples < num_terms:
            raise CampaignError(
                f"PCE degree {self.degree} over {spec.dimension} inputs "
                f"needs {num_terms} basis terms but the campaign has "
                f"only {spec.num_samples} samples; raise num_samples or "
                "lower the degree"
            )
        self._outputs = None
        self._filled = np.zeros(spec.num_samples, dtype=bool)

    def config_dict(self):
        return {"kind": self.kind, "degree": self.degree}

    def fold(self, indices, outputs):
        indices = np.asarray(indices, dtype=int)
        outputs = np.asarray(outputs, dtype=float)
        if indices.size == 0:
            return self
        if self._outputs is None:
            self._outputs = np.empty(
                (self.spec.num_samples,) + outputs.shape[1:]
            )
        self._outputs[indices] = outputs
        self._filled[indices] = True
        return self

    def merge(self, other):
        if not isinstance(other, PCEReducer):
            raise CampaignError(
                f"cannot merge {type(other).__name__} into PCEReducer"
            )
        if other._outputs is None:
            return self
        if self._outputs is None:
            self._outputs = other._outputs.copy()
            self._filled = other._filled.copy()
            return self
        overlap = self._filled & other._filled
        if np.any(overlap):
            raise CampaignError(
                "cannot merge PCE reducers with overlapping sample rows"
            )
        self._outputs[other._filled] = other._outputs[other._filled]
        self._filled |= other._filled
        return self

    def finalize(self, spec, parameters, num_evaluated):
        from ..uq.pce import PolynomialChaosExpansion

        if self._outputs is None or not self._filled.all():
            missing = int(np.count_nonzero(~self._filled))
            raise CampaignError(
                f"incomplete campaign stream: {missing} of "
                f"{spec.num_samples} samples were never folded"
            )
        expansion = PolynomialChaosExpansion(
            None, spec.build_distribution(), spec.dimension,
            degree=self.degree, basis="legendre",
        )
        germ = 2.0 * spec.unit_points(np.arange(spec.num_samples)) - 1.0
        expansion.fit_from_samples(germ, self._outputs)
        return SurrogateResult(spec, expansion, parameters, num_evaluated)

    def state_dict(self):
        state = {"filled": self._filled.copy()}
        if self._outputs is not None:
            state["outputs"] = self._outputs.copy()
        return state

    def load_state_dict(self, state):
        self._filled = np.array(state["filled"], dtype=bool)
        outputs = state.get("outputs")
        self._outputs = (
            np.array(outputs, dtype=float) if outputs is not None else None
        )
        return self


class SurrogateResult:
    """Fitted PCE surrogate of a completed campaign.

    Attributes
    ----------
    spec:
        The :class:`~repro.campaign.spec.CampaignSpec` that was run.
    expansion:
        The fitted :class:`~repro.uq.pce.PolynomialChaosExpansion`
        (callable: evaluates the surrogate at physical parameters).
    first_order, total:
        Analytic Sobol indices of the surrogate, shape
        ``(dimension, *output_shape)``.
    parameters:
        The full evaluated parameter matrix.
    num_evaluated:
        Samples evaluated by *this* call (0 for a pure re-reduce).
    """

    def __init__(self, spec, expansion, parameters, num_evaluated):
        self.spec = spec
        self.expansion = expansion
        self.parameters = parameters
        self.num_evaluated = int(num_evaluated)
        self.first_order, self.total = expansion.sobol_indices()

    @property
    def mean(self):
        return self.expansion.mean

    @property
    def std(self):
        return self.expansion.std

    @property
    def variance(self):
        return self.expansion.variance

    def __call__(self, parameters):
        """Evaluate the surrogate at physical parameter vector(s)."""
        return self.expansion(parameters)

    def ranking(self, component=None):
        """Inputs by decreasing total index at one output component."""
        total = np.asarray(self.total).reshape(self.spec.dimension, -1)
        if total.shape[1] > 1 and component is None:
            raise CampaignError(
                "vector-valued surrogate: pass component= to rank one "
                "output entry"
            )
        column = total[:, component if component is not None else 0]
        return [int(i) for i in np.argsort(-column)]

    def _report_component(self):
        """Flat output index the summary reports: the max-variance entry."""
        variance = np.atleast_1d(np.asarray(self.variance))
        return int(np.argmax(variance.ravel()))

    def summary(self):
        """JSON-serializable summary: surrogate statistics plus ranked
        Sobol indices at the max-variance output component."""
        component = self._report_component()
        dimension = self.spec.dimension
        mean = np.atleast_1d(np.asarray(self.mean)).ravel()
        std = np.atleast_1d(np.asarray(self.std)).ravel()
        variance = np.atleast_1d(np.asarray(self.variance)).ravel()
        first = self.first_order.reshape(dimension, -1)[:, component]
        total = self.total.reshape(dimension, -1)[:, component]
        return {
            "kind": "pce",
            "campaign": self.spec.name,
            "problem": self.spec.scenario.problem,
            "qoi": self.spec.scenario.qoi,
            "sampler": self.spec.sampler,
            "num_samples": int(self.spec.num_samples),
            "num_chunks": int(self.spec.num_chunks),
            "dimension": int(dimension),
            "degree": int(self.expansion.degree),
            "num_terms": int(self.expansion.num_terms),
            "basis": self.expansion.basis,
            "output_size": int(variance.size),
            "argmax_output": component,
            "mean_max": float(np.max(mean)),
            "std_max": float(np.max(std)),
            "variance": float(variance[component]),
            "first_order": [float(value) for value in first],
            "total": [float(value) for value in total],
            "ranking": [int(i) for i in np.argsort(-total)],
        }

    def __repr__(self):
        return (
            f"SurrogateResult({self.spec.name!r}, degree="
            f"{self.expansion.degree}, terms={self.expansion.num_terms}, "
            f"ranking={self.ranking(component=self._report_component())})"
        )
