"""Declarative, JSON-serializable campaign descriptions.

A campaign is fully described by data: which problem to build
(:class:`ScenarioSpec`) and how to sample it (:class:`CampaignSpec`).
Keeping the description serializable is what makes the subsystem
distributable and resumable -- worker processes rebuild the model from
the spec instead of receiving unpicklable solver state, and the artifact
store persists the spec in its manifest so a resumed run is guaranteed
to recompute the same campaign.
"""

import json

import numpy as np

from ..errors import CampaignError
from . import registry


class ScenarioSpec:
    """Names the model side of a campaign: problem, options, QoI.

    Parameters
    ----------
    problem:
        Registry name of the problem builder (e.g. ``"date16"``; see
        :func:`repro.campaign.registry.register_problem`).
    qoi:
        Registry name of the quantity-of-interest extractor applied to
        the raw model output (``"identity"`` keeps it unchanged).
    options:
        JSON dict of builder keyword options (mesh resolution, solver
        mode, parameter overrides...), interpreted by the builder.
    waveform:
        Optional drive waveform spec dict (``{"kind": "step", ...}``) or
        a Waveform instance (serialized on ``to_dict``).
    module:
        Optional dotted module path imported before resolving the
        registry names -- the hook for user-registered problems/QoIs, so
        resolution also works inside freshly spawned worker processes.
    """

    def __init__(self, problem, qoi="identity", options=None, waveform=None,
                 module=None):
        self.problem = str(problem)
        self.qoi = str(qoi)
        self.options = dict(options) if options else {}
        if isinstance(waveform, (dict, type(None))):
            # Validate eagerly so a typo'd kind/field fails at spec load
            # with a real message, not inside a worker initializer.
            registry.build_waveform(waveform)
            self.waveform = waveform
        else:
            self.waveform = registry.waveform_to_spec(waveform)
        self.module = module

    def build_model(self):
        """Resolve the registries and build ``model(parameters) -> array``.

        The builder is invoked once; the returned callable is what a
        worker evaluates per sample (so the builder can cache meshes,
        factorizations, ... in its closure).
        """
        if self.module:
            import importlib

            importlib.import_module(self.module)
        builder = registry.get_problem(self.problem)
        raw_model = builder(self)
        qoi = registry.get_qoi(self.qoi)
        if self.qoi == "identity":
            return raw_model

        def model(parameters):
            return qoi(raw_model(parameters))

        raw_block = getattr(raw_model, "evaluate_block", None)
        if callable(raw_block):
            # Keep the sample-blocked fast path through the QoI wrapper:
            # evaluate the block once, extract the QoI per sample.
            def evaluate_block(parameters_block):
                return np.stack([
                    np.asarray(qoi(output), dtype=float)
                    for output in raw_block(parameters_block)
                ])

            model.evaluate_block = evaluate_block
        return model

    def build_waveform(self):
        """The scenario's Waveform instance (``None`` for the default)."""
        return registry.build_waveform(self.waveform)

    def to_dict(self):
        return {
            "problem": self.problem,
            "qoi": self.qoi,
            "options": dict(self.options),
            "waveform": self.waveform,
            "module": self.module,
        }

    @classmethod
    def from_dict(cls, data):
        data = dict(data)
        if "problem" not in data:
            raise CampaignError("scenario spec needs a 'problem' name")
        unknown = set(data) - {"problem", "qoi", "options", "waveform",
                               "module"}
        if unknown:
            raise CampaignError(
                f"scenario spec got unknown fields {sorted(unknown)}"
            )
        return cls(**data)

    def __repr__(self):
        return (
            f"ScenarioSpec(problem={self.problem!r}, qoi={self.qoi!r}, "
            f"options={self.options!r})"
        )


def _normalize_reducer_spec(reducer):
    """Validate the spec-level reducer field into ``None`` or a dict.

    Kind *names* are resolved lazily at run time (user reducers register
    at import of ``ScenarioSpec.module``, which may not have happened
    yet); here only the JSON shape is enforced.
    """
    if reducer is None:
        return None
    if isinstance(reducer, str):
        reducer = {"kind": reducer}
    if not isinstance(reducer, dict) or not isinstance(
            reducer.get("kind"), str):
        raise CampaignError(
            f"reducer must be a kind name or a dict with a string "
            f"'kind' entry, got {reducer!r}"
        )
    return dict(reducer)


class CampaignSpec:
    """The full campaign: a scenario plus the sampling plan.

    Parameters
    ----------
    name:
        Human-readable campaign identifier (also recorded in artifact
        manifests and reports).
    scenario:
        A :class:`ScenarioSpec` (or its dict form).
    distribution:
        Parameter distribution spec: one dict (iid over all dimensions),
        a list of per-dimension dicts, or Distribution instances
        (serialized on ``to_dict``).
    dimension:
        Number of uncertain parameters per sample.
    num_samples:
        Total sample budget ``M``.
    seed:
        Campaign seed.  With the default ``"counter"`` sampler every
        sample ``i`` draws from ``SeedSequence(seed, spawn_key=(i,))``,
        so the parameter of sample ``i`` is independent of worker count,
        chunking and completion order -- the property that makes resume
        bit-reproducible.
    chunk_size:
        Samples per executor task == checkpoint granularity (the store
        appends one ``chunks.log`` record per completed chunk).
    sampler:
        ``"counter"`` (default) or a full-stream kind
        (``"random"``, ``"lhs"``, ``"halton"``, ``"sobol"``); full
        streams are regenerated deterministically from the seed.
    reducer:
        Optional reducer spec -- a kind name or ``{"kind": ...,
        **options}`` dict naming what the evaluations reduce *to* (see
        :mod:`repro.campaign.reducer`; e.g. ``{"kind": "pce",
        "degree": 4}`` for the surrogate-accelerated mode).  ``None``
        (the default, omitted from serialized specs for compatibility)
        selects the campaign kind's default reduction.
    """

    #: Campaign flavor; serialized as the ``"kind"`` spec field by
    #: subclasses (plain Monte Carlo specs omit it for compatibility
    #: with existing manifests) and dispatched on by
    #: :meth:`from_dict`.
    kind = "monte-carlo"

    #: Reducer kind used when neither the spec's ``reducer`` field nor
    #: the ``run_campaign(reducer=...)`` argument picks one.
    default_reducer_kind = "moments"

    def __init__(self, name, scenario, distribution, dimension, num_samples,
                 seed=0, chunk_size=8, sampler=registry.COUNTER_SAMPLER,
                 reducer=None):
        self.name = str(name)
        if isinstance(scenario, dict):
            scenario = ScenarioSpec.from_dict(scenario)
        if not isinstance(scenario, ScenarioSpec):
            raise CampaignError(
                f"scenario must be a ScenarioSpec or dict, got "
                f"{type(scenario).__name__}"
            )
        self.scenario = scenario
        self.distribution = registry.distribution_to_spec(distribution)
        self.dimension = int(dimension)
        self.num_samples = int(num_samples)
        self.seed = int(seed)
        self.chunk_size = int(chunk_size)
        self.sampler = str(sampler)
        self.reducer = _normalize_reducer_spec(reducer)
        if self.dimension < 1:
            raise CampaignError(
                f"dimension must be >= 1, got {self.dimension}"
            )
        if self.num_samples < 1:
            raise CampaignError(
                f"num_samples must be >= 1, got {self.num_samples}"
            )
        if self.chunk_size < 1:
            raise CampaignError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )
        if self.sampler != registry.COUNTER_SAMPLER:
            registry.get_stream_sampler(self.sampler)  # validate early

    @property
    def num_chunks(self):
        """Number of checkpoint chunks covering ``num_samples``."""
        return -(-self.num_samples // self.chunk_size)

    def chunk_indices(self, chunk):
        """Global sample indices ``[start, stop)`` of one chunk."""
        chunk = int(chunk)
        if not 0 <= chunk < self.num_chunks:
            raise CampaignError(
                f"chunk {chunk} out of range [0, {self.num_chunks})"
            )
        start = chunk * self.chunk_size
        stop = min(start + self.chunk_size, self.num_samples)
        return range(start, stop)

    def build_distribution(self):
        """Distribution instance(s) for the parameter mapping."""
        return registry.build_distribution(self.distribution)

    def unit_points(self, indices):
        """Unit-cube rows of the given global sample indices.

        Counter-based sampling generates exactly the requested rows;
        full-stream samplers regenerate the whole deterministic stream
        and slice it -- either way sample ``i`` is a pure function of
        the spec, independent of how the campaign is partitioned.
        Subclasses override this to lay out structured designs (e.g.
        the Saltelli blocks of a sensitivity campaign).
        """
        indices = np.asarray(indices, dtype=int)
        if indices.size == 0:
            return np.empty((0, self.dimension))
        if self.sampler == registry.COUNTER_SAMPLER:
            from .runner import unit_sample

            return np.stack(
                [unit_sample(self.seed, index, self.dimension)
                 for index in indices]
            )
        sampler = registry.get_stream_sampler(self.sampler)
        stream = np.asarray(
            sampler(self.num_samples, self.dimension, seed=self.seed),
            dtype=float,
        )
        return stream[indices]

    def to_dict(self):
        data = {
            "name": self.name,
            "scenario": self.scenario.to_dict(),
            "distribution": self.distribution,
            "dimension": self.dimension,
            "num_samples": self.num_samples,
            "seed": self.seed,
            "chunk_size": self.chunk_size,
            "sampler": self.sampler,
        }
        # The reducer serializes only when set, so default specs stay
        # byte-compatible with pre-reducer manifests.
        if self.reducer is not None:
            data["reducer"] = dict(self.reducer)
        return data

    @classmethod
    def from_dict(cls, data):
        data = dict(data)
        spec_kind = data.pop("kind", None)
        if cls is CampaignSpec and spec_kind == "sensitivity":
            # Kind dispatch: sensitivity specs deserialize to their own
            # class, so stores/CLIs load any campaign flavor through
            # this one entry point.
            from .sensitivity import SensitivitySpec

            return SensitivitySpec.from_dict(
                {**data, "kind": spec_kind}
            )
        if spec_kind not in (None, cls.kind):
            raise CampaignError(
                f"unknown campaign kind {spec_kind!r}; expected "
                f"'monte-carlo' (or omitted) or 'sensitivity'"
            )
        missing = {"name", "scenario", "distribution", "dimension",
                   "num_samples"} - set(data)
        if missing:
            raise CampaignError(
                f"campaign spec is missing fields {sorted(missing)}"
            )
        unknown = set(data) - {"name", "scenario", "distribution",
                               "dimension", "num_samples", "seed",
                               "chunk_size", "sampler", "reducer"}
        if unknown:
            raise CampaignError(
                f"campaign spec got unknown fields {sorted(unknown)}"
            )
        return cls(**data)

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CampaignError(f"invalid campaign JSON: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path):
        """Write the spec as JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path):
        """Read a spec from a JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def __repr__(self):
        return (
            f"CampaignSpec({self.name!r}, problem="
            f"{self.scenario.problem!r}, M={self.num_samples}, "
            f"d={self.dimension}, chunks={self.num_chunks})"
        )
