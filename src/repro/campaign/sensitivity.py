"""Distributed Sobol sensitivity campaigns (Saltelli designs at scale).

The paper's Section I question -- which wire's geometric uncertainty
drives the hottest-wire temperature variance -- costs ``M (d + 2)`` full
transient solves; separating parameter *interactions* adds one ``AB_ij``
block per pair and grouped-factor questions one block per group.  This
module lays the Saltelli ``A`` / ``B`` / ``AB_i`` / ``AB_ij`` / group
blocks out as a first-class campaign so those evaluations stream through
the existing executor / artifact-store machinery: per-worker model and
factorization reuse, atomic chunk checkpoints, kill/resume.

Determinism is the load-bearing property.  The design is a pure function
of the spec: global evaluation index ``g`` maps to ``(block, row) =
divmod(g, M)`` with blocks ordered ``[A, B, AB_0 .. AB_{d-1}]`` (then
pairs, then groups), and the base matrices come from the seeded sampler
stream -- so any executor, chunking or resume history reproduces the
same parameter rows, and the Jansen reduction (the
:class:`repro.uq.sensitivity.StreamingJansenAccumulator` core shared
with the in-process path) reproduces the same indices bit for bit,
whether it only streams chunks into running sums (no bootstrap -- huge
vector QoIs never materialize the full output matrix) or also keeps the
output matrix for the bootstrap.  Vector-valued quantities of interest
(per-wire temperature traces, not just the scalar end-max) reduce per
output component; bootstrap confidence intervals are deterministic per
seed.

Since the Reducer/ExecutorBackend redesign, the reduction itself lives
in :class:`repro.campaign.reducer.JansenReducer` and the one
:func:`~repro.campaign.runner.run_campaign` path serves sensitivity
campaigns too; this module keeps the design layout
(:class:`SaltelliPlan`), the spec (:class:`SensitivitySpec`) and the
result type (:class:`SensitivityResult`).
"""

import numpy as np

from ..errors import CampaignError, SamplingError
from ..uq import sensitivity as uq_sensitivity
from . import registry
from .spec import CampaignSpec


class SaltelliPlan:
    """Deterministic block/row layout of a Saltelli design.

    Global evaluation index ``g`` decomposes as ``(block, row) =
    divmod(g, M)`` with blocks ordered ``[A, B, AB_0, ..., AB_{d-1}]``
    followed by the optional extensions: one ``AB_ij`` block per column
    pair (``second_order=True``, lexicographic order) and one ``G_k``
    block per factor group.  Every non-``A``/``B`` block is "``A`` with
    a column subset taken from ``B``" -- first-order blocks swap one
    column, pair blocks two, group blocks the whole subset.  The plan is
    pure index arithmetic plus row composition -- it owns no random
    state, so any executor or chunk order reproduces the same design
    from the same base matrices, and a plan without extensions is
    byte-compatible with the original ``M (d + 2)`` layout.
    """

    def __init__(self, num_base_samples, dimension, second_order=False,
                 groups=None):
        self.num_base_samples = int(num_base_samples)
        self.dimension = int(dimension)
        if self.num_base_samples < 2:
            raise CampaignError(
                f"need at least 2 base samples, got {self.num_base_samples}"
            )
        if self.dimension < 1:
            raise CampaignError(
                f"dimension must be >= 1, got {self.dimension}"
            )
        self.second_order = bool(second_order)
        self.pairs = (
            uq_sensitivity.all_pairs(self.dimension)
            if self.second_order else []
        )
        try:
            self.groups = uq_sensitivity.normalize_groups(
                groups or [], self.dimension
            )
        except SamplingError as exc:
            raise CampaignError(f"invalid factor groups: {exc}") from exc
        #: Column subset each swap block copies from ``B`` (block
        #: ``2 + k`` swaps ``_swaps[k]``).
        self._swaps = (
            [(i,) for i in range(self.dimension)]
            + self.pairs
            + list(self.groups)
        )

    @property
    def num_pairs(self):
        """Number of ``AB_ij`` second-order blocks."""
        return len(self.pairs)

    @property
    def num_groups(self):
        """Number of grouped-factor blocks."""
        return len(self.groups)

    @property
    def num_blocks(self):
        """``A``, ``B``, the ``AB_i`` and any ``AB_ij``/group blocks."""
        return 2 + len(self._swaps)

    @property
    def num_evaluations(self):
        """Total model evaluations ``M (d + 2 + pairs + groups)``."""
        return self.num_base_samples * self.num_blocks

    def block_of(self, index):
        """Block number (0 = ``A``, 1 = ``B``, ``2 + i`` = ``AB_i``)."""
        index = self._check_index(index)
        return index // self.num_base_samples

    def row_of(self, index):
        """Base-design row in ``[0, M)`` of one global index."""
        index = self._check_index(index)
        return index % self.num_base_samples

    def block_range(self, block):
        """Global index range of one block."""
        block = self._check_block(block)
        start = block * self.num_base_samples
        return range(start, start + self.num_base_samples)

    @property
    def swap_subsets(self):
        """Column subset of every swap block, in block order (the
        layout contract shared with the streaming accumulator)."""
        return list(self._swaps)

    def swap_columns(self, block):
        """Columns block ``block`` copies from ``B`` (``A`` swaps none,
        ``B`` swaps all)."""
        block = self._check_block(block)
        if block == 0:
            return ()
        if block == 1:
            return tuple(range(self.dimension))
        return tuple(self._swaps[block - 2])

    def block_label(self, block):
        """Block name (``"A"``, ``"B"``, ``"AB_3"``, ``"AB_1_4"``,
        ``"G0"``)."""
        block = self._check_block(block)
        if block == 0:
            return "A"
        if block == 1:
            return "B"
        subset = block - 2
        if subset < self.dimension:
            return f"AB_{subset}"
        if subset < self.dimension + self.num_pairs:
            i, j = self.pairs[subset - self.dimension]
            return f"AB_{i}_{j}"
        return f"G{subset - self.dimension - self.num_pairs}"

    def compose(self, base_unit, indices):
        """Design rows for global ``indices`` from the base unit matrix.

        ``base_unit`` is the ``(2 M, d)`` stream: rows ``[0, M)`` are
        ``A``, rows ``[M, 2 M)`` are ``B``.  Swap-block rows are ``A``
        rows with the block's column subset taken from ``B`` -- copied
        bitwise, which is what makes the distributed design reproduce
        the in-process :func:`repro.uq.sensitivity.saltelli_sample`
        exactly.
        """
        base = np.asarray(base_unit, dtype=float)
        expected = (2 * self.num_base_samples, self.dimension)
        if base.shape != expected:
            raise CampaignError(
                f"base unit matrix has shape {base.shape}, expected "
                f"{expected}"
            )
        a = base[:self.num_base_samples]
        b = base[self.num_base_samples:]
        indices = np.asarray(indices, dtype=int)
        outside = (indices < 0) | (indices >= self.num_evaluations)
        if outside.any():
            self._check_index(indices[np.argmax(outside)])
        blocks, rows = np.divmod(indices, self.num_base_samples)
        points = a[rows]
        from_b = blocks == 1
        points[from_b] = b[rows[from_b]]
        for block in np.unique(blocks[blocks >= 2]):
            out = np.flatnonzero(blocks == block)
            columns = list(self._swaps[block - 2])
            points[np.ix_(out, columns)] = b[np.ix_(rows[out], columns)]
        return points

    def _check_index(self, index):
        index = int(index)
        if not 0 <= index < self.num_evaluations:
            raise CampaignError(
                f"evaluation index {index} out of range "
                f"[0, {self.num_evaluations})"
            )
        return index

    def _check_block(self, block):
        block = int(block)
        if not 0 <= block < self.num_blocks:
            raise CampaignError(
                f"block {block} out of range [0, {self.num_blocks})"
            )
        return block

    def to_dict(self):
        data = {
            "num_base_samples": self.num_base_samples,
            "dimension": self.dimension,
        }
        # Extensions serialize only when present, so plans without them
        # stay byte-compatible with pre-second-order manifests.
        if self.second_order:
            data["second_order"] = True
        if self.groups:
            data["groups"] = [list(group) for group in self.groups]
        return data

    @classmethod
    def from_dict(cls, data):
        data = dict(data)
        unknown = set(data) - {"num_base_samples", "dimension",
                               "second_order", "groups"}
        if unknown:
            raise CampaignError(
                f"Saltelli plan got unknown fields {sorted(unknown)}"
            )
        try:
            return cls(**data)
        except TypeError as exc:
            raise CampaignError(f"invalid Saltelli plan: {exc}") from exc

    def __repr__(self):
        extras = ""
        if self.second_order:
            extras += f", pairs={self.num_pairs}"
        if self.groups:
            extras += f", groups={self.num_groups}"
        return (
            f"SaltelliPlan(M={self.num_base_samples}, "
            f"d={self.dimension}{extras}, "
            f"evaluations={self.num_evaluations})"
        )


class SensitivitySpec(CampaignSpec):
    """A Sobol sensitivity campaign: scenario + Saltelli sampling plan.

    Inherits the :class:`~repro.campaign.spec.CampaignSpec` fields, but
    the sample budget is ``num_base_samples`` (``M``) and the derived
    ``num_samples`` is the full ``M (d + 2 + pairs + groups)``
    evaluation count (``second_order=True`` adds every ``AB_ij`` pair
    block, ``groups`` one block per factor group), so chunking,
    executors and the artifact store work unchanged.  The
    default sampler is ``"random"``, which reproduces the in-process
    :func:`repro.uq.sensitivity.sobol_indices` bit for bit for the same
    seed; the ``"counter"`` sampler and the QMC streams work too (base
    row ``r`` of ``A`` / ``B`` is stream row ``r`` / ``M + r``).
    """

    kind = "sensitivity"

    default_reducer_kind = "jansen"

    def __init__(self, name, scenario, distribution, dimension,
                 num_base_samples, seed=0, chunk_size=8, sampler="random",
                 num_bootstrap=100, confidence=0.95, second_order=False,
                 groups=None, reducer=None):
        self.num_base_samples = int(num_base_samples)
        # Reduction settings live in the spec (and hence the pinned
        # manifest), so a resume without flags reproduces the original
        # run's confidence intervals exactly, not just the indices.
        self.num_bootstrap = int(num_bootstrap)
        self.confidence = float(confidence)
        if self.num_bootstrap < 0:
            raise CampaignError(
                f"num_bootstrap must be >= 0, got {self.num_bootstrap}"
            )
        if not 0.0 < self.confidence < 1.0:
            raise CampaignError(
                f"confidence must be in (0, 1), got {self.confidence!r}"
            )
        self.second_order = bool(second_order)
        plan = SaltelliPlan(
            self.num_base_samples, int(dimension),
            second_order=self.second_order, groups=groups,
        )
        self.groups = plan.groups
        super().__init__(
            name, scenario, distribution, dimension,
            num_samples=plan.num_evaluations, seed=seed,
            chunk_size=chunk_size, sampler=sampler, reducer=reducer,
        )

    @property
    def plan(self):
        """The :class:`SaltelliPlan` laying out this campaign's design."""
        return SaltelliPlan(
            self.num_base_samples, self.dimension,
            second_order=self.second_order, groups=self.groups,
        )

    def base_unit_points(self):
        """The ``(2 M, d)`` unit-cube base stream (``A`` rows, then ``B``).

        For the ``"random"`` sampler this is exactly the stream of
        :func:`repro.uq.sensitivity.saltelli_sample` -- the bit-for-bit
        equivalence anchor of the distributed path.
        """
        count = 2 * self.num_base_samples
        if self.sampler == registry.COUNTER_SAMPLER:
            from .runner import unit_sample

            return np.stack(
                [unit_sample(self.seed, index, self.dimension)
                 for index in range(count)]
            )
        sampler = registry.get_stream_sampler(self.sampler)
        return np.asarray(
            sampler(count, self.dimension, seed=self.seed), dtype=float
        )

    def unit_points(self, indices):
        """Saltelli design rows for the given global evaluation indices.

        Stream samplers compose from the full base stream; the counter
        sampler generates only the base rows the requested indices
        actually touch (memoized per call), so per-chunk generation
        stays O(chunk) instead of O(2 M) -- with bit-identical rows
        either way.
        """
        indices = np.asarray(indices, dtype=int)
        if indices.size == 0:
            return np.empty((0, self.dimension))
        plan = self.plan
        if self.sampler != registry.COUNTER_SAMPLER:
            return plan.compose(self.base_unit_points(), indices)
        from .runner import unit_sample

        # Fill only the base rows the indices touch; ``compose`` reads
        # no other row (and rejects out-of-range indices first).
        m = self.num_base_samples
        blocks, rows = np.divmod(indices, m)
        base = np.empty((2 * m, self.dimension))
        for stream_index in np.union1d(rows[blocks != 1],
                                       m + rows[blocks >= 1]):
            base[stream_index] = unit_sample(
                self.seed, stream_index, self.dimension
            )
        return plan.compose(base, indices)

    def to_dict(self):
        data = {
            "kind": self.kind,
            "name": self.name,
            "scenario": self.scenario.to_dict(),
            "distribution": self.distribution,
            "dimension": self.dimension,
            "num_base_samples": self.num_base_samples,
            "seed": self.seed,
            "chunk_size": self.chunk_size,
            "sampler": self.sampler,
            "num_bootstrap": self.num_bootstrap,
            "confidence": self.confidence,
        }
        # Second-order / group / reducer options serialize only when
        # enabled, so specs without them stay byte-compatible with PR-2
        # manifests (and PR-2 stores load here unchanged).
        if self.second_order:
            data["second_order"] = True
        if self.groups:
            data["groups"] = [list(group) for group in self.groups]
        if self.reducer is not None:
            data["reducer"] = dict(self.reducer)
        return data

    @classmethod
    def from_dict(cls, data):
        data = dict(data)
        spec_kind = data.pop("kind", None)
        if spec_kind not in (None, cls.kind):
            raise CampaignError(
                f"expected campaign kind {cls.kind!r}, got {spec_kind!r}"
            )
        missing = {"name", "scenario", "distribution", "dimension",
                   "num_base_samples"} - set(data)
        if missing:
            raise CampaignError(
                f"sensitivity spec is missing fields {sorted(missing)}"
            )
        unknown = set(data) - {"name", "scenario", "distribution",
                               "dimension", "num_base_samples", "seed",
                               "chunk_size", "sampler", "num_bootstrap",
                               "confidence", "second_order", "groups",
                               "reducer"}
        if unknown:
            raise CampaignError(
                f"sensitivity spec got unknown fields {sorted(unknown)}"
            )
        return cls(**data)

    def __repr__(self):
        return (
            f"SensitivitySpec({self.name!r}, problem="
            f"{self.scenario.problem!r}, M={self.num_base_samples}, "
            f"d={self.dimension}, evaluations={self.num_samples}, "
            f"chunks={self.num_chunks})"
        )


class SensitivityResult:
    """Reduced Sobol indices of a completed sensitivity campaign.

    Attributes
    ----------
    spec:
        The :class:`SensitivitySpec` that was run.
    indices:
        The :class:`~repro.uq.sensitivity.SobolIndices` (``(d,)`` arrays
        for scalar QoIs, ``(d, *output_shape)`` for vector-valued ones).
    interval:
        Bootstrap :class:`~repro.uq.sensitivity.BootstrapInterval`, or
        ``None`` when the run disabled it.
    parameters:
        The full ``(M (d + 2 + pairs + groups), d)`` evaluated parameter
        matrix.
    num_evaluated:
        Evaluations performed by *this* call (0 for a pure re-reduce).
    second_order:
        :class:`~repro.uq.sensitivity.SecondOrderIndices` when the spec
        enabled ``second_order``, else ``None``.
    group_indices:
        :class:`~repro.uq.sensitivity.GroupIndices` when the spec named
        factor groups, else ``None``.
    """

    def __init__(self, spec, indices, interval, parameters, num_evaluated,
                 second_order=None, group_indices=None):
        self.spec = spec
        self.indices = indices
        self.interval = interval
        self.parameters = parameters
        self.num_evaluated = int(num_evaluated)
        self.second_order = second_order
        self.group_indices = group_indices

    @property
    def streamed(self):
        """Whether the reduction streamed per chunk (never materializing
        the full output matrix): exactly when it ran no bootstrap."""
        return self.interval is None

    @property
    def first_order(self):
        return self.indices.first_order

    @property
    def total(self):
        return self.indices.total

    @property
    def variance(self):
        return self.indices.variance

    def ranking(self, component=None):
        """Inputs by decreasing total index (see ``SobolIndices.ranking``)."""
        return self.indices.ranking(component=component)

    def _report_component(self):
        """Flat output index the summary reports: the max-variance entry.

        For vector QoIs (e.g. per-wire end temperatures) this is the
        hottest -- most variance-carrying -- output, the paper's
        quantity of interest; for scalar QoIs it is the only entry.
        """
        variance = np.atleast_1d(np.asarray(self.indices.variance))
        return int(np.argmax(variance.ravel()))

    def summary(self):
        """JSON-serializable summary: ranked indices at the max-variance
        output component, plus the campaign bookkeeping scalars."""
        component = self._report_component()
        dimension = self.spec.dimension
        first = self.indices.first_order.reshape(dimension, -1)[:, component]
        total = self.indices.total.reshape(dimension, -1)[:, component]
        clipped = self.indices.clipped.reshape(dimension, -1)[:, component]
        variance = np.atleast_1d(np.asarray(self.indices.variance)).ravel()
        summary = {
            "kind": "sensitivity",
            "campaign": self.spec.name,
            "problem": self.spec.scenario.problem,
            "qoi": self.spec.scenario.qoi,
            "sampler": self.spec.sampler,
            "num_base_samples": int(self.spec.num_base_samples),
            "dimension": int(dimension),
            "num_evaluations": int(self.indices.num_evaluations),
            "num_chunks": int(self.spec.num_chunks),
            "output_size": int(variance.size),
            "argmax_output": component,
            "variance": float(variance[component]),
            "first_order": [float(value) for value in first],
            "total": [float(value) for value in total],
            "clipped_first_order": [bool(flag) for flag in clipped],
            "ranking": [int(i) for i in np.argsort(-total)],
        }
        if self.second_order is not None:
            second = self.second_order
            num_pairs = second.num_pairs
            closed = second.closed.reshape(num_pairs, -1)[:, component]
            interaction = second.interaction.reshape(
                num_pairs, -1
            )[:, component]
            pair_total = second.total.reshape(num_pairs, -1)[:, component]
            summary["pairs"] = [[int(i), int(j)] for i, j in second.pairs]
            summary["closed_second_order"] = [float(v) for v in closed]
            summary["second_order"] = [float(v) for v in interaction]
            summary["pair_total"] = [float(v) for v in pair_total]
            summary["interaction_ranking"] = [
                int(p) for p in np.argsort(-interaction)
            ]
        if self.group_indices is not None:
            group = self.group_indices
            num_groups = group.num_groups
            group_closed = group.closed.reshape(
                num_groups, -1
            )[:, component]
            group_total = group.total.reshape(num_groups, -1)[:, component]
            summary["groups"] = [list(g) for g in group.groups]
            summary["group_closed"] = [float(v) for v in group_closed]
            summary["group_total"] = [float(v) for v in group_total]
            summary["group_ranking"] = [
                int(g) for g in np.argsort(-group_total)
            ]
        if self.interval is not None:
            for name in ("first_order_lower", "first_order_upper",
                         "total_lower", "total_upper"):
                bound = getattr(self.interval, name)
                bound = bound.reshape(dimension, -1)[:, component]
                summary[name] = [float(value) for value in bound]
            if self.interval.has_second_order:
                for name in ("closed_second_order_lower",
                             "closed_second_order_upper",
                             "second_order_lower", "second_order_upper"):
                    bound = getattr(self.interval, name)
                    bound = bound.reshape(
                        bound.shape[0], -1
                    )[:, component]
                    summary[name] = [float(value) for value in bound]
            if self.interval.has_groups:
                for name in ("group_closed_lower", "group_closed_upper",
                             "group_total_lower", "group_total_upper"):
                    bound = getattr(self.interval, name)
                    bound = bound.reshape(
                        bound.shape[0], -1
                    )[:, component]
                    summary[name] = [float(value) for value in bound]
            summary["bootstrap_replicates"] = self.interval.num_replicates
            summary["confidence"] = self.interval.confidence
        return summary

    def __repr__(self):
        return (
            f"SensitivityResult({self.spec.name!r}, "
            f"M={self.spec.num_base_samples}, d={self.spec.dimension}, "
            f"ranking={self.ranking(component=self._report_component())})"
        )
