"""Variance-based global sensitivity analysis (Sobol indices).

The paper investigates "the global sensitivity of the bonding wires'
temperatures w.r.t. their geometric parameters" (Section I).  This module
computes first-order, total, closed second-order and grouped Sobol
indices with the Saltelli sampling scheme and Jansen's estimators,
answering which wire's length uncertainty -- and which wire *pair*
interaction -- drives the hottest-wire temperature variance.

Layering: the estimator core is a pure reduction over already-evaluated
Saltelli blocks and supports vector-valued quantities of interest.  Its
canonical implementation is the :class:`StreamingJansenAccumulator`,
which folds blocks of evaluations into running sums row by row -- the
in-memory entry points (:func:`jansen_indices`,
:func:`jansen_second_order`, :func:`jansen_group_indices`) feed it with
one call, and the distributed campaign
(:mod:`repro.campaign.sensitivity`) feeds it chunk by chunk, so both
paths produce bit-identical indices for the same design regardless of
chunk size, worker count or kill/resume history.  One estimator,
:func:`_jansen_estimates`, turns the sums into indices, for the point
estimates and for every bootstrap replicate of :func:`jansen_bootstrap`.
The in-process driver :func:`sobol_indices` evaluates a scalar model
serially on top of the same core.
"""

import numpy as np

from ..errors import SamplingError
from .sampling import map_to_distributions, random_sampler

#: ``SeedSequence`` spawn key of the bootstrap stream.  Sample streams use
#: ``spawn_key=(sample_index,)``; this constant is far above any sample
#: count, so bootstrap and sample draws never collide for one seed.
_BOOTSTRAP_SPAWN_KEY = 0xB0075

#: Byte budget of the resampled designs one :func:`jansen_bootstrap`
#: slice gathers.  A slice always holds at least one replicate, so a
#: design larger than the budget (trace QoIs) resamples one replicate
#: at a time.
_BOOTSTRAP_SLICE_BYTES = 40 << 10

#: The :func:`_jansen_estimates` entries the bootstrap bounds, and the
#: :class:`BootstrapInterval` fields (``<field>_lower/_upper``) they fill.
_BOOTSTRAP_BOUNDS = {
    "first": "first_order",
    "total": "total",
    "pair_closed": "closed_second_order",
    "interaction": "second_order",
    "group_closed": "group_closed",
    "group_total": "group_total",
}


def saltelli_sample(num_base_samples, dimension, seed=None):
    """Saltelli design: matrices ``A``, ``B`` and the ``AB_i`` hybrids.

    Returns ``(a, b, ab)`` with ``ab`` shaped ``(d, M, d)``.  Total model
    cost of a first-order/total Sobol analysis is ``M (d + 2)``
    evaluations; a second-order analysis adds ``AB_ij`` pair blocks
    (``A`` with columns ``i`` and ``j`` from ``B`` -- see
    :func:`sobol_indices` with ``second_order=True`` and the campaign
    :class:`repro.campaign.sensitivity.SaltelliPlan`).
    """
    num_base_samples = int(num_base_samples)
    dimension = int(dimension)
    if num_base_samples < 2:
        raise SamplingError("need at least 2 base samples")
    stream = random_sampler(2 * num_base_samples, dimension, seed)
    a = stream[:num_base_samples]
    b = stream[num_base_samples:]
    ab = np.empty((dimension, num_base_samples, dimension))
    for i in range(dimension):
        ab[i] = a.copy()
        ab[i][:, i] = b[:, i]
    return a, b, ab


def all_pairs(dimension):
    """Every ``(i, j)`` with ``i < j`` in lexicographic order."""
    dimension = int(dimension)
    return [(i, j) for i in range(dimension)
            for j in range(i + 1, dimension)]


def _column_index(entry):
    """``entry`` as an exact column index (no silent float truncation)."""
    if isinstance(entry, bool) or not isinstance(
            entry, (int, np.integer)):
        raise SamplingError(
            f"column index {entry!r} is not an integer"
        )
    return int(entry)


def normalize_pairs(pairs, dimension):
    """Validated list of ``(i, j)`` column pairs (``i < j``, in range)."""
    dimension = int(dimension)
    normalized = []
    seen = set()
    for pair in pairs:
        pair = tuple(_column_index(entry) for entry in pair)
        if len(pair) != 2 or pair[0] >= pair[1]:
            raise SamplingError(
                f"pair {pair} must be two distinct columns (i, j) with "
                "i < j"
            )
        if not (0 <= pair[0] and pair[1] < dimension):
            raise SamplingError(
                f"pair {pair} has columns outside [0, {dimension})"
            )
        if pair in seen:
            raise SamplingError(f"duplicate pair {pair}")
        seen.add(pair)
        normalized.append(pair)
    return normalized


def normalize_groups(groups, dimension):
    """Validated list of factor groups (sorted unique column tuples)."""
    dimension = int(dimension)
    normalized = []
    seen = set()
    for group in groups:
        columns = tuple(sorted(_column_index(entry) for entry in group))
        if not columns:
            raise SamplingError("factor groups must be non-empty")
        if len(set(columns)) != len(columns):
            raise SamplingError(
                f"group {list(group)} repeats a column"
            )
        if columns[0] < 0 or columns[-1] >= dimension:
            raise SamplingError(
                f"group {list(columns)} has columns outside "
                f"[0, {dimension})"
            )
        if columns in seen:
            raise SamplingError(f"duplicate group {list(columns)}")
        seen.add(columns)
        normalized.append(columns)
    return normalized


class SobolIndices:
    """First-order and total Sobol indices per input dimension.

    ``first_order`` and ``total`` are shaped ``(d,)`` for a scalar
    quantity of interest and ``(d, *output_shape)`` for vector-valued
    ones; ``variance`` is a float (scalar QoI) or an ``output_shape``
    array.  ``clipped`` flags entries whose raw first-order estimate
    exceeded the total index (a finite-``M`` sampling artifact); those
    entries are reported clipped to the total index.
    """

    #: Optional :class:`SecondOrderIndices` attached by drivers that
    #: also evaluated the ``AB_ij`` pair blocks.
    second_order = None

    def __init__(self, first_order, total, variance, num_evaluations,
                 clipped=None):
        self.first_order = np.asarray(first_order, dtype=float)
        self.total = np.asarray(total, dtype=float)
        if np.ndim(variance) == 0:
            self.variance = float(variance)
        else:
            self.variance = np.asarray(variance, dtype=float)
        self.num_evaluations = int(num_evaluations)
        if clipped is None:
            clipped = np.zeros(self.first_order.shape, dtype=bool)
        self.clipped = np.asarray(clipped, dtype=bool)

    @property
    def num_clipped(self):
        """How many first-order entries were clipped to their total."""
        return int(np.count_nonzero(self.clipped))

    def ranking(self, component=None):
        """Input dimensions ordered by decreasing total index.

        For a vector QoI pass ``component`` (an index into the flattened
        output) to pick which output entry to rank by.
        """
        return _ranked(self.total, component)

    def __repr__(self):
        return (
            f"SobolIndices(S={np.round(self.first_order, 3).tolist()}, "
            f"ST={np.round(self.total, 3).tolist()})"
        )


class SecondOrderIndices:
    """Closed second-order and interaction Sobol indices per input pair.

    For pair ``(i, j)`` the ``AB_ij`` block (``A`` with columns ``i``
    *and* ``j`` from ``B``) yields, via the same Jansen expressions as
    the first-order path:

    * ``closed``: the closed index ``S^c_ij = V(E[f | x_i, x_j]) / V``,
    * ``total``: the total effect of the pair treated as one group,
    * ``interaction``: the pure interaction ``S_ij = S^c_ij - S_i - S_j``
      (computed from the *raw* first-order estimates, then negative
      finite-``M`` artifacts are clipped to zero and flagged in
      ``clipped``).

    Arrays are shaped ``(num_pairs,)`` for scalar QoIs and
    ``(num_pairs, *output_shape)`` otherwise; zero-variance output
    components report ``NaN`` (the same degeneracy contract as
    :class:`SobolIndices`).
    """

    def __init__(self, pairs, closed, interaction, total, variance,
                 num_evaluations, clipped=None):
        self.pairs = [tuple(int(entry) for entry in pair)
                      for pair in pairs]
        self.closed = np.asarray(closed, dtype=float)
        self.interaction = np.asarray(interaction, dtype=float)
        self.total = np.asarray(total, dtype=float)
        if np.ndim(variance) == 0:
            self.variance = float(variance)
        else:
            self.variance = np.asarray(variance, dtype=float)
        self.num_evaluations = int(num_evaluations)
        if clipped is None:
            clipped = np.zeros(self.interaction.shape, dtype=bool)
        self.clipped = np.asarray(clipped, dtype=bool)

    @property
    def num_pairs(self):
        return len(self.pairs)

    def pair_labels(self):
        """Human-readable pair names (``"x00*x03"``)."""
        return [f"x{i:02d}*x{j:02d}" for i, j in self.pairs]

    def ranking(self, component=None):
        """Pair positions ordered by decreasing interaction index."""
        return _ranked(self.interaction, component)

    def __repr__(self):
        return (
            f"SecondOrderIndices({self.num_pairs} pairs, "
            f"S_ij={np.round(self.interaction, 3).tolist()})"
        )


class GroupIndices:
    """Closed and total Sobol indices of grouped factors.

    Group ``g`` (any column subset) gets one ``AB_g`` block -- ``A``
    with every column in ``g`` from ``B`` -- reduced with the same
    Jansen expressions: ``closed`` is ``V(E[f | x_g]) / V`` and
    ``total`` the total effect of the group.  Arrays are shaped
    ``(num_groups, *output_shape)``; zero-variance output components
    report ``NaN``.
    """

    def __init__(self, groups, closed, total, variance, num_evaluations):
        self.groups = [tuple(int(entry) for entry in group)
                       for group in groups]
        self.closed = np.asarray(closed, dtype=float)
        self.total = np.asarray(total, dtype=float)
        if np.ndim(variance) == 0:
            self.variance = float(variance)
        else:
            self.variance = np.asarray(variance, dtype=float)
        self.num_evaluations = int(num_evaluations)

    @property
    def num_groups(self):
        return len(self.groups)

    def group_labels(self):
        """Human-readable group names (``"{x00,x02}"``)."""
        return ["{" + ",".join(f"x{i:02d}" for i in group) + "}"
                for group in self.groups]

    def ranking(self, component=None):
        """Group positions ordered by decreasing total index."""
        return _ranked(self.total, component)

    def __repr__(self):
        return (
            f"GroupIndices({self.num_groups} groups, "
            f"ST={np.round(self.total, 3).tolist()})"
        )


def _ranked(values, component):
    values = np.asarray(values, dtype=float)
    if values.ndim > 1:
        if component is None:
            raise SamplingError(
                "vector quantity of interest: pass component= to "
                "ranking() to select an output entry"
            )
        values = values.reshape(values.shape[0], -1)[:, int(component)]
    return list(np.argsort(-values))


class JansenEstimates:
    """Everything one finalized Jansen reduction produced.

    Attributes are ``None`` for block families the design did not
    carry: ``first_order`` (:class:`SobolIndices`), ``second_order``
    (:class:`SecondOrderIndices`), ``groups`` (:class:`GroupIndices`).
    """

    def __init__(self, first_order=None, second_order=None, groups=None):
        self.first_order = first_order
        self.second_order = second_order
        self.groups = groups

    def __repr__(self):
        parts = [name for name, value in (
            ("first_order", self.first_order),
            ("second_order", self.second_order),
            ("groups", self.groups),
        ) if value is not None]
        return f"JansenEstimates({', '.join(parts)})"


class StreamingJansenAccumulator:
    """Fold Saltelli evaluations into Jansen running sums, chunk by chunk.

    The canonical Jansen reduction: every entry point (the in-memory
    :func:`jansen_indices` family and the distributed campaign) feeds
    this accumulator, which adds each swap block's squared differences
    to its running sums **row by row in global-index order** (one
    ``np.cumsum`` per block segment of a chunk, see
    :func:`_fold_squares`) -- so the floating-point operation sequence
    is a pure function of the design, independent of how the stream was
    chunked.  Feeding chunk sizes 1, 7 or the whole design produces
    bit-identical indices.

    Memory is the point: only the ``A`` and ``B`` blocks (``2 M K``
    floats, needed to pair with later rows) and one ``(K,)`` running sum
    per swap block are retained -- the full
    ``(M (2 + d + pairs + groups), K)`` output matrix of a huge vector
    QoI (e.g. full ``(P, W)`` temperature traces) never materializes.

    Usage::

        acc = StreamingJansenAccumulator(m, d, pairs=[(0, 1)])
        for chunk_indices, chunk_outputs in chunks:  # global-index order
            acc.add(chunk_indices, chunk_outputs)
        estimates = acc.finalize()

    Blocks are laid out ``[A, B, AB_0 .. AB_{d-1}, AB_ij .., AB_g ..]``
    with global index ``(block, row) = divmod(g, M)``, matching
    :class:`repro.campaign.sensitivity.SaltelliPlan`.
    """

    def __init__(self, num_base_samples, dimension, pairs=None, groups=None,
                 include_first_order=True):
        self.num_base_samples = int(num_base_samples)
        self.dimension = int(dimension)
        if self.num_base_samples < 2:
            raise SamplingError("need at least 2 base samples")
        if self.dimension < 1:
            raise SamplingError(
                f"dimension must be >= 1, got {self.dimension}"
            )
        self.include_first_order = bool(include_first_order)
        self.pairs = normalize_pairs(pairs or [], self.dimension)
        self.groups = normalize_groups(groups or [], self.dimension)
        subsets = []
        if self.include_first_order:
            subsets += [(i,) for i in range(self.dimension)]
        subsets += self.pairs
        subsets += list(self.groups)
        if not subsets:
            raise SamplingError(
                "nothing to estimate: enable first-order indices or pass "
                "pairs/groups"
            )
        self._subsets = subsets
        self._next = 0
        #: ``[f_A, f_B]`` rows, ``(2, M, K)``, and per swap block the
        #: running sums ``[sum (f_A - f_ABu)^2, sum (f_B - f_ABu)^2]``,
        #: ``(2, subsets, K)``: row ``i`` of the sums pairs with row
        #: ``i`` of the retained blocks.
        self._retained = None
        self._sums = None
        self._output_shape = None

    @property
    def swap_subsets(self):
        """Column subset of every swap block, in block order.

        The contract shared with :class:`repro.campaign.sensitivity.
        SaltelliPlan` (its ``swap_subsets``): the campaign validates the
        two layouts agree before folding chunks.
        """
        return list(self._subsets)

    @property
    def num_blocks(self):
        """``A``, ``B`` and one swap block per subset."""
        return 2 + len(self._subsets)

    @property
    def num_evaluations(self):
        """Total evaluations the stream must deliver."""
        return self.num_base_samples * self.num_blocks

    @property
    def num_folded(self):
        """Evaluations folded so far."""
        return self._next

    def add(self, indices, outputs):
        """Fold one chunk of evaluations; returns ``self`` for chaining.

        ``indices`` must continue the global stream exactly where the
        previous chunk stopped (the campaign reduce feeds checkpointed
        chunks in chunk-index order, which guarantees this) -- the
        contiguity is what makes the reduction chunk-size invariant
        down to the last bit.
        """
        indices = np.asarray(indices, dtype=int)
        outputs = np.asarray(outputs, dtype=float)
        if indices.ndim != 1 or outputs.shape[:1] != indices.shape:
            raise SamplingError(
                f"chunk outputs shape {outputs.shape} does not match "
                f"{indices.size} indices"
            )
        if indices.size == 0:
            return self
        stop = self._next + indices.size
        if stop > self.num_evaluations or not np.array_equal(
                indices, np.arange(self._next, stop)):
            raise SamplingError(
                f"chunks must arrive in contiguous global-index order: "
                f"expected indices starting at {self._next}, got "
                f"[{indices.min()}, {indices.max()}]"
            )
        if self._output_shape is None:
            self._allocate(outputs.shape[1:])
        elif outputs.shape[1:] != self._output_shape:
            raise SamplingError(
                f"chunk output shape {outputs.shape[1:]} does not match "
                f"earlier chunks {self._output_shape}"
            )
        flat = outputs.reshape(indices.size, -1)
        m = self.num_base_samples
        position = 0
        while position < indices.size:
            # One segment per block: the chunk's rows of that block.
            block, row = divmod(self._next + position, m)
            count = min(m - row, indices.size - position)
            values = flat[position:position + count]
            rows = slice(row, row + count)
            if block < 2:
                self._retained[block, rows] = values
            else:
                subset = block - 2
                self._sums[:, subset] = _fold_squares(
                    self._sums[:, subset], self._retained[:, rows] - values
                )
            position += count
        self._next = stop
        return self

    def _allocate(self, output_shape):
        self._output_shape = output_shape
        num_components = int(np.prod(output_shape, dtype=int))
        m = self.num_base_samples
        self._retained = np.empty((2, m, num_components))
        self._sums = np.zeros((2, len(self._subsets), num_components))

    def state_dict(self):
        """Serializable running state (exact float64 round trip).

        Captures the folded position, retained ``A``/``B`` blocks and the
        per-subset running sums; :meth:`load_state_dict` restores an
        accumulator that continues bit-identically, which is what lets a
        campaign checkpoint its reduction beside the chunk files.
        """
        state = {"num_folded": np.asarray(self._next)}
        if self._output_shape is None:
            return state
        state["output_shape"] = np.asarray(self._output_shape, dtype=int)
        for name, (array, row) in self._state_arrays().items():
            state[name] = array[row].copy()
        return state

    def load_state_dict(self, state):
        """Restore :meth:`state_dict` output in place; returns ``self``.

        Scalar-QoI states stored as flat ``(M,)`` / ``(subsets,)``
        arrays load too (the reshape below restores the component axis).
        """
        self._next = int(np.asarray(state["num_folded"]))
        if "output_shape" not in state:
            self._retained = self._sums = None
            self._output_shape = None
            return self
        shape = tuple(
            int(v) for v in np.asarray(state["output_shape"]).ravel()
        )
        self._allocate(shape)
        for name, (array, row) in self._state_arrays().items():
            array[row] = np.asarray(state[name], dtype=float).reshape(
                array[row].shape
            )
        return self

    def _state_arrays(self):
        """State entry name -> ``(array, row)`` holding it."""
        return {"f_a": (self._retained, 0), "f_b": (self._retained, 1),
                "sums_a": (self._sums, 0), "sums_b": (self._sums, 1)}

    def finalize(self, num_evaluations=None):
        """Reduce the folded stream into :class:`JansenEstimates`.

        The estimates are :func:`_jansen_estimates` of the running sums,
        with ``V`` the sample variance of the pooled ``A``/``B`` outputs
        per component.  A scalar QoI with zero variance raises; for
        vector QoIs only the zero-variance components report ``NaN``
        (variance 0) -- all of them degenerate raises.
        ``num_evaluations`` overrides the recorded budget (defaults to
        the stream length).
        """
        if self._next != self.num_evaluations:
            raise SamplingError(
                f"incomplete Saltelli stream: folded {self._next} of "
                f"{self.num_evaluations} evaluations"
            )
        f_a, f_b = self._retained
        variance = np.empty(f_a.shape[1])
        for component in range(f_a.shape[1]):
            combined = np.concatenate([f_a[:, component], f_b[:, component]])
            variance[component] = np.var(combined, ddof=1)
        degenerate = variance <= 0.0
        if degenerate.all():
            if self._output_shape == ():
                raise SamplingError(
                    "model output has zero variance; Sobol indices are "
                    "undefined"
                )
            raise SamplingError(
                "every output component has zero variance; Sobol indices "
                "are undefined"
            )
        num_first = self.dimension if self.include_first_order else 0
        estimates = _jansen_estimates(
            variance, self._sums[1], self._sums[0], self.num_base_samples,
            num_first, self.pairs,
        )
        variance = np.where(degenerate, 0.0, variance).reshape(
            self._output_shape
        )
        if num_evaluations is None:
            num_evaluations = self.num_evaluations

        first_order = None
        if self.include_first_order:
            first_order = SobolIndices(
                self._shaped(estimates["first"]),
                self._shaped(estimates["total"]),
                variance, num_evaluations,
                clipped=self._shaped(estimates["clipped"]),
            )
        second_order = None
        if self.pairs:
            second_order = SecondOrderIndices(
                self.pairs,
                self._shaped(estimates["pair_closed"]),
                self._shaped(estimates["interaction"]),
                self._shaped(estimates["pair_total"]),
                variance, num_evaluations,
                clipped=self._shaped(estimates["pair_clipped"]),
            )
        groups = None
        if self.groups:
            groups = GroupIndices(
                self.groups,
                self._shaped(estimates["group_closed"]),
                self._shaped(estimates["group_total"]),
                variance, num_evaluations,
            )
        return JansenEstimates(first_order, second_order, groups)

    def bootstrap(self, blocks, num_replicates=100, seed=0,
                  confidence=0.95):
        """Percentile-bootstrap :class:`BootstrapInterval` of a design
        with this accumulator's block layout.

        ``blocks`` holds the ``num_blocks`` evaluation blocks (each
        ``(M, *out)``) in stream order -- a list, or the output stream
        reshaped to ``(num_blocks, M, *out)``.  See
        :func:`jansen_bootstrap`; every replicate goes through
        :func:`_jansen_estimates`, the estimator of :meth:`finalize`.
        """
        num_replicates = int(num_replicates)
        if num_replicates < 1:
            raise SamplingError(
                f"num_replicates must be >= 1, got {num_replicates}"
            )
        if not 0.0 < confidence < 1.0:
            raise SamplingError(
                f"confidence must be in (0, 1), got {confidence!r}"
            )
        m = self.num_base_samples
        slice_size = max(
            1, _BOOTSTRAP_SLICE_BYTES // (blocks[0].nbytes * len(blocks))
        )
        rng = np.random.default_rng(
            np.random.SeedSequence(
                entropy=int(seed), spawn_key=(_BOOTSTRAP_SPAWN_KEY,)
            )
        )
        num_first = self.dimension if self.include_first_order else 0
        collected = {}
        num_kept = 0
        for offset in range(0, num_replicates, slice_size):
            # One draw per replicate, in replicate order: the rows do not
            # depend on the slicing.
            rows = np.stack([
                rng.integers(0, m, size=m)
                for _ in range(min(slice_size, num_replicates - offset))
            ])

            def resample(block):
                return block.reshape(m, -1)[rows]  # (R, M, C)

            f_a, f_b = resample(blocks[0]), resample(blocks[1])
            variance = _pooled_variance(f_a, f_b)
            sums_b = np.empty((len(rows), len(self._subsets),
                               variance.shape[1]))
            sums_a = np.empty_like(sums_b)
            # One swap block at a time bounds the peak memory of trace
            # QoIs at a few resampled blocks.
            for subset, block in enumerate(blocks[2:]):
                swap = resample(block)
                sums_b[:, subset] = np.sum((f_b - swap) ** 2, axis=1)
                sums_a[:, subset] = np.sum((f_a - swap) ** 2, axis=1)
            estimates = _jansen_estimates(
                variance[:, np.newaxis], sums_b, sums_a, m, num_first,
                self.pairs,
            )
            # A resample with zero variance in every component has
            # undefined indices: it is dropped, and the replicate count
            # reflects it.
            kept = (variance > 0.0).any(axis=1)
            num_kept += int(np.count_nonzero(kept))
            for key in _BOOTSTRAP_BOUNDS:
                if key in estimates:
                    collected.setdefault(key, []).append(
                        estimates[key][kept]
                    )
        if not num_kept:
            raise SamplingError(
                "every bootstrap replicate had zero output variance"
            )

        alpha = 0.5 * (1.0 - confidence)
        bounds = {}
        for key, field in _BOOTSTRAP_BOUNDS.items():
            if key not in collected:
                continue
            # One estimate family at a time, releasing its slices.
            values = np.concatenate(collected.pop(key))
            shape = values.shape[1:2] + blocks[0].shape[1:]
            bounds[field + "_lower"] = np.quantile(
                values, alpha, axis=0).reshape(shape)
            bounds[field + "_upper"] = np.quantile(
                values, 1.0 - alpha, axis=0).reshape(shape)
        return BootstrapInterval(num_replicates=num_kept,
                                 confidence=confidence, **bounds)

    def _shaped(self, values):
        return values.reshape(values.shape[:1] + self._output_shape)

    def __repr__(self):
        return (
            f"StreamingJansenAccumulator(M={self.num_base_samples}, "
            f"d={self.dimension}, pairs={len(self.pairs)}, "
            f"groups={len(self.groups)}, "
            f"folded={self._next}/{self.num_evaluations})"
        )


def _fold_squares(running, differences):
    """``running`` plus the squares of ``differences``, row by row.

    ``differences`` is ``(2, rows, K)`` and ``running`` ``(2, K)``.
    ``np.cumsum`` adds strictly in row order, so the last partial sum
    is the value a Python loop of ``running += d * d`` over the rows
    produces, bit for bit (``np.sum`` would sum pairwise instead).
    """
    squares = differences * differences
    squares[:, 0] += running
    return np.cumsum(squares, axis=1)[:, -1]


def _jansen_estimates(variance, sums_b, sums_a, num_base_samples,
                      num_first, pairs):
    """The Jansen/Saltelli estimates of stacked swap blocks.

    ``sums_b`` / ``sums_a`` hold, per swap block (axis -2) and output
    component (axis -1), the sums over the ``M`` base rows of
    ``(f_B - f_ABu)^2`` and ``(f_A - f_ABu)^2``; leading axes (the
    bootstrap's replicates) pass through, and ``variance`` broadcasts
    against them.  Blocks are laid out ``[AB_i (num_first), AB_ij
    (pairs), AB_g ..]`` as in :class:`StreamingJansenAccumulator`::

        S^c_u = (V - sum_b / (2 M)) / V
        ST_u  = sum_a / (2 M V)

    First-order estimates are clipped into ``[0, ST_i]`` (``clipped``
    flags those above ``ST_i``); the interaction ``S^c_ij - S_i - S_j``
    uses the raw first-order estimates (``NaN`` without first-order
    blocks) and clips negative values to zero (``pair_clipped``).
    Zero-variance components report ``NaN``.  Returns a dict of
    arrays; the pair and group entries only when the design has them.
    """
    degenerate = variance <= 0.0
    # Masked denominator: degenerate components become NaN, so no
    # division warning can escape.
    safe = np.where(degenerate, 1.0, variance)
    m = num_base_samples
    closed = np.where(degenerate, np.nan,
                      (safe - 0.5 * (sums_b / m)) / safe)
    total = np.where(degenerate, np.nan, (0.5 * (sums_a / m)) / safe)
    first_raw = closed[..., :num_first, :]
    first_total = total[..., :num_first, :]
    first = np.clip(first_raw, 0.0, None)
    clipped = first > first_total
    estimates = {
        "first": np.where(clipped, first_total, first),
        "total": first_total,
        "clipped": clipped,
    }
    stop = num_first + len(pairs)
    if pairs:
        pair_closed = closed[..., num_first:stop, :]
        if num_first:
            left, right = np.asarray(pairs, dtype=np.intp).T
            interaction = (pair_closed - first_raw[..., left, :]
                           - first_raw[..., right, :])
        else:
            interaction = np.full_like(pair_closed, np.nan)
        pair_clipped = interaction < 0.0
        estimates.update(
            pair_closed=pair_closed,
            pair_total=total[..., num_first:stop, :],
            interaction=np.where(pair_clipped, 0.0, interaction),
            pair_clipped=pair_clipped,
        )
    if closed.shape[-2] > stop:
        estimates.update(group_closed=closed[..., stop:, :],
                         group_total=total[..., stop:, :])
    return estimates


def _in_memory_design(f_a, f_b, f_ab=None, f_ab_pairs=None, pairs=None,
                      f_ab_groups=None, groups=None, dimension=None):
    """Validate the evaluation blocks of one in-memory Saltelli design.

    Returns the (empty) :class:`StreamingJansenAccumulator` of the
    design's block layout and the list of its ``(M, *out)`` evaluation
    blocks in stream order.  ``pairs`` defaults to every pair
    when ``f_ab_pairs`` is given; ``dimension`` to ``f_ab``'s block
    count, else the highest referenced group column + 1.
    """
    f_a = np.asarray(f_a, dtype=float)
    f_b = np.asarray(f_b, dtype=float)
    if f_a.shape != f_b.shape:
        raise SamplingError(
            f"f_a shape {f_a.shape} does not match f_b shape {f_b.shape}"
        )
    if f_a.shape[0] < 2:
        raise SamplingError("need at least 2 base samples")
    if pairs is not None and f_ab_pairs is None:
        raise SamplingError(
            "pairs= needs the matching f_ab_pairs evaluation blocks"
        )
    if groups is not None and f_ab_groups is None:
        raise SamplingError(
            "groups= needs the matching f_ab_groups evaluation blocks"
        )
    if f_ab_groups is not None and groups is None:
        raise SamplingError(
            "f_ab_groups needs the matching groups= column subsets"
        )
    families = []
    for name, blocks in (("f_ab", f_ab), ("f_ab_pairs", f_ab_pairs),
                         ("f_ab_groups", f_ab_groups)):
        if blocks is None:
            continue
        blocks = np.asarray(blocks, dtype=float)
        if blocks.ndim != f_a.ndim + 1 or blocks.shape[1:] != f_a.shape:
            raise SamplingError(
                f"{name} shape {blocks.shape} does not match "
                f"(n, *{f_a.shape})"
            )
        families.append(blocks)
    if dimension is None:
        if f_ab is not None:
            dimension = families[0].shape[0]
        else:
            dimension = 1 + max(
                (_column_index(column) for group in groups
                 for column in group),
                default=0,
            )
    if f_ab_pairs is not None and pairs is None:
        pairs = all_pairs(dimension)
    accumulator = StreamingJansenAccumulator(
        f_a.shape[0], dimension, pairs=pairs, groups=groups,
        include_first_order=f_ab is not None,
    )
    for name, blocks, subsets in (("pair", f_ab_pairs, accumulator.pairs),
                                  ("group", f_ab_groups,
                                   accumulator.groups)):
        if blocks is not None and len(blocks) != len(subsets):
            raise SamplingError(
                f"{len(blocks)} {name} blocks do not match "
                f"{len(subsets)} {name}s"
            )
    return accumulator, [f_a, f_b, *(block for family in families
                                     for block in family)]


def _reduce_in_memory(num_evaluations, *arguments, **subsets):
    """:meth:`StreamingJansenAccumulator.finalize` of one in-memory
    design, folded one block at a time."""
    accumulator, blocks = _in_memory_design(*arguments, **subsets)
    for block in blocks:
        start = accumulator.num_folded
        accumulator.add(np.arange(start, start + len(block)), block)
    return accumulator.finalize(num_evaluations=num_evaluations)


def jansen_indices(f_a, f_b, f_ab, num_evaluations=None):
    """Jansen's estimators over already-evaluated Saltelli blocks.

    ``S_i  = (V - mean((f_B - f_ABi)^2) / 2) / V``
    ``ST_i = mean((f_A - f_ABi)^2) / (2 V)``

    Parameters
    ----------
    f_a, f_b:
        Model outputs on the ``A`` / ``B`` matrices, shaped ``(M,)`` for
        a scalar QoI or ``(M, *output_shape)`` for vector-valued ones.
    f_ab:
        Outputs on the hybrid matrices, shaped ``(d, M, *output_shape)``.
    num_evaluations:
        Recorded evaluation budget (defaults to ``M (d + 2)``).

    Negative first-order estimates are clipped at zero; estimates that
    exceed their total index (both possible at finite ``M``) are clipped
    to the total and flagged in :attr:`SobolIndices.clipped`.  The
    reduction delegates to :class:`StreamingJansenAccumulator`, so any
    chunked/distributed evaluation of the same design reproduces these
    indices bit for bit.

    A scalar QoI with zero output variance raises (indices are
    undefined).  For vector QoIs only the zero-variance components are
    undefined -- temperature traces legitimately hold a constant initial
    row -- so those components report ``NaN`` indices and variance 0
    while every varying component still reduces; it raises only when
    *no* component varies.
    """
    return _reduce_in_memory(
        num_evaluations, f_a, f_b, f_ab
    ).first_order


def jansen_second_order(f_a, f_b, f_ab, f_ab_pairs, pairs=None,
                        num_evaluations=None):
    """Closed second-order / interaction indices from ``AB_ij`` blocks.

    ``f_ab`` holds the first-order hybrid blocks (``(d, M, *out)``, as
    for :func:`jansen_indices` -- needed because the interaction
    ``S_ij = S^c_ij - S_i - S_j`` subtracts the raw first-order
    estimates) and ``f_ab_pairs`` the pair blocks
    (``(num_pairs, M, *out)``); ``pairs`` lists the ``(i, j)`` column
    pair of each block (default: every pair in lexicographic order).
    Zero-variance output components report ``NaN`` for every pair
    quantity -- the same degeneracy contract as the first-order path --
    instead of emitting division warnings.
    """
    return _reduce_in_memory(
        num_evaluations, f_a, f_b, f_ab, f_ab_pairs=f_ab_pairs, pairs=pairs
    ).second_order


def jansen_group_indices(f_a, f_b, f_ab_groups, groups, dimension=None,
                         num_evaluations=None):
    """Closed/total Sobol indices of factor groups from ``AB_g`` blocks.

    ``f_ab_groups`` is shaped ``(num_groups, M, *out)``; ``groups``
    lists the column subset of each block.  ``dimension`` defaults to
    the highest referenced column + 1.  Zero-variance output components
    report ``NaN``.
    """
    return _reduce_in_memory(
        num_evaluations, f_a, f_b, f_ab_groups=f_ab_groups, groups=groups,
        dimension=dimension,
    ).groups


class BootstrapInterval:
    """Percentile-bootstrap confidence bounds of Sobol estimates.

    First-order/total arrays are shaped like
    :attr:`SobolIndices.first_order`.  When the bootstrap also covered
    second-order or group blocks, the corresponding bounds are shaped
    like :attr:`SecondOrderIndices.interaction` /
    :attr:`GroupIndices.total`; otherwise they are ``None``.
    """

    def __init__(self, first_order_lower, first_order_upper, total_lower,
                 total_upper, num_replicates, confidence,
                 closed_second_order_lower=None,
                 closed_second_order_upper=None,
                 second_order_lower=None, second_order_upper=None,
                 group_closed_lower=None, group_closed_upper=None,
                 group_total_lower=None, group_total_upper=None):
        self.first_order_lower = np.asarray(first_order_lower, dtype=float)
        self.first_order_upper = np.asarray(first_order_upper, dtype=float)
        self.total_lower = np.asarray(total_lower, dtype=float)
        self.total_upper = np.asarray(total_upper, dtype=float)
        self.num_replicates = int(num_replicates)
        self.confidence = float(confidence)
        self.closed_second_order_lower = _optional_array(
            closed_second_order_lower
        )
        self.closed_second_order_upper = _optional_array(
            closed_second_order_upper
        )
        self.second_order_lower = _optional_array(second_order_lower)
        self.second_order_upper = _optional_array(second_order_upper)
        self.group_closed_lower = _optional_array(group_closed_lower)
        self.group_closed_upper = _optional_array(group_closed_upper)
        self.group_total_lower = _optional_array(group_total_lower)
        self.group_total_upper = _optional_array(group_total_upper)

    @property
    def has_second_order(self):
        return self.second_order_lower is not None

    @property
    def has_groups(self):
        return self.group_total_lower is not None

    def __repr__(self):
        return (
            f"BootstrapInterval({self.confidence:.0%}, "
            f"B={self.num_replicates})"
        )


def _optional_array(values):
    if values is None:
        return None
    return np.asarray(values, dtype=float)


def _pooled_variance(f_a, f_b):
    """Sample variance of the pooled rows (axis 1) of ``f_a`` and
    ``f_b``, without materializing the pooled array."""
    count = f_a.shape[1] + f_b.shape[1]
    mean = (f_a.sum(axis=1, keepdims=True)
            + f_b.sum(axis=1, keepdims=True)) / count
    return (np.sum((f_a - mean) ** 2, axis=1)
            + np.sum((f_b - mean) ** 2, axis=1)) / (count - 1)


def jansen_bootstrap(f_a, f_b, f_ab, num_replicates=100, seed=0,
                     confidence=0.95, f_ab_pairs=None, pairs=None,
                     f_ab_groups=None, groups=None):
    """Bootstrap confidence intervals for the Jansen estimators.

    Resamples the ``M`` base-design rows with replacement (the standard
    Saltelli bootstrap: a row carries its ``A``, ``B`` and every swap
    block evaluation, preserving the pairing), re-estimates the indices
    per replicate and returns percentile bounds.  Deterministic for a
    given ``seed``, so a resumed campaign reports the same intervals as
    an uninterrupted one.  Each replicate goes through the estimator of
    the point estimates (:func:`_jansen_estimates`); only its sums and
    variance are vectorized reductions over the resampled rows, so the
    streaming bit-for-bit guarantee covers the point estimates, not the
    resampled quantile bounds.

    Each replicate's rows come from one ``rng.integers`` draw, in
    replicate order.  The replicates are evaluated in slices: the
    slice's resampled ``A`` and ``B`` blocks and one swap block at a
    time are gathered, and one vectorized estimate covers the slice.
    The slice size follows from a fixed byte budget for the resampled
    designs (``_BOOTSTRAP_SLICE_BYTES``), down to one replicate per
    slice when a single design exceeds it, so slicing changes neither
    the rows nor the peak memory of large trace QoIs.  A replicate whose resample has zero variance in every
    component is dropped, and ``num_replicates`` of the result counts
    the replicates kept.

    Pass ``f_ab_pairs``/``pairs`` and/or ``f_ab_groups``/``groups`` (as
    in :func:`jansen_second_order` / :func:`jansen_group_indices`) to
    bootstrap the second-order and group indices in the same replicate
    sweep; zero-variance output components propagate ``NaN`` bounds
    instead of raising or warning.
    """
    accumulator, blocks = _in_memory_design(
        f_a, f_b, f_ab, f_ab_pairs=f_ab_pairs, pairs=pairs,
        f_ab_groups=f_ab_groups, groups=groups,
    )
    return accumulator.bootstrap(blocks, num_replicates=num_replicates,
                                 seed=seed, confidence=confidence)


def sobol_indices(model, distributions, dimension, num_base_samples=256,
                  seed=None, second_order=False):
    """Estimate Sobol indices of a scalar model output, in process.

    Serial legacy driver: evaluates the full Saltelli design with a
    Python loop and reduces with :func:`jansen_indices`.  With
    ``second_order=True`` the ``AB_ij`` pair blocks are evaluated too
    (cost ``M (d + 2 + d (d - 1) / 2)``) and the returned
    :class:`SobolIndices` carries a :class:`SecondOrderIndices` on its
    ``second_order`` attribute (``None`` otherwise).  Scalar outputs
    only -- vector-valued quantities of interest (and parallel or
    resumable execution) go through a sensitivity campaign
    (:func:`repro.campaign.runner.run_campaign` on a
    :class:`~repro.campaign.sensitivity.SensitivitySpec`), which
    reproduces this function bit for bit for the ``"random"`` sampler
    and the same seed.
    """
    num_base_samples = int(num_base_samples)
    dimension = int(dimension)
    a_unit, b_unit, ab_unit = saltelli_sample(num_base_samples, dimension,
                                              seed)
    a = map_to_distributions(a_unit, distributions)
    b = map_to_distributions(b_unit, distributions)

    def evaluate(matrix):
        values = np.empty(matrix.shape[0])
        for row in range(matrix.shape[0]):
            output = np.asarray(model(matrix[row]), dtype=float)
            if output.size != 1:
                raise SamplingError(
                    f"sobol_indices expects a scalar model output, got "
                    f"shape {output.shape}; use the sensitivity campaign "
                    "(repro.campaign.sensitivity) for vector-valued "
                    "quantities of interest"
                )
            values[row] = output.reshape(())
        return values

    f_a = evaluate(a)
    f_b = evaluate(b)
    f_ab = np.empty((dimension, num_base_samples))
    for i in range(dimension):
        f_ab[i] = evaluate(map_to_distributions(ab_unit[i], distributions))
    pairs = all_pairs(dimension) if second_order else []
    if not pairs:
        return jansen_indices(f_a, f_b, f_ab)
    f_ab_pairs = np.empty((len(pairs), num_base_samples))
    for position, (i, j) in enumerate(pairs):
        hybrid = a_unit.copy()
        hybrid[:, i] = b_unit[:, i]
        hybrid[:, j] = b_unit[:, j]
        f_ab_pairs[position] = evaluate(
            map_to_distributions(hybrid, distributions)
        )
    estimates = _reduce_in_memory(
        None, f_a, f_b, f_ab, f_ab_pairs=f_ab_pairs, pairs=pairs
    )
    indices = estimates.first_order
    indices.second_order = estimates.second_order
    return indices
