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
chunk size, worker count or kill/resume history.  The in-process driver
:func:`sobol_indices` evaluates a scalar model serially on top of the
same core.
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
    this accumulator, which processes evaluations **row by row in
    global-index order** -- so the floating-point operation sequence is
    a pure function of the design, independent of how the stream was
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
        self._f_a = None
        self._f_b = None
        self._sums_b = None
        self._sums_a = None
        self._scalar_lists = None
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
        if self._scalar_lists is not None:
            # Scalar fast path: identical IEEE operations in identical
            # order, on Python floats instead of 1-element arrays
            # (several times less interpreter overhead per row, which
            # dominates the bootstrap's replicate sweeps).
            f_a, f_b, sums_b, sums_a = self._scalar_lists
            values = flat[:, 0].tolist()
            for position in range(indices.size):
                block, row = divmod(self._next + position, m)
                value = values[position]
                if block == 0:
                    f_a[row] = value
                elif block == 1:
                    f_b[row] = value
                else:
                    subset = block - 2
                    diff = f_b[row] - value
                    sums_b[subset] += diff * diff
                    diff = f_a[row] - value
                    sums_a[subset] += diff * diff
        else:
            f_a, f_b = self._f_a, self._f_b
            sums_b, sums_a = self._sums_b, self._sums_a
            for position in range(indices.size):
                block, row = divmod(self._next + position, m)
                value = flat[position]
                if block == 0:
                    f_a[row] = value
                elif block == 1:
                    f_b[row] = value
                else:
                    subset = block - 2
                    diff = f_b[row] - value
                    sums_b[subset] += diff * diff
                    diff = f_a[row] - value
                    sums_a[subset] += diff * diff
        self._next = stop
        return self

    def _allocate(self, output_shape):
        self._output_shape = output_shape
        num_components = int(np.prod(output_shape, dtype=int))
        m = self.num_base_samples
        if num_components == 1:
            self._scalar_lists = (
                [0.0] * m, [0.0] * m,
                [0.0] * len(self._subsets), [0.0] * len(self._subsets),
            )
            return
        self._scalar_lists = None
        self._f_a = np.empty((m, num_components))
        self._f_b = np.empty((m, num_components))
        self._sums_b = np.zeros((len(self._subsets), num_components))
        self._sums_a = np.zeros((len(self._subsets), num_components))

    def state_dict(self):
        """Serializable running state (exact float64 round trip).

        Captures the folded position, retained ``A``/``B`` blocks and the
        per-subset running sums; :meth:`load_state_dict` restores an
        accumulator that continues bit-identically (Python floats and
        float64 arrays round-trip exactly), which is what lets a campaign
        checkpoint its reduction beside the chunk files.
        """
        state = {"num_folded": np.asarray(self._next)}
        if self._output_shape is None:
            return state
        state["output_shape"] = np.asarray(self._output_shape, dtype=int)
        if self._scalar_lists is not None:
            f_a, f_b, sums_b, sums_a = self._scalar_lists
            state["f_a"] = np.asarray(f_a)
            state["f_b"] = np.asarray(f_b)
            state["sums_b"] = np.asarray(sums_b)
            state["sums_a"] = np.asarray(sums_a)
        else:
            state["f_a"] = self._f_a.copy()
            state["f_b"] = self._f_b.copy()
            state["sums_b"] = self._sums_b.copy()
            state["sums_a"] = self._sums_a.copy()
        return state

    def load_state_dict(self, state):
        """Restore :meth:`state_dict` output in place; returns ``self``."""
        self._next = int(np.asarray(state["num_folded"]))
        if "output_shape" not in state:
            self._f_a = self._f_b = self._sums_b = self._sums_a = None
            self._scalar_lists = None
            self._output_shape = None
            return self
        shape = tuple(
            int(v) for v in np.asarray(state["output_shape"]).ravel()
        )
        self._allocate(shape)
        if self._scalar_lists is not None:
            # Scalar fast path: restore the Python-float lists (exact
            # float64 <-> float round trip).
            self._scalar_lists = (
                np.asarray(state["f_a"], dtype=float).ravel().tolist(),
                np.asarray(state["f_b"], dtype=float).ravel().tolist(),
                np.asarray(state["sums_b"], dtype=float).ravel().tolist(),
                np.asarray(state["sums_a"], dtype=float).ravel().tolist(),
            )
        else:
            self._f_a[:] = np.asarray(state["f_a"], dtype=float)
            self._f_b[:] = np.asarray(state["f_b"], dtype=float)
            self._sums_b[:] = np.asarray(state["sums_b"], dtype=float)
            self._sums_a[:] = np.asarray(state["sums_a"], dtype=float)
        return self

    def _materialize_scalar_lists(self):
        """Convert the fast-path Python-float state to the array form
        ``finalize`` reduces (exact: float <-> float64 round-trips)."""
        f_a, f_b, sums_b, sums_a = self._scalar_lists
        self._f_a = np.asarray(f_a).reshape(-1, 1)
        self._f_b = np.asarray(f_b).reshape(-1, 1)
        self._sums_b = np.asarray(sums_b).reshape(-1, 1)
        self._sums_a = np.asarray(sums_a).reshape(-1, 1)
        self._scalar_lists = None

    def finalize(self, num_evaluations=None):
        """Reduce the folded stream into :class:`JansenEstimates`.

        ``S^c_u  = (V - mean((f_B - f_ABu)^2) / 2) / V``
        ``ST_u   = mean((f_A - f_ABu)^2) / (2 V)``

        per swap subset ``u`` and output component, with ``V`` the
        sample variance of the pooled ``A``/``B`` outputs.  A scalar QoI
        with zero variance raises; for vector QoIs only the
        zero-variance components report ``NaN`` (variance 0) -- all of
        them degenerate raises.  ``num_evaluations`` overrides the
        recorded budget (defaults to the stream length).
        """
        if self._next != self.num_evaluations:
            raise SamplingError(
                f"incomplete Saltelli stream: folded {self._next} of "
                f"{self.num_evaluations} evaluations"
            )
        if self._scalar_lists is not None:
            self._materialize_scalar_lists()
        m = self.num_base_samples
        num_components = self._f_a.shape[1]
        variance = np.empty(num_components)
        for component in range(num_components):
            combined = np.concatenate(
                [self._f_a[:, component], self._f_b[:, component]]
            )
            variance[component] = np.var(combined, ddof=1)
        degenerate = variance <= 0.0
        scalar = self._output_shape == ()
        if degenerate.all():
            if scalar:
                raise SamplingError(
                    "model output has zero variance; Sobol indices are "
                    "undefined"
                )
            raise SamplingError(
                "every output component has zero variance; Sobol indices "
                "are undefined"
            )
        variance = np.where(degenerate, 0.0, variance)
        # Masked denominator: degenerate components are overwritten with
        # NaN below, so no division warning can escape.
        safe = np.where(degenerate, 1.0, variance)
        closed = (safe - 0.5 * (self._sums_b / m)) / safe
        total = (0.5 * (self._sums_a / m)) / safe
        closed[:, degenerate] = np.nan
        total[:, degenerate] = np.nan

        if num_evaluations is None:
            num_evaluations = self.num_evaluations
        num_first = self.dimension if self.include_first_order else 0
        num_pairs = len(self.pairs)
        first_raw = closed[:num_first]

        first_order = None
        if self.include_first_order:
            first = np.clip(first_raw, 0.0, None)
            first_total = total[:num_first]
            clipped = first > first_total
            first = np.where(clipped, first_total, first)
            first_order = SobolIndices(
                self._shaped(first, num_first),
                self._shaped(first_total, num_first),
                self._shaped_variance(variance),
                num_evaluations,
                clipped=self._shaped(clipped, num_first),
            )

        second_order = None
        if num_pairs:
            pair_closed = closed[num_first:num_first + num_pairs]
            pair_total = total[num_first:num_first + num_pairs]
            if self.include_first_order:
                interaction_raw = np.stack([
                    pair_closed[p] - first_raw[i] - first_raw[j]
                    for p, (i, j) in enumerate(self.pairs)
                ])
            else:
                interaction_raw = np.full_like(pair_closed, np.nan)
            pair_clipped = interaction_raw < 0.0
            interaction = np.where(pair_clipped, 0.0, interaction_raw)
            second_order = SecondOrderIndices(
                self.pairs,
                self._shaped(pair_closed, num_pairs),
                self._shaped(interaction, num_pairs),
                self._shaped(pair_total, num_pairs),
                self._shaped_variance(variance),
                num_evaluations,
                clipped=self._shaped(pair_clipped, num_pairs),
            )

        groups = None
        if self.groups:
            start = num_first + num_pairs
            groups = GroupIndices(
                self.groups,
                self._shaped(closed[start:], len(self.groups)),
                self._shaped(total[start:], len(self.groups)),
                self._shaped_variance(variance),
                num_evaluations,
            )
        return JansenEstimates(first_order, second_order, groups)

    def _shaped(self, values, leading):
        if self._output_shape == ():
            return values[:, 0]
        return values.reshape((leading,) + self._output_shape)

    def _shaped_variance(self, variance):
        if self._output_shape == ():
            return variance[0]
        return variance.reshape(self._output_shape)

    def __repr__(self):
        return (
            f"StreamingJansenAccumulator(M={self.num_base_samples}, "
            f"d={self.dimension}, pairs={len(self.pairs)}, "
            f"groups={len(self.groups)}, "
            f"folded={self._next}/{self.num_evaluations})"
        )


def _validated_blocks(f_a, f_b, f_swaps, name):
    f_a = np.asarray(f_a, dtype=float)
    f_b = np.asarray(f_b, dtype=float)
    f_swaps = np.asarray(f_swaps, dtype=float)
    if f_a.shape != f_b.shape:
        raise SamplingError(
            f"f_a shape {f_a.shape} does not match f_b shape {f_b.shape}"
        )
    if f_swaps.ndim != f_a.ndim + 1 or f_swaps.shape[1:] != f_a.shape:
        raise SamplingError(
            f"{name} shape {f_swaps.shape} does not match (n, *{f_a.shape})"
        )
    if f_a.shape[0] < 2:
        raise SamplingError("need at least 2 base samples")
    return f_a, f_b, f_swaps


def _feed_blocks(accumulator, f_a, f_b, *swap_families):
    """Feed in-memory blocks through the canonical streaming order."""
    m = f_a.shape[0]
    accumulator.add(np.arange(m), f_a)
    accumulator.add(np.arange(m, 2 * m), f_b)
    offset = 2 * m
    for family in swap_families:
        for block in family:
            accumulator.add(np.arange(offset, offset + m), block)
            offset += m
    return accumulator


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
    f_a, f_b, f_ab = _validated_blocks(f_a, f_b, f_ab, "f_ab")
    accumulator = StreamingJansenAccumulator(
        f_a.shape[0], f_ab.shape[0]
    )
    _feed_blocks(accumulator, f_a, f_b, f_ab)
    return accumulator.finalize(num_evaluations=num_evaluations).first_order


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
    f_a, f_b, f_ab = _validated_blocks(f_a, f_b, f_ab, "f_ab")
    f_a, f_b, f_ab_pairs = _validated_blocks(
        f_a, f_b, f_ab_pairs, "f_ab_pairs"
    )
    dimension = f_ab.shape[0]
    if pairs is None:
        pairs = all_pairs(dimension)
    pairs = normalize_pairs(pairs, dimension)
    if len(pairs) != f_ab_pairs.shape[0]:
        raise SamplingError(
            f"{f_ab_pairs.shape[0]} pair blocks do not match "
            f"{len(pairs)} pairs"
        )
    accumulator = StreamingJansenAccumulator(
        f_a.shape[0], dimension, pairs=pairs
    )
    _feed_blocks(accumulator, f_a, f_b, f_ab, f_ab_pairs)
    return accumulator.finalize(
        num_evaluations=num_evaluations
    ).second_order


def jansen_group_indices(f_a, f_b, f_ab_groups, groups, dimension=None,
                         num_evaluations=None):
    """Closed/total Sobol indices of factor groups from ``AB_g`` blocks.

    ``f_ab_groups`` is shaped ``(num_groups, M, *out)``; ``groups``
    lists the column subset of each block.  ``dimension`` defaults to
    the highest referenced column + 1.  Zero-variance output components
    report ``NaN``.
    """
    f_a, f_b, f_ab_groups = _validated_blocks(
        f_a, f_b, f_ab_groups, "f_ab_groups"
    )
    groups = list(groups)
    if len(groups) != f_ab_groups.shape[0]:
        raise SamplingError(
            f"{f_ab_groups.shape[0]} group blocks do not match "
            f"{len(groups)} groups"
        )
    if dimension is None:
        dimension = 1 + max(
            (_column_index(column) for group in groups
             for column in group),
            default=0,
        )
    accumulator = StreamingJansenAccumulator(
        f_a.shape[0], dimension, groups=groups, include_first_order=False
    )
    _feed_blocks(accumulator, f_a, f_b, f_ab_groups)
    return accumulator.finalize(num_evaluations=num_evaluations).groups


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


def _replicate_estimates(f_a, f_b, f_ab, f_ab_pairs, pairs, f_ab_groups,
                         groups):
    """One vectorized Jansen evaluation of a stack of resampled designs.

    Every argument carries a leading replicate axis and flattened output
    components: ``f_a``/``f_b`` are ``(R, M, 1, C)`` and each swap
    family is ``(R, M, blocks, C)``.  Same expressions and degeneracy
    contract as :meth:`StreamingJansenAccumulator.finalize`, but with
    vectorized reductions: bootstrap replicates only need per-seed
    determinism, not the streaming bit-for-bit property.  Returns the
    ``(R, blocks, C)`` estimates and ``"kept"``, the replicates with at
    least one non-degenerate output component (the indices of a
    replicate whose every component has zero variance are undefined).
    """
    variance = _pooled_variance(f_a, f_b)
    degenerate = variance <= 0.0
    safe = np.where(degenerate, 1.0, variance)

    def closed_and_total(blocks):
        mean_b = np.mean((f_b - blocks) ** 2, axis=1)
        mean_a = np.mean((f_a - blocks) ** 2, axis=1)
        closed = np.where(degenerate, np.nan, (safe - 0.5 * mean_b) / safe)
        total = np.where(degenerate, np.nan, (0.5 * mean_a) / safe)
        return closed, total

    first_raw, first_total = closed_and_total(f_ab)
    first = np.clip(first_raw, 0.0, None)
    estimates = {
        "kept": ~degenerate.all(axis=(1, 2)),
        "first": np.where(first > first_total, first_total, first),
        "total": first_total,
    }
    if f_ab_pairs is not None:
        pair_closed, _ = closed_and_total(f_ab_pairs)
        left, right = np.asarray(pairs, dtype=np.intp).T
        interaction = (pair_closed - first_raw[:, left]
                       - first_raw[:, right])
        estimates["pair_closed"] = pair_closed
        estimates["interaction"] = np.where(interaction < 0.0, 0.0,
                                            interaction)
    if f_ab_groups is not None:
        estimates["group_closed"], estimates["group_total"] = (
            closed_and_total(f_ab_groups)
        )
    return estimates


def jansen_bootstrap(f_a, f_b, f_ab, num_replicates=100, seed=0,
                     confidence=0.95, f_ab_pairs=None, pairs=None,
                     f_ab_groups=None, groups=None):
    """Bootstrap confidence intervals for the Jansen estimators.

    Resamples the ``M`` base-design rows with replacement (the standard
    Saltelli bootstrap: a row carries its ``A``, ``B`` and every swap
    block evaluation, preserving the pairing), re-estimates the indices
    per replicate and returns percentile bounds.  Deterministic for a
    given ``seed``, so a resumed campaign reports the same intervals as
    an uninterrupted one.  (Replicates reduce vectorized -- the
    streaming bit-for-bit guarantee covers the point estimates, not the
    resampled quantile bounds.)

    Each replicate's rows come from one ``rng.integers`` draw, in
    replicate order.  The replicates are evaluated in slices: one
    gather of the slice's rows into a stacked design and one vectorized
    estimate over the slice.  The slice size follows from a fixed byte
    budget for the gathered designs (``_BOOTSTRAP_SLICE_BYTES``), down
    to one replicate per slice when a single design exceeds it, so
    slicing changes neither the rows nor the peak memory of large
    trace QoIs.  A replicate whose resample has zero variance in every
    component is dropped, and ``num_replicates`` of the result counts
    the replicates kept.

    Pass ``f_ab_pairs``/``pairs`` and/or ``f_ab_groups``/``groups`` (as
    in :func:`jansen_second_order` / :func:`jansen_group_indices`) to
    bootstrap the second-order and group indices in the same replicate
    sweep; zero-variance output components propagate ``NaN`` bounds
    instead of raising or warning.
    """
    f_a, f_b, f_ab = _validated_blocks(f_a, f_b, f_ab, "f_ab")
    num_replicates = int(num_replicates)
    if num_replicates < 1:
        raise SamplingError(
            f"num_replicates must be >= 1, got {num_replicates}"
        )
    if not 0.0 < confidence < 1.0:
        raise SamplingError(
            f"confidence must be in (0, 1), got {confidence!r}"
        )
    if pairs is not None and f_ab_pairs is None:
        raise SamplingError(
            "pairs= needs the matching f_ab_pairs evaluation blocks"
        )
    if groups is not None and f_ab_groups is None:
        raise SamplingError(
            "groups= needs the matching f_ab_groups evaluation blocks"
        )
    dimension = f_ab.shape[0]
    if f_ab_pairs is not None:
        f_a, f_b, f_ab_pairs = _validated_blocks(
            f_a, f_b, f_ab_pairs, "f_ab_pairs"
        )
        if pairs is None:
            pairs = all_pairs(dimension)
        pairs = normalize_pairs(pairs, dimension)
        if len(pairs) != f_ab_pairs.shape[0]:
            raise SamplingError(
                f"{f_ab_pairs.shape[0]} pair blocks do not match "
                f"{len(pairs)} pairs"
            )
    if f_ab_groups is not None:
        if groups is None:
            raise SamplingError(
                "f_ab_groups needs the matching groups= column subsets"
            )
        f_a, f_b, f_ab_groups = _validated_blocks(
            f_a, f_b, f_ab_groups, "f_ab_groups"
        )
        groups = normalize_groups(groups, dimension)
        if len(groups) != f_ab_groups.shape[0]:
            raise SamplingError(
                f"{f_ab_groups.shape[0]} group blocks do not match "
                f"{len(groups)} groups"
            )

    num_base_samples = f_a.shape[0]
    rng = np.random.default_rng(
        np.random.SeedSequence(
            entropy=int(seed), spawn_key=(_BOOTSTRAP_SPAWN_KEY,)
        )
    )
    output_shape = f_a.shape[1:]
    blocks_per_row = 2 + sum(
        blocks.shape[0] for blocks in (f_ab, f_ab_pairs, f_ab_groups)
        if blocks is not None
    )
    slice_size = max(
        1, _BOOTSTRAP_SLICE_BYTES // (f_a.nbytes * blocks_per_row)
    )

    def gather(blocks, rows):
        # (blocks, M, ...) evaluations -> (R, M, blocks, C) resamples.
        if blocks is None:
            return None
        blocks = blocks.reshape(blocks.shape[0], num_base_samples, -1)
        return blocks.swapaxes(0, 1)[rows]

    collected = {}
    for offset in range(0, num_replicates, slice_size):
        # One draw per replicate, in replicate order: the rows do not
        # depend on the slicing.
        rows = np.stack([
            rng.integers(0, num_base_samples, size=num_base_samples)
            for _ in range(min(slice_size, num_replicates - offset))
        ])
        estimates = _replicate_estimates(
            gather(f_a[np.newaxis], rows), gather(f_b[np.newaxis], rows),
            gather(f_ab, rows), gather(f_ab_pairs, rows), pairs,
            gather(f_ab_groups, rows), groups,
        )
        # A degenerate resample (zero variance) is skipped; the
        # replicate count below reflects it.
        kept = estimates.pop("kept")
        if not kept.all():
            estimates = {key: values[kept] for key, values in estimates.items()}
        for key, values in estimates.items():
            collected.setdefault(key, []).append(values)

    def stacked(key):
        # One estimate family at a time, releasing its slices.
        return np.concatenate(collected.pop(key)) if key in collected else None

    firsts = stacked("first")
    if not len(firsts):
        raise SamplingError(
            "every bootstrap replicate had zero output variance"
        )
    alpha = 0.5 * (1.0 - confidence)

    def bounds(values):
        if values is None:
            return None, None
        shape = values.shape[1:2] + output_shape
        return (np.quantile(values, alpha, axis=0).reshape(shape),
                np.quantile(values, 1.0 - alpha, axis=0).reshape(shape))

    first_lower, first_upper = bounds(firsts)
    total_lower, total_upper = bounds(stacked("total"))
    closed_lower, closed_upper = bounds(stacked("pair_closed"))
    interaction_lower, interaction_upper = bounds(stacked("interaction"))
    group_closed_lower, group_closed_upper = bounds(stacked("group_closed"))
    group_total_lower, group_total_upper = bounds(stacked("group_total"))
    return BootstrapInterval(
        first_lower, first_upper, total_lower, total_upper,
        len(firsts), confidence,
        closed_second_order_lower=closed_lower,
        closed_second_order_upper=closed_upper,
        second_order_lower=interaction_lower,
        second_order_upper=interaction_upper,
        group_closed_lower=group_closed_lower,
        group_closed_upper=group_closed_upper,
        group_total_lower=group_total_lower,
        group_total_upper=group_total_upper,
    )


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
    accumulator = StreamingJansenAccumulator(
        num_base_samples, dimension, pairs=pairs
    )
    _feed_blocks(accumulator, f_a, f_b, f_ab, f_ab_pairs)
    estimates = accumulator.finalize()
    indices = estimates.first_order
    indices.second_order = estimates.second_order
    return indices
