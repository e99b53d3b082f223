"""Chunk-partition and merge invariance of the moments and PCE reducers.

The Jansen fold's invariance is property-tested next door
(``test_jansen_fold.py``); these are the same properties for the other
two campaign reducers:

* :class:`MomentsReducer` combines per-chunk Welford accumulators
  (Chan et al.), which is exact in count, minimum and maximum but not
  associative in floating point: for any chunk partition, and for any
  merge of partial reducers, the mean and variance must agree with a
  one-pass reference to round-off, and a ``state_dict`` round trip at
  any cut must continue bit for bit.
* :class:`PCEReducer` assembles the output matrix, so its state -- and
  the surrogate fitted from it -- must be bitwise identical for every
  partition, fold order and disjoint merge.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.reducer import MomentsReducer, PCEReducer
from repro.errors import CampaignError

from tests.campaign.conftest import make_toy_spec


@st.composite
def streams(draw, min_rows=2):
    """Outputs ``(rows, K)`` and a chunk partition of their rows."""
    rows = draw(st.integers(min_rows, 40))
    components = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    offset = draw(st.sampled_from([0.0, 1.0, -300.0, 1e4]))
    scale = draw(st.sampled_from([1e-3, 1.0, 50.0]))
    outputs = offset + scale * np.random.default_rng(seed).normal(
        size=(rows, components))
    cuts = sorted(draw(st.lists(st.integers(1, rows - 1), unique=True,
                                max_size=8)))
    bounds = [0, *cuts, rows]
    chunks = [np.arange(start, stop)
              for start, stop in zip(bounds[:-1], bounds[1:])]
    return outputs, chunks, abs(offset) + scale


def _fold(reducer, outputs, chunks):
    for indices in chunks:
        reducer.fold(indices, outputs[indices])
    return reducer


def _bits(state):
    return {key: (np.asarray(value).dtype.str, np.asarray(value).shape,
                  np.asarray(value).tobytes())
            for key, value in state.items()}


def _assert_moments_match(statistics, outputs, magnitude):
    assert statistics.count == outputs.shape[0]
    assert np.array_equal(statistics.minimum, outputs.min(axis=0))
    assert np.array_equal(statistics.maximum, outputs.max(axis=0))
    np.testing.assert_allclose(statistics.mean, outputs.mean(axis=0),
                               rtol=1e-12, atol=1e-12 * magnitude)
    np.testing.assert_allclose(statistics.variance(),
                               outputs.var(axis=0, ddof=1), rtol=1e-9,
                               atol=1e-12 * magnitude ** 2)


@settings(max_examples=100, deadline=None)
@given(stream=streams(), data=st.data())
def test_moments_any_partition_and_resume(stream, data):
    outputs, chunks, magnitude = stream
    folded = _fold(MomentsReducer(), outputs, chunks)
    _assert_moments_match(folded.statistics, outputs, magnitude)

    # A resume at any chunk boundary continues bit for bit.
    cut = data.draw(st.integers(0, len(chunks)), label="resume_at")
    first = _fold(MomentsReducer(), outputs, chunks[:cut])
    state = {key: np.array(value)
             for key, value in first.state_dict().items()}
    resumed = _fold(MomentsReducer().load_state_dict(state), outputs,
                    chunks[cut:])
    assert _bits(resumed.state_dict()) == _bits(folded.state_dict())


@settings(max_examples=100, deadline=None)
@given(stream=streams(), data=st.data())
def test_moments_merge_of_partial_reducers(stream, data):
    outputs, chunks, magnitude = stream
    # Any assignment of the chunks to two workers, merged either way.
    owners = data.draw(st.lists(st.booleans(), min_size=len(chunks),
                                max_size=len(chunks)), label="owners")
    left = _fold(MomentsReducer(), outputs,
                 [indices for indices, mine in zip(chunks, owners) if mine])
    right = _fold(MomentsReducer(), outputs,
                  [indices for indices, mine in zip(chunks, owners)
                   if not mine])
    merged = MomentsReducer().merge(left).merge(right)
    _assert_moments_match(merged.statistics, outputs, magnitude)
    swapped = MomentsReducer().merge(right).merge(left)
    _assert_moments_match(swapped.statistics, outputs, magnitude)

    # Merging an empty reducer changes nothing, in either direction.
    whole = _fold(MomentsReducer(), outputs, chunks)
    expected = _bits(whole.state_dict())
    assert _bits(whole.merge(MomentsReducer()).state_dict()) == expected
    assert _bits(MomentsReducer().merge(whole).state_dict()) == expected


def _pce(rows):
    return PCEReducer(make_toy_spec(num_samples=rows, chunk_size=rows),
                      degree=1)


@settings(max_examples=60, deadline=None)
@given(stream=streams(min_rows=5), data=st.data())
def test_pce_any_partition_order_and_merge_is_bitwise(stream, data):
    outputs, chunks, _ = stream
    rows = outputs.shape[0]
    reference = _fold(_pce(rows), outputs, [np.arange(rows)])
    expected = _bits(reference.state_dict())

    order = data.draw(st.permutations(range(len(chunks))), label="order")
    permuted = _fold(_pce(rows), outputs, [chunks[i] for i in order])
    assert _bits(permuted.state_dict()) == expected

    owners = data.draw(st.lists(st.booleans(), min_size=len(chunks),
                                max_size=len(chunks)), label="owners")
    left = _fold(_pce(rows), outputs,
                 [indices for indices, mine in zip(chunks, owners) if mine])
    right = _fold(_pce(rows), outputs,
                  [indices for indices, mine in zip(chunks, owners)
                   if not mine])
    merged = left.merge(right)
    assert _bits(merged.state_dict()) == expected

    spec = make_toy_spec(num_samples=rows, chunk_size=rows)
    parameters = np.zeros((rows, spec.dimension))
    fitted = reference.finalize(spec, parameters, rows)
    remerged = merged.finalize(spec, parameters, rows)
    assert np.array_equal(remerged.mean, fitted.mean)
    assert np.array_equal(remerged.variance, fitted.variance)


def test_pce_merge_refuses_overlapping_rows():
    outputs = np.arange(12.0).reshape(6, 2)
    left = _fold(_pce(6), outputs, [np.arange(0, 4)])
    right = _fold(_pce(6), outputs, [np.arange(3, 6)])
    with pytest.raises(CampaignError, match="overlapping"):
        left.merge(right)
