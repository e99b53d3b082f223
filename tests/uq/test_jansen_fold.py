"""The Jansen fold: chunk-partition invariance and pinned estimates.

:meth:`StreamingJansenAccumulator.add` folds each block segment of a
chunk with one ``np.cumsum``.  The property test draws random Saltelli
streams (scalar and vector outputs, the vector ones with a
zero-variance component, with and without pair and group blocks),
folds them in random chunk partitions with a ``state_dict`` ->
``load_state_dict`` round trip at a random cut, and requires every
point estimate to equal one whole-stream fold bit for bit -- and the
running sums to equal a plain row-by-row Python loop.

The pinned values are the estimates of two fixed designs (Ishigami and
a 3-component Sobol g-function with a zero-weight component), recorded
from the reduction before the fold was vectorized: point estimates must
stay bit-identical, bootstrap bounds within 1e-12 relative.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.uq.analytic import ishigami, sobol_g
from repro.uq.sampling import random_sampler
from repro.uq.sensitivity import (
    StreamingJansenAccumulator,
    all_pairs,
    jansen_bootstrap,
)

# A masked NaN must never surface as a division warning.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

NAN = float("nan")


def _point_estimates(estimates):
    """Every point-estimate array of a :class:`JansenEstimates`."""
    arrays = {}
    for family in ("first_order", "second_order", "groups"):
        result = getattr(estimates, family)
        if result is None:
            continue
        for name in ("first_order", "total", "closed", "interaction",
                     "clipped", "variance"):
            if hasattr(result, name):
                arrays[f"{family}.{name}"] = np.asarray(
                    getattr(result, name)
                )
    return arrays


@st.composite
def designs(draw):
    num_base_samples = draw(st.integers(2, 9))
    dimension = draw(st.integers(1, 4))
    pairs = []
    if dimension >= 2 and draw(st.booleans()):
        pairs = draw(st.lists(st.sampled_from(all_pairs(dimension)),
                              min_size=1, unique=True))
    groups = []
    if draw(st.booleans()):
        groups = draw(st.lists(
            st.sets(st.integers(0, dimension - 1), min_size=1).map(
                lambda columns: tuple(sorted(columns))),
            min_size=1, max_size=3, unique=True))
    vector = draw(st.booleans())
    num_evaluations = num_base_samples * (2 + dimension + len(pairs)
                                          + len(groups))
    cuts = draw(st.lists(st.integers(1, num_evaluations - 1),
                         unique=True, max_size=8))
    resume_at = draw(st.sampled_from([0, *cuts]))
    seed = draw(st.integers(0, 2**32 - 1))
    return (num_base_samples, dimension, pairs, groups, vector,
            sorted(cuts), resume_at, seed)


@settings(max_examples=150, deadline=None)
@given(design=designs())
def test_any_chunk_partition_and_resume_matches_one_fold(design):
    (num_base_samples, dimension, pairs, groups, vector, cuts, resume_at,
     seed) = design

    def accumulator():
        return StreamingJansenAccumulator(
            num_base_samples, dimension, pairs=pairs, groups=groups
        )

    reference = accumulator()
    rng = np.random.default_rng(seed)
    num_evaluations = reference.num_evaluations
    if vector:
        outputs = rng.normal(size=(num_evaluations, 3))
        outputs[:, 2] = 1.5  # a zero-variance component: NaN indices
        outputs[:, 1] *= 1e3
    else:
        outputs = rng.normal(size=num_evaluations) ** 3
    reference.add(np.arange(num_evaluations), outputs)

    folded = accumulator()
    bounds = [0, *cuts, num_evaluations]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        if start == resume_at:
            state = {key: np.array(value)
                     for key, value in folded.state_dict().items()}
            folded = accumulator().load_state_dict(state)
        folded.add(np.arange(start, stop), outputs[start:stop])

    expected = _point_estimates(reference.finalize())
    actual = _point_estimates(folded.finalize())
    assert expected.keys() == actual.keys()
    for name, values in expected.items():
        assert np.array_equal(actual[name], values, equal_nan=True), name

    # The running sums are those of a plain row loop, bit for bit.
    flat = outputs.reshape(num_evaluations, -1)
    m = num_base_samples
    sums_b = np.zeros((reference.num_blocks - 2, flat.shape[1]))
    sums_a = np.zeros_like(sums_b)
    for index in range(2 * m, num_evaluations):
        block, row = divmod(index, m)
        for component in range(flat.shape[1]):
            value = float(flat[index, component])
            diff = float(flat[m + row, component]) - value
            sums_b[block - 2, component] += diff * diff
            diff = float(flat[row, component]) - value
            sums_a[block - 2, component] += diff * diff
    state = folded.state_dict()
    assert np.array_equal(state["sums_b"], sums_b)
    assert np.array_equal(state["sums_a"], sums_a)


# ----------------------------------------------------------------------
# Pinned estimates of two fixed designs
# ----------------------------------------------------------------------
M = 64
DIMENSION = 3
PAIRS = all_pairs(DIMENSION)
GROUPS = [(0, 2)]


def _blocks(kind):
    if kind == "ishigami":
        stream = random_sampler(2 * M, DIMENSION, 11)

        def model(unit):
            return ishigami(-np.pi + 2.0 * np.pi * unit)
    else:
        stream = random_sampler(2 * M, DIMENSION, 5)

        def model(unit):
            values = sobol_g(unit, np.array([0.0, 1.0, 4.5]))
            return values[:, np.newaxis] * np.array([1.0, 3.0, 0.0])
    a_unit, b_unit = stream[:M], stream[M:]

    def hybrid(columns):
        block = a_unit.copy()
        block[:, list(columns)] = b_unit[:, list(columns)]
        return model(block)

    blocks = [model(a_unit), model(b_unit)]
    blocks += [hybrid((i,)) for i in range(DIMENSION)]
    blocks += [hybrid(pair) for pair in PAIRS]
    blocks += [hybrid(group) for group in GROUPS]
    return blocks


#: Point estimates, flattened (pair/group axis first).
PINNED_POINTS = {
    "ishigami": {
        "first_order": [0.3393564842437172, 0.41506378368445146, 0.0],
        "total": [0.5225218795342701, 0.43408895517134305,
                  0.21133353525551388],
        "closed": [0.8268955421747697, 0.565911044828657,
                   0.28261526584562097],
        "interaction": [0.072475274246601, 0.7042095647569524,
                        0.3452064863331822],
        "group_closed": [0.565911044828657],
        "group_total": [0.5849362163155485],
    },
    "sobol_g": {
        "first_order": [0.5666964063831814, 0.5666964063831816, NAN,
                        0.18225466923719122, 0.1822546692371913, NAN,
                        0.024579228333287437, 0.02457922833328744, NAN],
        "total": [0.5666964063831814, 0.5666964063831816, NAN,
                  0.18225466923719122, 0.1822546692371913, NAN,
                  0.024579228333287437, 0.02457922833328744, NAN],
        "closed": [0.9642326061844796, 0.9642326061844796, NAN,
                   0.7341717300490599, 0.7341717300490599, NAN,
                   0.31128481982821105, 0.3112848198282113, NAN],
        "interaction": [0.0, 0.0, NAN, 0.0, 0.0, NAN, 0.0, 0.0, NAN],
        "group_closed": [0.7341717300490599, 0.7341717300490599, NAN],
        "group_total": [0.5612128220120097, 0.5612128220120101, NAN],
    },
}

#: Bootstrap bounds (50 replicates, seed 3), flattened.
PINNED_BOUNDS = {
    "ishigami": {
        "first_order_lower": [0.08714863004353773, 0.2485121983388222,
                              0.0],
        "total_upper": [0.7591258593367065, 0.5893363340669283,
                        0.33748029552485526],
        "second_order_lower": [0.0, 0.05391155793117345,
                               0.03450928038901681],
        "closed_second_order_upper": [0.8937478786655599,
                                      0.6768111888145085,
                                      0.5834171406743568],
        "group_total_lower": [0.42952961741721934],
        "group_closed_upper": [0.6768111888145085],
    },
    "sobol_g": {
        "first_order_lower": [0.3694889668526311, 0.36948896685263116, NAN,
                              0.07771372763214206, 0.07771372763214206,
                              NAN, 0.0, 0.0, NAN],
        "total_upper": [0.7425953259173919, 0.7425953259173921, NAN,
                        0.28240809010050527, 0.2824080901005054, NAN,
                        0.035037581506280766, 0.035037581506280786, NAN],
        "second_order_lower": [0.0, 0.0, NAN, 0.0, 0.0, NAN, 0.0, 0.0,
                               NAN],
        "closed_second_order_upper": [0.9762063534443136,
                                      0.9762063534443135, NAN,
                                      0.8102312094959191,
                                      0.8102312094959191, NAN,
                                      0.5476722035552882,
                                      0.5476722035552882, NAN],
        "group_total_lower": [0.4074917792159997, 0.4074917792159997, NAN],
        "group_closed_upper": [0.8102312094959191, 0.8102312094959191,
                               NAN],
    },
}


@pytest.mark.parametrize("kind", sorted(PINNED_POINTS))
@pytest.mark.parametrize("chunk_size", (1, 7, 64, None))
def test_point_estimates_are_pinned_bitwise(kind, chunk_size):
    outputs = np.concatenate(_blocks(kind))
    chunk_size = chunk_size or len(outputs)
    accumulator = StreamingJansenAccumulator(M, DIMENSION, pairs=PAIRS,
                                             groups=GROUPS)
    for start in range(0, len(outputs), chunk_size):
        stop = min(start + chunk_size, len(outputs))
        accumulator.add(np.arange(start, stop), outputs[start:stop])
    estimates = accumulator.finalize()
    actual = {
        "first_order": estimates.first_order.first_order,
        "total": estimates.first_order.total,
        "closed": estimates.second_order.closed,
        "interaction": estimates.second_order.interaction,
        "group_closed": estimates.groups.closed,
        "group_total": estimates.groups.total,
    }
    for name, expected in PINNED_POINTS[kind].items():
        assert np.array_equal(np.ravel(actual[name]), expected,
                              equal_nan=True), name


@pytest.mark.parametrize("kind", sorted(PINNED_BOUNDS))
def test_bootstrap_bounds_are_pinned(kind):
    blocks = _blocks(kind)
    interval = jansen_bootstrap(
        blocks[0], blocks[1], np.stack(blocks[2:5]), num_replicates=50,
        seed=3, f_ab_pairs=np.stack(blocks[5:8]), pairs=PAIRS,
        f_ab_groups=np.stack(blocks[8:]), groups=GROUPS,
    )
    for name, expected in PINNED_BOUNDS[kind].items():
        np.testing.assert_allclose(np.ravel(getattr(interval, name)),
                                   expected, rtol=1e-12, atol=0.0,
                                   err_msg=name)
