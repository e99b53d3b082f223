"""The sliced Jansen bootstrap against a one-replicate-at-a-time oracle.

:func:`jansen_bootstrap` gathers the resampled designs of several
replicates at once and estimates them in one vectorized call.  The
oracle below is the straightforward form: one ``rng.integers`` draw per
replicate, one gather, one estimate, a degenerate resample skipped.
Both must agree on the replicate count and on every bound, for scalar
and vector QoIs, pairs and groups, zero-weight components (NaN bounds)
and resamples that happen to be degenerate -- and slicing must not
raise the peak memory above the oracle's for a large trace-like QoI.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SamplingError
from repro.uq.sensitivity import (
    _BOOTSTRAP_SPAWN_KEY,
    all_pairs,
    jansen_bootstrap,
    normalize_groups,
)

_FIELDS = (
    "first_order_lower", "first_order_upper", "total_lower", "total_upper",
    "closed_second_order_lower", "closed_second_order_upper",
    "second_order_lower", "second_order_upper",
    "group_closed_lower", "group_closed_upper",
    "group_total_lower", "group_total_upper",
)


def _oracle_estimates(f_a, f_b, f_ab, f_ab_pairs, pairs, f_ab_groups,
                      groups):
    """Jansen estimates of one resampled design (raises when every
    output component has zero variance)."""
    num_base_samples = f_a.shape[0]
    output_shape = f_a.shape[1:]
    flat_a = f_a.reshape(num_base_samples, -1)
    flat_b = f_b.reshape(num_base_samples, -1)
    num_components = flat_a.shape[1]
    variance = np.var(np.concatenate([flat_a, flat_b]), axis=0, ddof=1)
    degenerate = variance <= 0.0
    if degenerate.all():
        raise SamplingError("every output component has zero variance")
    safe = np.where(degenerate, 1.0, variance)

    def closed_and_total(blocks):
        flat = blocks.reshape(
            blocks.shape[0], num_base_samples, num_components
        )
        mean_b = np.mean((flat_b[np.newaxis] - flat) ** 2, axis=1)
        mean_a = np.mean((flat_a[np.newaxis] - flat) ** 2, axis=1)
        closed = (safe - 0.5 * mean_b) / safe
        total = (0.5 * mean_a) / safe
        closed[:, degenerate] = np.nan
        total[:, degenerate] = np.nan
        return closed, total

    def shaped(values):
        if output_shape == ():
            return values[:, 0]
        return values.reshape((values.shape[0],) + output_shape)

    first_raw, first_total = closed_and_total(f_ab)
    first = np.clip(first_raw, 0.0, None)
    first = np.where(first > first_total, first_total, first)
    estimates = {"first": shaped(first), "total": shaped(first_total)}
    if f_ab_pairs is not None:
        pair_closed, _ = closed_and_total(f_ab_pairs)
        interaction = np.stack([
            pair_closed[position] - first_raw[i] - first_raw[j]
            for position, (i, j) in enumerate(pairs)
        ])
        interaction = np.where(interaction < 0.0, 0.0, interaction)
        estimates["pair_closed"] = shaped(pair_closed)
        estimates["interaction"] = shaped(interaction)
    if f_ab_groups is not None:
        group_closed, group_total = closed_and_total(f_ab_groups)
        estimates["group_closed"] = shaped(group_closed)
        estimates["group_total"] = shaped(group_total)
    return estimates


def oracle_bootstrap(f_a, f_b, f_ab, num_replicates, seed, confidence=0.95,
                     f_ab_pairs=None, pairs=None, f_ab_groups=None,
                     groups=None):
    """Percentile bootstrap, one replicate at a time."""
    num_base_samples = f_a.shape[0]
    rng = np.random.default_rng(
        np.random.SeedSequence(
            entropy=int(seed), spawn_key=(_BOOTSTRAP_SPAWN_KEY,)
        )
    )
    collected = {}
    for _ in range(num_replicates):
        rows = rng.integers(0, num_base_samples, size=num_base_samples)
        try:
            estimates = _oracle_estimates(
                f_a[rows], f_b[rows], f_ab[:, rows],
                f_ab_pairs[:, rows] if f_ab_pairs is not None else None,
                pairs,
                f_ab_groups[:, rows] if f_ab_groups is not None else None,
                groups,
            )
        except SamplingError:
            continue
        for key, values in estimates.items():
            collected.setdefault(key, []).append(values)
    if not collected:
        raise SamplingError(
            "every bootstrap replicate had zero output variance"
        )
    alpha = 0.5 * (1.0 - confidence)

    def bounds(key):
        if key not in collected:
            return None, None
        stacked = np.stack(collected[key])
        return (np.quantile(stacked, alpha, axis=0),
                np.quantile(stacked, 1.0 - alpha, axis=0))

    result = {"num_replicates": len(collected["first"])}
    for key, (lower, upper) in (
        ("first_order", bounds("first")),
        ("total", bounds("total")),
        ("closed_second_order", bounds("pair_closed")),
        ("second_order", bounds("interaction")),
        ("group_closed", bounds("group_closed")),
        ("group_total", bounds("group_total")),
    ):
        result[f"{key}_lower"] = lower
        result[f"{key}_upper"] = upper
    return result


def assert_matches_oracle(interval, oracle):
    assert interval.num_replicates == oracle["num_replicates"]
    for field in _FIELDS:
        expected = oracle[field]
        actual = getattr(interval, field)
        if expected is None:
            assert actual is None, field
            continue
        assert actual.shape == expected.shape, field
        # The two paths sum in different orders, so bounds agree to a few
        # ulp of their magnitude (relative); atol is the floor near zero.
        np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12,
                                   equal_nan=True, err_msg=field)


def _design(seed, num_base_samples, dimension, output_shape,
            with_pairs=False, with_groups=False, zero_component=False,
            degenerate=False):
    """Saltelli-shaped blocks.  ``zero_component`` zeroes the first
    output component; ``degenerate`` makes every output the constant 3
    except row 0, so every resample that misses row 0 has zero variance
    in every component."""
    rng = np.random.default_rng(seed)
    pairs = all_pairs(dimension) if with_pairs else None
    groups = None
    if with_groups:
        groups = normalize_groups(
            [[0]] + ([list(range(1, dimension))] if dimension > 1 else []),
            dimension,
        )
    counts = {
        "f_a": None, "f_b": None, "f_ab": dimension,
        "f_ab_pairs": len(pairs) if with_pairs else 0,
        "f_ab_groups": len(groups) if with_groups else 0,
    }
    blocks = {}
    for name, count in counts.items():
        if count == 0:
            blocks[name] = None
            continue
        leading = () if count is None else (count,)
        shape = leading + (num_base_samples,) + output_shape
        if degenerate:
            values = np.full(shape, 3.0)
            row = (slice(None),) * len(leading) + (0,)
            values[row] = rng.integers(-2, 3, size=values[row].shape)
        else:
            values = rng.normal(size=shape)
        if zero_component and output_shape:
            values[..., 0] = 0.0
        blocks[name] = values
    return blocks, pairs, groups


class TestAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        num_base_samples=st.integers(2, 12),
        dimension=st.integers(1, 4),
        output_shape=st.sampled_from([(), (1,), (3,), (2, 2)]),
        with_pairs=st.booleans(),
        with_groups=st.booleans(),
        zero_component=st.booleans(),
        num_replicates=st.integers(1, 60),
    )
    # A closed group index near 7212 whose two paths differ by 2 ulp.
    @example(seed=0, num_base_samples=3, dimension=1, output_shape=(),
             with_pairs=False, with_groups=True, zero_component=False,
             num_replicates=25)
    def test_random_designs(self, seed, num_base_samples, dimension,
                            output_shape, with_pairs, with_groups,
                            zero_component, num_replicates):
        with_pairs = with_pairs and dimension >= 2
        blocks, pairs, groups = _design(
            seed, num_base_samples, dimension, output_shape, with_pairs,
            with_groups, zero_component,
        )
        arguments = dict(
            f_ab_pairs=blocks["f_ab_pairs"], pairs=pairs,
            f_ab_groups=blocks["f_ab_groups"], groups=groups,
        )
        if zero_component and output_shape and np.prod(output_shape) == 1:
            # Every component is zero-weight: nothing to estimate.
            with pytest.raises(SamplingError):
                oracle_bootstrap(blocks["f_a"], blocks["f_b"],
                                 blocks["f_ab"], num_replicates, seed,
                                 **arguments)
            with pytest.raises(SamplingError):
                jansen_bootstrap(blocks["f_a"], blocks["f_b"],
                                 blocks["f_ab"], num_replicates, seed,
                                 **arguments)
            return
        oracle = oracle_bootstrap(blocks["f_a"], blocks["f_b"],
                                  blocks["f_ab"], num_replicates, seed,
                                  **arguments)
        interval = jansen_bootstrap(blocks["f_a"], blocks["f_b"],
                                    blocks["f_ab"], num_replicates, seed,
                                    **arguments)
        assert_matches_oracle(interval, oracle)
        if zero_component and output_shape:
            assert np.isnan(interval.first_order_lower[..., 0]).all()
            assert np.isnan(interval.total_upper[..., 0]).all()

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        num_base_samples=st.integers(2, 6),
        output_shape=st.sampled_from([(), (2,)]),
        with_pairs=st.booleans(),
        num_replicates=st.integers(1, 80),
    )
    def test_degenerate_resamples_are_dropped(self, seed, num_base_samples,
                                              output_shape, with_pairs,
                                              num_replicates):
        """Outputs constant except on one row: every resample that misses
        that row has zero variance everywhere and is dropped by both."""
        blocks, pairs, _ = _design(seed, num_base_samples, 3, output_shape,
                                   with_pairs, degenerate=True)
        arguments = dict(f_ab_pairs=blocks["f_ab_pairs"], pairs=pairs)
        try:
            oracle = oracle_bootstrap(blocks["f_a"], blocks["f_b"],
                                      blocks["f_ab"], num_replicates, seed,
                                      **arguments)
        except SamplingError:
            with pytest.raises(SamplingError, match="every bootstrap"):
                jansen_bootstrap(blocks["f_a"], blocks["f_b"],
                                 blocks["f_ab"], num_replicates, seed,
                                 **arguments)
            return
        interval = jansen_bootstrap(blocks["f_a"], blocks["f_b"],
                                    blocks["f_ab"], num_replicates, seed,
                                    **arguments)
        assert_matches_oracle(interval, oracle)

    def test_some_resamples_are_degenerate(self):
        """The degenerate fixture really drops replicates (so the test
        above exercises the skip, not only the all-kept path)."""
        blocks, _, _ = _design(5, 4, 3, (), degenerate=True)
        interval = jansen_bootstrap(blocks["f_a"], blocks["f_b"],
                                    blocks["f_ab"], num_replicates=200,
                                    seed=5)
        oracle = oracle_bootstrap(blocks["f_a"], blocks["f_b"],
                                  blocks["f_ab"], 200, 5)
        assert 0 < interval.num_replicates < 200
        assert_matches_oracle(interval, oracle)


def _traced_peak(function, *args, **kwargs):
    tracemalloc.start()
    try:
        function(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trace_qoi_peak_memory_not_above_oracle():
    """A 612-component trace QoI at M = 256: one design exceeds the
    slice budget, so the sliced bootstrap resamples one replicate at a
    time and must not peak above the one-at-a-time oracle."""
    rng = np.random.default_rng(0)
    num_base_samples, dimension, components = 256, 3, 612
    f_a = rng.normal(size=(num_base_samples, components))
    f_b = rng.normal(size=(num_base_samples, components))
    f_ab = rng.normal(size=(dimension, num_base_samples, components))
    oracle_peak = _traced_peak(oracle_bootstrap, f_a, f_b, f_ab, 8, 1)
    sliced_peak = _traced_peak(jansen_bootstrap, f_a, f_b, f_ab,
                               num_replicates=8, seed=1)
    assert sliced_peak <= oracle_peak
