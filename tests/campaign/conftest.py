"""Shared campaign test fixtures."""

import os

import pytest

from repro.campaign import CampaignSpec, ScenarioSpec, SensitivitySpec

from .toy_problem import MODULE, PROBLEM_NAME


def make_toy_spec(num_samples=24, chunk_size=5, seed=7, sampler="counter",
                  qoi="identity", options=None):
    """A cheap fully-specified campaign over the registered toy problem."""
    return CampaignSpec(
        name=f"toy-{num_samples}",
        scenario=ScenarioSpec(
            problem=PROBLEM_NAME,
            qoi=qoi,
            options=options or {},
            module=MODULE,
        ),
        distribution={"kind": "normal", "mu": 0.0, "sigma": 1.0},
        dimension=4,
        num_samples=num_samples,
        seed=seed,
        chunk_size=chunk_size,
        sampler=sampler,
    )


def make_toy_sensitivity_spec(num_base_samples=16, chunk_size=7, seed=3,
                              sampler="random", qoi="test-scalar-sum",
                              options=None, second_order=False,
                              groups=None):
    """A cheap Sobol sensitivity campaign over the registered toy problem."""
    return SensitivitySpec(
        name=f"toy-sobol-{num_base_samples}",
        scenario=ScenarioSpec(
            problem=PROBLEM_NAME,
            qoi=qoi,
            options=options or {},
            module=MODULE,
        ),
        distribution={"kind": "normal", "mu": 0.0, "sigma": 1.0},
        dimension=4,
        num_base_samples=num_base_samples,
        seed=seed,
        chunk_size=chunk_size,
        sampler=sampler,
        second_order=second_order,
        groups=groups,
    )


@pytest.fixture
def toy_spec():
    return make_toy_spec()


@pytest.fixture
def toy_sensitivity_spec():
    return make_toy_sensitivity_spec()


def drop_chunk_record(store, chunk_index):
    """Remove ``chunk_index``'s record from the store's chunk log: what
    a kill before that chunk's append leaves behind, when the chunks
    recorded after it completed first."""
    offset, length = store.chunk_log.extent(chunk_index)
    with open(store.chunk_log.path, "rb") as handle:
        log = handle.read()
    with open(store.chunk_log.path, "wb") as handle:
        handle.write(log[:offset] + log[offset + length:])


def flip_chunk_log_byte(store, chunk_index, position=-1, mask=0xFF):
    """XOR one byte of ``chunk_index``'s log record with ``mask``
    (default: its last byte, inside the array payload)."""
    offset, length = store.chunk_log.extent(chunk_index)
    target = offset + position % length
    with open(store.chunk_log.path, "r+b") as handle:
        handle.seek(target)
        value = handle.read(1)[0]
        handle.seek(target)
        handle.write(bytes([value ^ mask]))
