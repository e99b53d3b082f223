"""Tests for the units helpers and physical constants."""

import pytest

from repro import constants, units
from repro.errors import ReproError


class TestConstants:
    def test_stefan_boltzmann(self):
        assert constants.STEFAN_BOLTZMANN == pytest.approx(5.6704e-8, rel=1e-3)

    def test_paper_values(self):
        assert constants.T_CRITICAL_DEFAULT == 523.0
        assert constants.T_AMBIENT_DEFAULT == 300.0
        assert constants.HEAT_TRANSFER_COEFFICIENT_DEFAULT == 25.0
        assert constants.EMISSIVITY_DEFAULT == 0.2475
        assert constants.SIGMA_COPPER_300K == 5.80e7
        assert constants.LAMBDA_COPPER_300K == 398.0
        assert constants.LAMBDA_EPOXY == 0.87
        assert constants.SIGMA_EPOXY == 1.0e-6


class TestUnitConversions:
    def test_lengths(self):
        assert units.mm(1.55) == pytest.approx(1.55e-3)
        assert units.um(25.4) == pytest.approx(25.4e-6)

    def test_temperatures(self):
        assert units.celsius_to_kelvin(250.0) == pytest.approx(523.15)
        assert units.kelvin_to_celsius(523.15) == pytest.approx(250.0)
        # The paper's rounding: 523 K ~ 250 C.
        assert units.celsius_to_kelvin(250.0) == pytest.approx(523.0, abs=0.2)


class TestGuards:
    def test_require_positive(self):
        assert units.require_positive("x", 2) == 2.0
        with pytest.raises(ReproError):
            units.require_positive("x", 0.0)
        with pytest.raises(ReproError):
            units.require_positive("x", -1.0)

    def test_require_non_negative(self):
        assert units.require_non_negative("x", 0.0) == 0.0
        with pytest.raises(ReproError):
            units.require_non_negative("x", -1e-9)

    def test_require_temperature(self):
        assert units.require_temperature("T", 300.0) == 300.0
        with pytest.raises(ReproError):
            units.require_temperature("T", 0.0)
        with pytest.raises(ReproError):
            units.require_temperature("T", -10.0)
