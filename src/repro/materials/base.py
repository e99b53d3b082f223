"""The :class:`Material` aggregate.

A material bundles the three properties the electrothermal problem needs:

* electrical conductivity ``sigma(T)`` [S/m],
* thermal conductivity ``lambda(T)`` [W/K/m],
* volumetric heat capacity ``rho*c`` [J/K/m^3] (temperature independent, as
  assumed in Section II of the paper).
"""

import numpy as np

from ..constants import T_REFERENCE
from ..errors import MaterialError
from .temperature_models import ConstantModel, PropertyModel


def _as_model(value, name):
    """Coerce ``value`` into a :class:`PropertyModel`."""
    if isinstance(value, PropertyModel):
        return value
    try:
        return ConstantModel(float(value))
    except (TypeError, ValueError) as exc:
        raise MaterialError(
            f"{name} must be a number or a PropertyModel, got {value!r}"
        ) from exc


class Material:
    """An isotropic material with temperature-dependent conductivities.

    Parameters
    ----------
    name:
        Human readable identifier, e.g. ``"copper"``.
    electrical_conductivity:
        ``sigma(T)`` in S/m; a number (constant) or a
        :class:`~repro.materials.temperature_models.PropertyModel`.
    thermal_conductivity:
        ``lambda(T)`` in W/K/m; a number or a model.
    volumetric_heat_capacity:
        ``rho*c`` in J/K/m^3; a number or a model.  The paper neglects its
        temperature dependence, but a model is accepted for generality.
    """

    def __init__(
        self,
        name,
        electrical_conductivity,
        thermal_conductivity,
        volumetric_heat_capacity,
    ):
        if not name or not isinstance(name, str):
            raise MaterialError(
                f"material name must be a non-empty string, got {name!r}"
            )
        self.name = name
        self._sigma = _as_model(electrical_conductivity, "electrical_conductivity")
        self._lambda = _as_model(thermal_conductivity, "thermal_conductivity")
        self._rhoc = _as_model(volumetric_heat_capacity, "volumetric_heat_capacity")
        for label, model in (
            ("electrical conductivity", self._sigma),
            ("thermal conductivity", self._lambda),
            ("volumetric heat capacity", self._rhoc),
        ):
            value = model(T_REFERENCE)
            if not np.isfinite(value) or value < 0.0:
                raise MaterialError(
                    f"{label} of {name!r} evaluates to non-physical value "
                    f"{value!r} at {T_REFERENCE} K"
                )

    def electrical_conductivity(self, temperature=T_REFERENCE):
        """Electrical conductivity sigma(T) [S/m]."""
        return self._sigma(temperature)

    def thermal_conductivity(self, temperature=T_REFERENCE):
        """Thermal conductivity lambda(T) [W/K/m]."""
        return self._lambda(temperature)

    def volumetric_heat_capacity(self, temperature=T_REFERENCE):
        """Volumetric heat capacity rho*c [J/K/m^3]."""
        return self._rhoc(temperature)

    def electrical_conductivity_derivative(self, temperature):
        """d(sigma)/dT [S/m/K]."""
        return self._sigma.derivative(temperature)

    def thermal_conductivity_derivative(self, temperature):
        """d(lambda)/dT [W/K^2/m]."""
        return self._lambda.derivative(temperature)

    def is_electrically_conducting(self, threshold=1.0):
        """``True`` if sigma at 300 K exceeds ``threshold`` (default 1 S/m)."""
        return self.electrical_conductivity(T_REFERENCE) > threshold

    def frozen(self, temperature=T_REFERENCE):
        """A copy of this material with all properties frozen at ``temperature``.

        Used by the "linear materials" ablation that switches the
        electrothermal feedback off.
        """
        return Material(
            name=f"{self.name}@{float(temperature):g}K",
            electrical_conductivity=float(self._sigma(temperature)),
            thermal_conductivity=float(self._lambda(temperature)),
            volumetric_heat_capacity=float(self._rhoc(temperature)),
        )

    def __repr__(self):
        return (
            f"Material({self.name!r}, sigma={self._sigma!r}, "
            f"lambda={self._lambda!r}, rhoc={self._rhoc!r})"
        )

    def __eq__(self, other):
        if not isinstance(other, Material):
            return NotImplemented
        return repr(self) == repr(other)

    def __hash__(self):
        return hash(repr(self))
