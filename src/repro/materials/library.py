"""Library of ready-made materials.

The copper and epoxy resin entries reproduce Table I of the paper exactly at
300 K; their temperature dependence follows standard handbook models (linear
resistivity growth for metals, the Wiedemann-Franz-consistent mild decrease
of the thermal conductivity).  The remaining materials are provided for
wire-sizing studies (gold and aluminium are the other two common bonding
wire materials) and for alternative package stacks.
"""

from ..constants import (
    ALPHA_COPPER,
    LAMBDA_COPPER_300K,
    LAMBDA_EPOXY,
    SIGMA_COPPER_300K,
    SIGMA_EPOXY,
)
from ..errors import MaterialError
from .base import Material
from .temperature_models import ConstantModel, InverseLinearModel, LinearModel


def copper():
    """Copper: Table I values at 300 K with standard temperature laws.

    sigma(T) = 5.80e7 / (1 + 3.93e-3 (T - 300)) S/m,
    lambda(T) = 398 (1 - 1.0e-4 (T - 300)) W/K/m,
    rho*c = 8960 kg/m^3 * 385 J/kg/K = 3.45e6 J/K/m^3.
    """
    return Material(
        name="copper",
        electrical_conductivity=InverseLinearModel(SIGMA_COPPER_300K, ALPHA_COPPER),
        thermal_conductivity=LinearModel(
            LAMBDA_COPPER_300K, -1.0e-4, floor=100.0
        ),
        volumetric_heat_capacity=8960.0 * 385.0,
    )


def gold():
    """Gold bonding wire material (sigma 4.52e7 S/m, lambda 318 W/K/m)."""
    return Material(
        name="gold",
        electrical_conductivity=InverseLinearModel(4.52e7, 3.4e-3),
        thermal_conductivity=LinearModel(318.0, -6.0e-5, floor=100.0),
        volumetric_heat_capacity=19300.0 * 129.0,
    )


def aluminium():
    """Aluminium bonding wire material (sigma 3.77e7 S/m, lambda 237 W/K/m)."""
    return Material(
        name="aluminium",
        electrical_conductivity=InverseLinearModel(3.77e7, 3.9e-3),
        thermal_conductivity=LinearModel(237.0, -5.0e-5, floor=80.0),
        volumetric_heat_capacity=2700.0 * 897.0,
    )


def epoxy_resin():
    """Epoxy resin mold compound: Table I values, temperature independent."""
    return Material(
        name="epoxy_resin",
        electrical_conductivity=ConstantModel(SIGMA_EPOXY),
        thermal_conductivity=ConstantModel(LAMBDA_EPOXY),
        volumetric_heat_capacity=1200.0 * 1100.0,
    )


def silicon():
    """Intrinsic-ish silicon die material (weak electrical conduction)."""
    return Material(
        name="silicon",
        electrical_conductivity=ConstantModel(1.0e-3),
        thermal_conductivity=LinearModel(148.0, -2.0e-3, floor=30.0),
        volumetric_heat_capacity=2329.0 * 700.0,
    )


def fr4():
    """FR-4 laminate (insulating substrate)."""
    return Material(
        name="fr4",
        electrical_conductivity=ConstantModel(1.0e-9),
        thermal_conductivity=ConstantModel(0.3),
        volumetric_heat_capacity=1850.0 * 1100.0,
    )


def air():
    """Still air (used when a cavity package is modeled)."""
    return Material(
        name="air",
        electrical_conductivity=ConstantModel(1.0e-12),
        thermal_conductivity=ConstantModel(0.026),
        volumetric_heat_capacity=1.204 * 1005.0,
    )


#: Mapping of canonical names to factory functions.
MATERIAL_LIBRARY = {
    "copper": copper,
    "gold": gold,
    "aluminium": aluminium,
    "aluminum": aluminium,
    "epoxy_resin": epoxy_resin,
    "epoxy": epoxy_resin,
    "silicon": silicon,
    "fr4": fr4,
    "air": air,
}


def get_material(name):
    """Look up a material in the library by (case-insensitive) name."""
    key = str(name).strip().lower()
    if key not in MATERIAL_LIBRARY:
        known = ", ".join(sorted(set(MATERIAL_LIBRARY)))
        raise MaterialError(f"unknown material {name!r}; known materials: {known}")
    return MATERIAL_LIBRARY[key]()
