"""Analytic steady-state wire models (the phenomenological baseline).

The paper cites analytic bonding-wire temperature models (Noebauer & Moser
2000; Section I "there are phenomenological models ... derived
analytically").  This module implements the 1D steady-state heat balance of
a current-carrying wire with clamped end temperatures and optional lateral
convective loss (fin equation):

``lambda A T''(x) + I^2 / (sigma A) = h p (T(x) - T_inf)``

with perimeter ``p = pi d``.  Without lateral loss the profile is the
classic parabola; with loss it is the cosh fin solution.  Temperature
dependence of ``sigma`` and ``lambda`` is resolved by a fixed-point
iteration on the average wire temperature.

These closed forms are an independent oracle: the cross-verification
tests check the lumped FIT coupling against them on matched
configurations, and ``examples/analytic_vs_field.py`` compares the two.
"""

import numpy as np

from ..errors import BondWireError
from ..solvers.newton import fixed_point


class FinWireSolution:
    """Closed-form steady temperature profile of one wire.

    Attributes
    ----------
    peak_temperature:
        Maximum temperature along the wire [K].
    average_temperature:
        Mean of the profile over the length [K].
    dissipated_power:
        Total Joule power in the wire [W].
    current:
        The (converged) wire current [A].
    resistance:
        The (converged) wire resistance [Ohm].
    """

    def __init__(
        self,
        length,
        profile,
        peak_temperature,
        average_temperature,
        dissipated_power,
        current,
        resistance,
    ):
        self.length = length
        self._profile = profile
        self.peak_temperature = peak_temperature
        self.average_temperature = average_temperature
        self.dissipated_power = dissipated_power
        self.current = current
        self.resistance = resistance

    def temperature(self, position):
        """Temperature at position(s) ``x`` in [0, L] [K]."""
        position = np.asarray(position, dtype=float)
        if np.any(position < -1e-12) or np.any(position > self.length + 1e-12):
            raise BondWireError(
                f"position outside wire [0, {self.length}]: {position}"
            )
        return self._profile(np.clip(position, 0.0, self.length))

    def sample(self, num_points=101):
        """``(x, T(x))`` arrays for plotting/export."""
        x = np.linspace(0.0, self.length, int(num_points))
        return x, self.temperature(x)

    def __repr__(self):
        return (
            f"FinWireSolution(peak={self.peak_temperature:.2f} K, "
            f"I={self.current:.4f} A, P={self.dissipated_power:.4e} W)"
        )


def _constant_property_profile(
    length, area, lam, heating_per_length, h_per_length, t_ambient, t_a, t_b
):
    """Analytic profile for fixed material properties.

    Returns a vectorized callable ``T(x)``.
    """
    if h_per_length <= 0.0:
        # Pure conduction: linear + parabola.
        def profile(x):
            linear = t_a + (t_b - t_a) * x / length
            parabola = heating_per_length / (2.0 * lam * area) * x * (length - x)
            return linear + parabola

        return profile

    m = np.sqrt(h_per_length / (lam * area))
    theta_p = heating_per_length / h_per_length
    theta_a = t_a - t_ambient - theta_p
    theta_b = t_b - t_ambient - theta_p
    sinh_ml = np.sinh(m * length)
    if sinh_ml == 0.0:
        raise BondWireError("degenerate fin solution (m L = 0)")

    def profile(x):
        c = (theta_b - theta_a * np.cosh(m * length)) / sinh_ml
        return (
            t_ambient
            + theta_p
            + theta_a * np.cosh(m * x)
            + c * np.sinh(m * x)
        )

    return profile


class AnalyticWireModel:
    """Steady-state analytic model of a single bonding wire.

    Parameters
    ----------
    material:
        Wire :class:`~repro.materials.base.Material`.
    diameter, length:
        Wire geometry [m].
    heat_transfer_coefficient:
        Lateral convective coefficient h [W/m^2/K]; zero for a wire fully
        embedded in mold (the paper's situation -- the wire then only
        conducts heat to its two ends).
    t_ambient:
        Ambient temperature for the lateral loss [K].
    """

    def __init__(
        self,
        material,
        diameter,
        length,
        heat_transfer_coefficient=0.0,
        t_ambient=300.0,
    ):
        diameter = float(diameter)
        length = float(length)
        if diameter <= 0.0 or length <= 0.0:
            raise BondWireError("diameter and length must be positive")
        if heat_transfer_coefficient < 0.0:
            raise BondWireError("heat transfer coefficient must be >= 0")
        self.material = material
        self.diameter = diameter
        self.length = length
        self.h = float(heat_transfer_coefficient)
        self.t_ambient = float(t_ambient)

    @property
    def area(self):
        """Cross section [m^2]."""
        return 0.25 * np.pi * self.diameter**2

    @property
    def perimeter(self):
        """Circumference [m]."""
        return np.pi * self.diameter

    def _solve(self, current_of_t, t_end_a, t_end_b, tolerance, max_iterations):
        """Fixed point on the average temperature; returns a solution."""
        area = self.area
        h_per_length = self.h * self.perimeter

        def solution_for(t_avg):
            t_avg = float(t_avg)
            sigma = self.material.electrical_conductivity(t_avg)
            lam = self.material.thermal_conductivity(t_avg)
            current = current_of_t(t_avg)
            heating_per_length = current**2 / (sigma * area)
            profile = _constant_property_profile(
                self.length,
                area,
                lam,
                heating_per_length,
                h_per_length,
                self.t_ambient,
                t_end_a,
                t_end_b,
            )
            return profile, current, sigma

        def update(state):
            # Clamp the iterate: beyond ~10^4 K the material laws are
            # meaningless and the parabola overflows; physically this
            # regime means "the wire fuses", which callers detect through
            # the returned (huge) peak temperature.
            t_avg = float(np.clip(state[0], 1.0, 1.0e4))
            profile, _, _ = solution_for(t_avg)
            x = np.linspace(0.0, self.length, 201)
            mean = float(np.mean(profile(x)))
            if not np.isfinite(mean):
                mean = 1.0e4
            return np.array([np.clip(mean, 1.0, 1.0e4)])

        start = np.array([max(t_end_a, t_end_b)])
        result = fixed_point(
            update,
            start,
            tolerance=tolerance,
            max_iterations=max_iterations,
            damping=0.8,
        )
        t_avg = float(result.solution[0])
        profile, current, sigma = solution_for(t_avg)
        x = np.linspace(0.0, self.length, 401)
        temperatures = profile(x)
        resistance = self.length / (sigma * area)
        return FinWireSolution(
            length=self.length,
            profile=profile,
            peak_temperature=float(np.max(temperatures)),
            average_temperature=float(np.mean(temperatures)),
            dissipated_power=current**2 * resistance,
            current=current,
            resistance=resistance,
        )

    def solve_current_driven(
        self,
        current,
        t_end_a,
        t_end_b=None,
        tolerance=1.0e-8,
        max_iterations=100,
    ):
        """Steady state for an imposed current ``I`` [A]."""
        current = float(current)
        t_end_a = float(t_end_a)
        t_end_b = t_end_a if t_end_b is None else float(t_end_b)
        return self._solve(
            lambda t_avg: current, t_end_a, t_end_b, tolerance, max_iterations
        )

    def solve_voltage_driven(
        self,
        voltage,
        t_end_a,
        t_end_b=None,
        tolerance=1.0e-8,
        max_iterations=100,
    ):
        """Steady state for an imposed end-to-end voltage ``U`` [V].

        The current follows from the temperature-dependent resistance,
        ``I = U sigma(T_avg) A / L``, closing the electrothermal feedback
        loop in the direction the paper describes (hotter wire -> lower
        sigma -> lower current).
        """
        voltage = float(voltage)
        t_end_a = float(t_end_a)
        t_end_b = t_end_a if t_end_b is None else float(t_end_b)
        area = self.area

        def current_of_t(t_avg):
            sigma = self.material.electrical_conductivity(t_avg)
            return voltage * sigma * area / self.length

        return self._solve(
            current_of_t, t_end_a, t_end_b, tolerance, max_iterations
        )

    def peak_temperature_rise_linear(self, current, t_end=300.0):
        """Closed-form peak rise ``I^2 L^2 / (8 sigma lambda A^2)`` [K].

        Valid for equal end temperatures, no lateral loss and properties
        frozen at ``t_end`` -- the textbook formula used as a sanity bound
        in tests.
        """
        sigma = self.material.electrical_conductivity(t_end)
        lam = self.material.thermal_conductivity(t_end)
        return float(current) ** 2 * self.length**2 / (
            8.0 * sigma * lam * self.area**2
        )
