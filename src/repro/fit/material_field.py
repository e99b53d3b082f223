"""Cell-wise material assignment (the FIT staircase approximation).

Each primary cell is filled with exactly one homogeneous material
(Section III-A of the paper: "each primary cell is assumed to consist of a
homogeneous material").  A :class:`MaterialField` stores one material index
per cell and evaluates the temperature-dependent properties for all cells
at once.
"""

import numpy as np

from ..errors import AssemblyError, MaterialError
from ..materials.base import Material


class MaterialField:
    """Material indices on the cells of a tensor grid.

    Parameters
    ----------
    grid:
        The primary :class:`~repro.grid.tensor_grid.TensorGrid`.
    background:
        The :class:`~repro.materials.base.Material` filling every cell that
        is not claimed later via :meth:`fill_box` / :meth:`fill_cells`.
    """

    def __init__(self, grid, background):
        if not isinstance(background, Material):
            raise MaterialError(
                f"background must be a Material, got {type(background).__name__}"
            )
        self.grid = grid
        self.materials = [background]
        self.cell_material = np.zeros(grid.num_cells, dtype=np.int32)

    def _material_index(self, material):
        for index, known in enumerate(self.materials):
            if known is material or known == material:
                return index
        self.materials.append(material)
        return len(self.materials) - 1

    def fill_cells(self, cell_indices, material):
        """Assign ``material`` to the cells with the given flat indices."""
        cell_indices = np.asarray(cell_indices, dtype=np.int64)
        if cell_indices.size == 0:
            return
        if np.any(cell_indices < 0) or np.any(cell_indices >= self.grid.num_cells):
            raise AssemblyError("cell index out of range in fill_cells")
        self.cell_material[cell_indices] = self._material_index(material)

    def fill_box(self, box, material):
        """Assign ``material`` to every cell whose center is inside ``box``.

        ``box = ((x0, x1), (y0, y1), (z0, z1))``.  Returns the number of
        cells claimed so callers can detect boxes that fell between grid
        lines (zero cells claimed almost always indicates a meshing bug).
        """
        from ..grid.indexing import GridIndexing

        indexing = GridIndexing(self.grid)
        cells = indexing.cells_in_box(box)
        self.fill_cells(cells, material)
        return int(cells.size)

    # ------------------------------------------------------------------
    # Property evaluation
    # ------------------------------------------------------------------
    def _evaluate(self, getter, cell_temperatures):
        values = np.empty(self.grid.num_cells)
        for index, material in enumerate(self.materials):
            mask = self.cell_material == index
            if not np.any(mask):
                continue
            if cell_temperatures is None:
                values[mask] = getter(material)()
            else:
                values[mask] = getter(material)(cell_temperatures[mask])
        return values

    def sigma_cells(self, cell_temperatures=None):
        """Electrical conductivity per cell [S/m] at the given temperatures."""
        return self._evaluate(
            lambda m: m.electrical_conductivity, cell_temperatures
        )

    def lambda_cells(self, cell_temperatures=None):
        """Thermal conductivity per cell [W/K/m]."""
        return self._evaluate(lambda m: m.thermal_conductivity, cell_temperatures)

    def rhoc_cells(self):
        """Volumetric heat capacity per cell [J/K/m^3] (T independent)."""
        return self._evaluate(lambda m: m.volumetric_heat_capacity, None)

    def material_names(self):
        """Names of all registered materials, in index order."""
        return [material.name for material in self.materials]

    def volume_fractions(self):
        """Mapping material name -> fraction of the total volume it fills."""
        volumes = self.grid.cell_volumes()
        total = float(np.sum(volumes))
        fractions = {}
        for index, material in enumerate(self.materials):
            mask = self.cell_material == index
            fractions[material.name] = float(np.sum(volumes[mask])) / total
        return fractions

    def frozen(self, temperature):
        """Copy of this field with every material frozen at ``temperature``.

        Used by the nonlinearity ablation (temperature feedback off).
        """
        clone = MaterialField(self.grid, self.materials[0].frozen(temperature))
        clone.materials = [m.frozen(temperature) for m in self.materials]
        clone.cell_material = self.cell_material.copy()
        return clone

    def __repr__(self):
        return (
            f"MaterialField(cells={self.grid.num_cells}, "
            f"materials={self.material_names()!r})"
        )
