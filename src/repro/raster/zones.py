"""Zone rasters: unit systems whose units are sets of lattice cells.

``voronoi_zone_raster`` labels every cell of a grid with its nearest seed
(a discrete Voronoi partition -- how the synthetic geography carves zip
codes and counties at country scale).  :class:`RasterUnitSystem` then
exposes the standard :class:`~repro.partitions.system.UnitSystem`
interface: overlap between two zone rasters over the *same* grid is an
exact tabulation of joint cell labels.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

from repro.errors import PartitionError, ShapeMismatchError
from repro.partitions.system import UnitSystem


def voronoi_zone_raster(grid, seeds, active_mask=None):
    """Nearest-seed label per grid cell.

    Parameters
    ----------
    grid:
        :class:`~repro.raster.grid.RasterGrid`.
    seeds:
        ``(k, 2)`` seed points.
    active_mask:
        Optional boolean flat mask; cells outside it get label -1 (cells
        outside the universe window, e.g. outside a state subset).

    Returns
    -------
    numpy.ndarray
        Flat ``int64`` array of length ``grid.n_cells`` with values in
        ``[-1, k)``.

    Notes
    -----
    Bulk nearest-neighbour search uses :class:`scipy.spatial.cKDTree`
    (scipy is a declared dependency).  The from-scratch equivalent,
    :func:`repro.geometry.voronoi.nearest_seed_labels`, is used by tests
    to cross-validate this fast path.
    """
    seeds = np.asarray(seeds, dtype=float)
    if seeds.ndim != 2 or seeds.shape[1] != 2:
        raise PartitionError(f"seeds must be (k, 2), got {seeds.shape}")
    centers = grid.cell_centers()
    labels = np.full(grid.n_cells, -1, dtype=np.int64)
    if active_mask is None:
        query = centers
        where = slice(None)
    else:
        active_mask = np.asarray(active_mask, dtype=bool)
        if active_mask.shape != (grid.n_cells,):
            raise ShapeMismatchError(
                f"active_mask must be flat of length {grid.n_cells}"
            )
        query = centers[active_mask]
        where = active_mask
    tree = cKDTree(seeds)
    _, nearest = tree.query(query, k=1)
    labels[where] = nearest.astype(np.int64)
    return labels


class RasterUnitSystem(UnitSystem):
    """Unit system backed by a flat per-cell zone label array.

    Parameters
    ----------
    labels:
        Unit names; unit ``i`` owns the cells where ``zone_of_cell == i``.
    grid:
        The shared :class:`~repro.raster.grid.RasterGrid`.
    zone_of_cell:
        Flat ``int`` array of length ``grid.n_cells``; -1 marks cells
        outside the universe.  Every unit must own at least one cell.
    """

    def __init__(self, labels, grid, zone_of_cell):
        super().__init__(labels)
        zone_of_cell = np.asarray(zone_of_cell)
        if zone_of_cell.shape != (grid.n_cells,):
            raise ShapeMismatchError(
                f"zone_of_cell must be flat of length {grid.n_cells}, got "
                f"{zone_of_cell.shape}"
            )
        if zone_of_cell.max(initial=-1) >= len(self.labels):
            raise PartitionError(
                "zone_of_cell references a unit beyond the label list"
            )
        counts = np.bincount(
            zone_of_cell[zone_of_cell >= 0], minlength=len(self.labels)
        )
        empty = np.flatnonzero(counts == 0)
        if len(empty):
            raise PartitionError(
                f"{len(empty)} units own no raster cells (first: "
                f"{self.labels[empty[0]]!r}); refine the grid or drop them"
            )
        self.grid = grid
        self.zone_of_cell = zone_of_cell.astype(np.int64)
        self._cell_counts = counts

    @classmethod
    def from_seeds(cls, labels, grid, seeds, active_mask=None):
        """Discrete Voronoi unit system around ``seeds``."""
        zones = voronoi_zone_raster(grid, seeds, active_mask=active_mask)
        return cls(labels, grid, zones)

    def cell_counts(self):
        """Number of cells per unit."""
        return self._cell_counts.copy()

    def measures(self):
        """Unit areas: cell count times cell area."""
        return self._cell_counts * self.grid.cell_area

    def overlap_pairs(self, other):
        """Exact tabulation of joint (mine, theirs) cell labels."""
        if not isinstance(other, RasterUnitSystem):
            raise ShapeMismatchError(
                "can only overlay RasterUnitSystem with RasterUnitSystem, "
                f"got {type(other).__name__}"
            )
        if other.grid is not self.grid and (
            other.grid.nx != self.grid.nx
            or other.grid.ny != self.grid.ny
            or other.grid.extent != self.grid.extent
        ):
            raise ShapeMismatchError(
                "raster overlay requires both systems to share one grid"
            )
        mine = self.zone_of_cell
        theirs = other.zone_of_cell
        both = (mine >= 0) & (theirs >= 0)
        joint = mine[both] * np.int64(len(other)) + theirs[both]
        codes, counts = np.unique(joint, return_counts=True)
        src_idx = codes // len(other)
        tgt_idx = codes % len(other)
        return (
            src_idx.astype(np.int64),
            tgt_idx.astype(np.int64),
            counts.astype(float) * self.grid.cell_area,
        )

    def joint_tabulate(self, other, cell_values):
        """Sum ``cell_values`` over each (mine, theirs) intersection.

        The workhorse for turning per-cell attribute mass into a
        disaggregation matrix: returns ``(src_idx, tgt_idx, totals)``
        triplets over intersections with positive total.
        """
        cell_values = np.asarray(cell_values, dtype=float)
        if cell_values.shape != (self.grid.n_cells,):
            raise ShapeMismatchError(
                f"cell_values must be flat of length {self.grid.n_cells}"
            )
        mine = self.zone_of_cell
        theirs = other.zone_of_cell
        both = (mine >= 0) & (theirs >= 0) & (cell_values != 0.0)  # repro-lint: allow[float-eq] exact zeros contribute no mass; skipping them is a pure optimisation
        joint = mine[both] * np.int64(len(other)) + theirs[both]
        mat = sparse.coo_matrix(
            (
                cell_values[both],
                (joint // len(other), joint % len(other)),
            ),
            shape=(len(self), len(other)),
        ).tocsr()
        mat.eliminate_zeros()
        coo = mat.tocoo()
        return (
            coo.row.astype(np.int64),
            coo.col.astype(np.int64),
            coo.data.astype(float),
        )

    def aggregate_cells(self, cell_values):
        """Sum per-cell values to units (cells outside the universe drop)."""
        cell_values = np.asarray(cell_values, dtype=float)
        inside = self.zone_of_cell >= 0
        return np.bincount(
            self.zone_of_cell[inside],
            weights=cell_values[inside],
            minlength=len(self),
        )

    def locate_points(self, points):
        """Unit index per point via cell hashing (-1 outside)."""
        cells = self.grid.locate_points(points)
        labels = np.full(len(cells), -1, dtype=np.int64)
        valid = cells >= 0
        labels[valid] = self.zone_of_cell[cells[valid]]
        return labels

    def __repr__(self):
        return (
            f"RasterUnitSystem(n={len(self)}, grid={self.grid.nx}x"
            f"{self.grid.ny})"
        )
