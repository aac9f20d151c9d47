"""GCell grid with directional edge capacities.

The grid mirrors how FastRoute sees the die: horizontal routing demand
is accumulated on (row, column) cell crossings of horizontal wires,
vertical demand likewise, each against a per-cell capacity in tracks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.netlist.design import Floorplan

#: Routing tracks per micron per direction (NanGate45 has ten metal
#: layers, ~5 per direction at 0.28-0.56 um pitch, derated ~40% for
#: power/blockage/vias).
TRACKS_PER_UM = 8.0


@dataclass
class GCellGrid:
    """A regular GCell grid over the die.

    Attributes:
        floorplan: The die being routed.
        nx, ny: Grid dimensions.
        h_usage, v_usage: Per-cell horizontal / vertical track demand.
        h_capacity, v_capacity: Per-cell track capacity.
    """

    floorplan: Floorplan
    nx: int
    ny: int
    h_usage: np.ndarray
    v_usage: np.ndarray
    h_capacity: float
    v_capacity: float

    @classmethod
    def for_floorplan(
        cls,
        floorplan: Floorplan,
        target_cells: int = 2048,
        tracks_per_um: float = TRACKS_PER_UM,
    ) -> "GCellGrid":
        """Size the grid to ~``target_cells`` square GCells."""
        aspect = floorplan.die_width / max(floorplan.die_height, 1e-9)
        ny = max(8, int(np.sqrt(target_cells / max(aspect, 1e-9))))
        nx = max(8, int(ny * aspect))
        cell_w = floorplan.die_width / nx
        cell_h = floorplan.die_height / ny
        return cls(
            floorplan=floorplan,
            nx=nx,
            ny=ny,
            h_usage=np.zeros((ny, nx)),
            v_usage=np.zeros((ny, nx)),
            h_capacity=cell_h * tracks_per_um,
            v_capacity=cell_w * tracks_per_um,
        )

    # ------------------------------------------------------------------
    @property
    def cell_width(self) -> float:
        """GCell width (microns)."""
        return self.floorplan.die_width / self.nx

    @property
    def cell_height(self) -> float:
        """GCell height (microns)."""
        return self.floorplan.die_height / self.ny

    def cell_of(self, x: float, y: float) -> Tuple[int, int]:
        """(col, row) containing a point, clipped to the grid."""
        cx = int(np.clip(x / self.cell_width, 0, self.nx - 1))
        cy = int(np.clip(y / self.cell_height, 0, self.ny - 1))
        return cx, cy

    # ------------------------------------------------------------------
    def congestion_ratios(self) -> np.ndarray:
        """Flattened per-cell max(h, v) congestion ratios."""
        h = self.h_usage / self.h_capacity
        v = self.v_usage / self.v_capacity
        return np.maximum(h, v).ravel()

    def top_percent_congestion(self, percent: float = 10.0) -> float:
        """Mean congestion of the most-congested ``percent``% of GCells.

        This is the paper's Congestion Cost (Eq. 5) with X = percent.
        """
        ratios = self.congestion_ratios()
        count = max(1, int(len(ratios) * percent / 100.0))
        if count >= len(ratios):
            top = np.sort(ratios)[::-1]
        else:
            # O(n) selection of the top-k block; the block is then
            # sorted descending so the mean's pairwise-summation order
            # (and hence the exact float result) matches the full-sort
            # implementation this replaced.
            top = np.sort(np.partition(ratios, len(ratios) - count)[-count:])[::-1]
        return float(top.mean())

    def overflow_fraction(self) -> float:
        """Fraction of GCells whose demand exceeds capacity."""
        ratios = self.congestion_ratios()
        return float((ratios > 1.0).mean())


class GCellDemand:
    """A grid's track demand, held in Python lists while a router adds to it.

    The router reads a few cells' maximum and adds one track to a few
    cells per tree edge, hundreds of thousands of times per flow; on
    lists each of those costs a fraction of a NumPy call's dispatch.
    The arithmetic is the arrays' own (the same maxima, the same
    ``+= 1.0``, the same division by capacity), so :meth:`write_back`
    stores exactly the usage that adding to the arrays would.
    """

    __slots__ = ("rows", "cols", "h_capacity", "v_capacity")

    def __init__(self, grid: GCellGrid) -> None:
        #: rows[row][col]: horizontal demand; cols[col][row]: vertical.
        self.rows = grid.h_usage.tolist()
        self.cols = grid.v_usage.T.tolist()
        self.h_capacity = grid.h_capacity
        self.v_capacity = grid.v_capacity

    def add_horizontal(self, row: int, col_a: int, col_b: int) -> None:
        """Add one track of horizontal demand across [col_a, col_b]."""
        if col_a > col_b:
            col_a, col_b = col_b, col_a
        cells = self.rows[row]
        for col in range(col_a, col_b + 1):
            cells[col] += 1.0

    def add_vertical(self, col: int, row_a: int, row_b: int) -> None:
        """Add one track of vertical demand across [row_a, row_b]."""
        if row_a > row_b:
            row_a, row_b = row_b, row_a
        cells = self.cols[col]
        for row in range(row_a, row_b + 1):
            cells[row] += 1.0

    def segment_congestion(
        self, horizontal: bool, fixed: int, a: int, b: int
    ) -> float:
        """Max congestion ratio along a candidate segment."""
        if a > b:
            a, b = b, a
        if horizontal:
            return max(self.rows[fixed][a : b + 1]) / self.h_capacity
        return max(self.cols[fixed][a : b + 1]) / self.v_capacity

    def write_back(self, grid: GCellGrid) -> None:
        """Store the demand in the grid's ``h_usage`` / ``v_usage``."""
        grid.h_usage[:] = self.rows
        grid.v_usage[:] = np.array(self.cols).T
