"""Bin-based density spreading (FastPlace-style cell shifting).

After each quadratic solve the placement is strongly clumped; the
spreader computes per-bin utilization and produces per-cell *target*
positions that equalise density along each axis.  The placer turns the
targets into pseudo-net anchors whose weight grows over iterations,
which is the classic quadratic-placement spreading loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.netlist.design import Floorplan
from repro.place.problem import CoreBox


@dataclass
class DensityGrid:
    """Regular bin grid over the core area.

    ``floorplan`` may be a sequence of floorplans: the grid then spans
    a batch of dies, one per row of ``(B, n)`` coordinates, with the
    same bin counts on each (they depend only on the cell count).
    """

    floorplan: Union[Floorplan, Sequence[Floorplan]]
    bins_x: int
    bins_y: int

    @classmethod
    def for_problem(
        cls, floorplan: Union[Floorplan, Sequence[Floorplan]], num_movable: int
    ) -> "DensityGrid":
        """Grid sized so an average bin holds ~16 cells, within [8, 64]."""
        bins = int(np.sqrt(max(1, num_movable) / 16.0))
        bins = int(np.clip(bins, 8, 64))
        return cls(floorplan=floorplan, bins_x=bins, bins_y=bins)

    @property
    def floorplans(self) -> List[Floorplan]:
        """One floorplan per row (a single die is a batch of one)."""
        fps = self.floorplan
        return [fps] if isinstance(fps, Floorplan) else list(fps)

    @cached_property
    def box(self) -> CoreBox:
        """The core rectangle of every row, as ``(B, 1)`` columns."""
        return CoreBox.of(self.floorplans)

    def rows(self, rows: np.ndarray) -> "DensityGrid":
        """The grid over a subset of a batch's rows."""
        fps = self.floorplans
        return DensityGrid([fps[r] for r in rows], self.bins_x, self.bins_y)

    def bin_of(self, x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Bin indices of coordinates (clipped to the grid); ``x`` and
        ``y`` are ``(n,)``, or ``(B, n)`` with row ``b`` on die ``b``."""
        box = self.box
        bx = ((np.atleast_2d(x) - box.llx) / box.width * self.bins_x).astype(np.int64)
        by = ((np.atleast_2d(y) - box.lly) / box.height * self.bins_y).astype(np.int64)
        return (
            np.clip(bx, 0, self.bins_x - 1).reshape(np.shape(x)),
            np.clip(by, 0, self.bins_y - 1).reshape(np.shape(y)),
        )

    def _bin_area(self) -> np.ndarray:
        box = self.box
        return (box.width / self.bins_x) * (box.height / self.bins_y)

    def utilization(
        self,
        x: np.ndarray,
        y: np.ndarray,
        areas: np.ndarray,
        movable: np.ndarray,
    ) -> np.ndarray:
        """Per-bin movable-area utilization: ``(bins_y, bins_x)``, or
        ``(B, bins_y, bins_x)`` for ``(B, n)`` coordinates."""
        xs = np.reshape(x, (-1, np.shape(x)[-1]))[:, movable]
        ys = np.reshape(y, (-1, np.shape(y)[-1]))[:, movable]
        bx, by = self.bin_of(xs, ys)
        bins = self.bins_x * self.bins_y
        flat = (by * self.bins_x + bx + np.arange(len(xs))[:, None] * bins).ravel()
        # bincount adds each bin's cells in cell order, like np.add.at.
        usage = np.bincount(
            flat, weights=np.tile(areas[movable], len(xs)), minlength=len(xs) * bins
        ).reshape(len(xs), bins)
        util = (usage / self._bin_area()).reshape(-1, self.bins_y, self.bins_x)
        return util if np.ndim(x) == 2 else util[0]

    def overflow(
        self,
        x: np.ndarray,
        y: np.ndarray,
        areas: np.ndarray,
        movable: np.ndarray,
        target_density: float,
    ) -> Union[float, np.ndarray]:
        """Total overflowing area fraction (0 = fully spread): a float,
        or one per row for ``(B, n)`` coordinates."""
        util = self.utilization(x, y, areas, movable)
        rows = util.reshape(-1, self.bins_x * self.bins_y)
        over = np.maximum(rows - target_density, 0.0) * self._bin_area()
        total_area = float(areas[movable].sum())
        if total_area <= 0:
            per_row = np.zeros(len(rows))
        else:
            per_row = over.sum(axis=1) / total_area
        return per_row if np.ndim(x) == 2 else float(per_row[0])


def spreading_targets(
    grid: DensityGrid,
    x: np.ndarray,
    y: np.ndarray,
    areas: np.ndarray,
    movable: np.ndarray,
    strength: float = 0.8,
) -> Tuple[np.ndarray, np.ndarray]:
    """Compute spread target positions via per-band 1-D equalization.

    Within each horizontal band of bins, cells are re-mapped along x so
    cumulative cell area tracks cumulative capacity (and symmetrically
    along y within vertical bands).  ``strength`` in (0, 1] damps the
    move toward the fully-equalized position.  ``x`` and ``y`` may be
    ``(B, n)`` batches over the grid's ``B`` dies.

    Returns:
        (target_x, target_y) arrays over all vertices (fixed vertices
        keep their coordinates), shaped like ``x`` and ``y``.
    """
    box = grid.box
    xs = np.atleast_2d(x)
    ys = np.atleast_2d(y)
    target_x = xs.copy()
    target_y = ys.copy()
    ids = np.nonzero(movable)[0]
    if len(ids) == 0:
        return target_x.reshape(np.shape(x)), target_y.reshape(np.shape(y))

    _equalize_axis(
        ids, xs, ys, areas, target_x,
        lo=box.llx, span=box.width,
        band_lo=box.lly, band_span=box.height,
        bands=grid.bins_y, strength=strength,
    )
    _equalize_axis(
        ids, ys, xs, areas, target_y,
        lo=box.lly, span=box.height,
        band_lo=box.llx, band_span=box.width,
        bands=grid.bins_x, strength=strength,
    )
    return target_x.reshape(np.shape(x)), target_y.reshape(np.shape(y))


def spread_displacement(
    target_x: np.ndarray,
    target_y: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    movable: np.ndarray,
) -> float:
    """Mean Manhattan distance the spreader asks movable cells to move.

    A convergence signal for the telemetry ``*.spread_move`` streams:
    it decays toward zero as density equalises, and a plateau at a high
    value flags a placement that is fighting its density target.
    """
    ids = np.nonzero(movable)[0]
    if len(ids) == 0:
        return 0.0
    dx = np.abs(target_x[ids] - x[ids])
    dy = np.abs(target_y[ids] - y[ids])
    return float((dx + dy).mean())


def _equalize_axis(
    ids: np.ndarray,
    primary: np.ndarray,
    secondary: np.ndarray,
    areas: np.ndarray,
    out: np.ndarray,
    lo: np.ndarray,
    span: np.ndarray,
    band_lo: np.ndarray,
    band_span: np.ndarray,
    bands: int,
    strength: float,
) -> None:
    """Equalize cumulative area along ``primary`` within secondary bands.

    ``primary``, ``secondary`` and ``out`` are ``(B, n)``; the die
    bounds are ``(B, 1)``.  Every band of every row is equalized in one
    vectorized pass: each cell's band start and end come from the
    per-row sorted band labels, and the running area sum restarts at
    each row (``cumsum`` along axis 1), so the arithmetic per cell is
    the per-band loop's, operand for operand.
    """
    batch = len(primary)
    band = ((secondary[:, ids] - band_lo) / band_span * bands).astype(np.int64)
    band = np.clip(band, 0, bands - 1)
    order = np.lexsort((primary[:, ids], band), axis=-1)
    sorted_ids = ids[order]
    sorted_band = np.take_along_axis(band, order, axis=1)
    sorted_area = areas[sorted_ids]
    sorted_primary = np.take_along_axis(primary[:, ids], order, axis=1)

    # Each cell's band [first, last] position in its row's sorted order.
    count = len(ids)
    col = np.broadcast_to(np.arange(count), sorted_band.shape)
    opens = np.ones(sorted_band.shape, dtype=bool)
    opens[:, 1:] = sorted_band[:, 1:] != sorted_band[:, :-1]
    closes = np.ones(sorted_band.shape, dtype=bool)
    closes[:, :-1] = opens[:, 1:]
    first = np.maximum.accumulate(np.where(opens, col, 0), axis=1)
    last = np.minimum.accumulate(
        np.where(closes, col, count - 1)[:, ::-1], axis=1
    )[:, ::-1]

    cum = np.cumsum(sorted_area, axis=1)
    base = np.where(
        first > 0, np.take_along_axis(cum, np.maximum(first - 1, 0), axis=1), 0.0
    )
    total = np.take_along_axis(cum, last, axis=1) - base
    centred = (cum - base) - sorted_area * 0.5
    equalized = lo + centred / total * span
    moved = sorted_primary + strength * (equalized - sorted_primary)
    # Bands with no area keep their cells where they are.
    row = np.arange(batch)[:, None]
    out[row, sorted_ids] = np.where(total <= 0, sorted_primary, moved)
