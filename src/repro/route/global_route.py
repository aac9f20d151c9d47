"""Congestion-aware pattern global routing.

Each net's Steiner tree edges are routed as L-shapes; of the two L
orientations the router keeps the one crossing less-congested GCells
(sequential net ordering, long nets first, which approximates one
rip-up-and-reroute pass).  Outputs per-net routed lengths — inflated by
a congestion detour factor — plus the grid statistics the V-P&R
Congestion Cost uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.netlist.design import Design, Net
from repro.route.gcell import GCellDemand, GCellGrid
from repro.route.steiner import rsmt

#: Wirelength penalty per unit of average overflow along a net's route.
DETOUR_FACTOR = 0.3


@dataclass
class RoutingResult:
    """Outcome of global routing.

    Attributes:
        routed_wirelength: Total routed wire length (microns).
        net_lengths: Net index -> routed length (microns).
        grid: The GCell grid with final usage.
        overflow_fraction: Fraction of over-capacity GCells.
        max_congestion: Peak GCell congestion ratio.
    """

    routed_wirelength: float
    net_lengths: Dict[int, float] = field(default_factory=dict)
    grid: Optional[GCellGrid] = None
    overflow_fraction: float = 0.0
    max_congestion: float = 0.0

    def top_percent_congestion(self, percent: float = 10.0) -> float:
        """Congestion Cost numerator (Eq. 5)."""
        if self.grid is None:
            return 0.0
        return self.grid.top_percent_congestion(percent)


class GlobalRouter:
    """Routes a placed design over a GCell grid."""

    def __init__(
        self,
        design: Design,
        grid: Optional[GCellGrid] = None,
        include_clock: bool = False,
        telemetry_prefix: Optional[str] = "route",
    ) -> None:
        self.design = design
        self.grid = grid or GCellGrid.for_floorplan(design.floorplan)
        self.include_clock = include_clock
        #: Stream prefix of the QoR observations this run emits
        #: (``<prefix>.overflow``, ``<prefix>.max_congestion``); None
        #: mutes them — the V-P&R engine mutes its virtual-die routes
        #: so the flow-level congestion streams stay clean.
        self.telemetry_prefix = telemetry_prefix

    # ------------------------------------------------------------------
    def _net_points_reference(self, net: Net) -> List[Tuple[float, float]]:
        """Distinct pin locations of a net, driver first.

        Reference implementation of the pin gather: the hot path in
        :meth:`_run` computes the same points through the design's
        cached CSR pin arrays in one vectorized gather (mirroring the
        ``_fc_pass_reference`` pattern).  Kept for the equivalence test
        in ``tests/route/test_global_route.py``; not called by the
        router itself.
        """
        points: List[Tuple[float, float]] = []
        seen = set()
        for ref in net.pins():
            if ref.instance is not None:
                point = (ref.instance.x, ref.instance.y)
            else:
                port = self.design.ports[ref.pin_name]
                point = (port.x, port.y)
            key = (round(point[0], 3), round(point[1], 3))
            if key not in seen:
                seen.add(key)
                points.append(point)
        return points

    def _route_edge(
        self, demand: GCellDemand, ax: int, ay: int, bx: int, by: int
    ) -> float:
        """Route one tree edge as the less-congested L; returns max
        congestion ratio encountered along the chosen pattern.

        Endpoints arrive as GCell indices: :meth:`run` converts all
        tree points to cells in one vectorized pass rather than two
        ``cell_of`` calls (two ``np.clip``/``int`` round-trips) per
        edge, which dominated router wall-clock on virtual dies.
        """
        if ax == bx and ay == by:
            return 0.0
        if ax == bx:
            congestion = demand.segment_congestion(False, ax, ay, by)
            demand.add_vertical(ax, ay, by)
            return congestion
        if ay == by:
            congestion = demand.segment_congestion(True, ay, ax, bx)
            demand.add_horizontal(ay, ax, bx)
            return congestion
        # Two L patterns: horizontal-first at ay, or vertical-first at ax.
        cong_l1 = max(
            demand.segment_congestion(True, ay, ax, bx),
            demand.segment_congestion(False, bx, ay, by),
        )
        cong_l2 = max(
            demand.segment_congestion(False, ax, ay, by),
            demand.segment_congestion(True, by, ax, bx),
        )
        if cong_l1 <= cong_l2:
            demand.add_horizontal(ay, ax, bx)
            demand.add_vertical(bx, ay, by)
            return cong_l1
        demand.add_vertical(ax, ay, by)
        demand.add_horizontal(by, ax, bx)
        return cong_l2

    # ------------------------------------------------------------------
    def run(self) -> RoutingResult:
        """Route all signal nets; returns the routing result.

        Pin gathering goes through the design's cached CSR pin arrays
        (shared with :func:`repro.place.hpwl.hpwl`): one fancy-indexed
        coordinate gather per net instead of per-pin attribute walks.
        The dedup key (coordinates rounded to 1nm) and pin order
        (driver first) match :meth:`_net_points_reference` exactly.
        """
        with telemetry.span(
            "route.global",
            design=self.design.name,
            gcells=self.grid.nx * self.grid.ny,
        ):
            result = self._run()
        prefix = self.telemetry_prefix
        if prefix is not None:
            telemetry.observe(f"{prefix}.overflow", result.overflow_fraction)
            telemetry.observe(f"{prefix}.max_congestion", result.max_congestion)
            telemetry.observe(f"{prefix}.wirelength", result.routed_wirelength)
        return result

    def _run(self) -> RoutingResult:
        # Deferred: repro.place's package init imports this module.
        from repro.place.hpwl import _net_arrays

        arrays = _net_arrays(self.design, self.include_clock)
        vx, vy = arrays.coordinates(self.design)
        all_px = vx[arrays.pin_vertex].tolist()
        all_py = vy[arrays.pin_vertex].tolist()
        offsets = arrays.net_offsets.tolist()
        nets = []
        degenerate: List[int] = []
        for i, net in enumerate(arrays.net_list):
            points: List[Tuple[float, float]] = []
            seen = set()
            for pin in range(offsets[i], offsets[i + 1]):
                x_coord = all_px[pin]
                y_coord = all_py[pin]
                key = (round(x_coord, 3), round(y_coord, 3))
                if key not in seen:
                    seen.add(key)
                    points.append((x_coord, y_coord))
            if len(points) < 2:
                # Every pin collapses onto one routing point: the net
                # is degenerate — zero routed length, no grid demand.
                degenerate.append(net.index)
                continue
            tree = rsmt(points)
            nets.append((net, tree))
        # Longest nets first: they have the least routing flexibility.
        nets.sort(key=lambda item: -item[1].length)

        # One vectorized point -> GCell conversion for every tree point
        # (same clip-then-truncate arithmetic as GCellGrid.cell_of).
        grid = self.grid
        all_points = [p for _, tree in nets for p in tree.points]
        if all_points:
            coords = np.asarray(all_points)
            cell_x = np.clip(
                coords[:, 0] / grid.cell_width, 0, grid.nx - 1
            ).astype(np.int64)
            cell_y = np.clip(
                coords[:, 1] / grid.cell_height, 0, grid.ny - 1
            ).astype(np.int64)
        else:
            cell_x = cell_y = np.zeros(0, dtype=np.int64)

        net_lengths: Dict[int, float] = {idx: 0.0 for idx in degenerate}
        total = 0.0
        base = 0
        demand = GCellDemand(grid)
        cell_x = cell_x.tolist()
        cell_y = cell_y.tolist()
        for net, tree in nets:
            worst = 0.0
            for i, j in tree.edges:
                congestion = self._route_edge(
                    demand,
                    cell_x[base + i],
                    cell_y[base + i],
                    cell_x[base + j],
                    cell_y[base + j],
                )
                worst = max(worst, congestion)
            base += len(tree.points)
            detour = 1.0 + DETOUR_FACTOR * max(0.0, worst - 1.0)
            length = tree.length * detour
            net_lengths[net.index] = length
            total += length
        demand.write_back(grid)

        ratios = self.grid.congestion_ratios()
        return RoutingResult(
            routed_wirelength=total,
            net_lengths=net_lengths,
            grid=self.grid,
            overflow_fraction=float((ratios > 1.0).mean()),
            max_congestion=float(ratios.max(initial=0.0)),
        )
