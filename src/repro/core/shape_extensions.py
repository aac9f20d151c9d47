"""Non-rectangular cluster shapes (the paper's future work).

The conclusion of the paper lists "the effects of different cluster
shapes (L-shaped, diamond, circle, etc.) on placement" as ongoing
research.  This module implements the L-shaped variant on top of the
existing V-P&R framework: an L-shaped virtual die is realised as the
bounding rectangle with one corner blocked by a fixed dummy macro, so
the same placer/router evaluate it without modification, and the same
Total Cost (Eqs. 4-5) ranks it against the rectangular candidates.

``sweep_with_lshapes`` extends a cluster's 20-candidate sweep with
L-shaped variants and reports whether any L-shape beats the best
rectangle — the experiment behind the extension bench
(benchmarks/bench_ext_lshape.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.shapes import ShapeCandidate
from repro.core.vpr import (
    CandidateEvaluation,
    VPRFramework,
    _configure_virtual_die,
)
from repro.netlist.design import Design, MasterCell
from repro.place.placer import GlobalPlacer, PlacerConfig
from repro.place.problem import PlacementProblem
from repro.place.hpwl import net_hpwl
from repro.route.gcell import GCellGrid
from repro.route.global_route import GlobalRouter

#: Corner the L-shape cuts out.
CORNERS = ("ne", "nw", "se", "sw")


@dataclass(frozen=True)
class LShapeCandidate:
    """An L-shaped cluster die.

    The shape is the ``aspect_ratio``/``utilization`` bounding rectangle
    with a ``notch_fraction`` x ``notch_fraction`` corner removed; the
    bounding box is inflated so the usable area still realises the
    requested utilization.

    Attributes:
        aspect_ratio: Height / width of the bounding rectangle.
        utilization: Cell area / usable (non-notched) area.
        notch_fraction: Side fraction of the removed corner square
            (0.5 removes a quarter of the bounding box).
        corner: Which corner is removed ("ne", "nw", "se", "sw").
    """

    aspect_ratio: float
    utilization: float
    notch_fraction: float = 0.5
    corner: str = "ne"

    def bounding_dimensions(self, cell_area: float) -> Tuple[float, float]:
        """Bounding-rectangle (width, height) for a cell area."""
        usable_fraction = 1.0 - self.notch_fraction**2
        footprint = cell_area / (self.utilization * usable_fraction)
        width = math.sqrt(footprint / self.aspect_ratio)
        return width, footprint / width

    def notch_rect(
        self, width: float, height: float, margin: float
    ) -> Tuple[float, float, float, float]:
        """Blocked rectangle (llx, lly, urx, ury) in die coordinates."""
        nw = self.notch_fraction * width
        nh = self.notch_fraction * height
        if self.corner == "ne":
            return margin + width - nw, margin + height - nh, margin + width, margin + height
        if self.corner == "nw":
            return margin, margin + height - nh, margin + nw, margin + height
        if self.corner == "se":
            return margin + width - nw, margin, margin + width, margin + nh
        if self.corner == "sw":
            return margin, margin, margin + nw, margin + nh
        raise ValueError(f"unknown corner {self.corner!r}")

    def __str__(self) -> str:
        return (
            f"L({self.corner})/AR={self.aspect_ratio:.2f}"
            f"/U={self.utilization:.2f}/n={self.notch_fraction:.2f}"
        )


def default_lshape_candidates(
    notch_fraction: float = 0.5,
) -> List[LShapeCandidate]:
    """A modest L-shape grid: square-ish bounding boxes, all corners."""
    out = []
    for ar in (0.75, 1.0, 1.5):
        for util in (0.80, 0.90):
            for corner in CORNERS:
                out.append(
                    LShapeCandidate(
                        aspect_ratio=ar,
                        utilization=util,
                        notch_fraction=notch_fraction,
                        corner=corner,
                    )
                )
    return out


class LShapeVPRFramework(VPRFramework):
    """V-P&R extended with L-shaped candidates.

    Rectangular candidates are evaluated by the base framework;
    L-shaped candidates block the notch with a fixed dummy macro so the
    placer's density spreading and the router's congestion both see the
    unusable corner.
    """

    def evaluate_lshape(
        self, sub: Design, cell_area: float, candidate: LShapeCandidate
    ) -> CandidateEvaluation:
        """Place + route the sub-netlist on an L-shaped virtual die."""
        config = self.config
        width, height = candidate.bounding_dimensions(max(cell_area, 1e-6))
        rect_equiv = ShapeCandidate(
            aspect_ratio=height / width,
            utilization=cell_area / (width * height),
        )
        _configure_virtual_die(sub, cell_area, rect_equiv, config.die_margin)

        # Block the notch with a fixed dummy macro.
        llx, lly, urx, ury = candidate.notch_rect(
            width, height, config.die_margin
        )
        blockage_master = MasterCell(
            name="__lshape_blockage__",
            width=urx - llx,
            height=ury - lly,
            is_macro=True,
            cell_class="macro",
        )
        sub.masters.pop("__lshape_blockage__", None)
        if sub.has_instance("__lshape_blockage__"):
            raise RuntimeError("blockage already present")  # pragma: no cover
        blockage = sub.add_instance("__lshape_blockage__", blockage_master)
        blockage.x = 0.5 * (llx + urx)
        blockage.y = 0.5 * (lly + ury)
        blockage.fixed = True
        try:
            problem = PlacementProblem(sub)
            GlobalPlacer(
                problem,
                PlacerConfig(
                    max_iterations=config.placer_iterations,
                    min_iterations=2,
                    target_overflow=0.15,
                    seed=config.seed,
                ),
            ).run()
            grid = GCellGrid.for_floorplan(
                sub.floorplan, target_cells=config.route_target_cells
            )
            routing = GlobalRouter(sub, grid=grid).run()
            nets = [n for n in sub.nets if n.degree >= 2]
            hpwl_avg = (
                sum(net_hpwl(sub, n) for n in nets) / len(nets) if nets else 0.0
            )
            fp = sub.floorplan
            hpwl_cost = hpwl_avg / max(fp.core_width + fp.core_height, 1e-9)
            congestion_cost = routing.top_percent_congestion(
                config.top_x_percent
            )
        finally:
            # Remove the blockage so the sub-netlist can be reused.
            sub.instances.remove(blockage)
            for i, inst in enumerate(sub.instances):
                inst.index = i
            sub._instance_by_name.pop("__lshape_blockage__", None)
            sub.masters.pop("__lshape_blockage__", None)
        return CandidateEvaluation(
            candidate=rect_equiv,  # bounding-box equivalent for records
            hpwl_cost=hpwl_cost,
            congestion_cost=congestion_cost,
        )

    def sweep_with_lshapes(
        self,
        source: Design,
        member_indices: Sequence[int],
        lshape_candidates: Optional[Sequence[LShapeCandidate]] = None,
    ) -> dict:
        """Sweep rectangles + L-shapes; returns the comparison record.

        Returns a dict with the best rectangular and L-shaped Total
        Costs and whether an L-shape wins (the extension study's
        question).
        """
        sub, cell_area = self.induce(source, member_indices)
        delta = self.config.delta

        rect_evals = self.evaluate_candidates(sub, cell_area, self.config.candidates)
        best_rect = min(rect_evals, key=lambda e: e.total(delta))

        lshapes = list(lshape_candidates or default_lshape_candidates())
        lshape_results = []
        for candidate in lshapes:
            evaluation = self.evaluate_lshape(sub, cell_area, candidate)
            lshape_results.append((candidate, evaluation))
        best_l = min(lshape_results, key=lambda ce: ce[1].total(delta))

        return {
            "best_rect_cost": best_rect.total(delta),
            "best_rect": best_rect.candidate,
            "best_lshape_cost": best_l[1].total(delta),
            "best_lshape": best_l[0],
            "lshape_wins": best_l[1].total(delta) < best_rect.total(delta),
            "num_rect": len(rect_evals),
            "num_lshape": len(lshape_results),
        }
