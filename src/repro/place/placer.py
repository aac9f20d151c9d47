"""The global placer: B2B quadratic solves + density spreading.

Supports the three modes Algorithm 1 needs:

* full global placement (the "default flow" baseline),
* seeded + incremental placement (instances pre-seeded at their cluster
  centres, anchored to the seed, few refinement iterations),
* region-constrained placement (Innovus mode).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import monitor, telemetry
from repro.place.b2b import b2b_edges, solve_axis
from repro.place.hpwl import hpwl_arrays
from repro.place.problem import CoreBox, PlacementBatch, PlacementProblem
from repro.place.regions import RegionConstraint, clamp_regions
from repro.place.spreading import DensityGrid, spread_displacement, spreading_targets


@dataclass
class PlacerConfig:
    """Placer knobs.

    Attributes:
        max_iterations: Upper bound on solve/spread rounds.
        min_iterations: Rounds run before the overflow exit can fire.
        target_overflow: Stop once bin overflow falls below this.
        target_density: Bin density ceiling used by the overflow metric.
        anchor_base: Initial pseudo-net anchor weight.
        anchor_growth: Multiplicative anchor ramp per iteration.
        spread_strength: Damping of the per-round spreading move.
        incremental: Start from the problem's current coordinates and
            anchor to them instead of running from scratch.
        incremental_anchor: Seed anchor weight in incremental mode.
        seed_decay: Per-iteration decay of the seed anchor.
        region_iterations: Enforce region constraints only for this
            many leading iterations (None = all iterations).  The
            Innovus-mode flow steers the early incremental rounds with
            the cluster regions, then releases them (Algorithm 1,
            line 20) so density resolution is unconstrained.
        soft_regions: Apply regions by clamping the anchor *targets*
            into the region (a soft spring toward the region interior,
            approximating how commercial placers treat region guides)
            instead of hard-clamping positions after every solve.
        telemetry: Prefix of the QoR streams this run emits per
            iteration (``<prefix>.hpwl``, ``<prefix>.overflow``,
            ``<prefix>.spread_move``) when :mod:`repro.telemetry` is
            enabled.  None mutes the run — the V-P&R engine mutes its
            hundreds of virtual-die placements so the flow-level
            ``gp.*`` convergence streams stay clean.
        seed: RNG seed for the initial jitter.
    """

    max_iterations: int = 44
    min_iterations: int = 6
    target_overflow: float = 0.08
    target_density: float = 1.0
    anchor_base: float = 2e-4
    anchor_growth: float = 1.30
    spread_strength: float = 0.8
    incremental: bool = False
    incremental_iterations: int = 18
    incremental_anchor: float = 2e-3
    incremental_growth: float = 1.5
    seed_decay: float = 0.6
    region_iterations: Optional[int] = None
    soft_regions: bool = True
    telemetry: Optional[str] = "gp"
    seed: int = 0


@dataclass
class PlacementResult:
    """Outcome of one placement run.

    Attributes:
        hpwl: Final unweighted HPWL (microns).
        iterations: Rounds executed.
        overflow: Final bin overflow.
        runtime: Wall-clock seconds.
        hpwl_trace: HPWL after every round (for convergence tests).
    """

    hpwl: float
    iterations: int
    overflow: float
    runtime: float
    hpwl_trace: List[float] = field(default_factory=list)


class GlobalPlacer:
    """Analytical global placer over a :class:`PlacementProblem`.

    The placer advances a :class:`PlacementBatch` — ``B`` placements of
    the problem's netlist, each on its own die — in lockstep: every
    round solves one stacked B2B system per axis and spreads all rows
    at once.  A row leaves the loop on its own convergence test and is
    frozen while the others continue, so each row's result is the one a
    batch of one reaches.  ``GlobalPlacer(problem)`` places the problem
    as a batch of one; the V-P&R sweep passes a batch of virtual dies.
    """

    def __init__(
        self,
        problem: PlacementProblem,
        config: Optional[PlacerConfig] = None,
        regions: Optional[Sequence[RegionConstraint]] = None,
        batch: Optional[PlacementBatch] = None,
    ) -> None:
        self.problem = problem
        self.config = config or PlacerConfig()
        self.regions = list(regions or [])
        self.batch = batch if batch is not None else PlacementBatch.of(problem)
        if len(self.batch) > 1 and self.config.telemetry is not None:
            raise ValueError(
                "a batched placement has no single convergence stream; "
                "mute it with PlacerConfig(telemetry=None)"
            )
        self.grid = DensityGrid.for_problem(
            self.batch.floorplans, int(problem.movable.sum())
        )

    # ------------------------------------------------------------------
    def _initialize(self) -> None:
        """Start all movables near the core centre with tiny jitter.

        Each row draws from its own generator seeded like a batch of
        one, so a row's start does not depend on its batch.
        """
        batch = self.batch
        mask = self.problem.movable
        n = int(mask.sum())
        for row, fp in enumerate(batch.floorplans):
            rng = np.random.default_rng(self.config.seed)
            cx = 0.5 * (fp.core_llx + fp.core_urx)
            cy = 0.5 * (fp.core_lly + fp.core_ury)
            x, y = batch.x[row], batch.y[row]
            x[mask] = cx + rng.normal(0.0, 0.02 * fp.core_width, n)
            y[mask] = cy + rng.normal(0.0, 0.02 * fp.core_height, n)
            # Seed region members inside their regions.
            for region in self.regions:
                ids = np.asarray(region.vertex_ids, dtype=np.int64)
                if len(ids) == 0:
                    continue
                rcx, rcy = region.center
                x[ids] = rcx + rng.normal(0.0, 0.1 * max(region.width, 1e-3), len(ids))
                y[ids] = rcy + rng.normal(0.0, 0.1 * max(region.height, 1e-3), len(ids))
        self._clip(batch.x, batch.y, self.grid.box)

    def _clip(self, x: np.ndarray, y: np.ndarray, box: CoreBox) -> None:
        """Clamp movable vertices of ``(rows, n)`` coordinates into
        their rows' core boxes, in place."""
        mask = self.problem.movable
        x[:, mask] = np.clip(x[:, mask], box.llx, box.urx)
        y[:, mask] = np.clip(y[:, mask], box.lly, box.ury)

    def _solve_round(
        self,
        x: np.ndarray,
        y: np.ndarray,
        box: CoreBox,
        anchor_x: Optional[np.ndarray],
        anchor_y: Optional[np.ndarray],
        anchor_w: Optional[np.ndarray],
        apply_regions: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One x/y pair of stacked B2B linearized quadratic solves over
        ``(rows, n)`` coordinates; returns the new coordinates."""
        problem = self.problem
        ux, vx, wx = b2b_edges(
            problem.pin_vertex, problem.net_offsets, problem.net_weights, x
        )
        x = solve_axis(ux, vx, wx, x, problem.fixed, anchor_x, anchor_w)
        uy, vy, wy = b2b_edges(
            problem.pin_vertex, problem.net_offsets, problem.net_weights, y
        )
        y = solve_axis(uy, vy, wy, y, problem.fixed, anchor_y, anchor_w)
        self._clip(x, y, box)
        if apply_regions:
            clamp_regions(self.regions, x, y)
        return x, y

    def _hpwl(self, row: int) -> float:
        problem = self.problem
        return hpwl_arrays(
            problem.pin_vertex,
            problem.net_offsets,
            self.batch.x[row],
            self.batch.y[row],
        )

    # ------------------------------------------------------------------
    def run(self) -> PlacementResult:
        """Place a batch of one; commits coordinates to the design."""
        if len(self.batch) != 1:
            raise ValueError(
                f"run() places one die; this batch has {len(self.batch)} "
                "rows, use run_batch()"
            )
        start = time.perf_counter()
        (result,) = self.run_batch()
        problem = self.problem
        problem.x = self.batch.x[0]
        problem.y = self.batch.y[0]
        problem.commit()
        result.runtime = time.perf_counter() - start
        return result

    def run_batch(self) -> List[PlacementResult]:
        """Run global placement on every row of the batch.

        Final coordinates are left in ``self.batch``; nothing is
        written to the design.  Returns one result per row.
        """
        start = time.perf_counter()
        problem = self.problem
        config = self.config
        mode = "incremental" if config.incremental else "full"

        # Progress mirrors the QoR-stream muting: the V-P&R engine's
        # virtual-die placements (telemetry=None) stay invisible; only
        # the flow-level gp/gp.cluster runs report.  Rounds count the
        # initial solve plus the bounded loop; an early convergence
        # exit clamps the total on complete().
        if config.telemetry is not None:
            bound = (
                config.incremental_iterations
                if config.incremental
                else config.max_iterations
            )
            monitor.start_task(
                f"{config.telemetry}.iters", bound + 1, unit="rounds"
            )
        try:
            with telemetry.span(
                "place.global",
                mode=mode,
                movable=int(problem.movable.sum()),
            ):
                if config.incremental:
                    results = self._run_incremental()
                else:
                    results = self._run_full()
        finally:
            if config.telemetry is not None:
                monitor.complete(f"{config.telemetry}.iters")

        if config.telemetry is not None:
            (result,) = results
            converged = result.overflow < config.target_overflow
            telemetry.event(
                "placement.converged" if converged else "placement.diverged",
                mode=mode,
                iterations=result.iterations,
                overflow=result.overflow,
                hpwl=result.hpwl,
            )
        runtime = time.perf_counter() - start
        for result in results:
            result.runtime = runtime
        return results

    def _telemetry_on(self) -> bool:
        return self.config.telemetry is not None and telemetry.is_enabled()

    def _observe_round(
        self,
        iteration: int,
        hpwl_value: float,
        overflow: Optional[float],
        spread_move: Optional[float],
    ) -> None:
        """Emit one iteration's QoR stream points (muted when
        ``config.telemetry`` is None or telemetry is disabled)."""
        prefix = self.config.telemetry
        if prefix is not None:
            monitor.set_done(f"{prefix}.iters", iteration + 1)
        if not self._telemetry_on():
            return
        telemetry.observe(f"{prefix}.hpwl", hpwl_value, step=iteration)
        if overflow is not None:
            telemetry.observe(f"{prefix}.overflow", overflow, step=iteration)
        if spread_move is not None:
            telemetry.observe(f"{prefix}.spread_move", spread_move, step=iteration)

    def _spread(
        self, rows: np.ndarray, grid: DensityGrid
    ) -> Tuple[np.ndarray, np.ndarray, Optional[float]]:
        """Spreading targets of the live rows (and, for a traced batch
        of one, the mean move they ask for)."""
        problem = self.problem
        x, y = self.batch.x[rows], self.batch.y[rows]
        target_x, target_y = spreading_targets(
            grid, x, y, problem.areas, problem.movable,
            strength=self.config.spread_strength,
        )
        spread_move = (
            spread_displacement(
                target_x[0], target_y[0], x[0], y[0], problem.movable
            )
            if self._telemetry_on()
            else None
        )
        return target_x, target_y, spread_move

    def _finish_round(
        self,
        rows: np.ndarray,
        grid: DensityGrid,
        iteration: int,
        min_iterations: int,
        traces: List[List[float]],
        results: List[PlacementResult],
        spread_move: Optional[float],
    ) -> Tuple[np.ndarray, DensityGrid]:
        """Record the round's HPWL, overflow and result per live row;
        returns the rows that have not yet converged and their grid."""
        problem = self.problem
        config = self.config
        overflow = grid.overflow(
            self.batch.x[rows],
            self.batch.y[rows],
            problem.areas,
            problem.movable,
            config.target_density,
        )
        for row, row_overflow in zip(rows, overflow):
            traces[row].append(self._hpwl(row))
            results[row] = self._result(traces[row], iteration, row_overflow)
        self._observe_round(
            iteration, traces[rows[0]][-1], float(overflow[0]), spread_move
        )
        going = ~((overflow < config.target_overflow) & (iteration >= min_iterations))
        if going.all():
            return rows, grid
        return rows[going], grid.rows(np.nonzero(going)[0])

    @staticmethod
    def _result(
        trace: List[float], iteration: int, overflow: float
    ) -> PlacementResult:
        return PlacementResult(
            hpwl=trace[-1],
            iterations=iteration,
            overflow=float(overflow),
            runtime=0.0,
            hpwl_trace=trace,
        )

    def _run_full(self) -> List[PlacementResult]:
        config = self.config
        batch = self.batch
        size = len(batch)
        self._initialize()

        # Round 0: pure wirelength solve (no anchors).
        batch.x, batch.y = self._solve_round(
            batch.x, batch.y, self.grid.box, None, None, None
        )
        traces = [[self._hpwl(row)] for row in range(size)]
        self._observe_round(0, traces[0][0], None, None)
        results = [self._result(trace, 0, 1.0) for trace in traces]
        rows, grid = np.arange(size), self.grid
        anchor_w_scalar = config.anchor_base
        for iteration in range(1, config.max_iterations + 1):
            target_x, target_y, spread_move = self._spread(rows, grid)
            weights = np.full(self.problem.num_vertices, anchor_w_scalar)
            batch.x[rows], batch.y[rows] = self._solve_round(
                batch.x[rows], batch.y[rows], grid.box, target_x, target_y, weights
            )
            rows, grid = self._finish_round(
                rows, grid, iteration, config.min_iterations, traces, results,
                spread_move,
            )
            if len(rows) == 0:
                break
            anchor_w_scalar *= config.anchor_growth
        return results

    def _run_incremental(self) -> List[PlacementResult]:
        """Refine from the batch's current (seeded) coordinates.

        Same solve/spread loop as the full run, but (i) the initial
        free solve is skipped (the seed already encodes the global
        structure), (ii) a decaying anchor to the seed positions keeps
        that structure while density resolves, and (iii) the spreading
        anchor starts strong so the run converges to the same overflow
        target in fewer rounds than a from-scratch placement.
        """
        config = self.config
        batch = self.batch
        size = len(batch)
        self._clip(batch.x, batch.y, self.grid.box)
        clamp_regions(self.regions, batch.x, batch.y)
        seed_x = batch.x.copy()
        seed_y = batch.y.copy()
        seed_w = config.incremental_anchor

        traces = [[self._hpwl(row)] for row in range(size)]
        self._observe_round(0, traces[0][0], None, None)
        results = [self._result(trace, 0, 1.0) for trace in traces]
        rows, grid = np.arange(size), self.grid
        anchor_w_scalar = config.anchor_base * 32
        for iteration in range(1, config.incremental_iterations + 1):
            target_x, target_y, spread_move = self._spread(rows, grid)
            # Blend the (decaying) seed anchor with the (growing)
            # spreading anchor.
            total_w = anchor_w_scalar + seed_w
            blend = anchor_w_scalar / total_w
            anchor_x = blend * target_x + (1 - blend) * seed_x[rows]
            anchor_y = blend * target_y + (1 - blend) * seed_y[rows]
            weights = np.full(self.problem.num_vertices, total_w)
            regions_active = (
                config.region_iterations is None
                or iteration <= config.region_iterations
            )
            if regions_active and config.soft_regions:
                clamp_regions(self.regions, anchor_x, anchor_y)
            batch.x[rows], batch.y[rows] = self._solve_round(
                batch.x[rows],
                batch.y[rows],
                grid.box,
                anchor_x,
                anchor_y,
                weights,
                apply_regions=regions_active and not config.soft_regions,
            )
            rows, grid = self._finish_round(
                rows, grid, iteration, 2, traces, results, spread_move
            )
            if len(rows) == 0:
                break
            anchor_w_scalar *= config.incremental_growth
            seed_w *= config.seed_decay
        return results
