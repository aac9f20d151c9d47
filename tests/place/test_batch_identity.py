"""A stacked batch is B independent placements, bit for bit.

Every batched placement kernel must give each row exactly what that
row gets as a batch of one: the stacked B2B solve (including a
zero-RHS row and a row that starts converged), batched spreading and
overflow, and the lockstep placer with rows that converge at
different rounds.
"""

import numpy as np
import pytest

from repro import perf
from repro.netlist.design import Floorplan
from repro.place import GlobalPlacer, PlacementProblem, PlacerConfig
from repro.place.b2b import b2b_edges, solve_axis
from repro.place.problem import PlacementBatch
from repro.place.spreading import DensityGrid, spreading_targets


@pytest.fixture(autouse=True)
def _clean_registry():
    perf.disable()
    perf.reset()
    yield
    perf.disable()
    perf.reset()


def _netlist(rng, n_movable=60, n_fixed=8, n_nets=90):
    """Random nets over movable vertices then fixed (port) vertices."""
    n = n_movable + n_fixed
    pins, offsets = [], [0]
    for _ in range(n_nets):
        degree = int(rng.integers(2, 6))
        pins.extend(rng.choice(n, size=degree, replace=False))
        offsets.append(len(pins))
    fixed = np.zeros(n, dtype=bool)
    fixed[n_movable:] = True
    return (
        np.asarray(pins, dtype=np.int64),
        np.asarray(offsets, dtype=np.int64),
        rng.uniform(0.5, 2.0, n_nets),
        fixed,
    )


def _solve_counted(*args, **kwargs):
    perf.enable()
    perf.reset()
    out = solve_axis(*args, **kwargs)
    counts = (perf.counter_value("b2b.solves"), perf.counter_value("b2b.cg_iterations"))
    perf.disable()
    return out, counts


class TestStackedSolve:
    @pytest.mark.parametrize("anchored", [False, True])
    def test_rows_equal_single_solves(self, anchored):
        rng = np.random.default_rng(5)
        pins, offsets, weights, fixed = _netlist(rng)
        n = len(fixed)
        coords = rng.uniform(0, 50, (4, n))
        targets = rng.uniform(0, 50, coords.shape) if anchored else None
        anchor_w = np.full(n, 3e-3) if anchored else None

        u, v, w = b2b_edges(pins, offsets, weights, coords)
        stacked, counts = _solve_counted(u, v, w, coords, fixed, targets, anchor_w)
        total = np.zeros(2, dtype=np.int64)
        for b, row in enumerate(coords):
            ub, vb, wb = b2b_edges(pins, offsets, weights, row)
            alone, single = _solve_counted(
                ub, vb, wb, row, fixed,
                None if targets is None else targets[b], anchor_w,
            )
            assert stacked[b].tobytes() == alone.tobytes(), b
            total += single
        assert counts == tuple(total)

    def test_zero_rhs_and_converged_rows(self):
        rng = np.random.default_rng(9)
        pins, offsets, weights, fixed = _netlist(rng, n_movable=30, n_fixed=4)
        n = len(fixed)
        live = rng.uniform(0, 40, n)
        u, v, w = b2b_edges(pins, offsets, weights, live)
        solved, (_, iterations) = _solve_counted(u, v, w, live, fixed)
        restarted, (_, no_iterations) = _solve_counted(u, v, w, solved, fixed)
        assert iterations > 0 and no_iterations == 0
        # Fixed vertices at 0 and no anchors: a zero right-hand side.
        zero = np.where(fixed, 0.0, live)

        # One system per row: row 1 starts at row 0's solution, so it
        # has converged at iteration 0; row 2 has a zero RHS.
        coords = np.stack([live, solved, zero])
        out, counts = _solve_counted(
            np.concatenate([u + b * n for b in range(3)]),
            np.concatenate([v + b * n for b in range(3)]),
            np.concatenate([w, w, w]),
            coords,
            fixed,
        )
        assert out[0].tobytes() == solved.tobytes()
        assert out[1].tobytes() == restarted.tobytes()
        assert not out[2][~fixed].any()
        # The zero-RHS row is not a solve; the converged row adds none
        # of its own iterations.
        assert counts == (2, iterations)


class TestBatchedSpreading:
    def test_targets_and_overflow_per_row(self):
        rng = np.random.default_rng(2)
        floorplans = [
            Floorplan(die_width=w, die_height=h, core_margin=1.0)
            for w, h in ((40, 30), (25, 50), (33, 33))
        ]
        n = 200
        movable = rng.random(n) > 0.1
        areas = rng.uniform(0.5, 3.0, n)
        areas[rng.random(n) < 0.05] = 0.0
        x = np.stack([rng.uniform(0, fp.die_width, n) for fp in floorplans])
        y = np.stack([rng.uniform(0, fp.die_height, n) for fp in floorplans])
        grid = DensityGrid.for_problem(floorplans, int(movable.sum()))
        tx, ty = spreading_targets(grid, x, y, areas, movable, strength=0.8)
        overflow = grid.overflow(x, y, areas, movable, 1.0)
        for b, fp in enumerate(floorplans):
            alone = DensityGrid.for_problem(fp, int(movable.sum()))
            sx, sy = spreading_targets(alone, x[b], y[b], areas, movable, strength=0.8)
            assert tx[b].tobytes() == sx.tobytes()
            assert ty[b].tobytes() == sy.tobytes()
            assert overflow[b] == alone.overflow(x[b], y[b], areas, movable, 1.0)


def _batch_placer(problem, floorplans, config):
    xs, ys = [], []
    for fp in floorplans:
        problem.design.floorplan = fp
        xs.append(problem.x.copy())
        ys.append(problem.y.copy())
    batch = PlacementBatch(floorplans, xs, ys)
    return GlobalPlacer(problem, config, batch=batch), batch


class TestLockstepPlacer:
    @pytest.mark.parametrize("incremental", [False, True])
    def test_rows_equal_batches_of_one(self, small_design_fresh, incremental):
        design = small_design_fresh
        base = design.floorplan
        # Larger dies spread sooner, so the rows converge apart.
        floorplans = [
            Floorplan(
                die_width=base.die_width * s,
                die_height=base.die_height * s,
                core_margin=base.core_margin,
            )
            for s in (1.0, 1.5, 2.0, 3.0)
        ]
        config = PlacerConfig(
            max_iterations=12,
            min_iterations=2,
            target_overflow=0.3,
            anchor_base=2e-3,
            incremental=incremental,
            incremental_iterations=8,
            telemetry=None,
            seed=4,
        )
        problem = PlacementProblem(design)
        if incremental:
            GlobalPlacer(problem, PlacerConfig(max_iterations=4, telemetry=None)).run()
        placer, batch = _batch_placer(problem, floorplans, config)
        results = placer.run_batch()
        iterations = set()
        for b, fp in enumerate(floorplans):
            single, alone = _batch_placer(problem, [fp], config)
            (result,) = single.run_batch()
            assert batch.x[b].tobytes() == alone.x[0].tobytes(), b
            assert batch.y[b].tobytes() == alone.y[0].tobytes(), b
            assert results[b].hpwl_trace == result.hpwl_trace
            assert results[b].overflow == result.overflow
            assert results[b].iterations == result.iterations
            iterations.add(result.iterations)
        # The rows left the lockstep loop at different rounds.
        assert len(iterations) > 1

    def test_batch_must_be_muted(self, small_design_fresh):
        problem = PlacementProblem(small_design_fresh)
        fp = small_design_fresh.floorplan
        with pytest.raises(ValueError, match="telemetry=None"):
            _batch_placer(problem, [fp, fp], PlacerConfig())

    def test_run_places_one_die(self, small_design_fresh):
        problem = PlacementProblem(small_design_fresh)
        fp = small_design_fresh.floorplan
        placer, _ = _batch_placer(problem, [fp, fp], PlacerConfig(telemetry=None))
        with pytest.raises(ValueError, match="run_batch"):
            placer.run()
