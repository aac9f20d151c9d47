"""GCell grid, global routing and CTS tests."""

import numpy as np
import pytest

from repro.netlist.design import Floorplan
from repro.place import GlobalPlacer, PlacementProblem
from repro.place.hpwl import hpwl
from repro.route.cts import synthesize_clock_tree
from repro.route.gcell import GCellDemand, GCellGrid
from repro.route.global_route import GlobalRouter


@pytest.fixture(scope="module")
def routed_design():
    from repro.designs import DesignSpec, generate_design

    design = generate_design(
        DesignSpec("r", 500, clock_period=0.7, logic_depth=8, seed=17)
    )
    GlobalPlacer(PlacementProblem(design)).run()
    result = GlobalRouter(design).run()
    return design, result


class TestGCellGrid:
    def make(self):
        fp = Floorplan(die_width=100, die_height=50, core_margin=0)
        return GCellGrid.for_floorplan(fp, target_cells=200)

    def test_grid_follows_aspect(self):
        grid = self.make()
        assert grid.nx > grid.ny

    def test_cell_of_clipping(self):
        grid = self.make()
        assert grid.cell_of(-10, -10) == (0, 0)
        assert grid.cell_of(1e9, 1e9) == (grid.nx - 1, grid.ny - 1)

    def test_horizontal_demand(self):
        grid = self.make()
        demand = GCellDemand(grid)
        demand.add_horizontal(2, 1, 4)
        demand.write_back(grid)
        assert grid.h_usage[2, 1:5].sum() == pytest.approx(4.0)
        assert grid.h_usage[2, 0] == 0.0

    def test_vertical_demand(self):
        grid = self.make()
        demand = GCellDemand(grid)
        demand.add_vertical(3, 0, 2)
        demand.write_back(grid)
        assert grid.v_usage[0:3, 3].sum() == pytest.approx(3.0)

    def test_reversed_segment_normalised(self):
        grid = self.make()
        demand = GCellDemand(grid)
        demand.add_horizontal(0, 5, 2)
        demand.write_back(grid)
        assert grid.h_usage[0, 2:6].sum() == pytest.approx(4.0)

    def test_top_percent_congestion(self):
        grid = self.make()
        # One very hot cell.
        grid.h_usage[0, 0] = 100 * grid.h_capacity
        top1 = grid.top_percent_congestion(1.0)
        top100 = grid.top_percent_congestion(100.0)
        assert top1 > top100

    def test_overflow_fraction(self):
        grid = self.make()
        assert grid.overflow_fraction() == 0.0
        grid.v_usage[0, 0] = 10 * grid.v_capacity
        assert grid.overflow_fraction() > 0

    @pytest.mark.parametrize("percent", [0.5, 1.0, 10.0, 50.0, 100.0])
    def test_top_percent_matches_full_sort_reference(self, percent):
        """The np.partition top-k selection must pin the exact float
        the original full-sort implementation produced (same selected
        block, same descending summation order)."""
        grid = self.make()
        rng = np.random.default_rng(42)
        grid.h_usage[:, :] = rng.uniform(0, 3, grid.h_usage.shape) * grid.h_capacity
        grid.v_usage[:, :] = rng.uniform(0, 3, grid.v_usage.shape) * grid.v_capacity
        ratios = np.sort(grid.congestion_ratios())[::-1]
        count = max(1, int(len(ratios) * percent / 100.0))
        reference = float(ratios[:count].mean())
        assert grid.top_percent_congestion(percent) == reference

    def test_top_percent_with_duplicate_ratios(self):
        """Ties across the k-th boundary select the same block either way."""
        grid = self.make()
        grid.h_usage[:, :] = grid.h_capacity  # all ratios identical
        grid.h_usage[0, 0] = 5 * grid.h_capacity
        ratios = np.sort(grid.congestion_ratios())[::-1]
        count = max(1, int(len(ratios) * 10.0 / 100.0))
        assert grid.top_percent_congestion(10.0) == float(ratios[:count].mean())


class TestGlobalRouting:
    def test_routed_wl_reasonable(self, routed_design):
        design, result = routed_design
        base = hpwl(design)
        assert 0.8 * base <= result.routed_wirelength <= 2.0 * base

    def test_per_net_lengths(self, routed_design):
        design, result = routed_design
        for net in design.signal_nets():
            points = {
                (r.instance.x, r.instance.y)
                for r in net.pins()
                if r.instance is not None
            }
            if len(points) >= 2:
                assert net.index in result.net_lengths
                assert result.net_lengths[net.index] >= 0

    def test_clock_not_routed(self, routed_design):
        design, result = routed_design
        clock = design.net("clk_net")
        assert clock.index not in result.net_lengths

    def test_congestion_statistics(self, routed_design):
        _design, result = routed_design
        assert result.max_congestion > 0
        assert 0 <= result.overflow_fraction <= 1
        assert result.top_percent_congestion(10) <= result.max_congestion

    def test_deterministic(self, routed_design):
        design, result = routed_design
        again = GlobalRouter(design).run()
        assert again.routed_wirelength == pytest.approx(result.routed_wirelength)

    def test_congestion_increases_with_demand(self, routed_design):
        design, _ = routed_design
        small_grid = GCellGrid.for_floorplan(design.floorplan, target_cells=64)
        result = GlobalRouter(design, grid=small_grid).run()
        # Same demand on fewer, larger cells: usage accumulates.
        assert result.grid.h_usage.sum() + result.grid.v_usage.sum() > 0


class TestCts:
    def test_toy_tree(self, toy_design):
        result = synthesize_clock_tree(toy_design)
        assert result.num_sinks == 1
        assert result.wirelength > 0

    def test_empty_design(self):
        from repro.netlist.design import Design

        result = synthesize_clock_tree(Design("empty"))
        assert result.num_sinks == 0
        assert result.wirelength == 0.0

    def test_covers_all_sinks(self, routed_design):
        design, _ = routed_design
        result = synthesize_clock_tree(design)
        assert result.num_sinks == len(design.sequential_instances())
        assert result.num_buffers > 0
        assert result.skew >= 0

    def test_wirelength_scales_with_spread(self, routed_design):
        design, _ = routed_design
        compact = synthesize_clock_tree(design)
        for inst in design.sequential_instances():
            inst.x *= 2
            inst.y *= 2
        spread = synthesize_clock_tree(design)
        # Restore.
        for inst in design.sequential_instances():
            inst.x /= 2
            inst.y /= 2
        assert spread.wirelength > compact.wirelength
