"""Flat array representation of a placement problem.

The placer works on dense arrays rather than the object model: vertex
``i < design.num_instances`` is instance ``i``; ports are appended as
fixed vertices.  Nets are flattened into ``pin_vertex`` /
``net_offsets`` CSR-style arrays, which makes HPWL and the B2B model
vectorizable.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence

import numpy as np

from repro.netlist.design import Design, Floorplan
from repro.place.hpwl import hpwl_arrays


class PlacementProblem:
    """Array-form snapshot of a design for global placement.

    Attributes:
        design: Source design (written back to by :meth:`commit`).
        num_movable_instances: Instances come first in vertex order.
        x, y: Working coordinates (mutated by the placer).
        areas: Vertex areas (ports get area 0).
        fixed: Boolean mask of vertices the placer must not move.
        pin_vertex, net_offsets: CSR-style net membership.
        net_weights: Per-net placement weights.
        net_indices: Original design net index per problem net.
    """

    def __init__(
        self, design: Design, include_clock: bool = False, use_arrays: bool = True
    ) -> None:
        self.design = design
        n_inst = design.num_instances
        port_names = sorted(design.ports)
        self._port_vertex: Dict[str, int] = {
            name: n_inst + i for i, name in enumerate(port_names)
        }
        n_total = n_inst + len(port_names)

        self.x = np.zeros(n_total)
        self.y = np.zeros(n_total)
        self.areas = np.zeros(n_total)
        self.fixed = np.zeros(n_total, dtype=bool)
        if use_arrays:
            arrays = design.arrays()
            xs, ys = arrays.current_positions()
            self.x[:n_inst] = xs
            self.y[:n_inst] = ys
            self.areas[:n_inst] = arrays.current_inst_areas()
            instances = design.instances
            self.fixed[:n_inst] = np.fromiter(
                (i.fixed for i in instances), dtype=bool, count=n_inst
            )
            px, py = arrays.current_port_xy()
            self.x[n_inst + arrays.port_sorted_rank] = px
            self.y[n_inst + arrays.port_sorted_rank] = py
            self.fixed[n_inst:] = True
            pin_vertex, offsets, sel_nets = arrays.placement_csr(include_clock)
            self.pin_vertex = pin_vertex
            self.net_offsets = offsets
            self.net_weights = arrays.current_net_weights()[sel_nets]
            self.net_indices = sel_nets
        else:
            self._build_reference(design, include_clock)
        self.num_movable_instances = n_inst

    def _build_reference(self, design: Design, include_clock: bool) -> None:
        """Object-graph construction (kept as the equivalence oracle)."""
        for inst in design.instances:
            self.x[inst.index] = inst.x
            self.y[inst.index] = inst.y
            self.areas[inst.index] = inst.area
            self.fixed[inst.index] = inst.fixed
        for name, vid in self._port_vertex.items():
            port = design.ports[name]
            self.x[vid] = port.x
            self.y[vid] = port.y
            self.fixed[vid] = True

        pins: List[int] = []
        offsets: List[int] = [0]
        weights: List[float] = []
        net_indices: List[int] = []
        for net in design.nets:
            if net.is_clock and not include_clock:
                continue
            vertex_ids = set()
            for ref in net.pins():
                if ref.instance is not None:
                    vertex_ids.add(ref.instance.index)
                else:
                    vertex_ids.add(self._port_vertex[ref.pin_name])
            if len(vertex_ids) < 2:
                continue
            pins.extend(sorted(vertex_ids))
            offsets.append(len(pins))
            weights.append(net.weight)
            net_indices.append(net.index)

        self.pin_vertex = np.asarray(pins, dtype=np.int64)
        self.net_offsets = np.asarray(offsets, dtype=np.int64)
        self.net_weights = np.asarray(weights)
        self.net_indices = np.asarray(net_indices, dtype=np.int64)

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Total vertices (instances + ports)."""
        return len(self.x)

    @property
    def num_nets(self) -> int:
        """Number of placeable nets."""
        return len(self.net_weights)

    @property
    def movable(self) -> np.ndarray:
        """Boolean mask of movable vertices."""
        return ~self.fixed

    def port_vertex(self, name: str) -> int:
        """Vertex id of a port."""
        return self._port_vertex[name]

    def refresh_port_positions(self) -> None:
        """Re-read port coordinates from the design.

        Lets a problem instance be reused across V-P&R shape candidates
        (pin/offset arrays are shape-independent; only the virtual die's
        port ring moves between candidates).
        """
        ports = self.design.ports
        for name, vid in self._port_vertex.items():
            port = ports[name]
            self.x[vid] = port.x
            self.y[vid] = port.y

    def hpwl(self, weighted: bool = False) -> float:
        """HPWL of the working coordinates (microns)."""
        return hpwl_arrays(
            self.pin_vertex,
            self.net_offsets,
            self.x,
            self.y,
            self.net_weights if weighted else None,
        )

    def set_positions(
        self, x: Sequence[float], y: Sequence[float], only_movable: bool = True
    ) -> None:
        """Overwrite working coordinates (fixed vertices kept by default)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if only_movable:
            mask = self.movable
            self.x[mask] = x[mask]
            self.y[mask] = y[mask]
        else:
            self.x[:] = x
            self.y[:] = y

    def commit(self) -> None:
        """Write working coordinates back to the design's instances."""
        for inst in self.design.instances:
            if not inst.fixed:
                inst.x = float(self.x[inst.index])
                inst.y = float(self.y[inst.index])

    def clip_to_core(self) -> None:
        """Clamp movable vertices into the core box."""
        fp = self.design.floorplan
        mask = self.movable
        self.x[mask] = np.clip(self.x[mask], fp.core_llx, fp.core_urx)
        self.y[mask] = np.clip(self.y[mask], fp.core_lly, fp.core_ury)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PlacementProblem(V={self.num_vertices}, nets={self.num_nets}, "
            f"movable={int(self.movable.sum())})"
        )


class CoreBox(NamedTuple):
    """Core rectangles of a batch of floorplans, one ``(B, 1)`` column
    per bound, so per-row arithmetic broadcasts over ``(B, n)``
    coordinates with the same scalar operands a single die uses."""

    llx: np.ndarray
    lly: np.ndarray
    urx: np.ndarray
    ury: np.ndarray
    width: np.ndarray
    height: np.ndarray

    @classmethod
    def of(cls, floorplans: Sequence[Floorplan]) -> "CoreBox":
        """Stack the core bounds of ``floorplans`` (one row each)."""
        return cls(
            *(
                np.array([[getattr(fp, name)] for fp in floorplans], dtype=float)
                for name in (
                    "core_llx",
                    "core_lly",
                    "core_urx",
                    "core_ury",
                    "core_width",
                    "core_height",
                )
            )
        )


class PlacementBatch:
    """``B`` placements of one problem's netlist, each on its own die.

    The V-P&R sweep places a cluster's sub-netlist on 20 virtual dies
    at once: the rows share the problem's nets, areas and fixed mask,
    and differ only in their floorplan and fixed-vertex (port)
    coordinates.  A flat placement is a batch of one.

    Attributes:
        floorplans: One floorplan per row.
        x, y: ``(B, n)`` working coordinates (row ``b`` on die ``b``).
    """

    def __init__(
        self, floorplans: Sequence[Floorplan], x: np.ndarray, y: np.ndarray
    ) -> None:
        self.floorplans = list(floorplans)
        self.x = np.array(x, dtype=float, ndmin=2)
        self.y = np.array(y, dtype=float, ndmin=2)
        if self.x.shape != self.y.shape or len(self.x) != len(self.floorplans):
            raise ValueError(
                f"batch rows disagree: {len(self.floorplans)} floorplans, "
                f"x {self.x.shape}, y {self.y.shape}"
            )

    @classmethod
    def of(cls, problem: PlacementProblem) -> "PlacementBatch":
        """A batch of one over the problem's own die and coordinates."""
        return cls([problem.design.floorplan], problem.x, problem.y)

    def __len__(self) -> int:
        return len(self.floorplans)
