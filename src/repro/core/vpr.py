"""Virtualized P&R (V-P&R) shape selection (Section 3.2, Figure 3).

For each large cluster, induce the sub-netlist (inter-cluster nets
become virtual IO ports), and for each of the 20 (aspect ratio,
utilization) candidates: build a virtual die, run placement and global
routing, and score

    Total Cost = Cost_HPWL + delta * Cost_Congestion          (Eq. 4-5)

with ``Cost_HPWL = HPWL_avg / (W_core + H_core)`` and
``Cost_Congestion`` the mean congestion of the top-X% GCells.  The
best-cost candidate becomes the cluster's shape in the cluster .lef.

Four shape selectors mirror the paper's Table 6 arms:

* :class:`VPRShapeSelector` — exact V-P&R (20 P&R runs per cluster),
* :class:`MLShapeSelector` — GNN-predicted Total Cost (the paper's
  ~30x acceleration),
* :class:`RandomShapeSelector` / :class:`UniformShapeSelector` — the
  ablation baselines.

Performance engine (this module is the flow's runtime bottleneck):

* Each cluster's sub-netlist is induced **once** and shared by all 20
  candidates (and, via :meth:`VPRFramework.induce`, by later callers —
  ML feature extraction, L-shape sweeps, dataset labelling).
* In-process, a cluster's candidates are placed as one lockstep batch
  (:meth:`VPRFramework.evaluate_candidates`): one stacked B2B system
  per axis per round instead of 20, each candidate's placement
  bit-identical to placing it alone, then routed and scored in turn.
* Per-candidate scoring reuses cached flat pin/offset arrays and the
  vectorized :func:`repro.place.hpwl.hpwl_arrays` kernel instead of a
  per-net Python loop; the best candidate is picked from a NumPy cost
  vector.
* ``VPRConfig.jobs > 1`` fans the sweep out over (cluster, candidate)
  work items on a process pool.  Results are gathered into slots
  indexed by (cluster, candidate), so the selected shapes and costs are
  identical to a serial run regardless of worker scheduling; candidate
  evaluation is order-independent by construction (the placer
  re-initialises from its seed each run).  Sweep state (induced
  sub-netlists, scoring arrays, config) is published **once** via
  :mod:`repro.core.fanout` — fork workers inherit it copy-on-write,
  spawn workers map one shared-memory segment — so a work item ships
  only its (cluster, candidate) indices.
* With an :class:`~repro.cache.EvaluationCache` attached, evaluations
  are content-addressed across runs: a (sub-netlist, shape, config)
  item seen before is served from disk, byte-identical to a fresh
  evaluation.  Workers only read the store; the parent is the only
  writer (see ``docs/performance.md``).
* The :mod:`repro.perf` stage timers wrap every phase, so a perf
  report shows extract/place/route/score splits.

Fault tolerance (see ``docs/recovery.md``):

* A crashed or failing work item is retried parent-side with a bounded
  budget (``retry_limit``, exponential backoff); an item that still
  fails is *terminal* — either the sweep raises
  :class:`VPRSweepError` (``on_terminal_failure="raise"``, the
  default) or the candidate is marked explicitly invalid and excluded
  from selection (``"exclude"``).  NaN costs never reach the argmin:
  :meth:`VPRFramework._best_of` selects over valid candidates only and
  raises when none remain.
* ``item_timeout`` bounds each work item in a pool worker (SIGALRM),
  so one hung virtual-die P&R cannot stall the sweep.
* With a :class:`~repro.recovery.CheckpointStore` attached, each
  (cluster, candidate) evaluation is persisted the moment it
  completes, and already-checkpointed items are served from disk — the
  unit of resume after a mid-sweep crash.
"""

from __future__ import annotations

import heapq
import math
import multiprocessing
import os
import random
import signal
import time
import warnings
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import monitor, perf, telemetry
from repro.cache import (
    EvaluationCache,
    cache_key,
    derive_cache_summary,
    netlist_digest,
)
from repro.core.fanout import (
    FleetExecutor,
    LocalPoolExecutor,
    StateToken,
    SweepExecutor,
    attach_state,
)
from repro.core.shapes import ShapeCandidate, default_candidate_grid, uniform_shape
from repro.recovery import faults
from repro.recovery.checkpoint import CheckpointError, CheckpointStore
from repro.netlist.design import Design, Floorplan, PinDirection
from repro.netlist.snapshot import design_from_snapshot, design_snapshot
from repro.place.placer import GlobalPlacer, PlacerConfig
from repro.place.problem import PlacementBatch, PlacementProblem
from repro.place.hpwl import hpwl_arrays
from repro.route.gcell import GCellGrid
from repro.route.global_route import GlobalRouter

#: Injectable time sources for the retry machinery.  Tests swap these
#: for a fake clock to pin scheduling properties (e.g. that concurrent
#: backoffs overlap instead of summing) without real sleeps.
_SLEEP = time.sleep
_CLOCK = time.monotonic

#: Env knob: seconds of simulated external-tool latency per evaluated
#: work item in a worker process (benchmarks/bench_fleet_scaling.py
#: injects it per-worker via ``FleetExecutor(worker_env=...)`` to
#: measure distribution scaling on hosts with few cores).  Unset (the
#: default) adds nothing to the hot path.
ITEM_DELAY_ENV = "REPRO_VPR_ITEM_DELAY_S"


@dataclass
class VPRConfig:
    """V-P&R knobs.

    Attributes:
        delta: Congestion weight in Total Cost (default 0.01, following
            the paper / MAPLE [13]).
        top_x_percent: X of the Congestion Cost (Eq. 5; default 10).
        min_cluster_instances: Only clusters larger than this get
            V-P&R (the paper's hyperparameter-tuned bound of 200).
        max_vpr_clusters: Practical cap on the number of (largest)
            clusters swept per design; None sweeps all eligible
            clusters.  When the cap binds, the skipped clusters use the
            uniform default shape and the count is recorded in
            ``VPRSelection.skipped_clusters``.
        candidates: The shape grid (defaults to the paper's 20).
        placer_iterations: Global-placement rounds per candidate
            (virtual dies are small; a short run suffices).
        route_target_cells: GCell count of the virtual-die routing grid.
        die_margin: Margin around the virtual core (microns).
        jobs: Process-pool width for the sweep.  1 (default) runs
            serially in-process; N > 1 fans (cluster, candidate) work
            items over N workers.  Serial and parallel runs select
            identical shapes with identical costs.
        chunk_size: (Cluster, candidate) work items bundled into one
            pool task.  None (default) auto-sizes to
            ``ceil(items / (4 * jobs))`` — roughly four task waves per
            worker, amortising per-task submission/result overhead on
            large sweeps while keeping the tail balanced.  1 reproduces
            the one-item-per-task scheduling.  Chunking only changes
            scheduling granularity, never results.
        start_method: Multiprocessing start method for the pool:
            ``"fork"`` (workers inherit the published sweep state
            copy-on-write), ``"spawn"`` (the state is published once
            through a shared-memory segment), or None (default —
            fork when available, else spawn).  The start method only
            changes how state reaches workers, never results (see
            :mod:`repro.core.fanout`).
        seed: RNG seed (randomised selector arms).
        item_timeout: Wall-clock bound (seconds) on one (cluster,
            candidate) evaluation inside a pool worker; an item that
            exceeds it fails and follows the retry policy.  None (the
            default) disables the bound.
        retry_limit: Parent-side re-evaluation attempts for a work
            item whose worker crashed or errored (beyond the first
            attempt).
        retry_backoff: Base delay (seconds) between parent-side retry
            attempts; attempt *i* waits ``retry_backoff * 2**(i-1)``.
        on_terminal_failure: What to do with an item that exhausts its
            retry budget: ``"raise"`` (default) aborts the sweep with
            :class:`VPRSweepError`; ``"exclude"`` marks the candidate
            invalid so selection skips it explicitly (selection still
            raises if *every* candidate of a cluster is invalid).
        executor: Where sweep chunks run: ``"local"`` (default — the
            in-process pool described under ``jobs``) or ``"fleet"``
            (socket-connected ``repro.core.worker`` processes, see
            :class:`repro.core.fanout.FleetExecutor`).  The executor
            only changes *where* items evaluate, never results.
        fleet_workers: Fleet size (``executor="fleet"``): how many
            workers to spawn locally — or, with ``fleet_spawn=False``,
            to wait for on the listener.
        fleet_listen: ``HOST:PORT`` the parent binds for workers
            (default loopback + ephemeral port).  Bind a routable
            address to accept workers started by hand or over SSH.
        fleet_spawn: Spawn ``fleet_workers`` local worker processes
            (default True); False waits for externally started
            workers instead.
        fleet_connect_timeout: Seconds to wait for the fleet to reach
            strength before sweeping with whoever connected (zero
            workers falls back to the serial sweep).
    """

    delta: float = 0.01
    top_x_percent: float = 10.0
    min_cluster_instances: int = 200
    max_vpr_clusters: Optional[int] = 12
    candidates: List[ShapeCandidate] = field(default_factory=default_candidate_grid)
    placer_iterations: int = 6
    route_target_cells: int = 144
    die_margin: float = 1.0
    jobs: int = 1
    chunk_size: Optional[int] = None
    start_method: Optional[str] = None
    seed: int = 0
    item_timeout: Optional[float] = None
    retry_limit: int = 1
    retry_backoff: float = 0.05
    on_terminal_failure: str = "raise"
    executor: str = "local"
    fleet_workers: int = 2
    fleet_listen: str = "127.0.0.1:0"
    fleet_spawn: bool = True
    fleet_connect_timeout: float = 60.0

    def __post_init__(self) -> None:
        if self.executor not in ("local", "fleet"):
            raise ValueError(
                f"executor must be 'local' or 'fleet', got {self.executor!r}"
            )
        if self.on_terminal_failure not in ("raise", "exclude"):
            raise ValueError(
                f"on_terminal_failure must be 'raise' or 'exclude', "
                f"got {self.on_terminal_failure!r}"
            )
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(
                f"chunk_size must be a positive integer or None, "
                f"got {self.chunk_size!r}"
            )
        if self.start_method not in (None, "fork", "spawn"):
            raise ValueError(
                f"start_method must be 'fork', 'spawn' or None, "
                f"got {self.start_method!r}"
            )


class VPRSweepError(RuntimeError):
    """A V-P&R work item (or a whole cluster's sweep) failed terminally."""


@dataclass
class CandidateEvaluation:
    """Costs of one shape candidate on one cluster.

    ``error`` is None for a successful evaluation; a terminally failed
    item carries the repr of its last exception and non-finite costs.
    Selection never compares such a candidate — see
    :meth:`VPRFramework._best_of`.
    """

    candidate: ShapeCandidate
    hpwl_cost: float
    congestion_cost: float
    error: Optional[str] = None

    @property
    def is_valid(self) -> bool:
        """Whether this evaluation may participate in shape selection."""
        return (
            self.error is None
            and math.isfinite(self.hpwl_cost)
            and math.isfinite(self.congestion_cost)
        )

    @property
    def total_cost(self) -> float:
        """Deprecated: Total Cost assuming the default delta = 0.01.

        Hardcoding delta here meant a non-default ``VPRConfig.delta``
        silently did not affect standalone cost comparisons.  Use
        :meth:`total` with the configured delta instead.
        """
        warnings.warn(
            "CandidateEvaluation.total_cost assumes delta=0.01; use "
            "total(delta) with the configured VPRConfig.delta instead",
            DeprecationWarning,
            stacklevel=2,
        )
        return self.total(0.01)

    def total(self, delta: float) -> float:
        """Total Cost with an explicit delta."""
        return self.hpwl_cost + delta * self.congestion_cost


@dataclass
class VPRSweepResult:
    """All candidate evaluations for one cluster.

    ``runtime`` is the wall-clock of a serial sweep; for a parallel
    sweep it is the summed per-candidate evaluation time (the work the
    pool absorbed), since per-cluster wall-clock is not attributable
    when candidates interleave across workers.
    """

    cluster_id: int
    evaluations: List[CandidateEvaluation]
    best: ShapeCandidate
    runtime: float


@dataclass
class VPRSelection:
    """Shapes chosen for a design's clusters.

    Attributes:
        shapes: cluster id -> chosen shape (every cluster present;
            non-swept clusters get the uniform default).
        sweeps: The per-cluster sweep details for swept clusters.
        skipped_clusters: Eligible clusters not swept due to
            ``max_vpr_clusters`` (0 when the cap did not bind).
        runtime: Total wall-clock seconds.
    """

    shapes: Dict[int, ShapeCandidate]
    sweeps: List[VPRSweepResult] = field(default_factory=list)
    skipped_clusters: int = 0
    runtime: float = 0.0


# ----------------------------------------------------------------------
# Sub-netlist extraction
# ----------------------------------------------------------------------
def extract_subnetlist(source: Design, member_indices: Sequence[int]) -> Design:
    """Induce the sub-netlist over a cluster's instances.

    Inter-cluster nets become virtual IO ports: an input port per
    external driver, an output port per net with external sinks
    (Figure 3's port creation rule).
    """
    members = set(int(i) for i in member_indices)
    sub = Design(f"{source.name}_sub")
    instance_map = {}
    for idx in sorted(members):
        inst = source.instances[idx]
        if inst.master.name not in sub.masters:
            sub.masters[inst.master.name] = inst.master
        new_inst = sub.add_instance(inst.name, inst.master)
        instance_map[idx] = new_inst

    nets_seen = set()
    port_counter = 0
    for idx in sorted(members):
        inst = source.instances[idx]
        for net in inst.pin_nets.values():
            if net.index in nets_seen or net.is_clock:
                continue
            nets_seen.add(net.index)
            internal_refs = []
            external_driver = False
            external_sink = False
            driver_internal = False
            for ref in net.pins():
                if ref.instance is not None and ref.instance.index in members:
                    internal_refs.append(ref)
                    if net.driver is ref:
                        driver_internal = True
                else:
                    if net.driver is ref:
                        external_driver = True
                    else:
                        external_sink = True
            if not internal_refs:
                continue
            if len(internal_refs) < 2 and not (external_driver or external_sink):
                continue
            new_net = sub.add_net(net.name)
            new_net.weight = net.weight
            for ref in internal_refs:
                sub.connect_instance_pin(
                    new_net, instance_map[ref.instance.index], ref.pin_name
                )
            if external_driver and not driver_internal:
                port_name = f"vin{port_counter}"
                port_counter += 1
                sub.add_port(port_name, PinDirection.INPUT)
                sub.connect_port(new_net, port_name)
            if external_sink and driver_internal:
                port_name = f"vout{port_counter}"
                port_counter += 1
                sub.add_port(port_name, PinDirection.OUTPUT)
                sub.connect_port(new_net, port_name)
    return sub


def _configure_virtual_die(
    sub: Design, cell_area: float, candidate: ShapeCandidate, margin: float
) -> None:
    """Size the virtual die for a shape and place IO ports evenly
    around the periphery (the OpenROAD pin-placer substitute)."""
    width, height = candidate.dimensions(max(cell_area, 1e-6))
    sub.floorplan = Floorplan(
        die_width=width + 2 * margin,
        die_height=height + 2 * margin,
        core_margin=margin,
        target_utilization=candidate.utilization,
    )
    fp = sub.floorplan
    names = sorted(sub.ports)
    if not names:
        return
    perimeter = 2 * (fp.die_width + fp.die_height)
    for i, name in enumerate(names):
        port = sub.ports[name]
        t = (i + 0.5) / len(names) * perimeter
        if t < fp.die_width:
            port.x, port.y = t, 0.0
        elif t < fp.die_width + fp.die_height:
            port.x, port.y = fp.die_width, t - fp.die_width
        elif t < 2 * fp.die_width + fp.die_height:
            port.x, port.y = t - fp.die_width - fp.die_height, fp.die_height
        else:
            port.x, port.y = 0.0, t - 2 * fp.die_width - fp.die_height


# ----------------------------------------------------------------------
# Per-sub-netlist evaluation context (cached between candidates)
# ----------------------------------------------------------------------
class _SubContext:
    """Candidate-independent artefacts of one sub-netlist.

    Twenty candidates share the cluster's pin/offset arrays and the
    placement problem; only the floorplan and the port ring change
    between candidates.  ``fingerprint`` guards against structural
    mutation (the L-shape sweep temporarily adds a blockage instance).
    """

    __slots__ = (
        "sub",
        "fingerprint",
        "problem",
        "score_pins",
        "score_offsets",
        "num_score_nets",
    )

    def __init__(
        self,
        sub: Design,
        score_pins: Optional[np.ndarray] = None,
        score_offsets: Optional[np.ndarray] = None,
    ) -> None:
        self.sub = sub
        self.fingerprint = _sub_fingerprint(sub)
        self.problem: Optional[PlacementProblem] = None

        if score_pins is not None and score_offsets is not None:
            # Pre-built arrays shipped by the parent's fan-out payload
            # (zero-copy under fork; one shared-memory publication
            # under spawn) — identical to what the loop below builds.
            self.score_pins = np.asarray(score_pins, dtype=np.int64)
            self.score_offsets = np.asarray(score_offsets, dtype=np.int64)
            self.num_score_nets = len(self.score_offsets) - 1
            return

        # Scoring arrays: per-pin vertex ids over nets with >= 2 pins,
        # matching net_hpwl() semantics (duplicate same-instance pins
        # kept; they cannot change a net's span).  Vertex convention
        # matches PlacementProblem: instances, then sorted ports.
        port_vertex = {
            name: sub.num_instances + i for i, name in enumerate(sorted(sub.ports))
        }
        pins: List[int] = []
        offsets: List[int] = [0]
        for net in sub.nets:
            if net.degree < 2:
                continue
            for ref in net.pins():
                if ref.instance is not None:
                    pins.append(ref.instance.index)
                else:
                    pins.append(port_vertex[ref.pin_name])
            offsets.append(len(pins))
        self.score_pins = np.asarray(pins, dtype=np.int64)
        self.score_offsets = np.asarray(offsets, dtype=np.int64)
        self.num_score_nets = len(offsets) - 1

    def placement_problem(self) -> PlacementProblem:
        """The shared placement problem, with fresh port coordinates."""
        if self.problem is None:
            self.problem = PlacementProblem(self.sub)
        else:
            self.problem.refresh_port_positions()
        return self.problem

    def mean_hpwl(self, problem: PlacementProblem) -> float:
        """Average net HPWL over the problem's final coordinates."""
        if self.num_score_nets == 0:
            return 0.0
        total = hpwl_arrays(
            self.score_pins, self.score_offsets, problem.x, problem.y
        )
        return total / self.num_score_nets


def _sub_fingerprint(sub: Design) -> Tuple[int, int, int]:
    return (sub.num_instances, sub.num_nets, len(sub.ports))


# ----------------------------------------------------------------------
# The framework
# ----------------------------------------------------------------------
class VPRFramework:
    """Runs the V-P&R sweep of Figure 3."""

    #: Bounded cache sizes (clusters are a few hundred instances; the
    #: caps keep long dataset-generation runs from accumulating subs).
    _INDUCE_CACHE_MAX = 64
    _CONTEXT_CACHE_MAX = 16
    _DIGEST_CACHE_MAX = 64

    def __init__(
        self,
        config: Optional[VPRConfig] = None,
        checkpoint: Optional[CheckpointStore] = None,
        cache: Optional[EvaluationCache] = None,
    ) -> None:
        self.config = config or VPRConfig()
        #: Optional checkpoint store; when set, every completed
        #: (cluster, candidate) evaluation is persisted and reused.
        self.checkpoint = checkpoint
        #: Optional cross-run evaluation cache; when set, evaluations
        #: whose content address matches a stored entry are served from
        #: disk instead of re-running place + route.
        self.cache = cache
        #: Optional override for how the parallel sweep builds its
        #: executor (``() -> SweepExecutor``).  Benchmarks and tests
        #: use it to inject a pre-configured fleet (e.g. with per-worker
        #: fault-injection environments); None builds from the config.
        self.executor_factory: Optional[Callable[[], SweepExecutor]] = None
        self._induce_cache: "OrderedDict[tuple, Tuple[Design, float]]" = OrderedDict()
        self._contexts: "OrderedDict[int, _SubContext]" = OrderedDict()
        self._digests: "OrderedDict[int, Tuple[tuple, str]]" = OrderedDict()

    # -- sub-netlist cache ---------------------------------------------
    def induce(
        self, source: Design, member_indices: Sequence[int]
    ) -> Tuple[Design, float]:
        """Induce (or fetch the cached) sub-netlist for a cluster.

        Returns ``(sub, cell_area)``.  The cache key is the exact
        member tuple, so each cluster is extracted once and reused by
        all shape candidates and any later caller (ML features,
        L-shape sweeps, dataset labelling).
        """
        key = (id(source), tuple(int(i) for i in member_indices))
        entry = self._induce_cache.get(key)
        if entry is not None:
            self._induce_cache.move_to_end(key)
            perf.count("vpr.subnetlist.hit")
            return entry
        perf.count("vpr.subnetlist.miss")
        with perf.stage("vpr/extract"):
            sub = extract_subnetlist(source, member_indices)
        cell_area = sum(source.instances[i].area for i in member_indices)
        self._induce_cache[key] = (sub, cell_area)
        if len(self._induce_cache) > self._INDUCE_CACHE_MAX:
            self._induce_cache.popitem(last=False)
        return sub, cell_area

    def _context_of(self, sub: Design) -> _SubContext:
        """Cached per-sub evaluation context (rebuilt on mutation)."""
        key = id(sub)
        ctx = self._contexts.get(key)
        if ctx is not None and ctx.fingerprint == _sub_fingerprint(sub):
            self._contexts.move_to_end(key)
            return ctx
        ctx = _SubContext(sub)
        self._contexts[key] = ctx
        self._contexts.move_to_end(key)
        if len(self._contexts) > self._CONTEXT_CACHE_MAX:
            self._contexts.popitem(last=False)
        return ctx

    def seed_context(
        self, sub: Design, score_pins: np.ndarray, score_offsets: np.ndarray
    ) -> None:
        """Install a context built from pre-shipped scoring arrays.

        Pool workers call this with the arrays the parent published, so
        no worker re-walks the sub-netlist's nets (under fork the
        arrays are literally the parent's pages, copy-on-write).
        """
        key = id(sub)
        self._contexts[key] = _SubContext(sub, score_pins, score_offsets)
        self._contexts.move_to_end(key)
        if len(self._contexts) > self._CONTEXT_CACHE_MAX:
            self._contexts.popitem(last=False)

    # -- evaluation ----------------------------------------------------
    def _place(
        self, sub: Design, cell_area: float, candidates: Sequence[ShapeCandidate]
    ) -> PlacementBatch:
        """Place the sub-netlist on every candidate's virtual die as one
        lockstep batch (row ``i`` is ``candidates[i]``).

        The rows share the induced netlist and differ only in die size
        and port ring, so a row's placement does not depend on which
        other candidates share its batch.
        """
        config = self.config
        problem = self._context_of(sub).placement_problem()
        floorplans, xs, ys = [], [], []
        for candidate in candidates:
            _configure_virtual_die(sub, cell_area, candidate, config.die_margin)
            problem.refresh_port_positions()
            floorplans.append(sub.floorplan)
            xs.append(problem.x.copy())
            ys.append(problem.y.copy())
        batch = PlacementBatch(floorplans, xs, ys)
        GlobalPlacer(
            problem,
            PlacerConfig(
                max_iterations=config.placer_iterations,
                min_iterations=2,
                target_overflow=0.15,
                telemetry=None,
                seed=config.seed,
            ),
            batch=batch,
        ).run_batch()
        return batch

    def evaluate_candidates(
        self,
        sub: Design,
        cell_area: float,
        candidates: Sequence[ShapeCandidate],
        cluster_id: Optional[int] = None,
    ) -> List[CandidateEvaluation]:
        """Evaluate several candidates of one sub-netlist as a batch:
        place them all in lockstep, then route and score each in turn.

        Each candidate's costs are bit-identical to evaluating it alone
        with :meth:`evaluate_candidate`.
        """
        with perf.stage("vpr/place"):
            batch = self._place(sub, cell_area, candidates)
        return [
            self.evaluate_candidate(
                sub,
                cell_area,
                candidate,
                cluster_id=cluster_id,
                placement=(batch.x[row], batch.y[row]),
            )
            for row, candidate in enumerate(candidates)
        ]

    def evaluate_candidate(
        self,
        sub: Design,
        cell_area: float,
        candidate: ShapeCandidate,
        cluster_id: Optional[int] = None,
        placement: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> CandidateEvaluation:
        """Place + route the sub-netlist on the candidate's virtual die
        and compute Cost_HPWL / Cost_Congestion (Eqs. 4-5).

        ``placement`` is the candidate's ``(x, y)`` row of a batch
        placement (:meth:`evaluate_candidates`); None places the
        candidate as a batch of one.

        The per-iteration placer/router QoR streams are muted here
        (hundreds of virtual dies would drown the flow-level
        convergence curves); the candidate's own span and final costs
        are recorded instead.
        """
        config = self.config
        span_attrs = {"ar": candidate.aspect_ratio, "util": candidate.utilization}
        if cluster_id is not None:
            span_attrs["cluster"] = cluster_id
        with telemetry.span("vpr.candidate", **span_attrs):
            ctx = self._context_of(sub)
            if placement is None:
                with perf.stage("vpr/place"):
                    batch = self._place(sub, cell_area, [candidate])
                placement = (batch.x[0], batch.y[0])
            _configure_virtual_die(sub, cell_area, candidate, config.die_margin)
            problem = ctx.placement_problem()
            problem.set_positions(*placement)
            problem.commit()
            with perf.stage("vpr/route"):
                grid = GCellGrid.for_floorplan(
                    sub.floorplan, target_cells=config.route_target_cells
                )
                routing = GlobalRouter(
                    sub, grid=grid, telemetry_prefix=None
                ).run()
            with perf.stage("vpr/score"):
                hpwl_avg = ctx.mean_hpwl(problem)
                fp = sub.floorplan
                hpwl_cost = hpwl_avg / max(fp.core_width + fp.core_height, 1e-9)
                congestion_cost = routing.top_percent_congestion(config.top_x_percent)
        perf.count("vpr.candidates_evaluated")
        return CandidateEvaluation(
            candidate=candidate,
            hpwl_cost=hpwl_cost,
            congestion_cost=congestion_cost,
        )

    def _best_of(
        self,
        evaluations: List[CandidateEvaluation],
        cluster_id: Optional[int] = None,
    ) -> CandidateEvaluation:
        """Lowest Total Cost among *valid* candidates via one vectorized
        argmin (first wins on ties, matching ``min()``).

        Invalid candidates (terminal failures, non-finite costs) are
        excluded from the comparison — a NaN cost would lose every
        ``<`` and silently vanish from selection.  Raises
        :class:`VPRSweepError` when no valid candidate remains.
        """
        delta = self.config.delta
        totals = np.full(len(evaluations), np.inf)
        for i, evaluation in enumerate(evaluations):
            if evaluation.is_valid:
                total = evaluation.total(delta)
                if math.isfinite(total):
                    totals[i] = total
        if not np.isfinite(totals).any():
            details = "; ".join(
                f"{e.candidate}: {e.error or 'non-finite cost'}"
                for e in evaluations
            )
            where = f"cluster {cluster_id}" if cluster_id is not None else "cluster"
            raise VPRSweepError(
                f"{where}: all {len(evaluations)} shape candidates failed "
                f"terminally; no valid V-P&R cost to select from ({details})"
            )
        return evaluations[int(np.argmin(totals))]

    def _record_sweep(self, sweep: VPRSweepResult) -> None:
        """Per-candidate cost streams for one finished sweep.

        Always recorded parent-side, in candidate order, so serial and
        parallel sweeps produce byte-identical streams regardless of
        worker scheduling.  Invalid candidates are not observed (their
        failure already produced a ``vpr.item.failed`` event).
        """
        if not telemetry.is_enabled():
            return
        delta = self.config.delta
        for evaluation in sweep.evaluations:
            if not evaluation.is_valid:
                continue
            telemetry.observe("vpr.total_cost", evaluation.total(delta))
            telemetry.observe("vpr.hpwl_cost", evaluation.hpwl_cost)
            telemetry.observe("vpr.congestion_cost", evaluation.congestion_cost)

    # -- fault tolerance / checkpointing -------------------------------
    def _checkpoint_lookup(
        self, cluster_id: int, candidate_index: int
    ) -> Optional[Tuple[CandidateEvaluation, float]]:
        """A checkpointed (evaluation, seconds) for this item, or None."""
        store = self.checkpoint
        if store is None:
            return None
        record = store.load_vpr_item(cluster_id, candidate_index)
        if record is None:
            return None
        candidate = self.config.candidates[candidate_index]
        if (
            record.get("ar") != candidate.aspect_ratio
            or record.get("util") != candidate.utilization
        ):
            raise CheckpointError(
                f"checkpoint item for cluster {cluster_id} candidate "
                f"{candidate_index} was written for shape "
                f"AR={record.get('ar')}/U={record.get('util')} but this run's "
                f"grid has {candidate}; the candidate grid changed — start a "
                "fresh checkpoint"
            )
        perf.count("recovery.item.reused")
        evaluation = CandidateEvaluation(
            candidate=candidate,
            hpwl_cost=float(record["hpwl_cost"]),
            congestion_cost=float(record["congestion_cost"]),
        )
        return evaluation, float(record.get("seconds", 0.0))

    def _checkpoint_save(
        self,
        cluster_id: int,
        candidate_index: int,
        evaluation: CandidateEvaluation,
        seconds: float,
    ) -> None:
        """Persist one finished item (valid evaluations only)."""
        store = self.checkpoint
        if store is None or not evaluation.is_valid:
            return
        candidate = evaluation.candidate
        store.save_vpr_item(
            cluster_id,
            candidate_index,
            {
                "ar": candidate.aspect_ratio,
                "util": candidate.utilization,
                "hpwl_cost": evaluation.hpwl_cost,
                "congestion_cost": evaluation.congestion_cost,
                "seconds": seconds,
            },
        )
        perf.count("recovery.item.saved")
        # Resume tests abort the whole process here (the instant after
        # a unit of work was durably recorded).
        faults.check("vpr.item.saved", key=f"{cluster_id}/{candidate_index}")

    # -- cross-run evaluation cache ------------------------------------
    def _netlist_digest(self, sub: Design) -> str:
        """Memoised content digest of one sub-netlist.

        Keyed by object identity and revalidated against the structural
        fingerprint (the L-shape sweep mutates subs in place).
        """
        key = id(sub)
        fingerprint = _sub_fingerprint(sub)
        entry = self._digests.get(key)
        if entry is not None and entry[0] == fingerprint:
            self._digests.move_to_end(key)
            return entry[1]
        with perf.stage("vpr/cache_key"):
            digest = netlist_digest(sub)
        self._digests[key] = (fingerprint, digest)
        self._digests.move_to_end(key)
        if len(self._digests) > self._DIGEST_CACHE_MAX:
            self._digests.popitem(last=False)
        return digest

    def cluster_digest(
        self, source: Design, member_indices: Sequence[int]
    ) -> Tuple[str, float]:
        """``(content digest, cell area)`` of one cluster's sub-netlist.

        Served from the induce/digest memos when the cluster was just
        swept, so calling this right after a sweep is nearly free.  The
        flow persists these per eligible cluster so the ECO path can
        address unchanged clusters' cache entries without re-inducing
        their sub-netlists.
        """
        sub, cell_area = self.induce(source, member_indices)
        return self._netlist_digest(sub), cell_area

    def _cache_key(
        self, sub: Design, cell_area: float, candidate_index: int
    ) -> str:
        return cache_key(
            self._netlist_digest(sub),
            self.config.candidates[candidate_index],
            self.config,
            cell_area=cell_area,
        )

    def _cache_lookup(
        self,
        sub: Design,
        cell_area: float,
        cluster_id: int,
        candidate_index: int,
    ) -> Optional[Tuple[CandidateEvaluation, float]]:
        """A cached (evaluation, original seconds) for this item, or None.

        Only valid (finite-cost) records are served; anything else is a
        miss.  Emits ``cache.hit`` / ``cache.miss`` telemetry events so
        run reports attribute reuse per (cluster, candidate).
        """
        cache = self.cache
        if cache is None:
            return None
        key = self._cache_key(sub, cell_area, candidate_index)
        record = cache.get(key)
        if record is not None:
            candidate = self.config.candidates[candidate_index]
            evaluation = CandidateEvaluation(
                candidate=candidate,
                hpwl_cost=float(record["hpwl_cost"]),
                congestion_cost=float(record["congestion_cost"]),
            )
            if evaluation.is_valid:
                telemetry.event(
                    "cache.hit",
                    cluster=cluster_id,
                    candidate=candidate_index,
                    key=key,
                )
                return evaluation, float(record.get("seconds", 0.0))
        telemetry.event(
            "cache.miss",
            cluster=cluster_id,
            candidate=candidate_index,
            key=key,
        )
        return None

    def _cache_store(
        self,
        sub: Design,
        cell_area: float,
        candidate_index: int,
        evaluation: CandidateEvaluation,
        seconds: float,
    ) -> None:
        """Persist one finished evaluation (parent-side, valid only)."""
        cache = self.cache
        if cache is None or not evaluation.is_valid:
            return
        candidate = evaluation.candidate
        cache.put(
            self._cache_key(sub, cell_area, candidate_index),
            {
                "ar": candidate.aspect_ratio,
                "util": candidate.utilization,
                "hpwl_cost": evaluation.hpwl_cost,
                "congestion_cost": evaluation.congestion_cost,
                "seconds": seconds,
            },
        )

    def _retry_item(
        self,
        sub: Design,
        cell_area: float,
        cluster_id: int,
        candidate_index: int,
        error: BaseException,
    ) -> Tuple[CandidateEvaluation, float]:
        """Retry one item whose first attempt failed with ``error``.

        Bounded retries with exponential backoff, one item at a time.
        Returns ``(evaluation, seconds)``.  On terminal failure either
        raises :class:`VPRSweepError` (policy ``"raise"``) or returns
        an explicitly invalid evaluation (policy ``"exclude"``).
        """
        config = self.config
        candidate = config.candidates[candidate_index]
        attempts = max(0, int(config.retry_limit)) + 1
        last_error = error
        start = time.perf_counter()
        for attempt in range(1, attempts):
            delay = config.retry_backoff * (2 ** (attempt - 1))
            if delay > 0:
                _SLEEP(delay)
            perf.count("vpr.item.retry")
            telemetry.event(
                "vpr.item.retry",
                cluster=cluster_id,
                candidate=candidate_index,
                attempt=attempt,
            )
            try:
                faults.check("vpr.item", key=f"{cluster_id}/{candidate_index}")
                evaluation = self.evaluate_candidate(
                    sub, cell_area, candidate, cluster_id=cluster_id
                )
                return evaluation, time.perf_counter() - start
            except Exception as exc:
                last_error = exc
        seconds = time.perf_counter() - start
        perf.count("vpr.item.terminal")
        telemetry.event(
            "vpr.item.failed",
            cluster=cluster_id,
            candidate=candidate_index,
            attempts=attempts,
            error=repr(last_error),
        )
        if config.on_terminal_failure == "raise":
            raise VPRSweepError(
                f"V-P&R evaluation of cluster {cluster_id}, candidate "
                f"{candidate_index} ({candidate}) failed after {attempts} "
                f"attempt(s): {last_error!r}"
            ) from last_error
        return (
            CandidateEvaluation(
                candidate=candidate,
                hpwl_cost=float("nan"),
                congestion_cost=float("nan"),
                error=repr(last_error),
            ),
            seconds,
        )

    def _evaluate_batch(
        self,
        sub: Design,
        cell_area: float,
        cluster_id: int,
        pending: Sequence[int],
    ) -> Dict[int, Tuple[CandidateEvaluation, float]]:
        """Evaluate a cluster's pending candidates as one batch.

        Each item passes its own ``vpr.item`` fault check first.  An
        item whose check raises, and every item of a batch that raises,
        takes the per-item retry path with that failure as its first
        attempt.  A batched item's seconds are the batch wall time
        divided by the batch size.  Returns candidate index ->
        ``(evaluation, seconds)``.
        """
        candidates = self.config.candidates
        ready: List[int] = []
        failed: Dict[int, BaseException] = {}
        for k in pending:
            try:
                faults.check("vpr.item", key=f"{cluster_id}/{k}")
            except Exception as exc:
                failed[k] = exc
            else:
                ready.append(k)
        done: Dict[int, Tuple[CandidateEvaluation, float]] = {}
        if ready:
            start = time.perf_counter()
            try:
                evaluations = self.evaluate_candidates(
                    sub,
                    cell_area,
                    [candidates[k] for k in ready],
                    cluster_id=cluster_id,
                )
            except Exception as exc:
                failed.update(dict.fromkeys(ready, exc))
            else:
                seconds = (time.perf_counter() - start) / len(ready)
                done.update(
                    (k, (evaluation, seconds))
                    for k, evaluation in zip(ready, evaluations)
                )
        for k in sorted(failed):
            done[k] = self._retry_item(sub, cell_area, cluster_id, k, failed[k])
        return done

    def sweep_cluster(
        self, source: Design, member_indices: Sequence[int], cluster_id: int = 0
    ) -> VPRSweepResult:
        """Evaluate all shape candidates for one cluster (in-process).

        Checkpointed and cached candidates are served from disk; the
        rest are evaluated as one batch (:meth:`_evaluate_batch`).
        Finished items are then checkpointed in candidate order.
        """
        start = time.perf_counter()
        n_cand = len(self.config.candidates)
        with perf.stage("vpr/sweep"), telemetry.span(
            "vpr.sweep", cluster=cluster_id
        ):
            sub, cell_area = self.induce(source, member_indices)
            results: Dict[int, Tuple[CandidateEvaluation, float]] = {}
            cached: List[int] = []
            pending: List[int] = []
            for k in range(n_cand):
                served = self._checkpoint_lookup(cluster_id, k)
                if served is None:
                    served = self._cache_lookup(sub, cell_area, cluster_id, k)
                    if served is None:
                        pending.append(k)
                        continue
                    cached.append(k)
                results[k] = served
                monitor.advance("vpr.items")
            evaluated = self._evaluate_batch(sub, cell_area, cluster_id, pending)
            results.update(evaluated)
            for k in sorted(cached + pending):
                evaluation, seconds = results[k]
                self._checkpoint_save(cluster_id, k, evaluation, seconds)
                if k in evaluated:
                    self._cache_store(sub, cell_area, k, evaluation, seconds)
                    monitor.advance("vpr.items")
        evaluations = [results[k][0] for k in range(n_cand)]
        best = self._best_of(evaluations, cluster_id=cluster_id)
        sweep = VPRSweepResult(
            cluster_id=cluster_id,
            evaluations=evaluations,
            best=best.candidate,
            runtime=time.perf_counter() - start,
        )
        self._record_sweep(sweep)
        return sweep

    def sweep_clusters(
        self,
        source: Design,
        members: Sequence[Sequence[int]],
        cluster_ids: Sequence[int],
    ) -> List[VPRSweepResult]:
        """Sweep several clusters: serially, on a process pool, or on
        a worker fleet.

        With ``config.jobs > 1`` (or ``config.executor == "fleet"``)
        the (cluster, candidate) grid is fanned out over workers;
        gathered results are re-ordered into their (cluster, candidate)
        slots, so selection is deterministic and identical to the
        serial path regardless of executor.
        """
        config = self.config
        parallel = config.jobs > 1 or config.executor == "fleet"
        # The sweep is the flow's dominant known-cardinality loop: every
        # path below (serial, fork pool, chunked spawn pool, fleet)
        # advances the same progress task per (cluster, candidate) item,
        # so the final accounting record is path-independent.
        monitor.start_task(
            "vpr.items",
            len(cluster_ids) * len(config.candidates),
            unit="items",
        )
        cache_baseline = self._cache_session_baseline()
        try:
            if parallel and len(cluster_ids) > 0:
                try:
                    return self._sweep_clusters_parallel(
                        source, members, cluster_ids
                    )
                except OSError:
                    # Execution substrates can be unavailable (no
                    # process pool in restricted sandboxes, no
                    # bindable port / zero connected workers for a
                    # fleet); the serial path computes the same
                    # result.  Restart the progress task first — the
                    # parallel attempt may already have advanced it
                    # (checkpoint-served items, resolved chunks), and
                    # the serial re-run counts every item again.
                    perf.count("vpr.executor.fallback")
                    telemetry.event(
                        "vpr.executor_fallback", executor=config.executor
                    )
                    monitor.start_task(
                        "vpr.items",
                        len(cluster_ids) * len(config.candidates),
                        unit="items",
                    )
            return [
                self.sweep_cluster(source, members[c], cluster_id=c)
                for c in cluster_ids
            ]
        finally:
            monitor.complete("vpr.items")
            self._publish_cache_summary(cache_baseline)

    def _make_executor(self) -> SweepExecutor:
        """Build the configured executor (or the injected one)."""
        if self.executor_factory is not None:
            return self.executor_factory()
        config = self.config
        if config.executor == "fleet":
            return FleetExecutor(
                workers=config.fleet_workers,
                listen=config.fleet_listen,
                spawn=config.fleet_spawn,
                connect_timeout=config.fleet_connect_timeout,
                item_timeout=config.item_timeout,
                heartbeat_dir=monitor.worker_dir(),
            )
        method = config.start_method
        if method is None:
            method = "fork" if _fork_available() else "spawn"
        return LocalPoolExecutor(max(1, int(config.jobs)), method)

    def _sweep_clusters_parallel(
        self,
        source: Design,
        members: Sequence[Sequence[int]],
        cluster_ids: Sequence[int],
    ) -> List[VPRSweepResult]:
        """Fan the (cluster, candidate) grid out over an executor."""
        config = self.config
        clusters: Dict[int, Tuple[Design, float]] = {}
        score_arrays: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        for c in cluster_ids:
            clusters[c] = self.induce(source, members[c])
            ctx = self._context_of(clusters[c][0])
            score_arrays[c] = (ctx.score_pins, ctx.score_offsets)

        n_cand = len(config.candidates)
        slots: Dict[int, List[Optional[_WorkerResult]]] = {
            c: [None] * n_cand for c in cluster_ids
        }
        # Serve checkpointed items from disk; only the rest are fanned
        # out.
        pending: List[Tuple[int, int]] = []
        for c in cluster_ids:
            for k in range(n_cand):
                checkpointed = self._checkpoint_lookup(c, k)
                if checkpointed is not None:
                    evaluation, seconds = checkpointed
                    slots[c][k] = (
                        evaluation.hpwl_cost,
                        evaluation.congestion_cost,
                        seconds,
                        None,
                        None,
                        None,
                        True,
                    )
                else:
                    pending.append((c, k))
        served = len(cluster_ids) * n_cand - len(pending)
        if served:
            monitor.advance("vpr.items", served)

        # Where the chunks run: the in-process pool (byte-identical to
        # the pre-executor sweep) or the socket worker fleet.  Executor
        # construction failures (unbindable port) are OSErrors and fall
        # back to the serial sweep in the caller.
        executor = self._make_executor()
        try:
            # Publish the sweep state once: fork workers inherit it
            # copy-on-write; spawn workers map one shared-memory
            # segment; fleet workers receive one digest-keyed pickled
            # blob per process.  Work items then carry only two
            # integers each — the induced sub-netlists and scoring
            # arrays are never serialized per item.  Executors that
            # cross a pickle boundary get flat design snapshots (the
            # linked Design graph recurses past the pickle limit on
            # real netlists); each worker rebuilds them once at setup.
            shipped_clusters: Dict[int, Tuple[object, float]] = clusters
            if executor.requires_snapshots:
                shipped_clusters = {
                    c: (design_snapshot(sub), area)
                    for c, (sub, area) in clusters.items()
                }
            payload = {
                "config": config,
                "clusters": shipped_clusters,
                "snapshots": executor.requires_snapshots,
                "score_arrays": score_arrays,
                "perf_enabled": perf.is_enabled(),
                "telemetry_enabled": telemetry.is_enabled(),
                "cache_dir": str(self.cache.directory) if self.cache else None,
                "monitor_dir": monitor.worker_dir(),
            }
            # Bundle work items into chunks so one dispatch amortises
            # the per-task submission/result overhead over several
            # items.
            chunk_size = config.chunk_size
            if chunk_size is None:
                chunk_size = max(
                    1, -(-len(pending) // (4 * executor.width()))
                )
            chunks = [
                pending[i : i + chunk_size]
                for i in range(0, len(pending), chunk_size)
            ]
            with perf.stage("vpr/parallel_sweep"), telemetry.span(
                "vpr.parallel_sweep",
                executor=executor.name,
                jobs=executor.width(),
                items=len(cluster_ids) * n_cand,
                chunk_size=chunk_size,
            ):
                if pending:
                    for index, results in executor.map_chunks(
                        payload, chunks, _chunk_worker
                    ):
                        for (c, k), result in zip(chunks[index], results):
                            faults.check("vpr.collect", key=f"{c}/{k}")
                            slots[c][k] = result
                            if result[5] is None:
                                # Errored items only count once their
                                # parent-side retry resolves.
                                monitor.advance("vpr.items")

                # Fold every returned payload in *before* retrying
                # failures: a crashed item still contributes the
                # partial counters and spans it recorded up to the
                # failure point.
                failed: List[Tuple[int, int]] = []
                for c, k in pending:
                    _h, _g, seconds, counters, events, error, was_hit = slots[
                        c
                    ][k]
                    perf.merge_counters(counters)
                    telemetry.merge_worker(events)
                    if error is not None:
                        perf.count("vpr.worker.error")
                        telemetry.event(
                            "worker.error", cluster=c, candidate=k, error=error
                        )
                        failed.append((c, k))
                    else:
                        if self.cache is not None:
                            # Worker-side lookups happened in another
                            # process; fold them into this store's
                            # session counters so the end-of-sweep
                            # cache summary covers the whole fleet.
                            self.cache.note_lookup(hit=was_hit)
                        evaluation = CandidateEvaluation(
                            candidate=config.candidates[k],
                            hpwl_cost=_h,
                            congestion_cost=_g,
                        )
                        self._checkpoint_save(c, k, evaluation, seconds)
                        if not was_hit:
                            # Parent is the cache's only writer; items
                            # the worker already served from the cache
                            # are not re-stored.
                            sub, cell_area = clusters[c]
                            self._cache_store(
                                sub, cell_area, k, evaluation, seconds
                            )

                # Re-evaluate crashed items in the parent with the
                # bounded retry budget, so a transient worker death
                # does not corrupt shape selection.
                self._retry_failed_items(failed, clusters, slots)
        finally:
            executor.close()

        sweeps: List[VPRSweepResult] = []
        for c in cluster_ids:
            evaluations = []
            runtime = 0.0
            for k, slot in enumerate(slots[c]):
                hpwl_cost, congestion_cost, seconds = slot[:3]
                evaluations.append(
                    CandidateEvaluation(
                        candidate=config.candidates[k],
                        hpwl_cost=hpwl_cost,
                        congestion_cost=congestion_cost,
                        error=slot[5],
                    )
                )
                runtime += seconds
            best = self._best_of(evaluations, cluster_id=c)
            sweep = VPRSweepResult(
                cluster_id=c,
                evaluations=evaluations,
                best=best.candidate,
                runtime=runtime,
            )
            self._record_sweep(sweep)
            sweeps.append(sweep)
        return sweeps

    def _retry_failed_items(
        self,
        failed: List[Tuple[int, int]],
        clusters: Dict[int, Tuple[Design, float]],
        slots: Dict[int, "List[Optional[_WorkerResult]]"],
    ) -> None:
        """Re-evaluate crashed items parent-side with overlapped backoff.

        The naive loop (one blocking retry chain per failed item) sleeps
        through each item's backoff in turn, so F failures each needing
        one retry stall the sweep for the *sum* of their backoff
        windows.  This scheduler keeps a
        min-heap of (due-time, item) attempts instead and only ever
        sleeps until the *earliest* due attempt: all items take their
        first attempt immediately, backoff windows run concurrently,
        and the total stall is bounded by one item's longest backoff
        chain rather than the fleet-wide sum.  Time flows through the
        injectable :data:`_SLEEP` / :data:`_CLOCK` module hooks so
        tests can pin the overlap property on a fake clock.

        Terminal failures follow ``on_terminal_failure`` exactly like
        the serial path: raise :class:`VPRSweepError`, or record an
        explicitly invalid evaluation and let selection exclude it.
        """
        if not failed:
            return
        config = self.config
        attempts = max(0, int(config.retry_limit)) + 1
        # Heap entries: (due, order, cluster, candidate, failed-attempt
        # count so far, seconds spent evaluating so far).  ``order``
        # breaks due-time ties deterministically (submission order).
        heap: List[Tuple[float, int, int, int, int, float]] = []
        now = _CLOCK()
        for order, (c, k) in enumerate(failed):
            heap.append((now, order, c, k, 0, 0.0))
        heapq.heapify(heap)
        order = len(failed)
        while heap:
            due, _, c, k, done, spent = heapq.heappop(heap)
            wait = due - _CLOCK()
            if wait > 0:
                _SLEEP(wait)
            sub, cell_area = clusters[c]
            if done == 0:
                # e.g. the worker died *while reading* this entry; the
                # store itself is intact, so serve it here.
                cached = self._cache_lookup(sub, cell_area, c, k)
                if cached is not None:
                    evaluation, seconds = cached
                    self._finish_retried_item(
                        clusters, slots, c, k, evaluation, seconds,
                        store=False,
                    )
                    continue
            else:
                perf.count("vpr.item.retry")
                telemetry.event(
                    "vpr.item.retry", cluster=c, candidate=k, attempt=done
                )
            started = time.perf_counter()
            try:
                faults.check("vpr.item", key=f"{c}/{k}")
                evaluation = self.evaluate_candidate(
                    sub, cell_area, config.candidates[k], cluster_id=c
                )
            except Exception as exc:
                spent += time.perf_counter() - started
                done += 1
                if done < attempts:
                    delay = config.retry_backoff * (2 ** (done - 1))
                    heapq.heappush(
                        heap,
                        (_CLOCK() + max(0.0, delay), order, c, k, done,
                         spent),
                    )
                    order += 1
                    continue
                perf.count("vpr.item.terminal")
                telemetry.event(
                    "vpr.item.failed",
                    cluster=c,
                    candidate=k,
                    attempts=attempts,
                    error=repr(exc),
                )
                if config.on_terminal_failure == "raise":
                    raise VPRSweepError(
                        f"V-P&R evaluation of cluster {c}, candidate "
                        f"{k} ({config.candidates[k]}) failed after "
                        f"{attempts} attempt(s): {exc!r}"
                    ) from exc
                evaluation = CandidateEvaluation(
                    candidate=config.candidates[k],
                    hpwl_cost=float("nan"),
                    congestion_cost=float("nan"),
                    error=repr(exc),
                )
                self._finish_retried_item(
                    clusters, slots, c, k, evaluation, spent, store=True
                )
                continue
            spent += time.perf_counter() - started
            self._finish_retried_item(
                clusters, slots, c, k, evaluation, spent, store=True
            )

    def _finish_retried_item(
        self,
        clusters: Dict[int, Tuple[Design, float]],
        slots: Dict[int, "List[Optional[_WorkerResult]]"],
        c: int,
        k: int,
        evaluation: CandidateEvaluation,
        seconds: float,
        store: bool,
    ) -> None:
        """Record one parent-retried item (slot, cache, checkpoint)."""
        sub, cell_area = clusters[c]
        if store:
            self._cache_store(sub, cell_area, k, evaluation, seconds)
        self._checkpoint_save(c, k, evaluation, seconds)
        slots[c][k] = (
            evaluation.hpwl_cost,
            evaluation.congestion_cost,
            seconds,
            None,
            None,
            evaluation.error,
            False,
        )
        monitor.advance("vpr.items")

    # -- end-of-sweep cache summary ------------------------------------
    def _cache_session_baseline(self) -> Optional[Tuple[int, int, int]]:
        """Snapshot of the cache's session counters before a sweep."""
        cache = self.cache
        if cache is None:
            return None
        return (
            cache.session_hits, cache.session_misses, cache.session_stores
        )

    def _publish_cache_summary(
        self, baseline: Optional[Tuple[int, int, int]]
    ) -> None:
        """Fold this sweep's cache traffic into the store's lifetime
        totals and emit one ``vpr.cache.summary`` telemetry event with
        the derived hit ratio and bytes-on-disk (the same summary shape
        ``repro cache stats`` and the serve daemon's ``/stats`` report).
        """
        cache = self.cache
        if cache is None or baseline is None:
            return
        hits = cache.session_hits - baseline[0]
        misses = cache.session_misses - baseline[1]
        stores = cache.session_stores - baseline[2]
        if not (hits or misses or stores):
            return
        try:
            cache.bump_totals(hits=hits, misses=misses, stores=stores)
            summary = derive_cache_summary(
                hits, misses, stores, cache.stats()
            )
        except OSError:  # pragma: no cover - summary is best-effort
            return
        telemetry.event("vpr.cache.summary", **summary)

    def eligible_clusters(self, members: Sequence[Sequence[int]]) -> List[int]:
        """Cluster ids large enough for V-P&R, capped and largest-first."""
        eligible = [
            c
            for c, member_list in enumerate(members)
            if len(member_list) > self.config.min_cluster_instances
        ]
        eligible.sort(key=lambda c: -len(members[c]))
        return eligible


# ----------------------------------------------------------------------
# Process-pool worker machinery
# ----------------------------------------------------------------------
#: Shape of one work item's result: ``(hpwl_cost, congestion_cost,
#: seconds, perf_counters, telemetry_payload, error, cached)``.
#: ``error`` is the repr of a worker-side exception (costs are NaN
#: then); the counters/payload recorded up to the failure still travel
#: back.  ``cached`` is True when the worker served the item from the
#: evaluation cache (the parent then skips re-storing it).
_WorkerResult = Tuple[
    float, float, float, Optional[dict], Optional[dict], Optional[str], bool
]


def _fork_available() -> bool:
    """Fork start method available (the pool relies on inheriting the
    sub-netlists copy-on-write instead of pickling per item)."""
    return "fork" in multiprocessing.get_all_start_methods()


@contextmanager
def _item_alarm(timeout: Optional[float]):
    """Bound a work item's wall-clock via SIGALRM (pool workers only;
    fork workers run their items on the main thread, where signal
    delivery is guaranteed).

    Nests correctly: a caller's pending ``ITIMER_REAL`` is captured on
    entry (``setitimer`` returns the old value) and re-armed on exit
    with the elapsed time deducted, so an outer timeout keeps ticking
    instead of being silently cancelled.  An outer timer that would
    have expired while this one was armed fires immediately after the
    outer handler is restored.
    """
    if not timeout or timeout <= 0:
        yield
        return

    def _on_alarm(signum, frame):
        raise TimeoutError(f"V-P&R item exceeded item_timeout={timeout:g}s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    outer_delay, outer_interval = signal.setitimer(
        signal.ITIMER_REAL, timeout
    )
    armed_at = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
        if outer_delay > 0.0:
            remaining = outer_delay - (time.monotonic() - armed_at)
            # Already-overdue outer timers get an epsilon delay (zero
            # would disarm the timer entirely).
            signal.setitimer(
                signal.ITIMER_REAL, max(remaining, 1e-6), outer_interval
            )


def _setup_worker(state: dict) -> VPRFramework:
    """First-use setup of a pool worker's process-global state."""
    faults.mark_worker()
    if state["perf_enabled"]:
        if not perf.is_enabled():
            # Spawn workers start with a fresh interpreter; turn the
            # registry on so counters recorded here travel back.
            perf.enable()
        # Drop any stats inherited from the parent snapshot (fork);
        # from here on this registry records only this worker's
        # activity.
        perf.get_registry().reset()
    if state["telemetry_enabled"]:
        if not telemetry.is_enabled():
            telemetry.enable()
        session = telemetry.get_session()
        # A fork-inherited session holds the parent's records and
        # (when streaming) a duplicate handle on the parent's
        # events.jsonl; close ours so worker events never interleave
        # into that file, then clear the inherited records.
        session.events.close()
        session.reset()
    cache = (
        EvaluationCache(state["cache_dir"])
        if state.get("cache_dir")
        else None
    )
    if state.get("snapshots"):
        # Spawn payloads carry flat design snapshots; rebuild each sub
        # once per worker (fork payloads carry the parent's objects).
        state["clusters"] = {
            c: (design_from_snapshot(snap), area)
            for c, (snap, area) in state["clusters"].items()
        }
        state["snapshots"] = False
    framework = VPRFramework(state["config"], cache=cache)
    for c, (sub, _area) in state["clusters"].items():
        pins, offsets = state["score_arrays"][c]
        framework.seed_context(sub, pins, offsets)
    if state.get("monitor_dir"):
        # Liveness beats for the parent's status view: one append-only
        # file per worker pid, merged parent-side into status.json so a
        # hung item is visible before its SIGALRM timeout fires.
        from repro.monitor.heartbeat import HeartbeatWriter

        state["_heartbeat"] = HeartbeatWriter(state["monitor_dir"])
    state["_framework"] = framework
    return framework


def _resolve_worker_state(token: StateToken) -> dict:
    """The published sweep state in this worker (attach + set up once)."""
    state = attach_state(token)
    if state.get("_framework") is None:
        _setup_worker(state)
    return state


def _candidate_worker(
    state: dict, cluster_id: int, candidate_index: int
) -> _WorkerResult:
    """Evaluate one (cluster, candidate) work item in a worker process.

    The evaluation cache is consulted first (workers only *read* the
    store); a hit skips place + route entirely and reports the original
    evaluation's seconds.  Counters and the telemetry payload are
    per-item deltas the parent folds into its registries.  Exceptions
    are contained: the item reports ``error`` with NaN costs instead of
    poisoning the pool, and whatever the item recorded before failing
    is still returned.
    """
    framework: VPRFramework = state["_framework"]
    sub, cell_area = state["clusters"][cluster_id]
    candidate = state["config"].candidates[candidate_index]
    heartbeat = state.get("_heartbeat")
    if heartbeat is not None:
        heartbeat.beat("start", item=f"{cluster_id}/{candidate_index}")
    start = time.perf_counter()
    hpwl_cost = congestion_cost = float("nan")
    error: Optional[str] = None
    was_hit = False
    seconds: Optional[float] = None
    try:
        with _item_alarm(state["config"].item_timeout):
            cached = framework._cache_lookup(
                sub, cell_area, cluster_id, candidate_index
            )
            if cached is not None:
                evaluation, seconds = cached
                was_hit = True
            else:
                faults.check(
                    "vpr.item", key=f"{cluster_id}/{candidate_index}"
                )
                # Simulated external-tool latency (benchmarks only): a
                # production V-P&R item spends most of its wall blocked
                # on a P&R tool subprocess, which is what makes
                # distribution pay off even on narrow hosts.  This
                # reproduction evaluates in-process, so the fleet
                # scaling bench injects the blocked portion explicitly
                # via worker_env.  Never set in real runs (costs are
                # unaffected either way).
                delay = os.environ.get(ITEM_DELAY_ENV)
                if delay:
                    time.sleep(float(delay))
                evaluation = framework.evaluate_candidate(
                    sub, cell_area, candidate, cluster_id=cluster_id
                )
        hpwl_cost = evaluation.hpwl_cost
        congestion_cost = evaluation.congestion_cost
    except Exception as exc:
        error = repr(exc)
    if seconds is None:
        seconds = time.perf_counter() - start
    counters: Optional[dict] = None
    if state["perf_enabled"]:
        registry = perf.get_registry()
        counters = registry.snapshot()["counters"]
        registry.reset()
    if heartbeat is not None:
        heartbeat.beat(
            "done",
            item=f"{cluster_id}/{candidate_index}",
            error=error,
            cached=was_hit,
        )
    return (
        hpwl_cost,
        congestion_cost,
        seconds,
        counters,
        telemetry.worker_snapshot(),
        error,
        was_hit,
    )


def _chunk_worker(
    token: StateToken, items: Sequence[Tuple[int, int]]
) -> List[_WorkerResult]:
    """Evaluate a chunk of (cluster, candidate) items in one pool task.

    The state token is resolved here (not in a pool initializer), so an
    attach failure is contained to this chunk and flows into the
    parent-side retry path instead of breaking the whole pool.
    Per-item exception containment, counters and telemetry payloads are
    unchanged from :func:`_candidate_worker`; only the scheduling
    granularity differs.
    """
    state = _resolve_worker_state(token)
    return [_candidate_worker(state, c, k) for c, k in items]


# ----------------------------------------------------------------------
# Shape selectors (Table 6 arms)
# ----------------------------------------------------------------------
class ShapeSelector:
    """Chooses a shape per cluster.  Subclasses implement select()."""

    name = "base"

    def select(
        self, source: Design, members: Sequence[Sequence[int]]
    ) -> VPRSelection:
        """Return shapes for every cluster."""
        raise NotImplementedError


class UniformShapeSelector(ShapeSelector):
    """Every cluster gets AR = 1.0, utilization = 0.9 (Table 6
    "Uniform")."""

    name = "uniform"

    def select(
        self, source: Design, members: Sequence[Sequence[int]]
    ) -> VPRSelection:
        shape = uniform_shape()
        return VPRSelection(shapes={c: shape for c in range(len(members))})


class RandomShapeSelector(ShapeSelector):
    """Random candidate per cluster (Table 6 "Random")."""

    name = "random"

    def __init__(self, seed: int = 0, candidates: Optional[List[ShapeCandidate]] = None):
        self.rng = random.Random(seed)
        self.candidates = candidates or default_candidate_grid()

    def select(
        self, source: Design, members: Sequence[Sequence[int]]
    ) -> VPRSelection:
        shapes = {
            c: self.rng.choice(self.candidates) for c in range(len(members))
        }
        return VPRSelection(shapes=shapes)


class VPRShapeSelector(ShapeSelector):
    """Exact V-P&R: 20 place-and-route runs per eligible cluster."""

    name = "vpr"

    def __init__(
        self,
        config: Optional[VPRConfig] = None,
        checkpoint: Optional[CheckpointStore] = None,
        cache: Optional[EvaluationCache] = None,
    ) -> None:
        self.framework = VPRFramework(config, checkpoint=checkpoint, cache=cache)

    def select(
        self, source: Design, members: Sequence[Sequence[int]]
    ) -> VPRSelection:
        start = time.perf_counter()
        config = self.framework.config
        eligible = self.framework.eligible_clusters(members)
        skipped = 0
        if config.max_vpr_clusters is not None and len(eligible) > config.max_vpr_clusters:
            skipped = len(eligible) - config.max_vpr_clusters
            eligible = eligible[: config.max_vpr_clusters]
        shapes: Dict[int, ShapeCandidate] = {
            c: uniform_shape() for c in range(len(members))
        }
        with perf.stage("vpr/select"), telemetry.span(
            "vpr.select", selector=self.name, clusters=len(eligible)
        ):
            sweeps = self.framework.sweep_clusters(source, members, eligible)
        delta = self.framework.config.delta
        for sweep in sweeps:
            shapes[sweep.cluster_id] = sweep.best
            best_eval = self.framework._best_of(
                sweep.evaluations, cluster_id=sweep.cluster_id
            )
            telemetry.event(
                "vpr.shape_selected",
                selector=self.name,
                cluster=sweep.cluster_id,
                ar=sweep.best.aspect_ratio,
                util=sweep.best.utilization,
                total_cost=best_eval.total(delta),
            )
        return VPRSelection(
            shapes=shapes,
            sweeps=sweeps,
            skipped_clusters=skipped,
            runtime=time.perf_counter() - start,
        )


class MLShapeSelector(ShapeSelector):
    """ML-accelerated V-P&R: a trained predictor replaces the 20 P&R
    runs (the right-hand branch of Figure 3).

    Args:
        predictor: ``f(sub_design, candidates) -> np.ndarray`` of
            predicted Total Cost per candidate.  The GNN stack in
            :mod:`repro.ml` provides :class:`~repro.ml.model.TotalCostPredictor`.
        config: Eligibility / candidate grid (P&R knobs unused).
    """

    name = "vpr_ml"

    def __init__(
        self,
        predictor: Callable[[Design, Sequence[ShapeCandidate]], np.ndarray],
        config: Optional[VPRConfig] = None,
    ) -> None:
        self.predictor = predictor
        self.config = config or VPRConfig()
        self.framework = VPRFramework(self.config)

    def select(
        self, source: Design, members: Sequence[Sequence[int]]
    ) -> VPRSelection:
        start = time.perf_counter()
        framework = self.framework
        eligible = framework.eligible_clusters(members)
        skipped = 0
        cap = self.config.max_vpr_clusters
        if cap is not None and len(eligible) > cap:
            skipped = len(eligible) - cap
            eligible = eligible[:cap]
        shapes: Dict[int, ShapeCandidate] = {
            c: uniform_shape() for c in range(len(members))
        }
        with perf.stage("vpr/ml_select"), telemetry.span(
            "vpr.ml_select", selector=self.name, clusters=len(eligible)
        ):
            for c in eligible:
                sub, _area = framework.induce(source, members[c])
                costs = np.asarray(self.predictor(sub, self.config.candidates))
                pick = int(np.argmin(costs))
                shapes[c] = self.config.candidates[pick]
                telemetry.observe("vpr.ml.predicted_cost", float(costs[pick]))
                telemetry.event(
                    "vpr.shape_selected",
                    selector=self.name,
                    cluster=c,
                    ar=shapes[c].aspect_ratio,
                    util=shapes[c].utilization,
                    predicted_cost=float(costs[pick]),
                )
        return VPRSelection(
            shapes=shapes,
            skipped_clusters=skipped,
            runtime=time.perf_counter() - start,
        )
