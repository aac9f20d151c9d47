"""The benchmark's three serial workloads and their output checks.

Each workload is a closed loop with one caller that waits for every
result, run in one process with ``jobs=1``.  The workload seed
regenerates the design from its paper spec in :mod:`repro.designs`
(the spec's generator seed is replaced) and draws the ECO edit stream;
the program sees only the generated inputs.

* ``sweep_cold`` -- the routed :class:`ClusteredPlacementFlow` on
  ``ariane`` with no evaluation cache.  The V-P&R shape sweep is most
  of the run, so any optimisation of the sweep kernels shows here.
* ``flat_warm`` -- the same flow on ``MemPool Group`` (the largest
  design) against an evaluation cache filled during set-up: every
  V-P&R item is a cache hit, so the time is clustering, flat seeded and
  incremental placement, full-design routing and STA.  Sweep-only
  changes should read "no change" here.
* ``eco_stream`` -- one :class:`EcoSession` over a routed, checkpointed
  ``ariane`` base run applies a seeded stream of single-edit scripts
  (mostly resizes, some add / remove / reconnect; a fixed 35% of them
  change a large swept cluster and re-sweep it, see :func:`eco_stream`).

A parallel-sweep workload is left out on purpose: ``jobs=2`` on a
2-core host spreads too much to gate, so ``repro.core.fanout`` and the
worker fleet are not measured.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import random
import shutil
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro import designs
from repro.core.flow import ClusteredPlacementFlow, FlowConfig
from repro.core.vpr import VPRFramework
from repro.eco import EcoSession, parse_edits
from repro.netlist.design import PinDirection

QOR_FIELDS = ("hpwl", "rwl", "wns", "tns", "power", "hold_wns", "hold_tns")

#: ``repro.perf`` counters that count deterministic work; each must
#: repeat exactly across runs of one seed.
WORK_COUNTERS = (
    "b2b.cg_iterations",
    "b2b.solves",
    "steiner.rsmt.miss",
    "vpr.candidates_evaluated",
    "eco.vpr.resweep",
    "sta.incremental.arcs_evaluated",
)

#: Scripts in the ECO stream (one timed pass), and how many of them are
#: replayed on a second fresh copy to check they repeat exactly.
ECO_SCRIPTS = 20
ECO_REPLAYED = 2
#: The re-sweeping scripts edit the largest swept clusters only.
ECO_TAIL_CLUSTERS = 4


def make_design(name: str, seed: int):
    """A fresh design from the paper spec with generator seed ``seed``."""
    spec = dataclasses.replace(designs.benchmark_spec(name), seed=seed)
    return designs.generate_design(spec)


def _sha(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:16]


def qor_of(metrics) -> Dict[str, float]:
    return {field: float(getattr(metrics, field)) for field in QOR_FIELDS}


def fingerprint(design, qor: Dict[str, float], shapes: Dict) -> Dict[str, str]:
    """QoR, shape and placement hashes of one operation's output."""
    coords = np.array([(i.x, i.y) for i in design.instances], dtype=np.float64)
    shape_rows = sorted(
        (int(c), float(s.aspect_ratio), float(s.utilization))
        for c, s in shapes.items()
    )
    return {
        "qor": _sha(json.dumps({k: repr(v) for k, v in qor.items()}).encode()),
        "shapes": _sha(repr(shape_rows).encode()),
        "placement": _sha(coords.tobytes()),
    }


def output_problems(design, qor: Dict[str, float]) -> List[str]:
    """Invariant checks every flow and ECO output must pass."""
    problems = [f"{k} is not finite" for k, v in qor.items() if not math.isfinite(v)]
    fp = design.floorplan
    outside = [
        inst.name
        for inst in design.instances
        if not (0.0 <= inst.x <= fp.die_width and 0.0 <= inst.y <= fp.die_height)
    ]
    if outside:
        problems.append(f"{len(outside)} instances outside the die, e.g. {outside[0]}")
    return problems


class Workload:
    """One benchmark workload.

    :meth:`setup_once` runs the one-off set-up; :meth:`rep` runs one
    repetition through the recorder, which times its per-repetition
    set-up and each operation and collects their results.
    """

    name = ""
    #: What one timed operation is (for the report).
    op_name = ""
    #: Repetitions every run makes at least.  Flow workloads repeat the
    #: whole flow so each run compares two answers for one seed.
    min_reps = 2

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup_once(self) -> None:
        """One-off set-up (default: none)."""

    def prepare(self):
        """The per-repetition set-up; returns what :meth:`rep` needs."""
        raise NotImplementedError

    def rep(self, rec, index: int) -> None:
        raise NotImplementedError


class SweepCold(Workload):
    name = "sweep_cold"
    op_name = "flow run"
    design_name = "ariane"

    def flow_config(self) -> FlowConfig:
        return FlowConfig(jobs=1)

    def prepare(self):
        return make_design(self.design_name, self.seed)

    def rep(self, rec, index: int) -> None:
        with rec.setup():
            design = self.prepare()
        config = self.flow_config()
        with rec.op("flow"):
            result = ClusteredPlacementFlow(config).run(design)
        qor = qor_of(result.metrics)
        rec.result(
            "flow",
            qor,
            fingerprint(design, qor, result.selection.shapes),
            output_problems(design, qor),
        )
        self.check_against_reference(rec, qor)

    def check_against_reference(self, rec, qor: Dict[str, float]) -> None:
        """Hook for workloads with a reference answer."""


class FlatWarm(SweepCold):
    name = "flat_warm"
    design_name = "MemPool Group"

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.cache_dir = os.path.join(workdir, "cache")
        self.cold_qor: Optional[Dict[str, float]] = None

    def flow_config(self) -> FlowConfig:
        return FlowConfig(jobs=1, cache_dir=self.cache_dir)

    def setup_once(self) -> None:
        # Fill the evaluation cache with a cold run of the same flow;
        # its answer is the reference every warm run must reproduce.
        design = make_design(self.design_name, self.seed)
        result = ClusteredPlacementFlow(self.flow_config()).run(design)
        self.cold_qor = qor_of(result.metrics)

    def check_against_reference(self, rec, qor: Dict[str, float]) -> None:
        if qor != self.cold_qor:
            rec.fail(f"warm QoR {qor} differs from the cold fill run {self.cold_qor}")
        # The flow is deterministic, so equal QoR alone would also pass
        # if every lookup missed: every V-P&R item must be a cache hit.
        counters = rec.ops[-1].counters
        if not counters.get("vpr.cache.hit"):
            rec.fail("warm run made no evaluation-cache hits")
        for name in ("vpr.cache.miss", "vpr.candidates_evaluated"):
            if counters.get(name):
                rec.fail(f"warm run has {name} = {counters[name]}, expected 0")


# ----------------------------------------------------------------------
# ECO stream
# ----------------------------------------------------------------------
def _inputs(inst) -> List[str]:
    return [
        pin
        for pin, cp in inst.master.pins.items()
        if cp.direction == PinDirection.INPUT and not cp.is_clock and pin in inst.pin_nets
    ]


def eco_stream(
    design, seed: int, length: int, swept_clusters: Sequence[Sequence[int]]
) -> List[List[Dict[str, Any]]]:
    """A seeded stream of single-edit scripts valid against ``design``.

    ``swept_clusters`` lists the members of the V-P&R-eligible clusters,
    largest first.  The composition is fixed so every seed stresses the
    same paths: 35% of the scripts resize a cell inside one of the
    :data:`ECO_TAIL_CLUSTERS` largest swept clusters, in a seeded round
    robin (the cluster's content changes, so the ECO re-evaluates its
    shape candidates and the script lands in the latency tail; similar
    cluster sizes keep that tail comparable across seeds, and 35% keeps
    the p90 well inside it); a tenth each add a buffer, remove a cell
    and reconnect a pin; the rest resize a cell.  Those other edits only
    touch cells whose nets stay outside the swept clusters.  Removals
    take cells no other edit names; adds and reconnects attach to nets
    driven by flip-flops, which no edit removes and which cannot close
    a combinational loop.
    """
    rng = random.Random(seed)
    swept = {int(i) for members in swept_clusters for i in members}
    masters = design.masters
    families: Dict[str, List[str]] = {}
    for name in masters:
        if "_X" in name:
            families.setdefault(name.rsplit("_X", 1)[0], []).append(name)

    def family(name: str) -> List[str]:
        return families.get(name.rsplit("_X", 1)[0], [])

    def quiet(inst) -> bool:
        return all(
            other.index not in swept
            for net in inst.pin_nets.values()
            for other in net.instances()
        )

    comb = [
        inst
        for inst in design.instances
        if not inst.fixed
        and not inst.master.is_sequential
        and not inst.master.is_macro
        and len(family(inst.master.name)) > 1
        and _inputs(inst)
    ]
    tail_sets = [{int(i) for i in members} for members in swept_clusters[:ECO_TAIL_CLUSTERS]]
    by_cluster = [[inst for inst in comb if inst.index in cells] for cells in tail_sets]
    by_cluster = [cells for cells in by_cluster if cells]
    rng.shuffle(by_cluster)
    outside = [inst for inst in comb if inst.index not in swept and quiet(inst)]
    ff_nets = sorted(
        net.name
        for net in design.nets
        if not net.is_clock
        and net.driver is not None
        and net.driver.instance is not None
        and net.driver.instance.master.is_sequential
        and all(other.index not in swept for other in net.instances())
    )
    buf = masters["BUF_X1"]
    (buf_in,) = [p for p, cp in buf.pins.items() if cp.direction == PinDirection.INPUT]
    (buf_out,) = [p for p, cp in buf.pins.items() if cp.direction == PinDirection.OUTPUT]

    few = max(1, length // 10)
    kinds = ["sweep"] * round(0.35 * length) + ["add", "remove", "reconnect"] * few
    kinds += ["resize"] * (length - len(kinds))
    rng.shuffle(kinds)
    rng.shuffle(outside)
    removable = outside[:few]
    editable = outside[few:]
    masters_now = {inst.name: inst.master.name for inst in comb}
    scripts: List[List[Dict[str, Any]]] = []
    sweeps = 0
    for k, kind in enumerate(kinds):
        if kind == "remove":
            edit = {"kind": "remove", "instance": removable.pop().name}
        elif kind == "add":
            edit = {
                "kind": "add",
                "instance": f"eco_bench/buf{k}",
                "master": buf.name,
                "connections": {buf_in: rng.choice(ff_nets), buf_out: f"eco_bench_n{k}"},
            }
        elif kind == "reconnect":
            inst = rng.choice(editable)
            edit = {
                "kind": "reconnect",
                "instance": inst.name,
                "pin": rng.choice(_inputs(inst)),
                "net": rng.choice(ff_nets),
            }
        else:
            if kind == "sweep":
                inst = rng.choice(by_cluster[sweeps % len(by_cluster)])
                sweeps += 1
            else:
                inst = rng.choice(editable)
            current = masters_now[inst.name]
            new = rng.choice([m for m in family(current) if m != current])
            masters_now[inst.name] = new
            edit = {"kind": "resize", "instance": inst.name, "master": new}
        scripts.append([edit])
    return scripts


class EcoStream(Workload):
    name = "eco_stream"
    op_name = "ECO script"
    design_name = "ariane"
    #: One pass over the stream is the timed part; the prefix replay
    #: after the first pass checks that the answers repeat.
    min_reps = 1

    def setup_once(self) -> None:
        design = make_design(self.design_name, self.seed)
        self.base = os.path.join(self.workdir, "base")
        config = FlowConfig(
            jobs=1,
            checkpoint_dir=os.path.join(self.base, "ckpt"),
            cache_dir=os.path.join(self.base, "cache"),
        )
        result = ClusteredPlacementFlow(config).run(design)
        self.base_qor = qor_of(result.metrics)
        # The clusters the base run swept, as the flow picks them.
        members = result.clustering.members()
        vpr = config.vpr_config
        eligible = VPRFramework(vpr).eligible_clusters(members)
        if vpr.max_vpr_clusters is not None:
            eligible = eligible[: vpr.max_vpr_clusters]
        self.scripts = [
            parse_edits(script)
            for script in eco_stream(
                design, self.seed, ECO_SCRIPTS, [members[c] for c in eligible]
            )
        ]

    def prepare(self) -> EcoSession:
        return self._open("pass")

    def _open(self, name: str) -> EcoSession:
        # Every pass gets its own copy of the base checkpoint and cache:
        # a reused cache would turn later re-sweeps into hits.
        copy = os.path.join(self.workdir, name)
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(self.base, copy)
        return EcoSession(
            os.path.join(copy, "ckpt"), cache_dir=os.path.join(copy, "cache")
        )

    def _apply(self, rec, session: EcoSession, scripts, sample: bool) -> None:
        for k, script in enumerate(scripts):
            key = f"script{k}"
            with rec.op(key, sample=sample):
                result = session.apply(script)
            qor = qor_of(result.metrics)
            rec.result(
                key,
                qor,
                fingerprint(session.design, qor, result.shapes),
                output_problems(session.design, qor),
            )

    def rep(self, rec, index: int) -> None:
        with rec.setup():
            session = self.prepare()
        noop = qor_of(session.apply([]).metrics)
        rec.check(
            noop == self.base_qor,
            f"empty script gave {noop}, base run gave {self.base_qor}",
        )
        self._apply(rec, session, self.scripts, sample=True)
        if index == 0:
            replay = self._open("replay")
            self._apply(rec, replay, self.scripts[:ECO_REPLAYED], sample=False)


WORKLOADS: Dict[str, Callable[[int, str], Workload]] = {
    cls.name: cls for cls in (SweepCold, FlatWarm, EcoStream)
}
