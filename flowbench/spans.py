"""Span tracing from outside the program, and the per-layer ledger.

:class:`Tracer` wraps the public entry points of each ``repro`` layer
without editing the package: a class method is replaced on its class,
a module-level function is replaced in its defining module *and* in
every ``repro`` module that bound it with ``from ... import``, because
that bound name is what the calling module resolves at call time.

Every wrapped call becomes a span (name, start, end, parent).  The
rectilinear Steiner tree kernel runs tens of thousands of times per
flow, so it is recorded as a timed aggregate per parent span instead.
Spans stay in memory; :meth:`Tracer.dump` writes them out at the end.

:func:`ledger` turns the spans of a traced phase into the per-layer
metrics the benchmark reports (busy time, self time, call counts),
averaged per timed operation.  Its ``trace.overhead_frac`` is an
estimate: the wrapped calls the operations made, each costed by
:func:`wrapper_costs`.  Comparing traced with untraced repetitions
cannot resolve it on a shared host, whose speed (CPU time included)
drifts by 10-20% between consecutive repetitions of one operation.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import statistics
import sys
import time
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

#: (span name, module, attribute) -- ``attribute`` is ``Class.method``
#: for a method or a function name.  Span names are ``layer.what``.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("designs.generate", "repro.designs.generator", "generate_design"),
    ("cluster.ppa", "repro.core.ppa_clustering", "ppa_aware_clustering"),
    ("clustered.build", "repro.core.clustered_netlist", "build_clustered_netlist"),
    ("vpr.select", "repro.core.vpr", "VPRShapeSelector.select"),
    ("vpr.induce", "repro.core.vpr", "VPRFramework.induce"),
    ("vpr.candidate", "repro.core.vpr", "VPRFramework.evaluate_candidate"),
    ("seeded.place", "repro.core.seeded", "seeded_placement"),
    ("place.gp", "repro.place.placer", "GlobalPlacer.run"),
    ("place.b2b_edges", "repro.place.b2b", "b2b_edges"),
    ("place.solve_axis", "repro.place.b2b", "solve_axis"),
    ("place.spreading_targets", "repro.place.spreading", "spreading_targets"),
    ("place.spread_displacement", "repro.place.spreading", "spread_displacement"),
    ("place.legalize", "repro.place.legalize", "legalize"),
    ("route.global", "repro.route.global_route", "GlobalRouter.run"),
    ("route.rsmt", "repro.route.steiner", "rsmt"),
    ("route.cts", "repro.route.cts", "synthesize_clock_tree"),
    ("sta.update", "repro.sta.analysis", "TimingAnalyzer.update"),
    ("sta.hold", "repro.sta.hold", "analyze_hold"),
    ("sta.activity", "repro.sta.activity", "propagate_activity"),
    ("sta.power", "repro.sta.power", "analyze_power"),
    ("cache.get", "repro.cache.store", "EvaluationCache.get"),
    ("cache.put", "repro.cache.store", "EvaluationCache.put"),
    ("cache.touch", "repro.cache.store", "EvaluationCache.touch"),
    ("eco.apply_edits", "repro.eco.apply", "apply_edits"),
    ("checkpoint.save", "repro.recovery.checkpoint", "CheckpointStore.save_stage"),
    ("checkpoint.load", "repro.recovery.checkpoint", "CheckpointStore.load_stage"),
)

#: Kernels recorded as per-parent aggregates instead of one span each.
AGGREGATED = frozenset({"route.rsmt"})

#: Root span names the benchmark itself opens.
OP = "bench.op"
SETUP = "bench.setup"
SETUP_ONCE = "bench.setup_once"


class Tracer:
    """Installs span wrappers on :data:`TARGETS`; records in memory."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.parents: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        #: (parent span id, name) -> [calls, seconds]
        self.aggregates: Dict[Tuple[int, str], List[float]] = {}
        self._stack: List[int] = []
        self._active: Dict[str, int] = {}
        self._restore: List[Tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------
    def open(self, name: str) -> int:
        """Start a span under the current one; returns its id."""
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(time.perf_counter())
        self.ends.append(float("nan"))
        self._stack.append(sid)
        self._active[name] = self._active.get(name, 0) + 1
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {self.names[sid]} closed out of order")
        self._active[self.names[sid]] -= 1

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Context manager form of :meth:`open` / :meth:`close`."""
        sid = self.open(name)
        try:
            yield sid
        finally:
            self.close(sid)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        if name in AGGREGATED:

            def aggregated(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    key = (tracer._stack[-1] if tracer._stack else -1, name)
                    entry = tracer.aggregates.get(key)
                    if entry is None:
                        entry = tracer.aggregates[key] = [0, 0.0]
                    entry[0] += 1
                    entry[1] += time.perf_counter() - t0

            aggregated.__wrapped__ = fn
            return aggregated

        def spanned(*args, **kwargs):
            # A re-entrant call (a layer calling itself) stays inside
            # the outer span, so busy time never double counts.
            if tracer._active.get(name):
                return fn(*args, **kwargs)
            sid = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(sid)

        spanned.__wrapped__ = fn
        return spanned

    # -- installation -----------------------------------------------------
    def install(self) -> "Tracer":
        """Wrap every target; :meth:`uninstall` puts the originals back."""
        for name, module_name, attribute in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                cls_name, method = attribute.split(".")
                owner = getattr(module, cls_name)
                original = inspect.getattr_static(owner, method)
                if not inspect.isfunction(original):
                    raise TypeError(f"{attribute} is not a plain method")
                self._patch(owner, method, self._wrap(name, original))
                continue
            original = getattr(module, attribute)
            wrapped = self._wrap(name, original)
            for bound in _modules_binding(original):
                for attr, value in list(vars(bound).items()):
                    if value is original:
                        self._patch(bound, attr, wrapped)
        return self

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output -------------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write every span and aggregate as JSON."""
        spans = [
            {"id": i, "name": n, "parent": p, "start": s, "end": e}
            for i, (n, p, s, e) in enumerate(
                zip(self.names, self.parents, self.starts, self.ends)
            )
        ]
        aggregates = [
            {"parent": parent, "name": name, "calls": int(calls), "seconds": secs}
            for (parent, name), (calls, secs) in sorted(self.aggregates.items())
        ]
        with open(path, "w") as handle:
            json.dump({"spans": spans, "aggregates": aggregates}, handle)


def _modules_binding(obj: object) -> Iterable[object]:
    """Every loaded ``repro`` module with a global bound to ``obj``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        if any(value is obj for value in vars(module).values()):
            yield module


# ----------------------------------------------------------------------
# The ledger
# ----------------------------------------------------------------------
class _Tree:
    """Parent/child views over a tracer's spans."""

    def __init__(self, tracer: Tracer) -> None:
        self.t = tracer
        n = len(tracer.names)
        self.duration = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
        self.root = list(range(n))
        for i in range(n):
            p = tracer.parents[i]
            if p >= 0:
                self.root[i] = self.root[p]
        self.child_time = [0.0] * n
        for i in range(n):
            p = tracer.parents[i]
            if p >= 0:
                self.child_time[p] += self.duration[i]
        self.agg_calls: Dict[Tuple[str, int], float] = {}
        self.agg_time: Dict[Tuple[str, int], float] = {}
        for (parent, name), (calls, secs) in tracer.aggregates.items():
            if parent >= 0:
                self.child_time[parent] += secs
            root = self.root[parent] if parent >= 0 else -1
            self.agg_calls[(name, root)] = self.agg_calls.get((name, root), 0) + calls
            self.agg_time[(name, root)] = self.agg_time.get((name, root), 0.0) + secs

    def has_ancestor(self, sid: int, name: str) -> bool:
        p = self.t.parents[sid]
        while p >= 0:
            if self.t.names[p] == name:
                return True
            p = self.t.parents[p]
        return False


#: Per-layer metric -> unit, in report order.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("vpr.busy_s", "s"),
    ("vpr.candidates", "count"),
    ("vpr.candidate_self_s", "s"),
    ("vpr.induce_s", "s"),
    ("vpr.place.gp_s", "s"),
    ("seeded.place.gp_s", "s"),
    ("eco.place.gp_s", "s"),
    ("place.b2b_edges_s", "s"),
    ("place.solve_s", "s"),
    ("place.spread_s", "s"),
    ("place.legalize_s", "s"),
    ("place.solves", "count"),
    ("place.cg_iterations", "count"),
    ("place.cg_per_solve", "ratio"),
    ("vpr.route.global_s", "s"),
    ("flow.route.global_s", "s"),
    ("eco.route.global_s", "s"),
    ("route.rsmt_calls", "count"),
    ("route.rsmt_s", "s"),
    ("route.rsmt_hit_ratio", "ratio"),
    ("route.cts_s", "s"),
    ("cluster.busy_s", "s"),
    ("clustered.build_s", "s"),
    ("seeded.busy_s", "s"),
    ("sta.update_s", "s"),
    ("sta.updates", "count"),
    ("sta.arcs_evaluated", "count"),
    ("sta.arcs_skipped", "count"),
    ("sta.graph_recompiles", "count"),
    ("sta.signoff_s", "s"),
    ("cache.get_s", "s"),
    ("cache.put_s", "s"),
    ("cache.touch_s", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.stores", "count"),
    ("cache.touches", "count"),
    ("vpr.cache_hit_ratio", "ratio"),
    ("eco.apply_edits_s", "s"),
    ("eco.dirty_clusters", "count"),
    ("eco.resweeps", "count"),
    ("eco.freed_instances", "count"),
    ("checkpoint.save_s", "s"),
    ("checkpoint.load_s", "s"),
    ("designs.generate_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def ledger(tracer: Tracer, counters: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics over the tracer's spans.

    Timed-phase metrics are means per ``bench.op`` root span (one flow
    run, or one ECO script).  ``checkpoint.*`` and ``designs.*`` also
    run during set-up; they are the ``bench.setup_once`` (one-off) time
    plus the mean over the per-operation ``bench.setup`` roots, the same
    way the benchmark's ``setup_s`` is.
    ``counters`` are the program's ``repro.perf`` counters summed over
    the traced operations.
    """
    tree = _Tree(tracer)
    t = tracer
    ops = [i for i, n in enumerate(t.names) if n == OP and t.parents[i] < 0]
    op_set = set(ops)
    nops = max(1, len(ops))

    def spans(name: str) -> List[int]:
        return [
            i for i, n in enumerate(t.names) if n == name and tree.root[i] in op_set
        ]

    def busy(*names: str) -> float:
        return sum(tree.duration[i] for n in names for i in spans(n)) / nops

    own = self_times(tracer)

    def self_time(name: str) -> float:
        return own.get(name, 0.0) / nops

    def split(name: str, where: Callable[[int], bool]) -> float:
        return sum(tree.duration[i] for i in spans(name) if where(i)) / nops

    def counter(key: str) -> float:
        return float(counters.get(key, 0))

    in_vpr = lambda i: tree.has_ancestor(i, "vpr.candidate")  # noqa: E731
    in_seeded = lambda i: tree.has_ancestor(i, "seeded.place")  # noqa: E731
    # An ECO script is an op whose subtree applied edits.
    eco_roots = {tree.root[i] for i in spans("eco.apply_edits")}

    rsmt_calls = sum(
        v for (n, r), v in tree.agg_calls.items() if n == "route.rsmt" and r in op_set
    )
    rsmt_time = sum(
        v for (n, r), v in tree.agg_time.items() if n == "route.rsmt" and r in op_set
    )
    hits, misses = counter("steiner.rsmt.hit"), counter("steiner.rsmt.miss")
    cache_hits, cache_misses = counter("vpr.cache.hit"), counter("vpr.cache.miss")
    solves, cg = counter("b2b.solves"), counter("b2b.cg_iterations")

    top_level = sum(
        tree.duration[i]
        for i in range(len(t.names))
        if t.parents[i] in op_set
    ) + sum(
        secs for (parent, name), (calls, secs) in t.aggregates.items() if parent in op_set
    )
    op_total = sum(tree.duration[i] for i in ops)
    span_cost, aggregate_cost = wrapper_costs()
    wrapped_spans = sum(1 for i in range(len(t.names)) if tree.root[i] in op_set) - len(ops)
    wrapped_aggregates = sum(v for (n, r), v in tree.agg_calls.items() if r in op_set)
    overhead = (wrapped_spans * span_cost + wrapped_aggregates * aggregate_cost) / nops

    out = {
        "vpr.busy_s": busy("vpr.select"),
        "vpr.candidates": len(spans("vpr.candidate")) / nops,
        "vpr.candidate_self_s": self_time("vpr.candidate"),
        "vpr.induce_s": busy("vpr.induce"),
        "vpr.place.gp_s": split("place.gp", in_vpr),
        "seeded.place.gp_s": split("place.gp", lambda i: not in_vpr(i) and in_seeded(i)),
        "eco.place.gp_s": split(
            "place.gp",
            lambda i: not in_vpr(i) and not in_seeded(i) and tree.root[i] in eco_roots,
        ),
        "place.b2b_edges_s": busy("place.b2b_edges"),
        "place.solve_s": self_time("place.solve_axis"),
        "place.spread_s": busy("place.spreading_targets", "place.spread_displacement"),
        "place.legalize_s": busy("place.legalize"),
        "place.solves": solves / nops,
        "place.cg_iterations": cg / nops,
        "place.cg_per_solve": _ratio(cg, solves),
        "vpr.route.global_s": split("route.global", in_vpr),
        "flow.route.global_s": split(
            "route.global", lambda i: not in_vpr(i) and tree.root[i] not in eco_roots
        ),
        "eco.route.global_s": split(
            "route.global", lambda i: not in_vpr(i) and tree.root[i] in eco_roots
        ),
        "route.rsmt_calls": rsmt_calls / nops,
        "route.rsmt_s": rsmt_time / nops,
        "route.rsmt_hit_ratio": _ratio(hits, hits + misses),
        "route.cts_s": busy("route.cts"),
        "cluster.busy_s": busy("cluster.ppa"),
        "clustered.build_s": busy("clustered.build"),
        "seeded.busy_s": busy("seeded.place"),
        "sta.update_s": busy("sta.update"),
        "sta.updates": len(spans("sta.update")) / nops,
        "sta.arcs_evaluated": counter("sta.incremental.arcs_evaluated") / nops,
        "sta.arcs_skipped": counter("sta.incremental.arcs_skipped") / nops,
        "sta.graph_recompiles": counter("sta.graph.recompiled") / nops,
        "sta.signoff_s": busy("sta.hold", "sta.activity", "sta.power"),
        "cache.get_s": busy("cache.get"),
        "cache.put_s": busy("cache.put"),
        "cache.touch_s": busy("cache.touch"),
        "cache.hits": cache_hits / nops,
        "cache.misses": cache_misses / nops,
        "cache.stores": counter("vpr.cache.store") / nops,
        "cache.touches": counter("vpr.cache.touch") / nops,
        "vpr.cache_hit_ratio": _ratio(cache_hits, cache_hits + cache_misses),
        "eco.apply_edits_s": busy("eco.apply_edits"),
        "eco.dirty_clusters": counter("eco.clusters.dirty") / nops,
        "eco.resweeps": counter("eco.vpr.resweep") / nops,
        "eco.freed_instances": counter("eco.place.freed") / nops,
        "trace.unattributed_s": (op_total - top_level) / nops,
        "trace.overhead_frac": _ratio(overhead, op_total / nops - overhead),
    }
    out.update(_setup_ledger(tree))
    return out


#: Calls per timing trial in :func:`wrapper_costs`, and trials.
COST_CALLS = 20000
COST_TRIALS = 5


def wrapper_costs() -> Tuple[float, float]:
    """Seconds a span wrapper and an aggregate wrapper add to one call.

    Times the wrappers :meth:`Tracer.install` makes, around a no-op on
    a scratch tracer, against the bare no-op (median of the trials).
    """

    def noop() -> None:
        return None

    def per_call(fn: Callable[[], None]) -> float:
        trials = []
        for _ in range(COST_TRIALS):
            t0 = time.perf_counter()
            for _ in range(COST_CALLS):
                fn()
            trials.append((time.perf_counter() - t0) / COST_CALLS)
        return statistics.median(trials)

    scratch = Tracer()
    bare = per_call(noop)
    span = per_call(scratch._wrap("cost.span", noop)) - bare
    aggregate = per_call(scratch._wrap(next(iter(AGGREGATED)), noop)) - bare
    return max(span, 0.0), max(aggregate, 0.0)


def self_times(tracer: Tracer) -> Dict[str, float]:
    """Span name -> total self time within the ``bench.op`` roots.

    A span's self time is its duration minus the time its child spans
    and aggregated kernel calls cover.  Aggregated kernels (no child
    spans) count their whole time as self time.
    """
    tree = _Tree(tracer)
    t = tracer
    ops = {i for i, n in enumerate(t.names) if n == OP and t.parents[i] < 0}
    out: Dict[str, float] = {}
    for i, name in enumerate(t.names):
        if tree.root[i] in ops and i not in ops:
            out[name] = out.get(name, 0.0) + tree.duration[i] - tree.child_time[i]
    for (parent, name), (_, secs) in t.aggregates.items():
        if parent >= 0 and tree.root[parent] in ops:
            out[name] = out.get(name, 0.0) + secs
    return out


def _setup_ledger(tree: _Tree) -> Dict[str, float]:
    """Set-up layer times: one-off set-up plus the per-op mean."""
    t = tree.t
    one_off = [i for i, n in enumerate(t.names) if n == SETUP_ONCE and t.parents[i] < 0]
    per_op = [i for i, n in enumerate(t.names) if n == SETUP and t.parents[i] < 0]
    out = {}
    for metric, name in (
        ("checkpoint.save_s", "checkpoint.save"),
        ("checkpoint.load_s", "checkpoint.load"),
        ("designs.generate_s", "designs.generate"),
    ):
        def total(group: List[int]) -> float:
            group_set = set(group)
            return sum(
                tree.duration[i]
                for i, n in enumerate(t.names)
                if n == name and tree.root[i] in group_set
            )

        value = total(one_off)
        if per_op:
            value += total(per_op) / len(per_op)
        out[metric] = value
    return out

