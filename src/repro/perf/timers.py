"""Hierarchical stage timers and event counters.

A :class:`PerfRegistry` aggregates wall-clock per *stage* and integer
*counters* (cache hits, work-item counts, payload sizes).  Stage names
are hierarchical: entering ``stage("vpr")`` and then ``stage("place")``
records the inner time under ``"vpr/place"``, so a report reads like a
call tree without any profiler overhead.  A nested name's leading
namespace is dropped when the path already has it (``stage("flow/vpr")``
then ``stage("vpr/select")`` records ``"flow/vpr/select"``).

The module keeps one process-wide default registry.  Instrumentation is
**off by default**: :func:`stage` then returns a shared no-op context
manager and :func:`count` returns immediately, so hot paths can be
instrumented unconditionally (see ``tests/perf`` for the overhead
budget).  Worker processes of the parallel V-P&R engine each carry
their own registry; their counters travel back with the results and are
folded into the parent via :func:`merge_counters`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class StageStat:
    """Aggregate timing of one stage.

    Attributes:
        total: Summed wall-clock seconds.
        calls: Number of enter/exit pairs.
        min: Fastest single call (seconds).
        max: Slowest single call (seconds).
    """

    total: float = 0.0
    calls: int = 0
    min: float = float("inf")
    max: float = 0.0

    def add(self, seconds: float) -> None:
        """Fold one measured call into the aggregate."""
        self.total += seconds
        self.calls += 1
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds


class _NullStage:
    """Shared no-op context manager returned while disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullStage":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_STAGE = _NullStage()


class _Stage:
    """Context manager that times one stage entry."""

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: "PerfRegistry", name: str) -> None:
        self._registry = registry
        self._name = name

    def __enter__(self) -> "_Stage":
        self._registry._push(self._name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter() - self._start
        self._registry._pop(elapsed)


def _qualify(parent: str, name: str) -> str:
    """``parent/name`` without repeating a namespace already on the path.

    Stage names carry their layer's namespace (``vpr/sweep``) so they
    read well at top level; nested under ``flow/vpr/select`` the
    leading ``vpr`` would only repeat it.  Leading components of
    ``name`` that already appear in ``parent`` are dropped, so
    ``flow/vpr`` > ``vpr/select`` > ``vpr/sweep`` records
    ``flow/vpr/select/sweep``.  The last component is always kept.
    """
    seen = set(parent.split("/"))
    parts = name.split("/")
    skip = 0
    while skip < len(parts) - 1 and parts[skip] in seen:
        skip += 1
    return "/".join([parent, *parts[skip:]])


class PerfRegistry:
    """Thread-safe store of stage timings and counters."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._stages: Dict[str, StageStat] = {}
        self._counters: Dict[str, int] = {}
        self._local = threading.local()

    # -- stage stack (per thread) --------------------------------------
    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _push(self, name: str) -> None:
        stack = self._stack()
        stack.append(_qualify(stack[-1], name) if stack else name)

    def _pop(self, elapsed: float) -> None:
        stack = self._stack()
        qualified = stack.pop()
        with self._lock:
            stat = self._stages.get(qualified)
            if stat is None:
                stat = self._stages[qualified] = StageStat()
            stat.add(elapsed)

    # -- public API ----------------------------------------------------
    def stage(self, name: str):
        """Context manager timing ``name`` (no-op while disabled)."""
        if not self.enabled:
            return _NULL_STAGE
        return _Stage(self, name)

    def count(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` by ``n`` (no-op while disabled)."""
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def counter_value(self, name: str) -> int:
        """Current value of a counter (0 when never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def merge_counters(self, counters: Dict[str, int]) -> None:
        """Fold a worker process's counter snapshot into this registry."""
        if not self.enabled or not counters:
            return
        with self._lock:
            for name, value in counters.items():
                self._counters[name] = self._counters.get(name, 0) + int(value)

    def snapshot(self) -> Dict[str, object]:
        """Plain-dict copy of all stages and counters."""
        with self._lock:
            stages = {
                name: {
                    "total_s": stat.total,
                    "calls": stat.calls,
                    "mean_s": stat.total / stat.calls if stat.calls else 0.0,
                    "min_s": stat.min if stat.calls else 0.0,
                    "max_s": stat.max,
                }
                for name, stat in self._stages.items()
            }
            counters = dict(self._counters)
        return {"stages": stages, "counters": counters}

    def reset(self) -> None:
        """Drop all recorded stages and counters."""
        with self._lock:
            self._stages.clear()
            self._counters.clear()


_DEFAULT = PerfRegistry()


def get_registry() -> PerfRegistry:
    """The process-wide default registry."""
    return _DEFAULT


def enable() -> None:
    """Turn instrumentation on for the default registry."""
    _DEFAULT.enabled = True


def disable() -> None:
    """Turn instrumentation off (hooks become no-ops)."""
    _DEFAULT.enabled = False


def is_enabled() -> bool:
    """Whether the default registry is recording."""
    return _DEFAULT.enabled


def reset() -> None:
    """Clear the default registry."""
    _DEFAULT.reset()


def stage(name: str):
    """Time a stage on the default registry (``with perf.stage(...)``)."""
    if not _DEFAULT.enabled:
        return _NULL_STAGE
    return _Stage(_DEFAULT, name)


def count(name: str, n: int = 1) -> None:
    """Increment a counter on the default registry."""
    if not _DEFAULT.enabled:
        return
    _DEFAULT.count(name, n)


def counter_value(name: str) -> int:
    """Read a counter from the default registry."""
    return _DEFAULT.counter_value(name)


def merge_counters(counters: Optional[Dict[str, int]]) -> None:
    """Fold worker counters into the default registry."""
    if counters:
        _DEFAULT.merge_counters(counters)
