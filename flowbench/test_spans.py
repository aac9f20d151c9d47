"""Self-tests of the benchmark's tracer and per-layer ledger.

Run from the repository root::

    python3 -m pytest flowbench/test_spans.py -q
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import pytest  # noqa: E402

import spans  # noqa: E402
from repro.core.flow import ClusteredPlacementFlow, FlowConfig  # noqa: E402
from repro.core.ppa_clustering import PPAClusteringConfig  # noqa: E402
from repro.core.shapes import default_candidate_grid  # noqa: E402
from repro.core.vpr import VPRConfig  # noqa: E402
from repro.designs import DesignSpec, generate_design  # noqa: E402
from repro.place import b2b, placer  # noqa: E402

#: Sleep injected into every solve_axis call.
DELAY_S = 0.004


def _small_flow_config() -> FlowConfig:
    return FlowConfig(
        clustering_config=PPAClusteringConfig(target_cluster_size=100),
        vpr_config=VPRConfig(
            min_cluster_instances=60,
            max_vpr_clusters=2,
            placer_iterations=3,
            candidates=default_candidate_grid()[:3],
        ),
        run_routing=False,
    )


def _traced_flow() -> spans.Tracer:
    design = generate_design(
        DesignSpec(
            "ledger_test",
            600,
            logic_depth=8,
            hierarchy_depth=2,
            hierarchy_branching=3,
            seed=5,
        )
    )
    tracer = spans.Tracer()
    with tracer:
        with tracer.span(spans.OP):
            ClusteredPlacementFlow(_small_flow_config()).run(design)
    return tracer


def test_install_wraps_bound_names_and_uninstall_restores():
    original_solve = b2b.solve_axis
    original_run = placer.GlobalPlacer.__dict__["run"]
    tracer = spans.Tracer().install()
    try:
        assert placer.solve_axis is b2b.solve_axis
        assert placer.solve_axis is not original_solve
        assert placer.solve_axis.__wrapped__ is original_solve
        assert placer.GlobalPlacer.__dict__["run"] is not original_run
    finally:
        tracer.uninstall()
    assert b2b.solve_axis is original_solve
    assert placer.solve_axis is original_solve
    assert placer.GlobalPlacer.__dict__["run"] is original_run


def test_injected_delay_lands_in_that_layers_self_time(monkeypatch):
    base = spans.self_times(_traced_flow())

    original = b2b.solve_axis

    def slow_solve_axis(*args, **kwargs):
        time.sleep(DELAY_S)
        return original(*args, **kwargs)

    monkeypatch.setattr(b2b, "solve_axis", slow_solve_axis)
    monkeypatch.setattr(placer, "solve_axis", slow_solve_axis)
    tracer = _traced_flow()
    slow = spans.self_times(tracer)

    calls = tracer.names.count("place.solve_axis")
    injected = calls * DELAY_S
    assert calls > 50 and injected > 0.3
    added = slow["place.solve_axis"] - base["place.solve_axis"]
    assert injected * 0.95 <= added <= injected * 1.5

    # No other layer's self time absorbs the delay: its callers
    # (GlobalPlacer.run, the V-P&R candidate, seeded placement) keep
    # their self time within run-to-run noise.
    for name in set(base) | set(slow):
        if name == "place.solve_axis":
            continue
        grew = slow.get(name, 0.0) - base.get(name, 0.0)
        assert grew < 0.15 * injected, (name, grew, injected)

    ledger = spans.ledger(tracer, {})
    assert ledger["place.solve_s"] == pytest.approx(slow["place.solve_axis"])
    assert ledger["trace.unattributed_s"] < 0.15 * injected
    assert 0.0 < ledger["trace.overhead_frac"] < 0.5
