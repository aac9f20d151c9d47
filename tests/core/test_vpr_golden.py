"""Golden V-P&R costs: every candidate's costs, bit for bit.

``data/vpr_golden.json`` holds the ``float.hex`` Total-Cost components
of every (cluster, candidate) evaluation of a small design's full
20-candidate sweep, the selected shapes, the B2B solver work counters
and the numeric stack that produced them.  The costs were recorded
before the sweep's placement was batched, so this test pins the
batched lockstep placement to the per-candidate one it replaced.

On the recording stack (same numpy, scipy and BLAS) the comparison is
exact.  Another stack may round differently inside BLAS or the sparse
kernels, so there only the selected shapes, the work counters and the
costs within 1e-9 relative are required.

Regenerate (only when an intended QoR change lands) with::

    PYTHONPATH=src python tests/core/test_vpr_golden.py
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np
import scipy

from repro import perf
from repro.core.ppa_clustering import PPAClusteringConfig, ppa_aware_clustering
from repro.core.vpr import VPRConfig, VPRShapeSelector
from repro.db.database import DesignDatabase
from repro.designs import DesignSpec, generate_design

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "vpr_golden.json")

#: Counters that measure deterministic solver work.
COUNTERS = ("b2b.solves", "b2b.cg_iterations", "vpr.candidates_evaluated")


def numeric_stack() -> dict:
    """numpy / scipy versions and the BLAS numpy was built against."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run_sweep() -> dict:
    """Sweep the golden design's two largest clusters over all 20 shapes."""
    design = generate_design(
        DesignSpec(
            "golden",
            500,
            clock_period=0.7,
            logic_depth=10,
            hierarchy_depth=2,
            hierarchy_branching=3,
            seed=11,
        )
    )
    members = ppa_aware_clustering(
        DesignDatabase(design), PPAClusteringConfig(target_cluster_size=120)
    ).members()
    config = VPRConfig(min_cluster_instances=60, max_vpr_clusters=2)
    was_enabled = perf.is_enabled()
    perf.enable()
    perf.reset()
    try:
        selection = VPRShapeSelector(config).select(design, members)
        counters = {name: perf.counter_value(name) for name in COUNTERS}
    finally:
        perf.reset()
        if not was_enabled:
            perf.disable()
    return {
        "stack": numeric_stack(),
        "counters": counters,
        "clusters": [
            {
                "cluster": sweep.cluster_id,
                "best": [sweep.best.aspect_ratio, sweep.best.utilization],
                "costs": [
                    [e.hpwl_cost.hex(), e.congestion_cost.hex()]
                    for e in sweep.evaluations
                ],
            }
            for sweep in selection.sweeps
        ],
    }


def test_sweep_matches_golden():
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    got = run_sweep()
    assert len(golden["clusters"]) >= 2
    assert got["counters"] == golden["counters"]
    assert [c["cluster"] for c in got["clusters"]] == [
        c["cluster"] for c in golden["clusters"]
    ]
    exact = got["stack"] == golden["stack"]
    for want, have in zip(golden["clusters"], got["clusters"]):
        assert have["best"] == want["best"], want["cluster"]
        if exact:
            assert have["costs"] == want["costs"], want["cluster"]
            continue
        for (wh, wg), (hh, hg) in zip(want["costs"], have["costs"]):
            for w, h in ((wh, hh), (wg, hg)):
                assert math.isclose(
                    float.fromhex(h), float.fromhex(w), rel_tol=1e-9
                ), want["cluster"]


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    record = run_sweep()
    with open(GOLDEN, "w") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    json.dump(record["counters"], sys.stdout)
    print()
