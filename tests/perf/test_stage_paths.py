"""Stage paths name each layer once: ``flow/vpr/select/sweep/place``,
not ``flow/vpr/vpr/select/vpr/sweep/vpr/place``."""

import pytest

from repro import perf
from repro.core.ppa_clustering import PPAClusteringConfig, ppa_aware_clustering
from repro.core.shapes import default_candidate_grid
from repro.core.vpr import VPRConfig, VPRShapeSelector
from repro.db.database import DesignDatabase
from repro.perf.timers import PerfRegistry, _qualify


@pytest.fixture(autouse=True)
def _clean_registry():
    perf.disable()
    perf.reset()
    yield
    perf.disable()
    perf.reset()


class TestQualify:
    def test_namespace_already_on_path_is_dropped(self):
        assert _qualify("flow/vpr", "vpr/select") == "flow/vpr/select"
        assert _qualify("flow/vpr/select", "vpr/sweep") == "flow/vpr/select/sweep"

    def test_new_namespace_kept(self):
        assert _qualify("flow", "vpr/select") == "flow/vpr/select"
        assert _qualify("eco/vpr", "cache/get") == "eco/vpr/cache/get"

    def test_last_component_always_kept(self):
        assert _qualify("flow/vpr", "vpr") == "flow/vpr/vpr"
        assert _qualify("flow/vpr", "flow/vpr/place") == "flow/vpr/place"

    def test_top_level_names_unchanged(self):
        registry = PerfRegistry(enabled=True)
        with registry.stage("vpr/select"):
            with registry.stage("vpr/sweep"):
                pass
        assert set(registry.snapshot()["stages"]) == {
            "vpr/select",
            "vpr/select/sweep",
        }


def test_serial_sweep_stage_keys(small_design):
    members = ppa_aware_clustering(
        DesignDatabase(small_design), PPAClusteringConfig(target_cluster_size=100)
    ).members()
    config = VPRConfig(
        min_cluster_instances=50,
        max_vpr_clusters=1,
        placer_iterations=2,
        candidates=default_candidate_grid()[:2],
    )
    perf.enable()
    with perf.stage("flow/vpr"):
        VPRShapeSelector(config).select(small_design, members)
    keys = set(perf.get_registry().snapshot()["stages"])

    sweep = "flow/vpr/select/sweep"
    assert {
        "flow/vpr",
        "flow/vpr/select",
        sweep,
        f"{sweep}/extract",
        f"{sweep}/place",
        f"{sweep}/route",
        f"{sweep}/score",
    } <= keys
    for key in keys:
        parts = key.split("/")
        assert len(parts) == len(set(parts)), key
