"""The batched shape sweep: a candidate's costs never depend on its batch.

Cache entries, checkpoint items, ECO re-sweeps and the parallel/fleet
workers (which evaluate one item at a time) are interchangeable only
if evaluating a candidate inside any batch gives the same bits as
evaluating it alone.  Also pinned here: how the serial sweep treats a
failing item or a failing batch.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ppa_clustering import PPAClusteringConfig, ppa_aware_clustering
from repro.core.vpr import VPRConfig, VPRFramework, VPRSweepError
from repro.db.database import DesignDatabase
from repro.recovery import faults

N_CANDIDATES = 20


@pytest.fixture(scope="module")
def cluster(small_design):
    members = ppa_aware_clustering(
        DesignDatabase(small_design), PPAClusteringConfig(target_cluster_size=100)
    ).members()
    config = VPRConfig(min_cluster_instances=50, placer_iterations=3)
    c = VPRFramework(config).eligible_clusters(members)[0]
    return small_design, members[c], c, config


@pytest.fixture(scope="module")
def singles(cluster):
    """Every candidate evaluated alone: (hpwl_cost, congestion_cost)."""
    design, member_list, _c, config = cluster
    framework = VPRFramework(config)
    sub, area = framework.induce(design, member_list)
    return [
        (e.hpwl_cost, e.congestion_cost)
        for e in (
            framework.evaluate_candidate(sub, area, candidate)
            for candidate in config.candidates
        )
    ]


@given(
    st.lists(
        st.integers(0, N_CANDIDATES - 1), min_size=1, max_size=N_CANDIDATES, unique=True
    )
)
@settings(max_examples=6, deadline=None)
def test_any_batch_gives_batch_of_one_costs(cluster, singles, picks):
    design, member_list, _c, config = cluster
    framework = VPRFramework(config)
    sub, area = framework.induce(design, member_list)
    evaluations = framework.evaluate_candidates(
        sub, area, [config.candidates[k] for k in picks]
    )
    for k, evaluation in zip(picks, evaluations):
        assert evaluation.candidate == config.candidates[k]
        assert (evaluation.hpwl_cost, evaluation.congestion_cost) == singles[k], k


def _recording_sweep(cluster, monkeypatch, **config_changes):
    design, member_list, c, config = cluster
    framework = VPRFramework(dataclasses.replace(config, **config_changes))
    saved = []
    monkeypatch.setattr(
        framework,
        "_checkpoint_save",
        lambda cluster_id, k, evaluation, seconds: saved.append((k, seconds)),
    )
    return framework.sweep_cluster(design, member_list, c), saved


class TestSweepBatch:
    def test_items_saved_in_candidate_order_with_shared_seconds(
        self, cluster, singles, monkeypatch
    ):
        sweep, saved = _recording_sweep(cluster, monkeypatch)
        assert [k for k, _ in saved] == list(range(N_CANDIDATES))
        # One batch: each item is charged the batch wall time / B.
        assert len({seconds for _, seconds in saved}) == 1
        costs = [(e.hpwl_cost, e.congestion_cost) for e in sweep.evaluations]
        assert costs == singles

    def test_failing_batch_retries_every_item_alone(
        self, cluster, singles, monkeypatch
    ):
        calls = []

        def broken(self, sub, cell_area, candidates, cluster_id=None):
            calls.append(len(candidates))
            raise RuntimeError("batch lost")

        monkeypatch.setattr(VPRFramework, "evaluate_candidates", broken)
        sweep, saved = _recording_sweep(cluster, monkeypatch, retry_backoff=0.0)
        assert calls == [N_CANDIDATES]
        assert [k for k, _ in saved] == list(range(N_CANDIDATES))
        costs = [(e.hpwl_cost, e.congestion_cost) for e in sweep.evaluations]
        assert costs == singles

    def test_failing_batch_without_retries_is_terminal(self, cluster, monkeypatch):
        def broken(self, sub, cell_area, candidates, cluster_id=None):
            raise RuntimeError("batch lost")

        monkeypatch.setattr(VPRFramework, "evaluate_candidates", broken)
        with pytest.raises(VPRSweepError, match="candidate 0 .*batch lost"):
            _recording_sweep(cluster, monkeypatch, retry_limit=0)

    def test_item_whose_check_fails_leaves_the_batch(
        self, cluster, singles, monkeypatch
    ):
        c = cluster[2]
        faults.configure(f"raise:vpr.item:{c}/4")
        try:
            sweep, saved = _recording_sweep(cluster, monkeypatch, retry_backoff=0.0)
        finally:
            faults.reset()
        seconds = dict(saved)
        # Item 4 was retried alone; the other 19 shared one batch.
        assert len({seconds[k] for k in range(N_CANDIDATES) if k != 4}) == 1
        costs = [(e.hpwl_cost, e.congestion_cost) for e in sweep.evaluations]
        assert costs == singles
