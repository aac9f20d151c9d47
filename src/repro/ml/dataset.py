"""Training data generation for the Total-Cost GNN.

Following Section 3.2: clusters are generated by perturbing the
seed and coarsening hyperparameters of the PPA-aware clustering; each
cluster above the V-P&R size bound is swept over the 20 shape
candidates with the *exact* V-P&R framework, and each (cluster, shape)
pair becomes one labelled sample.  The paper's corpus is
22700/5600/3200 samples; ours is configurable (the bench default is
smaller so the harness runs on a laptop — the split ratio matches).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.ppa_clustering import PPAClusteringConfig, ppa_aware_clustering
from repro.core.vpr import VPRConfig, VPRFramework
from repro.db.database import DesignDatabase
from repro.ml.features import FeatureExtractor, GraphSample
from repro.netlist.design import Design


@dataclass
class DatasetConfig:
    """Dataset generation knobs.

    Attributes:
        max_clusters_per_design: Labelled clusters drawn per design.
        min_cluster_instances: Smallest cluster used for training
            (smaller than the flow's 200-instance V-P&R bound so the
            corpus covers the eligibility boundary).
        max_cluster_instances: Largest cluster used (feature extraction
            and labelling stay cheap).
        perturbation_seeds: Clustering seeds used to diversify clusters.
        cluster_sizes: target_cluster_size perturbations.
        vary_hierarchy: Alternate the hierarchy guides on/off across
            perturbation seeds — without this, the hierarchy pins the
            clustering and different seeds produce near-identical
            clusters (shrinking the corpus after deduplication).
        vpr: Labelling V-P&R config.
        seed: Sampling seed.
    """

    max_clusters_per_design: int = 12
    min_cluster_instances: int = 60
    max_cluster_instances: int = 800
    perturbation_seeds: Tuple[int, ...] = (0, 1, 2)
    cluster_sizes: Tuple[int, ...] = (80, 120)
    vary_hierarchy: bool = True
    vpr: VPRConfig = field(default_factory=VPRConfig)
    seed: int = 0


def build_dataset(
    designs: Sequence[Design],
    config: Optional[DatasetConfig] = None,
    extractor: Optional[FeatureExtractor] = None,
) -> List[GraphSample]:
    """Generate labelled (cluster graph, shape) samples.

    Returns samples in deterministic order; each eligible cluster
    contributes ``len(config.vpr.candidates)`` samples sharing one
    graph.
    """
    config = config or DatasetConfig()
    extractor = extractor or FeatureExtractor()
    framework = VPRFramework(config.vpr)
    rng = random.Random(config.seed)

    samples: List[GraphSample] = []
    for design in designs:
        db = DesignDatabase(design)
        cluster_pool: List[List[int]] = []
        seen_keys = set()
        for seed in config.perturbation_seeds:
            for size in config.cluster_sizes:
                use_hierarchy = (seed % 2 == 0) or not config.vary_hierarchy
                clustering = ppa_aware_clustering(
                    db,
                    PPAClusteringConfig(
                        target_cluster_size=size,
                        seed=seed,
                        use_hierarchy=use_hierarchy,
                    ),
                )
                for member_list in clustering.members():
                    if not (
                        config.min_cluster_instances
                        <= len(member_list)
                        <= config.max_cluster_instances
                    ):
                        continue
                    key = (len(member_list), tuple(member_list[:5]))
                    if key in seen_keys:
                        continue
                    seen_keys.add(key)
                    cluster_pool.append(member_list)
        rng.shuffle(cluster_pool)
        cluster_pool = cluster_pool[: config.max_clusters_per_design]

        for member_list in cluster_pool:
            # Shared framework cache: the sub-netlist induced here is
            # the same object the 20 labelling runs below score.
            sub, cell_area = framework.induce(design, member_list)
            base = extractor.extract(sub)
            evaluations = framework.evaluate_candidates(
                sub, cell_area, config.vpr.candidates
            )
            for candidate, evaluation in zip(config.vpr.candidates, evaluations):
                label = evaluation.total(config.vpr.delta)
                samples.append(base.with_shape(candidate).with_label(label))
    return samples


def split_dataset(
    samples: Sequence[GraphSample],
    train_fraction: float = 0.72,
    val_fraction: float = 0.18,
    seed: int = 0,
    group_size: int = 20,
) -> Tuple[List[GraphSample], List[GraphSample], List[GraphSample]]:
    """Train/val/test split by *cluster* (groups of ``group_size``
    shape-variants stay together, so no cluster leaks across splits).

    The default fractions mirror the paper's 22700/5600/3200 corpus
    (~72/18/10).
    """
    num_groups = len(samples) // group_size
    order = list(range(num_groups))
    random.Random(seed).shuffle(order)
    n_train = int(num_groups * train_fraction)
    n_val = int(num_groups * val_fraction)

    def gather(group_ids) -> List[GraphSample]:
        out: List[GraphSample] = []
        for g in group_ids:
            out.extend(samples[g * group_size : (g + 1) * group_size])
        return out

    train = gather(order[:n_train])
    val = gather(order[n_train : n_train + n_val])
    test = gather(order[n_train + n_val :])
    # Leftover samples (incomplete tail group) go to train.
    tail = list(samples[num_groups * group_size :])
    return train + tail, val, test
