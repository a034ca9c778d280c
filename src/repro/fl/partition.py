"""Partitioning a central dataset across edge servers.

The paper uniformly allocates the 60 000 MNIST training samples over 20
edge servers (3 000 samples each, i.i.d.), which is :func:`partition_iid`.
The non-iid partitioners (:func:`partition_by_shards`,
:func:`partition_dirichlet`) support the extension study in
``benchmarks/test_bench_ablation_noniid.py``: the paper observes that the
optimal ``K* = 1`` hinges on the i.i.d. assumption, and these partitioners
let us probe what happens when it is violated.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset

__all__ = [
    "iid_shard",
    "iid_split",
    "partition_by_shards",
    "partition_dirichlet",
    "partition_iid",
]


def _validate(n_samples: int, n_partitions: int) -> None:
    if n_partitions < 1:
        raise ValueError(f"n_partitions must be positive; got {n_partitions}")
    if n_samples < n_partitions:
        raise ValueError(
            f"cannot split {n_samples} samples into {n_partitions} partitions"
        )


def iid_split(
    n_samples: int, n_partitions: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The iid split as two vectors: a sample permutation and ``(N,)`` sizes.

    Partition ``p`` is the ``p``-th consecutive run of ``sizes[p]``
    indices of the permutation; the first ``n_samples % N`` partitions
    hold one sample more than the rest.
    """
    _validate(n_samples, n_partitions)
    order = rng.permutation(n_samples)
    base, extra = divmod(n_samples, n_partitions)
    sizes = np.full(n_partitions, base, dtype=np.int64)
    sizes[:extra] += 1
    return order, sizes


def iid_shard(
    dataset: Dataset, order: np.ndarray, n_partitions: int, p: int
) -> Dataset:
    """Partition ``p`` of ``dataset`` under the :func:`iid_split` ``order``."""
    base, extra = divmod(len(order), n_partitions)
    start = p * base + min(p, extra)
    return dataset.subset(order[start : start + base + (p < extra)])


def partition_iid(
    dataset: Dataset, n_partitions: int, rng: np.random.Generator
) -> list[Dataset]:
    """Split ``dataset`` into ``n_partitions`` random equal-size shards.

    Sizes differ by at most one sample.  Every sample is assigned to
    exactly one partition.
    """
    order, _ = iid_split(len(dataset), n_partitions, rng)
    return [iid_shard(dataset, order, n_partitions, p) for p in range(n_partitions)]


def partition_by_shards(
    dataset: Dataset,
    n_partitions: int,
    shards_per_partition: int,
    rng: np.random.Generator,
) -> list[Dataset]:
    """Label-sorted shard partitioning (the classic FedAvg non-iid setup).

    Samples are sorted by label, cut into ``n_partitions *
    shards_per_partition`` contiguous shards, and each partition receives
    ``shards_per_partition`` random shards.  With few shards per partition
    each edge server sees only a couple of classes.
    """
    _validate(len(dataset), n_partitions)
    if shards_per_partition < 1:
        raise ValueError(
            f"shards_per_partition must be positive; got {shards_per_partition}"
        )
    n_shards = n_partitions * shards_per_partition
    if len(dataset) < n_shards:
        raise ValueError(
            f"cannot cut {len(dataset)} samples into {n_shards} shards"
        )
    order = np.argsort(dataset.labels, kind="stable")
    shards = np.array_split(order, n_shards)
    assignment = rng.permutation(n_shards)
    partitions = []
    for p in range(n_partitions):
        shard_ids = assignment[
            p * shards_per_partition : (p + 1) * shards_per_partition
        ]
        idx = np.concatenate([shards[s] for s in shard_ids])
        partitions.append(dataset.subset(idx))
    return partitions


def partition_dirichlet(
    dataset: Dataset,
    n_partitions: int,
    alpha: float,
    rng: np.random.Generator,
) -> list[Dataset]:
    """Dirichlet label-skew partitioning.

    For every class, the class's samples are divided among partitions
    according to proportions drawn from ``Dirichlet(alpha)``.  Small
    ``alpha`` (e.g. 0.1) produces highly skewed label distributions;
    ``alpha -> inf`` approaches iid.  Partitions are guaranteed non-empty
    by reassigning one sample from the largest partition when needed.
    """
    _validate(len(dataset), n_partitions)
    if alpha <= 0:
        raise ValueError(f"alpha must be positive; got {alpha}")
    assigned: list[list[np.ndarray]] = [[] for _ in range(n_partitions)]
    for cls in range(dataset.n_classes):
        cls_idx = np.flatnonzero(dataset.labels == cls)
        if cls_idx.size == 0:
            continue
        cls_idx = rng.permutation(cls_idx)
        proportions = rng.dirichlet(np.full(n_partitions, alpha))
        # Convert proportions to cumulative sample counts over this class.
        cuts = (np.cumsum(proportions)[:-1] * cls_idx.size).astype(np.int64)
        for p, chunk in enumerate(np.split(cls_idx, cuts)):
            if chunk.size:
                assigned[p].append(chunk)

    parts = [
        np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        for chunks in assigned
    ]
    # Guarantee non-empty partitions: move single samples from the largest.
    for p in range(n_partitions):
        while parts[p].size == 0:
            donor = int(np.argmax([part.size for part in parts]))
            if parts[donor].size <= 1:
                raise ValueError("not enough samples to make all partitions non-empty")
            parts[p] = parts[donor][-1:]
            parts[donor] = parts[donor][:-1]
    return [dataset.subset(idx) for idx in parts]
