"""Struct-of-arrays population state and stacked-cohort training.

The per-object ``EdgeServerClient`` path tops out at a few thousand
simulated clients: a million tiny ``(n_k, d)`` arrays plus a model and a
client object each is death by allocator, and every round pays Python
dispatch per participant.  This module stores an entire client
population as a handful of stacked tensors instead:

* **Group stacks** — clients sharing one local dataset size ``n`` live
  in a single ``(G, n, d)`` feature tensor and ``(G, n)`` label matrix
  (:class:`PopulationGroup`).  The iid partition produces at most two
  sizes, so a million-client population is two contiguous allocations,
  not a million.
* **Scalar vectors** — per-client scalars (``n_k``, battery budget,
  last local loss) are plain ``(N,)`` vectors on
  :class:`PopulationState`, so policy code can mask/aggregate them with
  array ops instead of object traversal.
* **One shared kernel** — :func:`fullbatch_gd_stack` is the exact
  full-batch gradient-descent loop of the batched engine (same
  operation order, same in-place ops), factored out so the batched
  engine, the population engine, and the stacked-unit grid trainer all
  run the identical arithmetic.  With float64 inputs its results are
  bit-identical to ``BatchedEngine`` and agree with the sequential
  client path to ``atol=1e-10``.
* **Stacked units** — :func:`train_unit_grid` goes one level further
  and stacks *campaign units* (K/E/seed combinations over one shared
  dataset) into the same kernel: every unit's round-``r`` cohort
  becomes extra lanes of one ``(G_total, n, d)`` stack, so a whole grid
  trains in a handful of matmuls per round.  Per-unit results are
  bit-identical to running the batched engine unit by unit, because a
  stacked matmul is a per-slice gemm and aggregation reduces each
  unit's lanes separately, in participant order.
* **Hierarchical aggregation** — :class:`AggregationTree` folds a
  round's updates through ``fog`` tier nodes before the cloud combines
  the tier partials (Al-Abiad et al., arXiv:2107.03520): the cloud's
  fan-in becomes ``min(tiers, K)`` instead of ``K``, which is what
  keeps aggregation cost sub-linear in the population size.  The
  counts-weighted fold equals the flat unweighted mean mathematically;
  floating-point summation order differs, so equality holds to
  ``~1e-12``, not bit-for-bit (the tree is therefore opt-in).

The module is deliberately import-light (client/model only) so the
engine layer can build on it without cycles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from repro.fl.client import CohortUpdate, EdgeServerClient, LocalUpdate
from repro.fl.model import LogisticRegressionConfig, _sigmoid

if TYPE_CHECKING:
    from repro.data.dataset import Dataset
    from repro.fl.sgd import SGDConfig

__all__ = [
    "AggregationTree",
    "GridResult",
    "GridUnit",
    "PopulationGroup",
    "PopulationState",
    "fullbatch_gd_stack",
    "train_cohort",
    "train_stacked_cohort",
    "train_unit_grid",
]


def _even_split_sizes(total: int, parts: int) -> list[int]:
    """Sizes of at most ``parts`` contiguous, near-even slices of ``total``."""
    parts = max(1, min(parts, total))
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def fullbatch_gd_stack(
    features: np.ndarray,
    labels: np.ndarray,
    weights_global: np.ndarray,
    bias_global: np.ndarray,
    *,
    epochs: int,
    learning_rate: float | np.ndarray,
    activation: str = "softmax",
    l2: float = 0.0,
    proximal_mu: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized full-batch GD over a stack of independent lanes.

    This is the batched engine's training loop, verbatim — extracted so
    every vectorized path in the repo shares one arithmetic.  Each lane
    ``g`` of ``features (G, n, d)`` / ``labels (G, n)`` descends
    independently from its anchor model for ``epochs`` steps.

    ``weights_global``/``bias_global`` may be a single ``(d, C)`` /
    ``(C,)`` model (broadcast to every lane, the batched-engine case) or
    per-lane ``(G, d, C)`` / ``(G, C)`` anchors (the stacked-unit case,
    where lanes belong to different units).  Broadcasting does not
    change the per-element arithmetic, so both shapes produce identical
    lane results.  ``learning_rate`` may likewise be a scalar or a
    per-lane ``(G,)`` vector.

    Computation runs in the dtype of ``features`` (float64 in the
    equivalence-tested default; float32 on the opt-in fast path).

    Returns ``(weights (G, d, C), bias (G, C), losses (G,))`` where the
    loss is the one the final step descended, matching
    :meth:`EdgeServerClient.train`.
    """
    n_group, n = labels.shape
    d = features.shape[2]
    n_classes = bias_global.shape[-1]
    rows = np.arange(n)
    group_index = np.arange(n_group)[:, None]

    lr = learning_rate
    if isinstance(lr, np.ndarray) and lr.ndim == 1:
        lr_w: float | np.ndarray = lr[:, None, None]
        lr_b: float | np.ndarray = lr[:, None]
    else:
        lr_w = lr_b = lr

    # Start every lane from broadcast *views* of its anchor; each epoch
    # rebinds out-of-place, never writing through.
    weights = np.broadcast_to(weights_global, (n_group, d, n_classes))
    bias = np.broadcast_to(bias_global, (n_group, n_classes))
    losses = np.zeros(n_group, dtype=features.dtype)
    features_t = features.transpose(0, 2, 1)

    for _ in range(epochs):
        logits = features @ weights
        logits += bias[:, None, :]
        if activation == "softmax":
            shifted = logits - logits.max(axis=-1, keepdims=True)
            exp = np.exp(shifted, out=shifted)
            probs = np.divide(exp, exp.sum(axis=-1, keepdims=True), out=exp)
            picked = probs[group_index, rows, labels]
        else:
            probs = _sigmoid(logits)
            total = probs.sum(axis=-1, keepdims=True)
            picked = (probs / np.maximum(total, 1e-12))[
                group_index, rows, labels
            ]
        losses = -np.mean(np.log(np.maximum(picked, 1e-12)), axis=1)
        if l2:
            losses = losses + 0.5 * l2 * np.sum(weights**2, axis=(1, 2))
        probs[group_index, rows, labels] -= 1.0
        grad_w = features_t @ probs
        grad_w /= n
        grad_b = probs.sum(axis=1)
        grad_b /= n
        if l2:
            grad_w += l2 * weights
        if proximal_mu:
            grad_w += proximal_mu * (weights - weights_global)
            grad_b += proximal_mu * (bias - bias_global)
        # In-place scale then subtract: same values as
        # ``weights - lr * grad`` with half the large temporaries.
        grad_w *= lr_w
        grad_b *= lr_b
        weights = weights - grad_w
        bias = bias - grad_b

    return np.asarray(weights), np.asarray(bias), losses


@dataclass(frozen=True)
class PopulationGroup:
    """All clients sharing one local dataset size, as stacked arrays."""

    client_ids: np.ndarray  # (G,) int64, ascending
    features: np.ndarray  # (G, n, d), population dtype
    labels: np.ndarray  # (G, n) int64

    @property
    def n_clients(self) -> int:
        return int(self.client_ids.shape[0])

    @property
    def n_samples(self) -> int:
        return int(self.labels.shape[1])

    @property
    def nbytes(self) -> int:
        return int(
            self.client_ids.nbytes + self.features.nbytes + self.labels.nbytes
        )


class PopulationState:
    """A whole client population as struct-of-arrays.

    ``groups`` maps local dataset size ``n`` → :class:`PopulationGroup`
    holding every client with that many samples.  Per-client scalars
    live as ``(N,)`` vectors indexed by client id:

    * ``n_samples`` — local dataset size ``n_k``,
    * ``battery_j`` — remaining energy budget (``inf`` = unmetered),
    * ``last_loss`` — most recent final local loss (``nan`` before the
      first round a client participates in).

    Client ids must be exactly ``0..N-1`` (the repo-wide convention:
    client id == partition index).
    """

    def __init__(
        self,
        groups: Mapping[int, PopulationGroup],
        model_config: LogisticRegressionConfig,
        *,
        dtype: np.dtype | str = np.float64,
        battery_j: np.ndarray | None = None,
    ) -> None:
        self.model_config = model_config
        self.dtype = np.dtype(dtype)
        self.groups: dict[int, PopulationGroup] = {
            int(n): group for n, group in sorted(groups.items())
        }
        n_clients = sum(g.n_clients for g in self.groups.values())
        ids_seen = np.concatenate(
            [g.client_ids for g in self.groups.values()]
        ) if self.groups else np.empty(0, dtype=np.int64)
        if n_clients == 0:
            raise ValueError("population must contain at least one client")
        if not np.array_equal(np.sort(ids_seen), np.arange(n_clients)):
            raise ValueError("client ids must be exactly 0..N-1")
        self.n_clients = n_clients
        self.n_samples = np.zeros(n_clients, dtype=np.int64)
        self._row = np.zeros(n_clients, dtype=np.int64)
        for n, group in self.groups.items():
            self.n_samples[group.client_ids] = n
            self._row[group.client_ids] = np.arange(
                group.n_clients, dtype=np.int64
            )
        if battery_j is None:
            self.battery_j = np.full(n_clients, np.inf)
        else:
            self.battery_j = np.asarray(battery_j, dtype=np.float64).copy()
            if self.battery_j.shape != (n_clients,):
                raise ValueError(
                    f"battery_j must have shape ({n_clients},); "
                    f"got {self.battery_j.shape}"
                )
        self.last_loss = np.full(n_clients, np.nan)

    # -- construction --------------------------------------------------

    @classmethod
    def from_datasets(
        cls,
        datasets: Sequence["Dataset"],
        model_config: LogisticRegressionConfig,
        *,
        dtype: np.dtype | str = np.float64,
    ) -> "PopulationState":
        """Stack per-client datasets (index == client id) into groups."""
        dtype = np.dtype(dtype)
        by_size: dict[int, list[int]] = {}
        for client_id, dataset in enumerate(datasets):
            by_size.setdefault(len(dataset.labels), []).append(client_id)
        groups: dict[int, PopulationGroup] = {}
        for n, ids in by_size.items():
            id_array = np.asarray(sorted(ids), dtype=np.int64)
            features = np.stack(
                [np.asarray(datasets[c].features, dtype=dtype) for c in id_array]
            )
            labels = np.stack(
                [np.asarray(datasets[c].labels, dtype=np.int64) for c in id_array]
            )
            groups[n] = PopulationGroup(id_array, features, labels)
        return cls(groups, model_config, dtype=dtype)

    @classmethod
    def from_partition(
        cls,
        dataset: "Dataset",
        order: np.ndarray,
        sizes: np.ndarray,
        model_config: LogisticRegressionConfig,
        *,
        dtype: np.dtype | str = np.float64,
    ) -> "PopulationState":
        """Stack the partition of ``dataset`` where client ``k`` holds the
        ``k``-th consecutive run of ``sizes[k]`` indices of ``order``.

        Equal to :meth:`from_datasets` over the shards themselves, but
        gathers each size group with one fancy index and builds no
        per-client :class:`Dataset`.
        """
        dtype = np.dtype(dtype)
        sizes = np.asarray(sizes, dtype=np.int64)
        starts = np.cumsum(sizes) - sizes
        groups: dict[int, PopulationGroup] = {}
        for n in np.unique(sizes).tolist():
            ids = np.flatnonzero(sizes == n)
            rows = order[starts[ids, None] + np.arange(n)]
            groups[n] = PopulationGroup(
                ids,
                np.asarray(dataset.features[rows], dtype=dtype),
                np.asarray(dataset.labels[rows], dtype=np.int64),
            )
        return cls(groups, model_config, dtype=dtype)

    @classmethod
    def from_clients(
        cls,
        clients: Sequence[EdgeServerClient],
        *,
        dtype: np.dtype | str = np.float64,
    ) -> "PopulationState":
        """Adopt an existing per-object client list (ids must be 0..N-1)."""
        if not clients:
            raise ValueError("population must contain at least one client")
        return cls.from_datasets(
            [client.dataset for client in clients],
            clients[0].model_config,
            dtype=dtype,
        )

    @classmethod
    def synthesize(
        cls,
        n_clients: int,
        *,
        n_features: int = 8,
        n_classes: int = 4,
        samples_per_client: int = 4,
        seed: int = 0,
        dtype: np.dtype | str = np.float64,
        l2: float = 0.0,
    ) -> "PopulationState":
        """Generate a uniform synthetic population in one allocation.

        Every client gets the same ``n_k``, so the whole population is a
        single ``(N, n, d)`` group stack — the shape the million-client
        benchmark exercises.
        """
        if n_clients < 1:
            raise ValueError(f"n_clients must be positive; got {n_clients}")
        dtype = np.dtype(dtype)
        rng = np.random.default_rng(seed)
        shape = (n_clients, samples_per_client, n_features)
        if dtype == np.float64 or dtype == np.float32:
            features = rng.standard_normal(shape, dtype=dtype)
        else:
            features = rng.standard_normal(shape).astype(dtype)
        labels = rng.integers(
            0, n_classes, size=(n_clients, samples_per_client), dtype=np.int64
        )
        group = PopulationGroup(
            np.arange(n_clients, dtype=np.int64), features, labels
        )
        config = LogisticRegressionConfig(
            n_features=n_features, n_classes=n_classes, l2=l2
        )
        return cls({samples_per_client: group}, config, dtype=dtype)

    # -- accessors ------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Total bytes held by the group stacks and scalar vectors."""
        stacks = sum(g.nbytes for g in self.groups.values())
        vectors = (
            self.n_samples.nbytes
            + self._row.nbytes
            + self.battery_j.nbytes
            + self.last_loss.nbytes
        )
        return int(stacks + vectors)

    def rows_of(self, client_ids: np.ndarray) -> np.ndarray:
        """Group-stack row index of each client (all in one group)."""
        return self._row[client_ids]

    def drain_battery(self, client_ids: np.ndarray, joules: float) -> None:
        """Charge ``joules`` of training energy to each listed client."""
        self.battery_j[np.asarray(client_ids, dtype=np.int64)] -= joules

    def active_clients(self) -> np.ndarray:
        """Ids of clients whose battery budget is still positive."""
        return np.flatnonzero(self.battery_j > 0.0)


def train_stacked_cohort(
    client_ids: Sequence[int] | np.ndarray,
    sizes: np.ndarray,
    stacks: Callable[[int, np.ndarray], tuple[np.ndarray, np.ndarray]],
    global_parameters: np.ndarray,
    model_config: LogisticRegressionConfig,
    *,
    epochs: int,
    learning_rate: float,
    proximal_mu: float = 0.0,
    dtype: np.dtype | str = np.float64,
) -> CohortUpdate:
    """Train a cohort group-by-group into one ``(K, P)`` update matrix.

    ``sizes[i]`` is participant ``i``'s ``n_k``; ``stacks(n, members)``
    returns the ``(G, n, d)`` features and ``(G, n)`` labels of the
    sorted ``members`` sharing that size.  Each group trains as one
    :func:`fullbatch_gd_stack` call in canonical (sorted-id) lane order,
    and its lanes are written to their participants' rows, so row ``i``
    of the result belongs to ``client_ids[i]``.  A float32 population
    computes in float32; its rows are widened to float64 on the write,
    keeping aggregation dtype-stable.  No per-client objects are built.
    """
    started = time.perf_counter()
    ids = np.asarray(client_ids, dtype=np.int64)
    d, n_classes = model_config.n_features, model_config.n_classes
    split = d * n_classes
    anchor = np.ascontiguousarray(global_parameters, dtype=np.float64)
    if np.dtype(dtype) != np.float64:
        anchor = anchor.astype(dtype)
    weights_global = anchor[:split].reshape(d, n_classes)
    bias_global = anchor[split:]

    parameters = np.empty((len(ids), model_config.n_parameters))
    losses = np.empty(len(ids))
    for n in np.unique(sizes):
        positions = np.flatnonzero(sizes == n)
        positions = positions[np.argsort(ids[positions], kind="stable")]
        features, labels = stacks(int(n), ids[positions])
        weights, bias, group_losses = fullbatch_gd_stack(
            features,
            labels,
            weights_global,
            bias_global,
            epochs=epochs,
            learning_rate=learning_rate,
            activation=model_config.activation,
            l2=model_config.l2,
            proximal_mu=proximal_mu,
        )
        parameters[positions, :split] = weights.reshape(len(positions), -1)
        parameters[positions, split:] = bias
        losses[positions] = group_losses
    return CohortUpdate(
        client_ids=ids,
        parameters=parameters,
        n_samples=np.asarray(sizes, dtype=np.int64),
        gradient_steps=np.full(len(ids), epochs, dtype=np.int64),
        final_losses=losses,
        epochs=epochs,
        elapsed_s=time.perf_counter() - started,
    )


def train_cohort(
    state: PopulationState,
    client_ids: Sequence[int] | np.ndarray,
    global_parameters: np.ndarray,
    *,
    epochs: int,
    learning_rate: float,
    proximal_mu: float = 0.0,
) -> CohortUpdate:
    """Train one round's cohort from the population stacks.

    Cohort members are gathered from their size group by fancy
    indexing and trained by :func:`train_stacked_cohort` — the same
    grouping and kernel the batched engine uses, so float64 results are
    bit-identical to it.  Rows follow ``client_ids`` order (the
    trainer's participant-order contract).  ``state.last_loss`` is
    refreshed for every trained client.
    """
    ids = np.asarray(client_ids, dtype=np.int64)

    def stacks(n: int, members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        group = state.groups[n]
        rows = state.rows_of(members)
        return group.features[rows], group.labels[rows]

    cohort = train_stacked_cohort(
        ids,
        state.n_samples[ids],
        stacks,
        global_parameters,
        state.model_config,
        epochs=epochs,
        learning_rate=learning_rate,
        proximal_mu=proximal_mu,
        dtype=state.dtype,
    )
    state.last_loss[ids] = cohort.final_losses
    return cohort


@dataclass(frozen=True)
class AggregationTree:
    """Fog→cloud aggregation topology (Al-Abiad et al., 2107.03520).

    A round's ``K`` updates are split contiguously over ``fog_nodes``
    tier nodes; each fog folds its slice into one partial mean, and the
    cloud combines the partials weighted by slice size.  The weighted
    fold equals the flat unweighted mean *mathematically*; summation
    order differs, so numerical agreement is ``~1e-12``-tight rather
    than bit-exact — which is why flat aggregation stays the default
    and the tree is an explicit opt-in (`tiers` axis).

    The point is cost: the cloud touches ``min(fog_nodes, K)`` partial
    vectors instead of ``K`` full uploads, so central aggregation work
    and fan-in stay flat as the cohort grows.
    """

    fog_nodes: int

    def __post_init__(self) -> None:
        if self.fog_nodes < 1:
            raise ValueError(
                f"fog_nodes must be positive; got {self.fog_nodes}"
            )

    def fan_in(self, k: int) -> int:
        """Number of partials the cloud combines for a ``k``-cohort."""
        return max(1, min(self.fog_nodes, int(k)))

    def fold(self, stacked: np.ndarray) -> np.ndarray:
        """Fold a ``(K, P)`` update matrix through the tiers to one vector."""
        stacked = np.asarray(stacked)
        k = stacked.shape[0]
        if k == 0:
            raise ValueError("cannot fold an empty update stack")
        sizes = _even_split_sizes(k, self.fog_nodes)
        partials = np.empty((len(sizes), stacked.shape[1]), dtype=stacked.dtype)
        start = 0
        for tier, size in enumerate(sizes):
            partials[tier] = stacked[start : start + size].mean(axis=0)
            start += size
        counts = np.asarray(sizes, dtype=np.float64) / float(k)
        return (partials * counts[:, None]).sum(axis=0)

    def fold_updates(self, updates: Sequence[LocalUpdate]) -> np.ndarray:
        """Tree-fold a round's updates (tiered form of ``aggregate_mean``)."""
        if not updates:
            raise ValueError("cannot aggregate an empty list of updates")
        return self.fold(np.stack([u.parameters for u in updates]))


@dataclass(frozen=True)
class GridUnit:
    """One (K, E, seed) cell of a stacked campaign grid."""

    participants: int
    epochs: int
    seed: int

    def __post_init__(self) -> None:
        if self.participants < 1:
            raise ValueError(
                f"participants must be positive; got {self.participants}"
            )
        if self.epochs < 1:
            raise ValueError(f"epochs must be positive; got {self.epochs}")


@dataclass(frozen=True)
class GridResult:
    """Final state of one grid unit after ``n_rounds`` stacked rounds."""

    unit: GridUnit
    parameters: np.ndarray
    final_mean_loss: float


def train_unit_grid(
    state: PopulationState,
    units: Sequence[GridUnit],
    *,
    n_rounds: int,
    sgd: "SGDConfig",
    proximal_mu: float = 0.0,
    initial_parameters: np.ndarray | None = None,
    tree: AggregationTree | None = None,
) -> list[GridResult]:
    """Train a whole K/E/seed grid over one shared dataset, stacked.

    Each unit replays the trainer's plain-FedAvg semantics exactly: a
    ``default_rng(seed)``-driven uniform cohort per round (sorted, no
    replacement), full-batch local GD for its ``E`` epochs at the
    round's decayed learning rate, and an unweighted mean over its
    ``K`` lanes in participant order.  What's new is *where* the work
    runs: every unit's round-``r`` lanes are appended to shared
    ``(G, n, d)`` stacks (grouped by ``(n_k, E)`` so each kernel call
    has a uniform epoch count) and trained together, with per-lane
    ``(G, d, C)`` anchors carrying each unit's own global model.  A
    stacked matmul is a per-slice gemm, so with the float64 default
    every unit's final parameters are bit-identical to running it alone
    on the batched engine.

    ``tree`` applies fog-tier aggregation to every unit (documented
    ``~1e-12`` tolerance vs flat).
    """
    if not units:
        return []
    if n_rounds < 0:
        raise ValueError(f"n_rounds must be non-negative; got {n_rounds}")
    model_config = state.model_config
    d, n_classes = model_config.n_features, model_config.n_classes
    split = d * n_classes
    n_parameters = model_config.n_parameters
    if initial_parameters is None:
        initial_parameters = model_config.build().get_parameters()
    initial_parameters = np.asarray(initial_parameters, dtype=np.float64)
    if initial_parameters.shape != (n_parameters,):
        raise ValueError(
            f"initial_parameters must have shape ({n_parameters},); "
            f"got {initial_parameters.shape}"
        )
    for unit in units:
        if unit.participants > state.n_clients:
            raise ValueError(
                f"unit {unit} selects {unit.participants} of "
                f"{state.n_clients} clients"
            )

    rngs = [np.random.default_rng(unit.seed) for unit in units]
    params = np.tile(initial_parameters, (len(units), 1))  # (U, P)
    last_losses = [float("nan")] * len(units)

    for round_index in range(n_rounds):
        learning_rate = sgd.rate_at_round(round_index)
        cohorts = [
            np.sort(
                rng.choice(
                    state.n_clients, size=unit.participants, replace=False
                )
            )
            for unit, rng in zip(units, rngs)
        ]
        # Lanes keyed by (n_k, E): uniform samples-per-lane and epochs
        # within a kernel call; lane order is (unit, sorted client) so
        # each unit's lanes keep the batched engine's canonical order.
        lanes: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        for unit_index, cohort in enumerate(cohorts):
            epochs = units[unit_index].epochs
            for slot, client_id in enumerate(cohort):
                key = (int(state.n_samples[client_id]), epochs)
                lanes.setdefault(key, []).append(
                    (unit_index, int(client_id), slot)
                )

        round_updates = [
            np.empty((unit.participants, n_parameters))
            for unit in units
        ]
        round_losses = [
            np.empty(unit.participants) for unit in units
        ]
        for (n, epochs), lane_list in lanes.items():
            unit_of = np.fromiter(
                (lane[0] for lane in lane_list), dtype=np.int64
            )
            ids = np.fromiter(
                (lane[1] for lane in lane_list), dtype=np.int64
            )
            group = state.groups[n]
            rows = state.rows_of(ids)
            anchors = params[unit_of]  # (G, P) gather, one copy per lane
            if state.dtype != np.float64:
                anchors = anchors.astype(state.dtype)
            weights, bias, losses = fullbatch_gd_stack(
                group.features[rows],
                group.labels[rows],
                anchors[:, :split].reshape(-1, d, n_classes),
                anchors[:, split:],
                epochs=epochs,
                learning_rate=learning_rate,
                activation=model_config.activation,
                l2=model_config.l2,
                proximal_mu=proximal_mu,
            )
            flat = np.concatenate(
                [weights.reshape(len(lane_list), -1), bias], axis=1
            )
            if flat.dtype != np.float64:
                flat = flat.astype(np.float64)
            losses64 = np.asarray(losses, dtype=np.float64)
            for g, (unit_index, _, slot) in enumerate(lane_list):
                round_updates[unit_index][slot] = flat[g]
                round_losses[unit_index][slot] = losses64[g]

        for unit_index in range(len(units)):
            stacked = round_updates[unit_index]
            if tree is None:
                params[unit_index] = stacked.mean(axis=0)
            else:
                params[unit_index] = tree.fold(stacked)
            last_losses[unit_index] = float(
                round_losses[unit_index].mean()
            )

    return [
        GridResult(
            unit=unit,
            parameters=params[unit_index].copy(),
            final_mean_loss=last_losses[unit_index],
        )
        for unit_index, unit in enumerate(units)
    ]
