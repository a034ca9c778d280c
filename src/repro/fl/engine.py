"""Pluggable execution engines for one round of local training.

The federated trainer's hot loop — "train the round's ``K`` selected
clients from the current global model" — is isolated behind a small
engine interface so the *how* can vary without touching FedAvg
semantics:

* :class:`SequentialEngine` — the reference path: one
  :meth:`EdgeServerClient.train` call per participant, in order.
* :class:`BatchedEngine` — stacks the cohort's full-batch gradient
  descent into ``(G, n, d)`` / ``(G, d, C)`` tensors and replaces ``K``
  per-client forward/gradient passes per epoch with batched matmul
  kernels.  Only valid for the paper's setting (logistic regression,
  ``batch_size=None``); anything else falls back to sequential
  per-client training.  Per-client order of operations matches the
  sequential path (batched ``matmul`` is per-slice gemm), so results
  agree to ``atol=1e-10``.
* :class:`PoolEngine` — a persistent-worker ``multiprocessing`` runtime.
  Workers initialize exactly once per training run: client datasets ship
  via shared memory (:mod:`repro.perf.shared_data`), the static training
  configuration (epochs, SGD, FedProx mu, seed) rides in the pool
  initializer, and per-client model/client objects stay resident in the
  worker between rounds.  Each round is one *chunked cohort submission*:
  the cohort is split into at most ``pool_workers`` contiguous chunks
  and each chunk is a single task carrying only client ids, the round
  index, and the learning rate — the global parameter vector is
  broadcast through a :class:`~repro.perf.shared_data.SharedParameterBlock`
  rewritten by the parent before submission, so per-round IPC is a few
  tiny pickles instead of ``K`` dataset/config/parameter copies.  Every
  chunk replays the exact sequential client code path with mini-batch
  shuffles drawn from a per-``(seed, client, round)`` named substream,
  so results are bit-identical regardless of worker count (and chunk
  count) and identical to sequential execution.

Every engine returns one :class:`~repro.fl.client.CohortUpdate`: a
``(K, P)`` parameter matrix plus per-client vectors, with row ``i``
belonging to participant ``i`` — the order the trainer relies on for
dropout draws, compression, and upload simulation.  The sequential and
pool engines build per-client :class:`~repro.fl.client.LocalUpdate`
objects and stack them; the stacked engines fill the matrix straight
from the kernel.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import signal
import time
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.faults.models import substream
from repro.fl.client import CohortUpdate, EdgeServerClient
from repro.fl.model import LogisticRegressionConfig
from repro.fl.population import (
    PopulationState,
    train_cohort,
    train_stacked_cohort,
)
from repro.obs.sink import TelemetrySpool, get_spool_context
from repro.perf.cache import StackCache
from repro.perf.shared_data import (
    SharedDatasetStore,
    SharedParameterBlock,
    attach_datasets,
    attach_parameters,
)

if TYPE_CHECKING:
    from repro.fl.training import FederatedConfig
    from repro.obs.observer import Observer

__all__ = [
    "AUTO_BACKEND",
    "BACKENDS",
    "ExecutionEngine",
    "SequentialEngine",
    "BatchedEngine",
    "PoolEngine",
    "PopulationEngine",
    "create_engine",
    "is_vectorizable",
    "load_break_even_table",
    "resolve_backend",
    "select_backend",
]

BACKENDS = ("sequential", "batched", "pool", "population")

# Sentinel accepted wherever a backend name is: resolved to a concrete
# member of BACKENDS per host/workload by :func:`resolve_backend`.
AUTO_BACKEND = "auto"

# Cohorts below this size gain little from population stacks over the
# batched engine's per-cohort stacking; above it, struct-of-arrays state
# avoids re-stacking per round entirely.
POPULATION_MIN_CLIENTS = 256


class ExecutionEngine:
    """Interface every backend implements."""

    name = "abstract"

    def train_round(
        self,
        participants: Sequence[int],
        global_parameters: np.ndarray,
        round_index: int,
        learning_rate: float,
    ) -> CohortUpdate:
        """Train every participant from ``global_parameters``.

        Row ``i`` of the returned cohort belongs to ``participants[i]``.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release engine resources (pools, shared memory).  Idempotent."""


def is_vectorizable(model_config, config: "FederatedConfig") -> bool:
    """Whether the stacked kernel covers this model and SGD schedule."""
    return (
        isinstance(model_config, LogisticRegressionConfig)
        and config.sgd.batch_size is None
    )


def _batch_rng(
    config: "FederatedConfig", client_id: int, round_index: int
) -> np.random.Generator | None:
    """Mini-batch shuffle stream shared by the sequential and pool paths.

    Keyed by ``(seed, client, round)`` so any execution order — or
    process — consumes the identical shuffle.  ``None`` on the
    full-batch path, where no shuffle randomness is drawn at all.
    """
    if config.sgd.batch_size is None:
        return None
    return substream(config.seed, "batches", client_id, round_index)


class SequentialEngine(ExecutionEngine):
    """Reference backend: per-client training in participant order."""

    name = "sequential"

    def __init__(
        self,
        clients: list[EdgeServerClient],
        config: "FederatedConfig",
        observer: "Observer | None" = None,
    ) -> None:
        self._clients = clients
        self._config = config
        self._observer = observer

    def train_round(
        self,
        participants: Sequence[int],
        global_parameters: np.ndarray,
        round_index: int,
        learning_rate: float,
    ) -> CohortUpdate:
        config = self._config
        round_started = time.perf_counter()
        updates = []
        durations = []
        for client_id in participants:
            started = time.perf_counter()
            updates.append(
                self._clients[client_id].train(
                    global_parameters,
                    epochs=config.local_epochs,
                    learning_rate=learning_rate,
                    sgd=config.sgd,
                    proximal_mu=config.proximal_mu,
                    rng=_batch_rng(config, client_id, round_index),
                )
            )
            durations.append(time.perf_counter() - started)
        return CohortUpdate.from_updates(
            updates,
            len(global_parameters),
            config.local_epochs,
            durations_s=durations,
            elapsed_s=time.perf_counter() - round_started,
        )


class BatchedEngine(ExecutionEngine):
    """Vectorized full-batch GD over the whole cohort at once.

    Participants are grouped by local dataset size ``n_k`` (the iid
    partition differs by at most one sample, so there are at most two
    groups and no padding); each group trains as one stack of batched
    matmuls.  The per-cohort feature stack is memoized in a small FIFO
    cache because samplers revisit cohorts.
    """

    name = "batched"

    def __init__(
        self,
        clients: list[EdgeServerClient],
        config: "FederatedConfig",
        observer: "Observer | None" = None,
    ) -> None:
        self._clients = clients
        self._config = config
        self._observer = observer
        self._model_config = clients[0].model_config
        self._supported = is_vectorizable(self._model_config, config)
        self._fallback = SequentialEngine(clients, config, observer)
        self._stack_cache = StackCache(capacity=32)

    def _stacked(
        self, n: int, members: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        group = tuple(int(c) for c in members)
        cached = self._stack_cache.lookup(group)
        if cached is not None:
            if self._observer is not None:
                self._observer.counter("engine.cache_hits", cache="stack").inc()
            return cached
        features = np.stack(
            [self._clients[c].dataset.features for c in group]
        )
        labels = np.stack([self._clients[c].dataset.labels for c in group])
        self._stack_cache.store(group, (features, labels))
        return features, labels

    def train_round(
        self,
        participants: Sequence[int],
        global_parameters: np.ndarray,
        round_index: int,
        learning_rate: float,
    ) -> CohortUpdate:
        if not self._supported:
            return self._fallback.train_round(
                participants, global_parameters, round_index, learning_rate
            )
        config = self._config
        # Canonical (sorted) lane order per size group makes the
        # cohort's feature stack cacheable across rounds that reshuffle
        # the same set; the kernel is shared with the population path.
        cohort = train_stacked_cohort(
            participants,
            np.array(
                [self._clients[c].n_samples for c in participants],
                dtype=np.int64,
            ),
            self._stacked,
            global_parameters,
            self._model_config,
            epochs=config.local_epochs,
            learning_rate=learning_rate,
            proximal_mu=config.proximal_mu,
        )
        if self._observer is not None:
            self._observer.counter("engine.batched_rounds").inc()
        return cohort


class PopulationEngine(ExecutionEngine):
    """Struct-of-arrays backend over a :class:`PopulationState`.

    Where the batched engine stacks each round's cohort on demand from
    per-object clients, this backend holds the *whole population* in
    group stacks and trains every cohort by fancy-indexed gather + one
    :func:`fullbatch_gd_stack` call per group — no per-client Python
    objects on the hot path, so N scales to millions.

    ``population`` is either a :class:`PopulationState` (no client
    objects at all) or a client list, adopted into group stacks once at
    construction.  Same restrictions as the batched engine (logistic
    regression, full batch): a client list with anything else falls
    back to sequential per-client training, while a bare state cannot
    fall back and is rejected.  With the float64 default the results
    are bit-identical to the batched engine and ``atol=1e-10`` against
    sequential; the opt-in float32 population trades that for half the
    memory.
    """

    name = "population"

    def __init__(
        self,
        population: "list[EdgeServerClient] | PopulationState",
        config: "FederatedConfig",
        observer: "Observer | None" = None,
    ) -> None:
        self._config = config
        self._observer = observer
        self._fallback: SequentialEngine | None = None
        self._state: PopulationState | None = None
        if isinstance(population, PopulationState):
            if not is_vectorizable(population.model_config, config):
                raise ValueError(
                    "a PopulationState cannot fall back to per-client "
                    "training; this model/SGD config needs client objects"
                )
            self._state = population
        elif is_vectorizable(population[0].model_config, config):
            self._state = PopulationState.from_clients(
                population, dtype=config.population_dtype
            )
        else:
            self._fallback = SequentialEngine(population, config, observer)

    @property
    def state(self) -> PopulationState | None:
        return self._state

    def train_round(
        self,
        participants: Sequence[int],
        global_parameters: np.ndarray,
        round_index: int,
        learning_rate: float,
    ) -> CohortUpdate:
        if self._fallback is not None:
            return self._fallback.train_round(
                participants, global_parameters, round_index, learning_rate
            )
        config = self._config
        cohort = train_cohort(
            self._state,
            participants,
            global_parameters,
            epochs=config.local_epochs,
            learning_rate=learning_rate,
            proximal_mu=config.proximal_mu,
        )
        if self._observer is not None and len(participants):
            self._observer.counter("engine.population_rounds").inc()
            self._observer.counter("engine.population_clients").inc(
                len(participants)
            )
        return cohort


# ----------------------------------------------------------------------
# Pool backend: worker-side state and task function.  Module-level so
# they are picklable under both fork and spawn start methods.
# ----------------------------------------------------------------------
_POOL_STATE: dict = {}


def _pool_initializer(
    spec,
    param_name,
    n_parameters,
    model_config,
    seed,
    epochs,
    sgd,
    mu,
    spool_context=None,
) -> None:
    """One-time worker setup: attach shared data, pin the static config.

    Everything that is constant for the lifetime of a training run —
    datasets, model config, seed, epochs, SGD config, FedProx mu — lands
    here exactly once, so per-round tasks never re-pickle any of it.

    ``spool_context`` is the parent's active ``(spool_dir, unit)`` (see
    :mod:`repro.obs.sink`), present only when the training run has
    telemetry enabled: the worker then opens its own engine-role spool
    in the same directory, so even this innermost worker tier streams
    into the campaign-wide telemetry merge.  Spool failures never break
    training — telemetry is strictly best-effort here.
    """
    # ``Pool.terminate()`` stops workers with SIGTERM.  A worker forked
    # from a campaign process inherits its SIGTERM -> KeyboardInterrupt
    # handler, and a SIGTERM that lands just before the worker blocks on
    # the task queue's lock is never acted on, so terminate() would wait
    # on it forever.  The default action ends the process every time.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    datasets, handles = attach_datasets(spec)
    params, param_handle = attach_parameters(param_name, n_parameters)
    _POOL_STATE["datasets"] = datasets
    # Keep every shm buffer alive for the worker's lifetime.
    _POOL_STATE["handles"] = handles + (param_handle,)
    _POOL_STATE["params"] = params
    _POOL_STATE["model_config"] = model_config
    _POOL_STATE["seed"] = seed
    _POOL_STATE["epochs"] = epochs
    _POOL_STATE["sgd"] = sgd
    _POOL_STATE["mu"] = mu
    _POOL_STATE["clients"] = {}
    _POOL_STATE["spool"] = None
    _POOL_STATE["spool_epoch"] = time.perf_counter()
    _POOL_STATE["spool_seq"] = 0
    if spool_context is not None:
        directory, unit = spool_context
        safe_unit = re.sub(r"[^A-Za-z0-9._-]", "_", str(unit)) or "unit"
        try:
            _POOL_STATE["spool"] = TelemetrySpool(
                Path(directory) / f"{safe_unit}.w{os.getpid()}.jsonl",
                unit=unit,
                role="engine",
            )
        except OSError:
            _POOL_STATE["spool"] = None


def _pool_train_chunk(task):
    """Train one contiguous chunk of the round's cohort in this worker.

    The global parameters are snapshotted from the shared block once per
    chunk; each client then runs the exact sequential
    :meth:`EdgeServerClient.train` code path (resident client objects,
    per-``(seed, client, round)`` shuffle substreams), so the result is
    bit-identical to sequential execution for any chunking.
    """
    chunk, round_index, learning_rate = task
    params = np.array(_POOL_STATE["params"])
    epochs = _POOL_STATE["epochs"]
    sgd = _POOL_STATE["sgd"]
    mu = _POOL_STATE["mu"]
    seed = _POOL_STATE["seed"]
    clients = _POOL_STATE["clients"]
    results = []
    for client_id in chunk:
        started = time.perf_counter()
        client = clients.get(client_id)
        if client is None:
            client = EdgeServerClient(
                client_id,
                _POOL_STATE["datasets"][client_id],
                _POOL_STATE["model_config"],
            )
            clients[client_id] = client
        rng = None
        if sgd is not None and sgd.batch_size is not None:
            rng = substream(seed, "batches", client_id, round_index)
        update = client.train(
            params,
            epochs=epochs,
            learning_rate=learning_rate,
            sgd=sgd,
            proximal_mu=mu,
            rng=rng,
        )
        results.append((update, time.perf_counter() - started))
    _spool_chunk_telemetry(chunk, round_index, results)
    return results


def _spool_chunk_telemetry(chunk, round_index, results) -> None:
    """Stream one trained chunk's telemetry to this worker's spool.

    One ``engine.chunk`` event plus one metrics *delta* record per
    chunk: counters in the delta merge by addition at the collector, so
    per-chunk dumps aggregate to the worker's true totals without the
    worker retaining cumulative registries.
    """
    spool = _POOL_STATE.get("spool")
    if spool is None or spool.closed:
        return
    from repro.obs.metrics import MetricsRegistry

    train_s = sum(duration for _, duration in results)
    _POOL_STATE["spool_seq"] += 1
    try:
        # The event line rides the buffer; the metrics record right
        # behind it flushes both with one syscall.  Pool shutdown is a
        # SIGTERM (no interpreter cleanup), so anything less than a
        # per-chunk flush could silently drop the tail of the deltas.
        spool.append(
            "event",
            flush=False,
            event={
                "seq": _POOL_STATE["spool_seq"],
                "category": "engine.chunk",
                "wall_s": time.perf_counter() - _POOL_STATE["spool_epoch"],
                "sim_s": None,
                "fields": {
                    "round": int(round_index),
                    "clients": len(chunk),
                    "train_s": train_s,
                },
            },
        )
        delta = MetricsRegistry()
        delta.counter("engine.pool_clients_trained").inc(len(chunk))
        delta.counter("engine.pool_chunks_trained").inc()
        delta.counter("engine.pool_train_s").inc(train_s)
        spool.append("metrics", flush=True, records=delta.to_records())
    except (OSError, ValueError):
        # A torn spool must never fail training; drop the sink instead.
        spool.close()
        _POOL_STATE["spool"] = None


def _shutdown_pool(
    pool, store: SharedDatasetStore, params: SharedParameterBlock
) -> None:
    try:
        pool.terminate()
        pool.join()
    finally:
        try:
            store.close()
        finally:
            params.close()


def _chunk_evenly(items: list, n_chunks: int) -> list[list]:
    """Split ``items`` into at most ``n_chunks`` contiguous, even chunks."""
    n_chunks = max(1, min(n_chunks, len(items)))
    base, extra = divmod(len(items), n_chunks)
    chunks = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        chunks.append(items[start : start + size])
        start += size
    return chunks


class PoolEngine(ExecutionEngine):
    """Persistent-worker process pool over shared-memory client datasets.

    Workers initialize once per training run (datasets via shared
    memory, static training config via the initializer) and keep their
    client/model objects resident between rounds; each round submits one
    task per contiguous cohort chunk with the global parameters
    broadcast through a shared block.  Workers run the *same*
    :meth:`EdgeServerClient.train` code path as the sequential engine
    (with the same per-``(seed, client, round)`` mini-batch substreams),
    and ``Pool.map`` preserves chunk order, so results are deterministic
    and bit-identical to sequential execution for any worker count.  The
    pool and the shared blocks are created lazily on the first round and
    released by :meth:`close` (or at garbage collection via a
    finalizer); a failure while the runtime is being brought up rolls
    back every partially created resource before propagating.
    """

    name = "pool"

    def __init__(
        self,
        clients: list[EdgeServerClient],
        config: "FederatedConfig",
        observer: "Observer | None" = None,
    ) -> None:
        self._clients = clients
        self._config = config
        self._observer = observer
        self._pool = None
        self._store: SharedDatasetStore | None = None
        self._params: SharedParameterBlock | None = None
        self._finalizer = None

    def _ensure_pool(self, n_parameters: int) -> None:
        if self._pool is not None:
            return
        import weakref

        store = None
        params = None
        pool = None
        try:
            store = SharedDatasetStore(
                [client.dataset for client in self._clients]
            )
            params = SharedParameterBlock(n_parameters)
            method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
            context = multiprocessing.get_context(method)
            config = self._config
            pool = context.Pool(
                processes=config.pool_workers,
                initializer=_pool_initializer,
                initargs=(
                    store.spec,
                    params.name,
                    params.n_parameters,
                    self._clients[0].model_config,
                    config.seed,
                    config.local_epochs,
                    config.sgd,
                    config.proximal_mu,
                    # Propagate the campaign's spool context (if any)
                    # explicitly rather than relying on fork inheriting
                    # module state, so the spawn start method telemetry
                    # behaves identically.
                    get_spool_context(),
                ),
            )
        except BaseException:
            # Roll back partial construction: without this, a failure
            # between shm creation and pool start would leak segments
            # that no finalizer knows about yet.
            if pool is not None:
                pool.terminate()
                pool.join()
            if params is not None:
                params.close()
            if store is not None:
                store.close()
            raise
        self._store = store
        self._params = params
        self._pool = pool
        self._finalizer = weakref.finalize(
            self, _shutdown_pool, pool, store, params
        )

    def train_round(
        self,
        participants: Sequence[int],
        global_parameters: np.ndarray,
        round_index: int,
        learning_rate: float,
    ) -> CohortUpdate:
        broadcast = np.ascontiguousarray(global_parameters, dtype=np.float64)
        if len(participants) == 0:
            return CohortUpdate.from_updates(
                [], broadcast.size, self._config.local_epochs
            )
        started = time.perf_counter()
        self._ensure_pool(broadcast.size)
        # Publish the round's model once; Pool.map is a full barrier, so
        # no worker can still be reading when the next round rewrites it.
        self._params.write(broadcast)
        chunks = _chunk_evenly(list(participants), self._config.pool_workers)
        tasks = [
            (tuple(chunk), round_index, learning_rate) for chunk in chunks
        ]
        chunk_results = self._pool.map(_pool_train_chunk, tasks)
        if self._observer is not None:
            self._observer.counter("engine.pool_chunks").inc(len(tasks))
            self._observer.counter("engine.pool_tasks").inc(
                len(participants)
            )
        trained = [pair for chunk in chunk_results for pair in chunk]
        return CohortUpdate.from_updates(
            [update for update, _ in trained],
            broadcast.size,
            self._config.local_epochs,
            durations_s=[duration for _, duration in trained],
            elapsed_s=time.perf_counter() - started,
        )

    def close(self) -> None:
        if self._finalizer is not None:
            self._finalizer()  # runs _shutdown_pool at most once
            self._pool = None
            self._store = None
            self._params = None


# ----------------------------------------------------------------------
# Data-driven backend selection (``--backend auto``).
#
# Selection is grounded in two measurements rather than flags: the
# timing-law work proxy ``K * E * d`` (per-client samples are fixed by
# the partition, so ``n`` cancels when comparing like against like) and
# the measured pool break-even table in ``BENCH_parallel.json``.  On a
# host where the table shows pool below break-even everywhere (this
# repo's 1-CPU container), ``auto`` never picks pool — not because of a
# hard-coded rule, but because no measured row crosses speedup 1.0.
# ----------------------------------------------------------------------

_BREAK_EVEN_PATH = (
    Path(__file__).resolve().parents[3] / "BENCH_parallel.json"
)


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _row_work(row: dict) -> float:
    """Timing-law work proxy for one break-even row: ``K * E * d``."""
    model = str(row.get("model", "0x0"))
    try:
        n_features = int(model.split("x", 1)[0])
    except ValueError:
        n_features = 0
    return (
        float(row.get("participants", 0))
        * float(row.get("epochs", 0))
        * float(n_features)
    )


def load_break_even_table(path: str | Path | None = None) -> dict | None:
    """Load the measured pool break-even table, or ``None`` if absent.

    Defaults to the repo-root ``BENCH_parallel.json`` written by
    ``benchmarks/bench_parallel.py``.  A missing or malformed table
    simply disables the pool branch of ``auto`` — selection then falls
    back to the always-safe vectorized/sequential choice.
    """
    candidate = Path(path) if path is not None else _BREAK_EVEN_PATH
    try:
        payload = json.loads(candidate.read_text())
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def _pool_crossover_work(table: dict | None) -> float | None:
    """Smallest measured work at which pool beats sequential, if any."""
    if not table:
        return None
    break_even = table.get("break_even") or {}
    rows = break_even.get("rows") or []
    profitable = [
        _row_work(row)
        for row in rows
        if float(row.get("speedup_pool", 0.0)) >= 1.0
    ]
    return min(profitable) if profitable else None


def select_backend(
    *,
    n_clients: int,
    participants: int,
    epochs: int,
    n_features: int,
    vectorizable: bool,
    available_cpus: int | None = None,
    table: dict | None = None,
) -> str:
    """Pick a concrete backend for one workload, data-driven.

    Vectorizable workloads (logistic regression, full batch) always
    take a stacked path — the batched engine's measured headline
    (~4.5x, ``BENCH_engine.json``) dominates anything the pool can
    reach on any core count this repo has measured — with the
    population backend taking over once the client count justifies
    struct-of-arrays state.  Non-vectorizable workloads go to the pool
    only when (a) the host has at least ``pool_cpu_floor`` cores and
    (b) the measured break-even table contains a profitable row at or
    below this workload's timing-law work; otherwise sequential.
    """
    if vectorizable:
        if n_clients >= POPULATION_MIN_CLIENTS:
            return "population"
        if participants >= 2:
            return "batched"
        return "sequential"
    cpus = available_cpus if available_cpus is not None else _available_cpus()
    thresholds = (table or {}).get("thresholds") or {}
    cpu_floor = int(thresholds.get("pool_cpu_floor", 2))
    crossover = _pool_crossover_work(table)
    if cpus >= cpu_floor and crossover is not None:
        work = float(participants) * float(epochs) * float(n_features)
        if work >= crossover:
            return "pool"
    return "sequential"


def resolve_backend(
    backend: str,
    config: "FederatedConfig",
    n_clients: int,
    model_config,
    *,
    available_cpus: int | None = None,
    table: dict | None = None,
) -> str:
    """Resolve ``"auto"`` to a concrete backend; pass others through."""
    if backend != AUTO_BACKEND:
        return backend
    if table is None:
        table = load_break_even_table()
    return select_backend(
        n_clients=n_clients,
        participants=config.participants_per_round,
        epochs=config.local_epochs,
        n_features=getattr(model_config, "n_features", 0),
        vectorizable=is_vectorizable(model_config, config),
        available_cpus=available_cpus,
        table=table,
    )


def create_engine(
    backend: str,
    population: "list[EdgeServerClient] | PopulationState",
    config: "FederatedConfig",
    observer: "Observer | None" = None,
) -> ExecutionEngine:
    """Instantiate the execution backend named by ``backend``.

    ``population`` is the client list, or a :class:`PopulationState`
    for the object-less population path (which only the
    ``"population"`` backend can train).  ``"auto"`` is resolved
    against the current host and workload first (see
    :func:`resolve_backend`).
    """
    if isinstance(population, PopulationState):
        n_clients, model_config = population.n_clients, population.model_config
    else:
        n_clients, model_config = len(population), population[0].model_config
    backend = resolve_backend(backend, config, n_clients, model_config)
    if backend == "population":
        return PopulationEngine(population, config, observer)
    if isinstance(population, PopulationState):
        raise ValueError(
            f"a PopulationState trains only on the 'population' backend; "
            f"got {backend!r}"
        )
    if backend == "sequential":
        return SequentialEngine(population, config, observer)
    if backend == "batched":
        return BatchedEngine(population, config, observer)
    if backend == "pool":
        return PoolEngine(population, config, observer)
    raise ValueError(
        f"backend must be one of {BACKENDS}; got {backend!r}"
    )
