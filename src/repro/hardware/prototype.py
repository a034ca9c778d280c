"""The full simulated testbed: 20 Raspberry Pis + coordinator + meters.

This is the stand-in for the paper's §VI-A hardware prototype.  It
couples three substrates:

* the **FL substrate** actually trains the shared model (so required
  round counts ``T`` come from real convergence behaviour, not from the
  bound),
* the **hardware substrate** prices every round in joules and seconds
  using the measured RPi 4B constants,
* the **discrete-event engine** advances a shared wall clock so rounds
  are synchronised the way the coordinator synchronised the physical
  testbed (a round ends when its slowest participant uploads).

The "real measurement traces" of Figs. 5-6 are produced by
:meth:`HardwarePrototype.run`: train to the target accuracy with a given
``(K, E)``, integrate the energy the participating devices consumed.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import astuple, dataclass, field, replace
from functools import partial
from typing import TypeVar

import numpy as np

from repro.core.energy_model import HeterogeneousEnergyParams, cloud_fan_in
from repro.data.dataset import Dataset
from repro.faults.injector import FaultInjector
from repro.faults.models import FaultPlan
from repro.faults.policies import ResilienceConfig
from repro.fl.model import LogisticRegressionConfig
from repro.fl.partition import iid_shard, iid_split
from repro.fl.engine import is_vectorizable, resolve_backend
from repro.fl.population import AggregationTree, PopulationState
from repro.fl.server import Coordinator
from repro.fl.sgd import SGDConfig
from repro.fl.training import FederatedConfig, FederatedTrainer, build_clients
from repro.fl.metrics import TrainingHistory
from repro.hardware.power_meter import MeterConfig, PowerMeter
from repro.hardware.power_model import RoundPhase, StepPowers
from repro.hardware.raspberry_pi import PiTimingConfig, RaspberryPiEdgeServer
from repro.hardware.trace import PowerTrace
from repro.iot.network import IoTNetwork
from repro.net.channel import ChannelConfig, WirelessChannel
from repro.net.messages import (
    ModelMessage,
    model_download_message,
    model_upload_message,
)
from repro.obs.observer import active_or_none
from repro.sim.engine import Simulator
from repro.sim.processes import StepProcess

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.obs.observer import Observer

__all__ = ["PrototypeConfig", "PrototypeResult", "HardwarePrototype"]


@dataclass(frozen=True)
class PrototypeConfig:
    """Configuration of the simulated testbed.

    Defaults mirror the paper: 20 edge servers, 3 000 samples each,
    multinomial logistic regression, full-batch SGD at lr 0.01 with
    decay 0.99, measured RPi 4B power/timing constants.
    """

    n_servers: int = 20
    model: LogisticRegressionConfig = field(default_factory=LogisticRegressionConfig)
    sgd: SGDConfig = field(default_factory=SGDConfig)
    timing: PiTimingConfig = field(default_factory=PiTimingConfig)
    powers: StepPowers = field(default_factory=StepPowers)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    include_waiting: bool = False
    include_iot: bool = False
    heterogeneity: float = 0.0
    seed: int = 0
    backend: str = "sequential"
    # Fog aggregation tiers between the edge servers and the cloud.
    # 0 keeps the paper's flat single-hop aggregation; a positive value
    # folds each round's updates through that many fog nodes before the
    # cloud combines the tier partials (matches the flat mean to
    # ~1e-12, not bit-for-bit).
    aggregation_tiers: int = 0

    def __post_init__(self) -> None:
        if self.n_servers < 1:
            raise ValueError(f"n_servers must be >= 1; got {self.n_servers}")
        if not 0.0 <= self.heterogeneity < 0.9:
            raise ValueError(
                "heterogeneity must be in [0, 0.9) — it is the relative "
                f"spread of per-device power/speed factors; got {self.heterogeneity}"
            )
        if self.aggregation_tiers < 0:
            raise ValueError(
                f"aggregation_tiers must be >= 0; got {self.aggregation_tiers}"
            )


@dataclass(frozen=True)
class PrototypeResult:
    """Everything one testbed run measured.

    Attributes:
        history: per-round loss/accuracy records from the FL substrate.
        rounds: number of global rounds executed.
        total_energy_j: summed energy of all participants over all rounds
            (the paper's headline metric for Figs. 5-6).
        energy_per_round_j: round-by-round energy.
        iot_energy_j: data-collection energy (0 unless ``include_iot``).
        wall_clock_s: simulated testbed time from start to last upload.
        reached_target: whether the accuracy target was met within the
            round budget.
        participants: the ``K`` used.
        epochs: the ``E`` used.
        wasted_energy_j: joules burned on failures — retry
            transmissions, backoff waits, and the full active energy of
            clients whose round was futile (0 in a failure-free run).
        degraded_rounds: rounds where the quorum was missed and the
            previous global model was carried forward.
        aggregation_energy_j: cloud-side reception energy of the
            aggregation step, priced per combined message at the mean
            upload energy (symmetric link).  With fog tiers the cloud
            combines ``min(tiers, K)`` tier partials instead of ``K``
            uploads, so this is where the hierarchical topology's
            saving shows up.  Reported separately from
            ``total_energy_j`` (which remains the paper's
            participant-side eq. (3)/(6) metric).
    """

    history: TrainingHistory
    rounds: int
    total_energy_j: float
    energy_per_round_j: np.ndarray
    iot_energy_j: float
    wall_clock_s: float
    reached_target: bool
    participants: int
    epochs: int
    wasted_energy_j: float = 0.0
    degraded_rounds: int = 0
    aggregation_energy_j: float = 0.0

    @property
    def mean_round_energy_j(self) -> float:
        return float(self.energy_per_round_j.mean())

    @property
    def wasted_fraction(self) -> float:
        """Share of the total energy burned on failures."""
        if self.total_energy_j <= 0:
            return 0.0
        return self.wasted_energy_j / self.total_energy_j


_POWER_FIELDS = tuple(f"{phase.value}_w" for phase in RoundPhase)

_T = TypeVar("_T")


class _Lazy(Sequence[_T]):
    """``n`` items, each built by ``build(i)`` on first index and kept."""

    def __init__(self, n: int, build: Callable[[int], _T]) -> None:
        self._n = n
        self._build = build
        self._built: dict[int, _T] = {}

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self._n))]
        i = range(self._n)[i]  # normalises negatives, raises IndexError
        if i not in self._built:
            self._built[i] = self._build(i)
        return self._built[i]


def _sequential_sum(values: np.ndarray) -> float:
    """Left-to-right sum, bit-identical to adding client by client
    (``np.sum`` adds pairwise)."""
    return float(np.add.accumulate(values)[-1]) if len(values) else 0.0


class HardwarePrototype:
    """The simulated 20-Pi testbed.

    Args:
        train: pooled training dataset (uniformly partitioned over the
            servers, as in the paper).
        test: held-out evaluation set.
        config: testbed configuration.
        iot_network: optional IoT substrate; required when
            ``config.include_iot`` is set, providing the per-server
            ``rho_k`` constants for the data-collection energy.
        partitions: optional per-server shards (index == server id);
            by default ``train`` is split iid, kept as a permutation and
            a size vector, and a shard is built when first indexed.
        observer: optional telemetry sink, threaded through every layer
            the testbed drives: the FL trainer (round/client events), the
            DES engine (``sim.event`` records on the simulated clock),
            and the energy accounting (``energy.joules{phase=...}``
            counters split download/train/upload/wait/collect).
    """

    def __init__(
        self,
        train: Dataset,
        test: Dataset,
        config: PrototypeConfig | None = None,
        iot_network: IoTNetwork | None = None,
        partitions: list[Dataset] | None = None,
        observer: "Observer | None" = None,
    ) -> None:
        self.config = config or PrototypeConfig()
        self._observer = active_or_none(observer)
        if self.config.include_iot and iot_network is None:
            raise ValueError("include_iot=True requires an iot_network")
        self.train = train
        self.test = test
        self.iot_network = iot_network
        config = self.config
        n = config.n_servers
        self._split: tuple[np.ndarray, np.ndarray] | None = None
        if partitions is None:
            # The paper's allocation: uniform iid split over the servers.
            self._split = iid_split(
                len(train), n, np.random.default_rng(config.seed)
            )
            order, sizes = self._split
            partitions = _Lazy(n, partial(iid_shard, train, order, n))
        elif len(partitions) != n:
            raise ValueError(
                f"got {len(partitions)} partitions for {n} servers"
            )
        else:
            sizes = np.array([len(p) for p in partitions])
        self._partitions = partitions
        # Heterogeneous testbeds (config.heterogeneity > 0) draw a
        # per-device hardware factor: a faster, hungrier box has both
        # shorter epochs (timing / factor would be *speed*; here the
        # factor scales power and training time together as different
        # SoC bins do) — we scale powers up and timing independently so
        # per-round energies genuinely differ across devices.  Row i is
        # device i's (power, speed) factor pair.
        factors = np.ones((n, 2))
        if config.heterogeneity > 0:
            factor_rng = np.random.default_rng([config.seed, 0x4A4D])
            factors = np.clip(
                factor_rng.normal(1.0, config.heterogeneity, size=(n, 2)), 0.2, 3.0
            )
        # Per-device constants as (N,) vectors: the testbed's source of
        # truth, from which a device object is built on first index.
        self._table: dict[str, np.ndarray] = {
            "tau0": config.timing.tau0 * factors[:, 1],
            "tau1": config.timing.tau1 * factors[:, 1],
            **{
                name: getattr(config.powers, name) * factors[:, 0]
                for name in _POWER_FIELDS
            },
            "n_samples": sizes,
        }
        if config.include_iot:
            assert iot_network is not None
            self._table["collecting_j"] = np.array(
                [
                    iot_network.cluster(i).collection_energy(int(n_k))
                    for i, n_k in enumerate(sizes)
                ]
            )
        self.devices = _Lazy(n, self._device)
        self._download = model_download_message(config.model)
        self._upload = model_upload_message(config.model)

    def _device(self, i: int) -> RaspberryPiEdgeServer:
        """Device ``i`` built from its row of the table, with its own
        ``(seed, i)`` jitter stream."""
        table = self._table
        return RaspberryPiEdgeServer(
            server_id=i,
            timing=replace(
                self.config.timing,
                tau0=float(table["tau0"][i]),
                tau1=float(table["tau1"][i]),
            ),
            powers=StepPowers(
                **{name: float(table[name][i]) for name in _POWER_FIELDS}
            ),
            channel=WirelessChannel(self.config.channel),
            rng=np.random.default_rng((self.config.seed, i)),
        )

    def _train_s(self, epochs: int) -> np.ndarray:
        """Each device's step-(3) duration, the law of
        :meth:`RaspberryPiEdgeServer.training_duration` over the table."""
        table = self._table
        return epochs * (table["tau0"] * table["n_samples"] + table["tau1"])

    def _transfer_s(self, message: ModelMessage) -> float:
        """Transfer time of ``message``, the same on every device: each
        device's link is built from the testbed's channel config."""
        channel = WirelessChannel(self.config.channel)
        return channel.transfer_message(message).duration_s

    @property
    def samples_per_server(self) -> int:
        """``n_k`` of the first server (uniform partition sizes +-1)."""
        return int(self._table["n_samples"][0])

    def heterogeneous_energy_params(
        self, rho_values: dict[int, float] | None = None
    ) -> HeterogeneousEnergyParams:
        """Per-device energy constants of this testbed.

        Derives each device's ``(c0, c1)`` from its timing law and
        training power (``c = tau * P_train``) and its ``e^U`` from the
        upload transfer; the result feeds eq. (12)'s expectation
        operators via :meth:`HeterogeneousEnergyParams.mean`.
        """
        n = self.config.n_servers
        rho = np.zeros(n)
        if rho_values is not None:
            for server_id, value in rho_values.items():
                rho[server_id] = value
        elif self.iot_network is not None:
            for server_id, value in self.iot_network.rho_values().items():
                rho[server_id] = value
        table = self._table
        return HeterogeneousEnergyParams(
            rho=rho,
            c0=table["tau0"] * table["training_w"],
            c1=table["tau1"] * table["training_w"],
            e_upload=self._transfer_s(self._upload) * table["uploading_w"],
            n_samples=self.samples_per_server,
        )

    def _make_trainer(
        self,
        participants: int,
        epochs: int,
        n_rounds: int,
        target_accuracy: float | None,
        overselection: int = 0,
        completion_ranker=None,
        update_compressor=None,
        fault_injector: FaultInjector | None = None,
        resilience: ResilienceConfig | None = None,
        federated_config: FederatedConfig | None = None,
    ) -> FederatedTrainer:
        # A caller-supplied config (e.g. a RunSpec projection) is used
        # verbatim so every training knob it declares — dropout,
        # proximal mu, pool workers — is honored; otherwise one is
        # assembled from the loop arguments and the testbed defaults.
        fed_config = federated_config or FederatedConfig(
            n_rounds=n_rounds,
            participants_per_round=participants,
            local_epochs=epochs,
            sgd=self.config.sgd,
            target_accuracy=target_accuracy,
            overselection=overselection,
            seed=self.config.seed,
            backend=self.config.backend,
        )
        backend = resolve_backend(
            fed_config.backend,
            fed_config,
            self.config.n_servers,
            self.config.model,
        )
        if backend == "population" and is_vectorizable(
            self.config.model, fed_config
        ):
            # Straight to struct-of-arrays: no per-client objects.
            if self._split is not None:
                clients = PopulationState.from_partition(
                    self.train,
                    *self._split,
                    self.config.model,
                    dtype=fed_config.population_dtype,
                )
            else:
                clients = PopulationState.from_datasets(
                    self._partitions,
                    self.config.model,
                    dtype=fed_config.population_dtype,
                )
        else:
            clients = build_clients(
                self._partitions, self.config.model, seed=self.config.seed
            )
        coordinator = None
        if self.config.aggregation_tiers > 0:
            coordinator = Coordinator(
                self.config.model,
                observer=self._observer,
                aggregation_tree=AggregationTree(self.config.aggregation_tiers),
            )
        client_time_fn = None
        if resilience is not None:
            # Deadline checks use the measured timing law (jitter-free,
            # so the check itself consumes no device randomness).
            train_s = self._train_s(epochs)

            def client_time_fn(client_id: int, round_index: int) -> float:
                return float(train_s[client_id])

        return FederatedTrainer(
            clients=clients,
            config=fed_config,
            train_eval=self.train,
            test_eval=self.test,
            coordinator=coordinator,
            completion_ranker=completion_ranker,
            update_compressor=update_compressor,
            observer=self._observer,
            fault_injector=fault_injector,
            resilience=resilience,
            upload_channel=WirelessChannel(self.config.channel),
            client_time_fn=client_time_fn,
        )

    def run(
        self,
        participants: int | None = None,
        epochs: int | None = None,
        n_rounds: int = 1000,
        target_accuracy: float | None = None,
        overselection: int = 0,
        update_compressor=None,
        fault_plan: FaultPlan | None = None,
        resilience: ResilienceConfig | None = None,
        federated_config: FederatedConfig | None = None,
    ) -> PrototypeResult:
        """Train with ``(K, E)`` and measure the energy spent.

        ``federated_config``, when given, is the single source of truth
        for the training loop: ``(K, E)``, round budget, accuracy
        target, overselection, and every knob the loop arguments cannot
        express (dropout probability, FedProx mu, pool workers) are all
        taken from it and the corresponding arguments are ignored.
        Without it, ``participants`` and ``epochs`` are required and a
        config is assembled from the loop arguments.

        Stops at ``target_accuracy`` if given, else after ``n_rounds``.
        The simulated wall clock advances round by round: a round lasts
        as long as its slowest *awaited* participant — all selected with
        plain FedAvg; only the K fastest with ``overselection > 0``
        (stragglers still train and burn energy, but the coordinator
        moves on without them).

        ``update_compressor`` (a :class:`~repro.fl.compression.Compressor`
        or :class:`~repro.fl.compression.ErrorFeedback`) compresses each
        uploaded update; the upload message — and hence the upload time
        and energy ``e_k^U`` — shrinks to the compressed size.

        ``fault_plan`` attaches a deterministic
        :class:`~repro.faults.FaultInjector` (crashes, stragglers,
        burst loss, battery depletion, corrupted uploads) and
        ``resilience`` the recovery policies the trainer applies.  The
        energy accounting then prices failure cost at the measured step
        powers: every retry transmission burns upload power, every
        backoff waits at waiting power, and the full active energy of a
        client whose round was futile (upload failed, deadline missed,
        update rejected) is charged to the ``energy.wasted_j`` counter
        on top of appearing in the round totals.
        """
        if federated_config is not None:
            participants = federated_config.participants_per_round
            epochs = federated_config.local_epochs
            n_rounds = federated_config.n_rounds
            target_accuracy = federated_config.target_accuracy
            overselection = federated_config.overselection
        elif participants is None or epochs is None:
            raise ValueError(
                "run() requires either federated_config or both "
                "participants and epochs"
            )
        upload_message = self._upload
        if update_compressor is not None:
            compressor = getattr(update_compressor, "compressor", update_compressor)
            upload_message = ModelMessage(
                "upload",
                compressor.compressed_bytes(self.config.model.n_parameters),
            )
        table = self._table
        download_s = self._transfer_s(self._download)
        upload_s = self._transfer_s(upload_message)
        train_s = self._train_s(epochs)
        # Jitter-free active energy of one round at each device: what a
        # futile round (upload failed, deadline missed, update rejected)
        # wastes, priced without consuming any device randomness.
        nominal_j = (
            train_s * table["training_w"] + download_s * table["downloading_w"]
        ) + upload_s * table["uploading_w"]
        jittered = self.config.timing.jitter_fraction > 0
        drawn: dict[int, tuple] = {}

        def phase_durations(round_index: int, ids: np.ndarray) -> tuple:
            """(waiting, download, train, upload) seconds per participant
            (scalars for the phases no device varies in).

            Drawn once per round, so ranking, energy and the awaited
            duration all describe the same (possibly jittered) round.
            """
            if round_index not in drawn:
                drawn.clear()
                if jittered:
                    timings = [
                        self.devices[c].round_timing(
                            epochs, int(n), self._download, upload_message
                        )
                        for c, n in zip(ids, table["n_samples"][ids])
                    ]
                    drawn[round_index] = tuple(
                        np.array([astuple(t) for t in timings]).reshape(-1, 4).T
                    )
                else:
                    drawn[round_index] = (
                        self.config.timing.waiting_s,
                        download_s,
                        train_s[ids],
                        upload_s,
                    )
            return drawn[round_index]

        def ranker(round_index: int, selected: list[int]) -> list[int]:
            waiting, download, train, upload = phase_durations(
                round_index, np.asarray(selected, dtype=np.int64)
            )
            order = np.argsort(((waiting + download) + train) + upload, kind="stable")
            return [selected[i] for i in order.tolist()]

        injector = (
            FaultInjector(
                fault_plan, self.config.n_servers, observer=self._observer
            )
            if fault_plan is not None
            else None
        )
        trainer = self._make_trainer(
            participants,
            epochs,
            n_rounds,
            target_accuracy,
            overselection=overselection,
            completion_ranker=ranker if overselection > 0 else None,
            update_compressor=update_compressor,
            fault_injector=injector,
            resilience=resilience,
            federated_config=federated_config,
        )
        simulator = Simulator(observer=self._observer)
        energy_per_round: list[float] = []
        wasted_energy = {"total": 0.0}
        # One combined message at the cloud is priced at the mean upload
        # energy (symmetric link: receiving a model costs what sending
        # it does).  Fog tiers shrink the per-round message count from K
        # to min(tiers, K); fog-side reception is the fog nodes' budget,
        # not the cloud's, so it is deliberately not charged here.
        e_receive = float(np.mean(upload_s * table["uploading_w"]))
        aggregation_messages = {"total": 0}
        iot_energy = 0.0

        def run_round(sim: Simulator) -> None:
            record = trainer.run_round()
            ids = np.asarray(record.participants, dtype=np.int64)
            waiting, download, train, upload = phase_durations(
                record.round_index, ids
            )
            # Per-client energy, elementwise in the order one client's
            # phases are added up: ((download + train) + upload), then
            # waiting and data collection when they are priced.
            phases = {
                "downloading": download * table["downloading_w"][ids],
                "training": train * table["training_w"][ids],
                "uploading": upload * table["uploading_w"][ids],
            }
            if self.config.include_waiting:
                phases["waiting"] = waiting * table["waiting_w"][ids]
            if self.config.include_iot:
                phases["collect"] = table["collecting_j"][ids]
            client_energy = sum(phases.values())
            if self._observer is not None and len(ids):
                for phase, joules in phases.items():
                    self._observer.counter("energy.joules", phase=phase).inc(
                        float(joules.sum())
                    )
            round_energy = _sequential_sum(client_energy)
            overhead = 0.0  # retry transmissions and backoff waits, seconds
            report = trainer.last_resilience_report
            if report is not None and report.round_index != record.round_index:
                report = None
            round_wasted = 0.0
            if report is not None:
                # Price the failure cost at the measured step powers:
                # retry transmissions at 5.015 W upload power, backoff
                # waits at 3.600 W waiting power, futile rounds in full.
                row_of = {c: i for i, c in enumerate(record.participants)}
                overhead = np.zeros(len(ids))
                for server_id, attempts in report.upload_attempts.items():
                    retries = max(0, attempts - 1)
                    backoff_s = report.backoff_s.get(server_id, 0.0)
                    retry_j = (
                        retries * upload_s * float(table["uploading_w"][server_id])
                    )
                    wait_j = backoff_s * float(table["waiting_w"][server_id])
                    if retry_j or wait_j:
                        row = row_of[server_id]
                        round_energy += retry_j + wait_j
                        round_wasted += retry_j + wait_j
                        client_energy[row] = client_energy[row] + retry_j + wait_j
                        overhead[row] = retries * upload_s + backoff_s
                futile = set(report.failed_uploads) | set(report.late)
                futile |= set(report.corrupted)
                for server_id in futile:
                    round_wasted += float(nominal_j[server_id])
                wasted_energy["total"] += round_wasted
                if self._observer is not None and round_wasted > 0:
                    self._observer.counter("energy.wasted_j").inc(round_wasted)
            if injector is not None:
                # Drain the declared batteries by the energy actually
                # measured this round (depleted devices crash from the
                # next round onward).
                for row in np.flatnonzero(np.isin(ids, injector.targets)):
                    injector.note_participation(
                        int(ids[row]),
                        record.round_index,
                        energy_j=float(client_energy[row]),
                    )
            if record.aggregated:
                aggregation_messages["total"] += cloud_fan_in(
                    len(record.aggregated), self.config.aggregation_tiers
                )
            awaited = slice(None)
            if record.aggregated:
                order = np.argsort(ids)
                awaited = order[np.searchsorted(ids, record.aggregated, sorter=order)]
            totals = (((waiting + download) + train) + upload) + overhead
            round_duration = float(totals[awaited].max(initial=0.0))
            if (
                resilience is not None
                and resilience.round_deadline_s is not None
            ):
                # The coordinator moves on at the deadline.
                round_duration = min(
                    round_duration, resilience.round_deadline_s
                )
            if round_duration <= 0.0:
                # A fully-crashed (empty) round still takes the
                # coordinator's waiting period of wall-clock time.
                round_duration = self.config.timing.waiting_s or 1.0
            energy_per_round.append(round_energy)
            if self._observer is not None:
                self._observer.histogram("sim.round_duration_s").observe(
                    round_duration
                )
                self._observer.emit(
                    "prototype.round",
                    sim_time=sim.now,
                    round=record.round_index,
                    energy_j=round_energy,
                    duration_s=round_duration,
                    participants=len(record.participants),
                    wasted_j=round_wasted,
                    degraded=record.degraded,
                )
            done = len(energy_per_round) >= n_rounds or (
                target_accuracy is not None
                and record.test_accuracy >= target_accuracy
            )
            if done:
                # Advance the clock over the final round without
                # scheduling another one.
                sim.schedule(round_duration, lambda s: None, label="final-upload")
            else:
                sim.schedule(round_duration, run_round, label="round-start")

        simulator.schedule(0.0, run_round, label="round-start")
        try:
            simulator.run()
        finally:
            trainer.close()

        if self.config.include_iot:
            iot_energy = _sequential_sum(
                np.concatenate(
                    [
                        table["collecting_j"][np.asarray(r.participants, dtype=int)]
                        for r in trainer.history.records
                    ]
                )
            )

        history = trainer.history
        reached = (
            target_accuracy is not None
            and history.final_accuracy() >= target_accuracy
        )
        return PrototypeResult(
            history=history,
            rounds=len(history),
            total_energy_j=float(np.sum(energy_per_round)),
            energy_per_round_j=np.array(energy_per_round),
            iot_energy_j=iot_energy,
            wall_clock_s=simulator.now,
            reached_target=reached,
            participants=participants,
            epochs=epochs,
            wasted_energy_j=wasted_energy["total"],
            degraded_rounds=history.degraded_round_count(),
            aggregation_energy_j=aggregation_messages["total"] * e_receive,
        )

    def run_async(
        self,
        max_updates: int,
        epochs: int,
        mixing_alpha: float = 0.6,
        staleness_beta: float = 0.5,
        target_accuracy: float | None = None,
        eval_every: int = 1,
    ):
        """Asynchronous (FedAsync-style) training on this testbed.

        Every device trains continuously at its own measured pace (the
        round-timing model minus the waiting phase — async has no round
        barrier to wait at); the coordinator merges each arriving update
        with a staleness-discounted weight.  Returns
        ``(AsyncResult, total_energy_j)``: energy is the active energy of
        every completed local job, merged or not.
        """
        from repro.fl.async_training import AsyncConfig, AsyncFederatedTrainer

        energy_counter = {"total": 0.0}

        def duration(client_id: int) -> float:
            # One timing draw prices both the job's length and its energy.
            device = self.devices[client_id]
            n_k = int(self._table["n_samples"][client_id])
            timing = device.round_timing(epochs, n_k, self._download, self._upload)
            phases = device.phase_energies(timing, self.config.include_waiting)
            if self.config.include_iot:
                assert self.iot_network is not None
                phases["collect"] = self.iot_network.cluster(
                    client_id
                ).collection_energy(n_k)
            energy_counter["total"] += sum(phases.values())
            if self._observer is not None:
                for phase, joules in phases.items():
                    self._observer.counter("energy.joules", phase=phase).inc(joules)
            return timing.total_s - timing.waiting_s

        clients = build_clients(
            self._partitions, self.config.model, seed=self.config.seed
        )
        trainer = AsyncFederatedTrainer(
            clients=clients,
            config=AsyncConfig(
                max_updates=max_updates,
                local_epochs=epochs,
                mixing_alpha=mixing_alpha,
                staleness_beta=staleness_beta,
                sgd=self.config.sgd,
                eval_every=eval_every,
                target_accuracy=target_accuracy,
                seed=self.config.seed,
            ),
            train_eval=self.train,
            test_eval=self.test,
            duration_fn=duration,
        )
        result = trainer.run()
        return result, energy_counter["total"]

    # ------------------------------------------------------------------
    # Fig. 3: a metered trace of consecutive rounds at one device.
    # ------------------------------------------------------------------
    def record_power_trace(
        self,
        server_id: int,
        epochs: int,
        n_rounds: int = 2,
        meter: PowerMeter | None = None,
    ) -> PowerTrace:
        """Meter one device across ``n_rounds`` consecutive rounds.

        Reproduces Fig. 3: the four-plateau pattern repeating each round.
        """
        if n_rounds < 1:
            raise ValueError(f"n_rounds must be >= 1; got {n_rounds}")
        device = self.devices[server_id]
        n_k = int(self._table["n_samples"][server_id])
        process = StepProcess()
        for _ in range(n_rounds):
            timing = device.round_timing(epochs, n_k, self._download, self._upload)
            process.extend(device.round_power_process(timing))
        meter = meter or PowerMeter(
            MeterConfig(),
            rng=np.random.default_rng(self.config.seed),
            observer=self._observer,
        )
        return meter.record(process)
