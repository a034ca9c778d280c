"""Population-engine acceptance suite (million-client backend).

The population backend must be a drop-in replacement for the sequential
reference: same cohorts, same update order, same aggregated parameters
(within ``atol=1e-10``; bit-identical to the batched engine, whose
kernel it shares).  The suite sweeps seeds, K, E, FedProx, dropout,
over-selection, and an active fault plan; checks cohort-order
invariance of :func:`train_cohort`; verifies the stacked K/E/seed grid
against per-unit trainer runs; and pins the fog-tier aggregation fold
to the flat mean.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.faults.injector import FaultInjector
from repro.faults.models import (
    BatteryFault,
    CorruptionFault,
    FaultPlan,
    make_demo_plan,
)
from repro.faults.policies import ResilienceConfig, RetryPolicy
from repro.fl.client import EdgeServerClient, LocalUpdate
from repro.fl.engine import (
    AUTO_BACKEND,
    POPULATION_MIN_CLIENTS,
    PopulationEngine,
    select_backend,
)
from repro.fl.model import LogisticRegressionConfig
from repro.fl.partition import iid_shard, iid_split, partition_iid
from repro.fl.population import (
    AggregationTree,
    GridUnit,
    PopulationState,
    train_cohort,
    train_unit_grid,
)
from repro.fl.sampling import FloydSampler
from repro.fl.server import Coordinator, aggregate_mean
from repro.fl.sgd import SGDConfig
from repro.fl.training import FederatedConfig, FederatedTrainer, build_clients
from repro.hardware.prototype import HardwarePrototype, PrototypeConfig
from repro.hardware.raspberry_pi import PiTimingConfig, RaspberryPiEdgeServer
from repro.iot.network import IoTNetwork
from repro.net.channel import WirelessChannel
from repro.net.messages import model_download_message, model_upload_message
from repro.obs.observer import Observer
from repro.perf.cache import StackCache
from repro.perf.shared_data import SharedDatasetStore, attach_datasets

pytestmark = pytest.mark.population_smoke

_CONFIG = LogisticRegressionConfig(n_features=8, n_classes=3)
_N_CLIENTS = 8


def _linear_task(n: int, seed: int = 0) -> Dataset:
    projection = np.random.default_rng(424242).normal(size=(8, 3))
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, 8))
    scores = features @ projection
    labels = np.argmax(scores + rng.normal(0, 0.5, size=scores.shape), axis=1)
    return Dataset(features, labels, 3)


# 317 samples over 8 clients -> two distinct partition sizes, so the
# population state exercises its size-grouping path every round.
_TRAIN = _linear_task(317)
_TEST = _linear_task(100, seed=99)
_PARTITIONS = partition_iid(_TRAIN, _N_CLIENTS, np.random.default_rng(1))


def _run(
    backend: str,
    with_faults: bool = False,
    observer: Observer | None = None,
    model_config: LogisticRegressionConfig = _CONFIG,
    **config_kwargs,
):
    """Train with ``backend`` and return (final_params, history, reports)."""
    defaults = dict(
        n_rounds=8,
        participants_per_round=3,
        local_epochs=2,
        sgd=SGDConfig(learning_rate=0.5, decay=0.99),
        backend=backend,
    )
    defaults.update(config_kwargs)
    clients = build_clients(_PARTITIONS, model_config)
    kwargs = {}
    if with_faults:
        plan = make_demo_plan(
            _N_CLIENTS,
            seed=13,
            crash_fraction=0.25,
            loss_fraction=0.3,
            loss_bad=0.95,
        )
        kwargs["fault_injector"] = FaultInjector(plan, _N_CLIENTS)
        kwargs["resilience"] = ResilienceConfig(
            retry=RetryPolicy(max_retries=1), min_quorum=1
        )
    trainer = FederatedTrainer(
        clients=clients,
        config=FederatedConfig(**defaults),
        train_eval=_TRAIN,
        test_eval=_TEST,
        observer=observer,
        **kwargs,
    )
    try:
        trainer.run()
    finally:
        trainer.close()
    return (
        trainer.coordinator.global_parameters,
        trainer.history,
        list(trainer.resilience_log),
    )


def _assert_equivalent(reference, candidate, atol: float = 1e-10) -> None:
    params_ref, history_ref, reports_ref = reference
    params_new, history_new, reports_new = candidate
    np.testing.assert_allclose(params_new, params_ref, rtol=0, atol=atol)
    assert len(history_ref) == len(history_new)
    for rec_ref, rec_new in zip(history_ref.records, history_new.records):
        assert rec_ref.round_index == rec_new.round_index
        assert rec_ref.participants == rec_new.participants
        assert rec_ref.aggregated == rec_new.aggregated
        assert rec_ref.degraded == rec_new.degraded
        assert rec_ref.train_loss == pytest.approx(
            rec_new.train_loss, abs=atol
        )
    assert reports_ref == reports_new


class TestPopulationEquivalence:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("participants,epochs", [(1, 1), (3, 4), (5, 1)])
    def test_plain_fedavg(self, seed: int, participants: int, epochs: int):
        reference = _run(
            "sequential",
            seed=seed,
            participants_per_round=participants,
            local_epochs=epochs,
        )
        candidate = _run(
            "population",
            seed=seed,
            participants_per_round=participants,
            local_epochs=epochs,
        )
        _assert_equivalent(reference, candidate)

    def test_fedprox_and_l2(self):
        regularised = LogisticRegressionConfig(
            n_features=8, n_classes=3, l2=0.01
        )
        kwargs = dict(
            proximal_mu=0.05,
            model_config=regularised,
            sgd=SGDConfig(learning_rate=0.4),
        )
        reference = _run("sequential", **kwargs)
        candidate = _run("population", **kwargs)
        _assert_equivalent(reference, candidate)

    def test_dropout_and_overselection(self):
        kwargs = dict(dropout_probability=0.3, overselection=2, seed=3)
        reference = _run("sequential", **kwargs)
        candidate = _run("population", **kwargs)
        _assert_equivalent(reference, candidate)

    def test_active_fault_plan(self):
        reference = _run("sequential", with_faults=True, n_rounds=10, seed=5)
        candidate = _run("population", with_faults=True, n_rounds=10, seed=5)
        _assert_equivalent(reference, candidate)
        assert candidate[2], "fault plan produced no resilience reports"

    def test_bitwise_identical_to_batched(self):
        """Population shares the batched kernel: results match exactly."""
        batched = _run("batched", seed=2, participants_per_round=4)
        population = _run("population", seed=2, participants_per_round=4)
        np.testing.assert_array_equal(batched[0], population[0])

    def test_float32_dtype_close(self):
        reference = _run("sequential", seed=1)
        candidate = _run("population", seed=1, population_dtype="float32")
        # float32 compute, float64 aggregation: small but non-zero delta.
        np.testing.assert_allclose(
            candidate[0], reference[0], rtol=0, atol=1e-4
        )

    def test_population_rounds_counted(self):
        observer = Observer()
        _run("population", observer=observer, n_rounds=6)
        assert observer.metrics.value("engine.population_rounds") == 6

    def test_minibatch_falls_back_to_sequential(self):
        kwargs = dict(sgd=SGDConfig(learning_rate=0.3, batch_size=16))
        reference = _run("sequential", **kwargs)
        observer = Observer()
        candidate = _run("population", observer=observer, **kwargs)
        _assert_equivalent(reference, candidate, atol=0.0)
        with pytest.raises(KeyError):
            observer.metrics.value("engine.population_rounds")

    def test_auto_backend_equivalent(self):
        reference = _run("sequential", seed=4)
        candidate = _run(AUTO_BACKEND, seed=4)
        _assert_equivalent(reference, candidate)


class TestPopulationState:
    def test_from_datasets_roundtrip(self):
        state = PopulationState.from_datasets(_PARTITIONS, _CONFIG)
        assert state.n_clients == _N_CLIENTS
        for client_id, dataset in enumerate(_PARTITIONS):
            restored = EdgeServerClient.from_population(state, client_id)
            np.testing.assert_array_equal(
                restored.dataset.features, dataset.features
            )
            np.testing.assert_array_equal(
                restored.dataset.labels, dataset.labels
            )

    def test_synthesize_shapes_and_dtype(self):
        state = PopulationState.synthesize(
            64, n_features=6, n_classes=4, samples_per_client=3, seed=1
        )
        assert state.n_clients == 64
        assert int(state.n_samples.sum()) == 64 * 3
        f32 = PopulationState.synthesize(
            16, n_features=6, n_classes=4, dtype=np.float32
        )
        assert f32.dtype == np.float32

    def test_battery_drain(self):
        state = PopulationState.synthesize(10, seed=3)
        state.battery_j[:] = 5.0
        state.drain_battery(np.array([0, 1, 2]), 6.0)
        active = state.active_clients()
        assert 0 not in active and 1 not in active and 2 not in active
        assert len(active) == 7

    def test_rejects_gapped_ids(self):
        group_cls = type(
            PopulationState.synthesize(2, seed=0).groups[
                next(iter(PopulationState.synthesize(2, seed=0).groups))
            ]
        )
        good = PopulationState.synthesize(4, seed=0)
        (n, group), = good.groups.items()
        bad = group_cls(
            client_ids=group.client_ids + 2,  # ids 2..5, not 0..3
            features=group.features,
            labels=group.labels,
        )
        with pytest.raises(ValueError):
            PopulationState({n: bad}, good.model_config)


class TestTrainCohort:
    def _state_and_anchor(self):
        state = PopulationState.from_datasets(_PARTITIONS, _CONFIG)
        anchor = _CONFIG.build().get_parameters()
        return state, anchor

    def test_update_order_follows_input_ids(self):
        state, anchor = self._state_and_anchor()
        ordered = train_cohort(
            state, [1, 3, 5], anchor, epochs=2, learning_rate=0.5
        )
        shuffled = train_cohort(
            state, [5, 1, 3], anchor, epochs=2, learning_rate=0.5
        )
        assert [u.client_id for u in ordered] == [1, 3, 5]
        assert [u.client_id for u in shuffled] == [5, 1, 3]
        by_id = {u.client_id: u.parameters for u in shuffled}
        for update in ordered:
            np.testing.assert_array_equal(
                update.parameters, by_id[update.client_id]
            )

    def test_matches_sequential_client(self):
        state, anchor = self._state_and_anchor()
        clients = build_clients(_PARTITIONS, _CONFIG)
        for client_id in (0, 4, 7):
            expected = clients[client_id].train(
                anchor, epochs=3, learning_rate=0.4
            )
            (actual,) = train_cohort(
                state, [client_id], anchor, epochs=3, learning_rate=0.4
            )
            np.testing.assert_allclose(
                actual.parameters, expected.parameters, rtol=0, atol=1e-10
            )
            assert actual.n_samples == expected.n_samples


class TestAggregationTree:
    def _updates(self, k: int = 12) -> list[LocalUpdate]:
        rng = np.random.default_rng(5)
        return [
            LocalUpdate(
                client_id=i,
                parameters=rng.normal(size=_CONFIG.n_parameters),
                n_samples=40,
                epochs=1,
                gradient_steps=1,
                final_local_loss=0.1,
            )
            for i in range(k)
        ]

    def test_fold_matches_flat_mean(self):
        updates = self._updates()
        flat = aggregate_mean(updates)
        for tiers in (1, 3, 4, 12, 100):
            folded = AggregationTree(tiers).fold_updates(updates)
            np.testing.assert_allclose(folded, flat, rtol=0, atol=1e-12)

    def test_fan_in(self):
        tree = AggregationTree(4)
        assert tree.fan_in(12) == 4
        assert tree.fan_in(3) == 3
        assert tree.fan_in(1) == 1

    def test_coordinator_with_tree(self):
        updates = self._updates(6)
        flat = Coordinator(_CONFIG)
        tiered = Coordinator(_CONFIG, aggregation_tree=AggregationTree(3))
        np.testing.assert_allclose(
            tiered.aggregate(updates),
            flat.aggregate(updates),
            rtol=0,
            atol=1e-12,
        )

    def test_tree_requires_mean_rule(self):
        with pytest.raises(ValueError, match="mean"):
            Coordinator(
                _CONFIG,
                aggregation="weighted",
                aggregation_tree=AggregationTree(2),
            )


class TestUnitGrid:
    def test_grid_matches_per_unit_trainers(self):
        state = PopulationState.from_datasets(_PARTITIONS, _CONFIG)
        sgd = SGDConfig(learning_rate=0.5, decay=0.99)
        units = [
            GridUnit(participants=5, epochs=3, seed=7),
            GridUnit(participants=8, epochs=2, seed=11),
            GridUnit(participants=3, epochs=5, seed=7),
        ]
        results = train_unit_grid(state, units, n_rounds=6, sgd=sgd)
        for unit, result in zip(units, results):
            clients = build_clients(_PARTITIONS, _CONFIG)
            trainer = FederatedTrainer(
                clients=clients,
                config=FederatedConfig(
                    n_rounds=6,
                    participants_per_round=unit.participants,
                    local_epochs=unit.epochs,
                    sgd=sgd,
                    seed=unit.seed,
                    backend="batched",
                ),
                train_eval=_TRAIN,
                test_eval=_TEST,
            )
            trainer.run()
            trainer.close()
            np.testing.assert_array_equal(
                result.parameters, trainer.coordinator.global_parameters
            )

    def test_grid_with_tree_close_to_flat(self):
        state = PopulationState.from_datasets(_PARTITIONS, _CONFIG)
        sgd = SGDConfig(learning_rate=0.5, decay=0.99)
        units = [GridUnit(participants=6, epochs=2, seed=0)]
        flat = train_unit_grid(state, units, n_rounds=5, sgd=sgd)
        tiered = train_unit_grid(
            state, units, n_rounds=5, sgd=sgd, tree=AggregationTree(3)
        )
        np.testing.assert_allclose(
            tiered[0].parameters, flat[0].parameters, rtol=0, atol=1e-10
        )


class TestPopulationEngineFallback:
    def test_minibatch_config_falls_back(self):
        clients = build_clients(_PARTITIONS, _CONFIG)
        config = FederatedConfig(
            n_rounds=1,
            participants_per_round=1,
            local_epochs=1,
            sgd=SGDConfig(learning_rate=0.3, batch_size=8),
            backend="population",
        )
        engine = PopulationEngine(clients, config)
        assert engine.state is None

    def test_state_requires_vectorizable(self):
        state = PopulationState.synthesize(8, seed=0)
        config = FederatedConfig(
            n_rounds=1,
            participants_per_round=1,
            local_epochs=1,
            sgd=SGDConfig(learning_rate=0.3, batch_size=8),
            backend="population",
        )
        with pytest.raises(ValueError, match="cannot fall back"):
            PopulationEngine(state, config)

    def test_state_trains_only_on_population_backend(self):
        state = PopulationState.from_datasets(_PARTITIONS, _CONFIG)
        config = FederatedConfig(
            n_rounds=1, participants_per_round=2, local_epochs=1
        )
        with pytest.raises(ValueError, match="only on the 'population'"):
            FederatedTrainer(
                clients=state, config=config, train_eval=_TRAIN, test_eval=_TEST
            )


class TestFloydSampler:
    def test_selects_sorted_unique_in_range(self):
        sampler = FloydSampler(1000, 10, seed=3)
        for round_index in range(5):
            selected = sampler.select(round_index)
            assert len(selected) == 10
            assert len(set(selected.tolist())) == 10
            assert np.all(np.diff(selected) > 0)
            assert selected.min() >= 0 and selected.max() < 1000

    def test_stateless_and_deterministic(self):
        a = FloydSampler(500, 20, seed=9)
        b = FloydSampler(500, 20, seed=9)
        # Query out of order: selection depends only on (seed, round).
        np.testing.assert_array_equal(a.select(3), b.select(3))
        np.testing.assert_array_equal(a.select(0), b.select(0))
        assert not np.array_equal(a.select(0), a.select(1))

    def test_full_population(self):
        sampler = FloydSampler(6, 6, seed=0)
        np.testing.assert_array_equal(sampler.select(0), np.arange(6))


class TestAutoSelection:
    def test_vectorized_small_population(self):
        assert (
            select_backend(
                n_clients=20,
                participants=5,
                epochs=2,
                n_features=784,
                vectorizable=True,
            )
            == "batched"
        )

    def test_vectorized_single_participant(self):
        assert (
            select_backend(
                n_clients=20,
                participants=1,
                epochs=2,
                n_features=784,
                vectorizable=True,
            )
            == "sequential"
        )

    def test_vectorized_large_population(self):
        assert (
            select_backend(
                n_clients=POPULATION_MIN_CLIENTS,
                participants=10,
                epochs=1,
                n_features=784,
                vectorizable=True,
            )
            == "population"
        )

    def test_single_cpu_never_pool(self):
        profitable = {
            "thresholds": {"pool_cpu_floor": 2},
            "break_even": {
                "rows": [
                    {
                        "participants": 4,
                        "epochs": 1,
                        "model": "8x3",
                        "speedup_pool": 1.5,
                    }
                ]
            },
        }
        assert (
            select_backend(
                n_clients=20,
                participants=16,
                epochs=8,
                n_features=784,
                vectorizable=False,
                available_cpus=1,
                table=profitable,
            )
            == "sequential"
        )

    def test_pool_when_measured_profitable(self):
        profitable = {
            "thresholds": {"pool_cpu_floor": 2},
            "break_even": {
                "rows": [
                    {
                        "participants": 4,
                        "epochs": 1,
                        "model": "8x3",
                        "speedup_pool": 1.5,
                    }
                ]
            },
        }
        assert (
            select_backend(
                n_clients=20,
                participants=16,
                epochs=8,
                n_features=784,
                vectorizable=False,
                available_cpus=8,
                table=profitable,
            )
            == "pool"
        )

    def test_no_profitable_row_never_pool(self):
        unprofitable = {
            "thresholds": {"pool_cpu_floor": 2},
            "break_even": {
                "rows": [
                    {
                        "participants": 16,
                        "epochs": 8,
                        "model": "784x10",
                        "speedup_pool": 0.8,
                    }
                ]
            },
        }
        assert (
            select_backend(
                n_clients=20,
                participants=16,
                epochs=8,
                n_features=784,
                vectorizable=False,
                available_cpus=8,
                table=unprofitable,
            )
            == "sequential"
        )

    def test_trainer_resolves_auto_once(self):
        clients = build_clients(_PARTITIONS, _CONFIG)
        trainer = FederatedTrainer(
            clients=clients,
            config=FederatedConfig(
                n_rounds=1,
                participants_per_round=2,
                local_epochs=1,
                backend=AUTO_BACKEND,
            ),
            train_eval=_TRAIN,
            test_eval=_TEST,
        )
        assert trainer.resolved_backend == "batched"
        trainer.close()


class TestStackCacheBytes:
    def test_byte_bound_evicts_oldest(self):
        cache = StackCache(capacity=32, max_bytes=100)
        a = np.zeros(5, dtype=np.float64)  # 40 bytes each
        cache.store((1,), a)
        cache.store((2,), a)
        assert cache.total_bytes == 80
        cache.store((3,), a)  # 120 > 100: (1,) evicted
        assert cache.lookup((1,)) is None
        assert cache.lookup((3,)) is not None
        assert cache.total_bytes == 80

    def test_oversized_entry_not_cached(self):
        cache = StackCache(capacity=32, max_bytes=100)
        cache.store((1,), np.zeros(64, dtype=np.float64))  # 512 bytes
        assert len(cache) == 0
        assert cache.total_bytes == 0


class TestSharedStoreFromPopulation:
    def test_matches_object_list_constructor(self):
        state = PopulationState.from_datasets(_PARTITIONS, _CONFIG)
        from_objects = SharedDatasetStore(list(_PARTITIONS))
        from_state = SharedDatasetStore.from_population(state)
        try:
            ref, ref_handles = attach_datasets(from_objects.spec)
            new, new_handles = attach_datasets(from_state.spec)
            assert from_state.spec.row_offsets == from_objects.spec.row_offsets
            for d_ref, d_new in zip(ref, new):
                np.testing.assert_array_equal(d_ref.features, d_new.features)
                np.testing.assert_array_equal(d_ref.labels, d_new.labels)
            for handle in (*ref_handles, *new_handles):
                handle.close()
        finally:
            from_objects.close()
            from_state.close()


def _prototype_run(backend: str, **config_kwargs):
    """A prototype run with every pricing path on: dropout, fog tiers,
    heterogeneous devices, IoT collection, faults and resilience."""
    n_servers = 12
    iot = IoTNetwork.homogeneous(n_servers, devices_per_cluster=2, sample_bytes=50)
    prototype = HardwarePrototype(
        _TRAIN,
        _TEST,
        PrototypeConfig(
            n_servers=n_servers,
            model=_CONFIG,
            sgd=SGDConfig(learning_rate=0.5, decay=0.99),
            include_iot=True,
            heterogeneity=0.3,
            aggregation_tiers=2,
            backend=backend,
            seed=4,
            **config_kwargs,
        ),
        iot_network=iot,
    )
    demo = make_demo_plan(
        n_servers, seed=13, crash_fraction=0.2, loss_fraction=0.3, loss_bad=0.95
    )
    plan = FaultPlan(
        seed=13,
        faults=demo.faults
        + (
            CorruptionFault(client_id=0, probability=0.5),
            BatteryFault(client_id=1, capacity_j=0.05),
        ),
    )
    return prototype.run(
        federated_config=FederatedConfig(
            n_rounds=12,
            participants_per_round=4,
            local_epochs=2,
            sgd=SGDConfig(learning_rate=0.5, decay=0.99),
            dropout_probability=0.2,
            overselection=1,
            seed=4,
            backend=backend,
        ),
        fault_plan=plan,
        resilience=ResilienceConfig(
            retry=RetryPolicy(max_retries=1), min_quorum=1, round_deadline_s=0.3
        ),
    )


class TestPrototypeEquivalence:
    def test_population_prototype_matches_sequential(self):
        reference = _prototype_run("sequential")
        candidate = _prototype_run("population")
        assert reference.wasted_energy_j > 0
        np.testing.assert_array_equal(
            candidate.energy_per_round_j, reference.energy_per_round_j
        )
        assert candidate.total_energy_j == reference.total_energy_j
        assert candidate.wasted_energy_j == reference.wasted_energy_j
        assert candidate.aggregation_energy_j == reference.aggregation_energy_j
        assert candidate.iot_energy_j == reference.iot_energy_j
        assert candidate.wall_clock_s == reference.wall_clock_s
        assert candidate.degraded_rounds == reference.degraded_rounds
        for rec_ref, rec_new in zip(
            reference.history.records, candidate.history.records
        ):
            assert rec_ref.participants == rec_new.participants
            assert rec_ref.aggregated == rec_new.aggregated
            assert rec_new.train_loss == pytest.approx(
                rec_ref.train_loss, abs=1e-10
            )
            assert rec_new.test_accuracy == rec_ref.test_accuracy

    def test_population_path_builds_no_client_objects(self, monkeypatch):
        built: Counter[str] = Counter()
        for cls in (EdgeServerClient, LocalUpdate):
            init = cls.__init__

            def counted(self, *args, _init=init, _name=cls.__name__, **kwargs):
                built[_name] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        _prototype_run("population")
        assert built == Counter()
        # The counter does see the sequential path's objects.
        _prototype_run("sequential")
        assert built["EdgeServerClient"] > 0 and built["LocalUpdate"] > 0


def _eager_devices(config: PrototypeConfig) -> list[RaspberryPiEdgeServer]:
    """Every device built up front, drawing each one's (power, speed)
    factors as two scalar draws in turn: the oracle for the testbed's
    vectors and its on-demand devices."""
    factor_rng = np.random.default_rng([config.seed, 0x4A4D])
    devices = []
    for i in range(config.n_servers):
        timing, powers = config.timing, config.powers
        if config.heterogeneity > 0:
            power_factor = float(
                np.clip(factor_rng.normal(1.0, config.heterogeneity), 0.2, 3.0)
            )
            speed_factor = float(
                np.clip(factor_rng.normal(1.0, config.heterogeneity), 0.2, 3.0)
            )
            powers = powers.scaled(power_factor)
            timing = PiTimingConfig(
                tau0=timing.tau0 * speed_factor,
                tau1=timing.tau1 * speed_factor,
                waiting_s=timing.waiting_s,
                jitter_fraction=timing.jitter_fraction,
            )
        devices.append(
            RaspberryPiEdgeServer(
                i,
                timing,
                powers,
                WirelessChannel(config.channel),
                rng=np.random.default_rng((config.seed, i)),
            )
        )
    return devices


def _count_constructions(monkeypatch) -> Counter:
    """Count devices, datasets and ``default_rng`` Generators built."""
    built: Counter[str] = Counter()
    device_init = RaspberryPiEdgeServer.__init__
    dataset_post_init = Dataset.__post_init__
    default_rng = np.random.default_rng

    def device(self, *args, **kwargs):
        built["device"] += 1
        device_init(self, *args, **kwargs)

    def dataset(self):
        built["dataset"] += 1
        dataset_post_init(self)

    def generator(*args, **kwargs):
        built["generator"] += 1
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(RaspberryPiEdgeServer, "__init__", device)
    monkeypatch.setattr(Dataset, "__post_init__", dataset)
    monkeypatch.setattr(np.random, "default_rng", generator)
    return built


class TestVectorTestbed:
    """The testbed is per-device vectors; objects are built on demand."""

    @pytest.mark.parametrize("heterogeneity", [0.0, 0.3])
    def test_population_round_builds_no_per_device_objects(
        self, monkeypatch, heterogeneity: float
    ):
        round_generators = []
        for n_servers in (1_000, 10_000):
            train = _linear_task(4 * n_servers, seed=5)
            built = _count_constructions(monkeypatch)
            prototype = HardwarePrototype(
                train,
                _TEST,
                PrototypeConfig(
                    n_servers=n_servers,
                    model=_CONFIG,
                    heterogeneity=heterogeneity,
                    backend="population",
                    aggregation_tiers=10,
                ),
            )
            assert built["device"] == built["dataset"] == 0
            assert built["generator"] <= 2
            built.clear()
            result = prototype.run(
                federated_config=FederatedConfig(
                    n_rounds=1,
                    participants_per_round=100,
                    local_epochs=1,
                    dropout_probability=0.05,
                    backend="population",
                )
            )
            assert result.rounds == 1
            assert built["device"] == built["dataset"] == 0
            round_generators.append(built["generator"])
            monkeypatch.undo()
        assert round_generators[0] == round_generators[1]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n_clients", [1, 7, 100, 317])
    def test_from_partition_equals_from_datasets(self, n_clients: int, dtype):
        order, sizes = iid_split(len(_TRAIN), n_clients, np.random.default_rng(3))
        shards = [iid_shard(_TRAIN, order, n_clients, p) for p in range(n_clients)]
        self._assert_same_state(
            PopulationState.from_partition(_TRAIN, order, sizes, _CONFIG, dtype=dtype),
            PopulationState.from_datasets(shards, _CONFIG, dtype=dtype),
        )

    def test_from_partition_takes_any_sizes(self):
        order = np.random.default_rng(4).permutation(len(_TRAIN))
        sizes = np.array([3, 1, 300, 3, 9, 1])
        starts = np.cumsum(sizes) - sizes
        shards = [
            _TRAIN.subset(order[start : start + n])
            for start, n in zip(starts, sizes)
        ]
        self._assert_same_state(
            PopulationState.from_partition(_TRAIN, order, sizes, _CONFIG),
            PopulationState.from_datasets(shards, _CONFIG),
        )

    @staticmethod
    def _assert_same_state(state: PopulationState, reference: PopulationState):
        assert state.dtype == reference.dtype
        assert list(state.groups) == list(reference.groups)
        for n, group in state.groups.items():
            expected = reference.groups[n]
            for name in ("client_ids", "features", "labels"):
                got, want = getattr(group, name), getattr(expected, name)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(state.n_samples, reference.n_samples)
        np.testing.assert_array_equal(
            state.rows_of(np.arange(state.n_clients)),
            reference.rows_of(np.arange(reference.n_clients)),
        )

    @pytest.mark.parametrize("heterogeneity", [0.0, 0.3])
    def test_devices_equal_eagerly_built_ones(self, heterogeneity: float):
        config = PrototypeConfig(
            n_servers=50,
            model=_CONFIG,
            timing=PiTimingConfig(jitter_fraction=0.1),
            heterogeneity=heterogeneity,
            seed=7,
        )
        prototype = HardwarePrototype(_linear_task(200), _TEST, config)
        download = model_download_message(_CONFIG)
        upload = model_upload_message(_CONFIG)
        eager = _eager_devices(config)
        assert len(prototype.devices) == len(eager)
        for i in (0, 1, 17, 49):
            device, reference = prototype.devices[i], eager[i]
            assert prototype.devices[i] is device
            assert device.server_id == reference.server_id == i
            assert device.timing == reference.timing
            assert device.powers == reference.powers
            draws = [device.round_timing(2, 4, download, upload) for _ in range(3)]
            assert draws == [
                reference.round_timing(2, 4, download, upload) for _ in range(3)
            ]

    @pytest.mark.parametrize("heterogeneity", [0.0, 0.3])
    def test_energy_params_equal_eagerly_built_devices(self, heterogeneity: float):
        config = PrototypeConfig(
            n_servers=50, model=_CONFIG, heterogeneity=heterogeneity, seed=7
        )
        params = HardwarePrototype(
            _linear_task(200), _TEST, config
        ).heterogeneous_energy_params()
        eager = _eager_devices(config)
        upload = model_upload_message(_CONFIG)
        np.testing.assert_array_equal(
            params.c0, [d.timing.tau0 * d.powers.training_w for d in eager]
        )
        np.testing.assert_array_equal(
            params.c1, [d.timing.tau1 * d.powers.training_w for d in eager]
        )
        np.testing.assert_array_equal(
            params.e_upload, [d.upload_energy(upload) for d in eager]
        )
        assert params.n_samples == 4
