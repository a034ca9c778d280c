"""Integration tests for the full simulated testbed."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic_mnist import generate_synthetic_mnist
from repro.fl.sgd import SGDConfig
from repro.hardware.prototype import HardwarePrototype, PrototypeConfig
from repro.hardware.raspberry_pi import PiTimingConfig, RaspberryPiEdgeServer
from repro.iot.network import IoTNetwork
from repro.net.messages import model_download_message, model_upload_message
from repro.obs import Observer


@pytest.fixture(scope="module")
def prototype() -> HardwarePrototype:
    train = generate_synthetic_mnist(800, seed=0)
    test = generate_synthetic_mnist(200, seed=1)
    config = PrototypeConfig(
        n_servers=8, sgd=SGDConfig(learning_rate=0.05, decay=0.995), seed=0
    )
    return HardwarePrototype(train, test, config)


class TestRun:
    def test_runs_requested_rounds(self, prototype: HardwarePrototype) -> None:
        result = prototype.run(participants=3, epochs=5, n_rounds=10)
        assert result.rounds == 10
        assert len(result.energy_per_round_j) == 10
        assert result.total_energy_j == pytest.approx(
            float(np.sum(result.energy_per_round_j))
        )
        assert result.participants == 3
        assert result.epochs == 5

    def test_wall_clock_covers_all_rounds(self, prototype: HardwarePrototype) -> None:
        result = prototype.run(participants=2, epochs=3, n_rounds=5)
        # Each round takes at least waiting (1 s) + training time.
        assert result.wall_clock_s >= 5 * 1.0

    def test_energy_scales_with_participants(self, prototype: HardwarePrototype) -> None:
        small = prototype.run(participants=1, epochs=5, n_rounds=5)
        large = prototype.run(participants=6, epochs=5, n_rounds=5)
        assert large.mean_round_energy_j == pytest.approx(
            6 * small.mean_round_energy_j, rel=0.01
        )

    def test_energy_grows_with_epochs(self, prototype: HardwarePrototype) -> None:
        few = prototype.run(participants=2, epochs=1, n_rounds=3)
        many = prototype.run(participants=2, epochs=20, n_rounds=3)
        assert many.mean_round_energy_j > few.mean_round_energy_j

    def test_round_energy_matches_device_model(
        self, prototype: HardwarePrototype
    ) -> None:
        result = prototype.run(participants=2, epochs=4, n_rounds=1)
        download = model_download_message(prototype.config.model)
        upload = model_upload_message(prototype.config.model)
        expected = 0.0
        for server_id in result.history[0].participants:
            n_k = prototype.samples_per_server
            expected += prototype.devices[server_id].round_energy(
                4, n_k, download, upload
            )
        assert result.energy_per_round_j[0] == pytest.approx(expected, rel=1e-6)

    def test_target_accuracy_stops_early(self, prototype: HardwarePrototype) -> None:
        result = prototype.run(
            participants=8, epochs=20, n_rounds=200, target_accuracy=0.5
        )
        assert result.reached_target
        assert result.rounds < 200

    def test_unreached_target_flag(self, prototype: HardwarePrototype) -> None:
        result = prototype.run(
            participants=1, epochs=1, n_rounds=2, target_accuracy=0.999
        )
        assert not result.reached_target

    def test_learning_progresses(self, prototype: HardwarePrototype) -> None:
        result = prototype.run(participants=8, epochs=10, n_rounds=40)
        assert result.history.final_accuracy() > 0.5
        assert result.history.final_loss() < result.history.losses[0]

    def test_deterministic(self, prototype: HardwarePrototype) -> None:
        a = prototype.run(participants=3, epochs=2, n_rounds=4)
        b = prototype.run(participants=3, epochs=2, n_rounds=4)
        np.testing.assert_allclose(a.energy_per_round_j, b.energy_per_round_j)
        np.testing.assert_array_equal(a.history.losses, b.history.losses)


class TestJitteredTiming:
    @pytest.mark.parametrize("overselection", [0, 2])
    def test_energy_and_duration_share_one_draw(
        self, monkeypatch, overselection: int
    ) -> None:
        """Each participant's jittered timing is drawn once per round and
        prices its energy, its arrival rank and the awaited duration."""
        train = generate_synthetic_mnist(400, seed=5)
        test = generate_synthetic_mnist(100, seed=6)
        observer = Observer()
        prototype = HardwarePrototype(
            train,
            test,
            PrototypeConfig(
                n_servers=6,
                timing=PiTimingConfig(jitter_fraction=0.3),
                seed=3,
            ),
            observer=observer,
        )
        drawn = []
        round_timing = RaspberryPiEdgeServer.round_timing

        def recorded(self, *args, **kwargs):
            timing = round_timing(self, *args, **kwargs)
            drawn.append((self.server_id, timing))
            return timing

        monkeypatch.setattr(RaspberryPiEdgeServer, "round_timing", recorded)
        result = prototype.run(
            participants=3, epochs=2, n_rounds=4, overselection=overselection
        )
        ends = observer.events.filter("prototype.round")
        cursor = 0
        for record, energy, end in zip(
            result.history.records, result.energy_per_round_j, ends
        ):
            draws = drawn[cursor : cursor + len(record.participants)]
            cursor += len(draws)
            assert [server for server, _ in draws] == list(record.participants)
            timings = dict(draws)
            expected = sum(
                sum(prototype.devices[server].phase_energies(timing).values())
                for server, timing in draws
            )
            assert energy == pytest.approx(expected, rel=1e-12)
            awaited = record.aggregated or record.participants
            assert end.fields["duration_s"] == max(
                timings[server].total_s for server in awaited
            )
        assert cursor == len(drawn)


class TestIoTCoupling:
    def test_iot_energy_accounted(self) -> None:
        train = generate_synthetic_mnist(400, seed=2)
        test = generate_synthetic_mnist(100, seed=3)
        iot = IoTNetwork.homogeneous(4, devices_per_cluster=2, sample_bytes=50)
        config = PrototypeConfig(n_servers=4, include_iot=True, seed=0)
        prototype = HardwarePrototype(train, test, config, iot_network=iot)
        result = prototype.run(participants=2, epochs=1, n_rounds=3)
        assert result.iot_energy_j > 0
        n_k = prototype.samples_per_server
        expected_per_selection = iot.cluster(0).collection_energy(n_k)
        assert result.iot_energy_j == pytest.approx(3 * 2 * expected_per_selection)

    def test_include_iot_requires_network(self) -> None:
        train = generate_synthetic_mnist(100, seed=0)
        with pytest.raises(ValueError, match="iot_network"):
            HardwarePrototype(
                train, train, PrototypeConfig(n_servers=2, include_iot=True)
            )


class TestPowerTraceRecording:
    def test_trace_has_round_structure(self, prototype: HardwarePrototype) -> None:
        trace = prototype.record_power_trace(0, epochs=10, n_rounds=3)
        plateaus = trace.detect_plateaus(tolerance_w=0.3)
        # 4 phases x 3 rounds, possibly merged at boundaries; at least
        # the training plateau must appear three times.
        training = [p for p in plateaus if abs(p[2] - 5.553) < 0.3]
        assert len(training) == 3

    def test_trace_energy_close_to_model(self, prototype: HardwarePrototype) -> None:
        trace = prototype.record_power_trace(0, epochs=10, n_rounds=2)
        download = model_download_message(prototype.config.model)
        upload = model_upload_message(prototype.config.model)
        expected = 2 * prototype.devices[0].round_energy(
            10, prototype.samples_per_server, download, upload, include_waiting=True
        )
        assert trace.energy() == pytest.approx(expected, rel=0.02)

    def test_rejects_nonpositive_rounds(self, prototype: HardwarePrototype) -> None:
        with pytest.raises(ValueError, match="n_rounds"):
            prototype.record_power_trace(0, epochs=1, n_rounds=0)
