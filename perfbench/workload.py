"""One benchmark child: a fresh interpreter that sets up and runs a workload.

Usage (``run.py`` writes the job file)::

    python3 perfbench/workload.py JOB.json

The job names the workload, the seed, the mode and where to write the
result.  Modes:

* ``setup`` — import and set up, then stop (a ``setup_s`` sample);
* ``run``   — set up, then run the timed operation untraced;
* ``traced`` — the same with :mod:`spans` wrappers installed before set-up.

Everything the program does is driven through its public API.  Only
the standard library is imported before ``import repro`` is timed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

SWEEP_PARTICIPANTS = (1, 2, 4, 8)
SWEEP_EPOCHS = (1, 2, 4, 8, 16, 32)
# The campaign's training seeds.  Units train to a target accuracy, so
# their round counts -- and the campaign's wall-clock -- depend on the
# data drawn from these seeds (20-31 s at jobs=1 across four seed
# pairs).  They are held fixed so that every run does the same work;
# the benchmark seed varies the campaign's name, hence every unit key
# and store path, and the order its K and E axes are declared in.
SWEEP_TRAINING_SEEDS = (0, 1)
SWEEP_CHECKS = 3

POP_CLIENTS = 100_000
POP_SAMPLES_PER_CLIENT = 4
POP_FEATURES = 16
POP_CLASSES = 4
POP_COHORT = 10_000
POP_ROUNDS = 10
POP_TIERS = 100
POP_DROPOUT = 0.05
POP_TEST_SAMPLES = 2_000
# Final test accuracy after 10 rounds ranged 0.855-0.93 over 16 seeds
# (the label noise of the generated task caps it near 0.93); the floor
# sits below that range.
POP_ACCURACY_FLOOR = 0.8
POP_CHECKS = 2

PLAN_CHECKS = 4


def _digest(document) -> str:
    return hashlib.sha256(
        json.dumps(document, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _check(checks: list, name: str, ok: bool, detail: str = "") -> None:
    checks.append({"name": name, "ok": bool(ok), "detail": detail})


def _blas_threads():
    """Thread count of the loaded OpenBLAS, or ``None`` if not found."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libraries = {
        line.split()[-1]
        for line in maps.splitlines()
        if "openblas" in line.lower() and line.split()[-1].startswith("/")
    }
    for library in sorted(libraries):
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def _library_fingerprint() -> dict:
    from importlib.metadata import PackageNotFoundError, version

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        blas = None
    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = None
    return {
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "blas_threads": _blas_threads(),
    }


# ----------------------------------------------------------------------
# sweep: the Fig. 5/6 (K, E) campaign.
# ----------------------------------------------------------------------


def sweep_setup(job: dict, out: dict):
    from repro import ArtifactStore, CampaignRunner, CampaignSpec, RunSpec

    seed = job["seed"]
    order = random.Random(seed)
    participants = list(SWEEP_PARTICIPANTS)
    epochs = list(SWEEP_EPOCHS)
    order.shuffle(participants)
    order.shuffle(epochs)
    name = f"sweep{seed}"
    campaign = CampaignSpec(
        name=name,
        base=RunSpec(
            name=name,
            n_train=800,
            n_test=200,
            n_servers=8,
            max_rounds=80,
            target_accuracy=0.75,
            train_to_target=True,
            backend="auto",
        ),
        participants=tuple(participants),
        epochs=tuple(epochs),
        seeds=SWEEP_TRAINING_SEEDS,
    )
    out["input_s"] = 0.0
    started = time.perf_counter()
    store = ArtifactStore(os.path.join(job["tmp"], "store"))
    runner = CampaignRunner(campaign, store)
    ready = time.perf_counter()
    out["init_s"] = ready - started
    out["ready_ts"] = time.monotonic()
    return store, runner


def sweep_run(state, job: dict, out: dict, recorder) -> None:
    from repro import CampaignReport

    store, runner = state
    jobs = job["jobs"]
    ready = time.perf_counter()
    summary = runner.run(jobs=jobs)
    ran = time.perf_counter()
    report = CampaignReport.from_store(store)
    report.render()
    done = time.perf_counter()

    executed = [o for o in summary.outcomes if not o.skipped and not o.quarantined]
    durations = [o.duration_s for o in executed]
    out["op_s"] = done - ready
    out["unit_durations"] = durations
    out["units"] = len(executed)
    out["clients"] = sum(row["participants"] * row["rounds"] for row in report.rows)
    unit_exec_s = sum(durations)
    out["layer"] = {
        "campaign.unit_exec_s": unit_exec_s,
        "perf.idle_share": 1.0 - unit_exec_s / (jobs * (ran - ready)),
        "campaign.retries": sum(max(0, o.attempts - 1) for o in summary.outcomes),
        "campaign.report_s": done - ran,
        "campaign.bytes_written": sum(
            f.stat().st_size for f in Path(store.root).rglob("*") if f.is_file()
        ),
    }

    checks = out["checks"]
    complete = (
        len(executed) == len(runner.units)
        and summary.quarantined == 0
        and not summary.interrupted
    )
    _check(
        checks,
        "every unit completes",
        complete,
        f"{len(executed)}/{len(runner.units)} executed, "
        f"{summary.quarantined} quarantined, interrupted={summary.interrupted}",
    )
    health = store.verify()
    _check(checks, "store verify() is clean", health.healthy, health.render())
    best = report.best_plan()
    _check(checks, "best plan has K = 1", best is not None and best[0] == 1, f"best plan {best}")
    out["attempted"] = len(runner.units) + SWEEP_CHECKS
    out["failed"] = len(runner.units) - len(executed)
    out["digest"] = store.index_digest()


# ----------------------------------------------------------------------
# population: one 10^5-client testbed with fog tiers and telemetry.
# ----------------------------------------------------------------------


def _population_inputs(seed: int):
    import numpy as np

    from repro.data.dataset import Dataset

    rng = np.random.default_rng(seed)
    projection = rng.normal(size=(POP_FEATURES, POP_CLASSES))

    def draw(n):
        features = rng.normal(size=(n, POP_FEATURES))
        scores = features @ projection
        labels = np.argmax(scores + rng.normal(0.0, 0.5, size=scores.shape), axis=1)
        return Dataset(features, labels, POP_CLASSES)

    return draw(POP_CLIENTS * POP_SAMPLES_PER_CLIENT), draw(POP_TEST_SAMPLES)


def population_setup(job: dict, out: dict):
    from repro import Observer
    from repro.fl.model import LogisticRegressionConfig
    from repro.hardware.prototype import HardwarePrototype, PrototypeConfig

    seed = job["seed"]
    started = time.perf_counter()
    train, test = _population_inputs(seed)
    generated = time.perf_counter()
    out["input_s"] = generated - started

    model = LogisticRegressionConfig(n_features=POP_FEATURES, n_classes=POP_CLASSES)
    observer = Observer()
    prototype = HardwarePrototype(
        train,
        test,
        PrototypeConfig(
            n_servers=POP_CLIENTS,
            model=model,
            seed=seed,
            backend="auto",
            aggregation_tiers=POP_TIERS,
        ),
        observer=observer,
    )
    ready = time.perf_counter()
    out["init_s"] = ready - generated
    out["ready_ts"] = time.monotonic()
    return prototype, observer


def population_run(state, job: dict, out: dict, recorder) -> None:
    from repro.fl.sgd import SGDConfig
    from repro.fl.training import FederatedConfig
    from repro.net.messages import model_upload_message

    prototype, observer = state
    seed = job["seed"]
    ready = time.perf_counter()
    result = prototype.run(
        federated_config=FederatedConfig(
            n_rounds=POP_ROUNDS,
            participants_per_round=POP_COHORT,
            local_epochs=1,
            sgd=SGDConfig(),
            dropout_probability=POP_DROPOUT,
            seed=seed,
            backend="auto",
        )
    )
    done = time.perf_counter()
    out["op_s"] = done - ready

    # Round r lasts from its round.start event to its prototype.round
    # event (trained, aggregated, evaluated and energy-priced), as the
    # attached Observer recorded them.
    starts = [e.wall_time_s for e in observer.events.filter("round.start")]
    ends = [e.wall_time_s for e in observer.events.filter("prototype.round")]
    out["unit_durations"] = [end - start for start, end in zip(starts, ends)]
    out["units"] = result.rounds
    out["clients"] = POP_COHORT * result.rounds

    records = result.history.records
    e_receive = prototype.devices[0].upload_energy(
        model_upload_message(prototype.config.model)
    )
    expected = sum(min(POP_TIERS, len(r.aggregated)) for r in records) * e_receive
    checks = out["checks"]
    _check(
        checks,
        "aggregation energy = sum over rounds of min(100, aggregated) x receive energy",
        abs(result.aggregation_energy_j - expected) <= 1e-9 * max(1.0, expected),
        f"{result.aggregation_energy_j!r} J vs {expected!r} J",
    )
    accuracy = result.history.final_accuracy()
    _check(
        checks,
        f"final accuracy >= {POP_ACCURACY_FLOOR}",
        accuracy >= POP_ACCURACY_FLOOR,
        f"final accuracy {accuracy}",
    )
    out["attempted"] = POP_ROUNDS + POP_CHECKS
    out["failed"] = POP_ROUNDS - result.rounds
    out["digest"] = _digest(
        {
            "rounds": result.rounds,
            "energy_per_round_j": [repr(float(e)) for e in result.energy_per_round_j],
            "aggregation_energy_j": repr(result.aggregation_energy_j),
            "history": [
                [r.round_index, repr(r.train_loss), repr(r.test_accuracy), len(r.aggregated)]
                for r in records
            ],
        }
    )


# ----------------------------------------------------------------------
# plan: calibrate at the CLI's default tiny scale, then plan.
# ----------------------------------------------------------------------


def plan_setup(job: dict, out: dict):
    from repro.experiments.runner import SCALES

    # The calibration input is what `python -m repro plan` uses: the
    # tiny scale at its default data seed, because calibration trains
    # pilots to a target accuracy and its cost depends on the data
    # drawn (6.4-10.6 s across data seeds).  The benchmark seed draws
    # the planner's starting point instead; the plan must not depend
    # on it.
    seed = job["seed"]
    start = random.Random(seed)
    scale = SCALES["tiny"]
    k0 = start.uniform(1.0, scale.n_servers)
    e0 = start.uniform(1.0, 50.0)
    out["input_s"] = 0.0
    out["init_s"] = 0.0
    out["ready_ts"] = time.monotonic()
    return scale, k0, e0


def plan_run(state, job: dict, out: dict, recorder) -> None:
    from repro.experiments import calibrate
    from repro.hardware.prototype import HardwarePrototype

    scale, k0, e0 = state
    # The pilot runs' client updates are read off their results; this
    # tap records return values only and takes no timings.
    pilots = []
    if recorder is None:
        run = HardwarePrototype.run

        def tapped_run(self, *args, **kwargs):
            result = run(self, *args, **kwargs)
            pilots.append(result.participants * result.rounds)
            return result

        HardwarePrototype.run = tapped_run

    started = time.perf_counter()
    system = calibrate.calibrate_system(scale)
    planner = system.planner()
    chosen = planner.plan(system.epsilon)
    from_start = planner.plan(system.epsilon, k0=k0, e0=e0)
    done = time.perf_counter()
    out["op_s"] = done - started
    out["unit_durations"] = [done - started]
    out["units"] = 1
    out["clients"] = sum(pilots)

    checks = out["checks"]
    e_max = system.bound.max_feasible_epochs(system.epsilon, chosen.participants)
    _check(checks, "K* = 1", chosen.participants == 1, f"K* = {chosen.participants}")
    _check(
        checks,
        "interior E*",
        1 < chosen.epochs < e_max,
        f"E* = {chosen.epochs}, feasible E < {e_max}",
    )
    saving = chosen.savings_fraction
    _check(
        checks,
        "positive saving against (K, E) = (1, 1)",
        saving is not None and saving > 0,
        f"saving {saving}",
    )
    same = (from_start.participants, from_start.epochs, from_start.rounds) == (
        chosen.participants,
        chosen.epochs,
        chosen.rounds,
    )
    _check(
        checks,
        "plan from the seeded start equals the default plan",
        same,
        f"start ({k0:.3f}, {e0:.3f}) -> "
        f"({from_start.participants}, {from_start.epochs}, {from_start.rounds})",
    )
    out["attempted"] = 1 + PLAN_CHECKS
    out["failed"] = 0
    out["digest"] = _digest(
        [chosen.participants, chosen.epochs, chosen.rounds, repr(chosen.predicted_energy)]
    )


WORKLOADS = {
    "sweep": (sweep_setup, sweep_run),
    "population": (population_setup, population_run),
    "plan": (plan_setup, plan_run),
}


def _traced_layer_metrics(recorder, out: dict) -> None:
    summary = recorder.summary()
    counts = recorder.counts

    def total(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    trained = counts["fl.updates_wrapped"]
    layer = {
        "import.repro_s": out["import_s"],
        "data.build_s": total("data.build"),
        "data.partition_s": total("data.partition"),
        "hardware.prototype_init_s": self_s("hardware.prototype_init"),
        "hardware.energy_s": total("hardware.energy"),
        "hardware.energy_calls": counts["hardware.energy_calls"],
        "fl.client_build_s": total("fl.client_build"),
        "fl.engine_init_s": total("fl.engine_init"),
        "fl.population_state_bytes": counts["fl.population_state_bytes"],
        "fl.rounds": counts["fl.rounds"],
        "fl.round_s": total("fl.round"),
        "fl.round_self_s": self_s("fl.round"),
        "fl.select_s": total("fl.select"),
        "fl.engine_s": total("fl.engine"),
        "fl.engine_self_s": self_s("fl.engine"),
        "fl.stack_kernel_s": total("fl.stack_kernel"),
        "fl.stack_kernel_calls": counts["fl.stack_kernel_calls"],
        "fl.kernel_flops": counts["fl.kernel_flops"],
        "fl.updates_wrapped": trained,
        "fl.aggregate_s": total("fl.aggregate"),
        "fl.useful_ratio": counts["fl.updates_aggregated"] / trained if trained else 0.0,
        "fl.eval_s": total("fl.eval"),
        "fl.eval_calls": counts["fl.eval_calls"],
        "obs.emit_s": total("obs.emit"),
        "obs.events": counts["obs.events"],
        "experiments.fstar_s": total("experiments.fstar"),
        "experiments.fstar_evals": counts["experiments.fstar_evals"],
        "experiments.pilot_s": recorder.total_where("hardware.run", "experiments.calibrate"),
        "experiments.pilot_rounds": counts["experiments.pilot_rounds"],
        "core.fit_s": total("core.fit"),
        "core.plan_s": total("core.plan"),
        "campaign.checkpoint_s": total("campaign.checkpoint"),
        "campaign.checkpoints": counts["campaign.checkpoints"],
    }
    for name, seconds in recorder.layer_self_times().items():
        layer[f"self.{name}_s"] = seconds
    out["traced_layer"] = layer
    out["spans"] = len(recorder.starts)


def main(argv: list[str]) -> int:
    job = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])
    out = {"checks": [], "mode": job["mode"]}

    began = time.perf_counter()
    import repro  # noqa: F401  (timed: the package import chain)

    out["import_s"] = time.perf_counter() - began

    recorder = None
    if job["mode"] == "traced":
        import spans

        recorder = spans.SpanRecorder()
        spans.instrument(recorder)

    setup, run = WORKLOADS[job["workload"]]
    state = setup(job, out)
    if job["mode"] != "setup":
        run(state, job, out, recorder)
    out["setup_s"] = out["ready_ts"] - job["spawn_ts"] - out["input_s"]
    # The region a traced run is compared on: set-up after the import
    # plus the timed operation, without the benchmark's own input
    # generation or output checks.
    out["region_s"] = out["init_s"] + out.get("op_s", 0.0)
    out["libraries"] = _library_fingerprint()
    out["peak_rss_self_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if recorder is not None:
        _traced_layer_metrics(recorder, out)
        recorder.write_jsonl_gz(job["spans_path"])

    Path(job["result"]).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
