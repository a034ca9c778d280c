"""Outside-in span tracing for the benchmark's traced runs.

The program is not edited to be traced.  :func:`instrument` replaces a
fixed list of public functions and methods of :mod:`repro` with
wrappers that open a span on entry and close it on exit, so every span
sits at a layer boundary the benchmark chose, and the spans nest the
way the calls do.  Spans stay in memory as parallel arrays (name,
start, end, parent) and are written out once, after the timed region.

A span's *self time* is its duration minus the durations of its direct
children.  Over a finished single-threaded trace the self times of all
spans add up to the summed duration of the top-level spans, so the
per-layer self times, plus whatever the benchmark itself did between
top-level spans, reconcile with the traced wall-clock.

Layer names are the first component of a span name and follow the
package layout of ``src/repro``: ``data``, ``hardware``, ``fl``,
``obs``, ``experiments``, ``core``, ``campaign``.
"""

from __future__ import annotations

import functools
import gzip
import sys
import threading
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("data", "hardware", "fl", "obs", "experiments", "core", "campaign")


class SpanRecorder:
    """Spans of the main thread, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._thread = threading.get_ident()

    def _open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        span_id = len(self.starts)
        self.name_of.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(span_id)
        self.starts.append(perf_counter())
        return span_id

    def _close(self, span_id: int) -> None:
        self.ends[span_id] = perf_counter()
        self._stack.pop()

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on the stack."""
        name_id = self._name_ids.get(name)
        return name_id is not None and any(
            self.name_of[s] == name_id for s in self._stack
        )

    def wrap(self, fn, name: str, after=None):
        """``fn`` timed as span ``name``; ``after(args, kwargs, result)``
        runs once the span is closed, to record counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            span_id = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span_id)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- analysis ----------------------------------------------------

    def self_times(self) -> array:
        """Duration minus direct-children duration, per span."""
        own = array("d", (e - s for s, e in zip(self.starts, self.ends)))
        for span_id, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[span_id] - self.starts[span_id]
        return own

    def has_ancestor(self, span_id: int, name: str) -> bool:
        name_id = self._name_ids.get(name)
        parent = self.parents[span_id]
        while parent >= 0:
            if self.name_of[parent] == name_id:
                return True
            parent = self.parents[parent]
        return False

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        own = self.self_times()
        rows = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for span_id, name_id in enumerate(self.name_of):
            row = rows[self.names[name_id]]
            row["calls"] += 1
            row["total_s"] += self.ends[span_id] - self.starts[span_id]
            row["self_s"] += own[span_id]
        return rows

    def layer_self_times(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, row in self.summary().items():
            totals[name.split(".", 1)[0]] += row["self_s"]
        return totals

    def total_where(self, name: str, ancestor: str) -> float:
        """Inclusive seconds of ``name`` spans under an ``ancestor`` span."""
        name_id = self._name_ids.get(name)
        return sum(
            self.ends[s] - self.starts[s]
            for s, n in enumerate(self.name_of)
            if n == name_id and self.has_ancestor(s, ancestor)
        )

    def write_jsonl_gz(self, path: str) -> None:
        """One JSON object per span: id, parent, name, start, end."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span_id, name_id in enumerate(self.name_of):
                out.write(
                    f'{{"id": {span_id}, "parent": {self.parents[span_id]}, '
                    f'"name": "{self.names[name_id]}", '
                    f'"start": {self.starts[span_id]!r}, "end": {self.ends[span_id]!r}}}\n'
                )


def _patch_function(fn, traced) -> None:
    """Rebind every ``repro`` module attribute that is ``fn``.

    A free function is called through the name its caller imported, so
    each importing module's binding is replaced, not only the defining
    module's.
    """
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".", 1)[0] != "repro" or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, traced)


def _patch_method(recorder, base, attr, name, after=None) -> None:
    """Wrap ``attr`` on ``base`` and on every subclass that overrides it."""
    pending, seen = [base], set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        pending.extend(cls.__subclasses__())
        raw = cls.__dict__.get(attr)
        if raw is None:
            continue
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(recorder.wrap(raw.__func__, name, after)))
        else:
            setattr(cls, attr, recorder.wrap(raw, name, after))


def instrument(recorder: SpanRecorder) -> None:
    """Wrap the public functions whose spans the traced run reports."""
    from repro.campaign import ArtifactStore, CampaignReport, CampaignRunner
    from repro.campaign import runner as campaign_runner
    from repro.core import EnergyPlanner
    from repro.core import calibration as core_calibration
    from repro.data import synthetic_mnist
    from repro.experiments import calibrate
    from repro.fl import partition, population, training
    from repro.fl.client import LocalUpdate
    from repro.fl.engine import ExecutionEngine
    from repro.fl.model import LogisticRegressionModel
    from repro.fl.population import PopulationState
    from repro.fl.sampling import ClientSampler
    from repro.fl.server import Coordinator
    from repro.fl.training import FederatedTrainer
    from repro.hardware.prototype import HardwarePrototype
    from repro.hardware.raspberry_pi import RaspberryPiEdgeServer
    from repro.obs import Observer

    counts = recorder.counts

    def count(key):
        def after(args, kwargs, result):
            counts[key] += 1

        return after

    def kernel_flops(args, kwargs, result):
        # Two (n x d) by (d x C) products per lane and epoch (forward
        # and gradient) plus the O(n C) softmax and update arithmetic.
        features = args[0]
        lanes, n, d = features.shape
        classes = args[3].shape[-1]
        counts["fl.stack_kernel_calls"] += 1
        counts["fl.kernel_flops"] += kwargs["epochs"] * lanes * n * classes * (4 * d + 8)

    def state_bytes(args, kwargs, result):
        counts["fl.population_state_bytes"] += result.nbytes

    def aggregated(args, kwargs, result):
        counts["fl.updates_aggregated"] += len(args[1])

    def prototype_run(args, kwargs, result):
        if recorder.inside("experiments.calibrate"):
            counts["experiments.pilot_rounds"] += result.rounds

    for fn, name in (
        (synthetic_mnist.load_synthetic_mnist, "data.build"),
        (partition.partition_iid, "data.partition"),
        (training.build_clients, "fl.client_build"),
        (calibrate.estimate_f_star, "experiments.fstar"),
        (calibrate.calibrate_system, "experiments.calibrate"),
        (core_calibration.fit_training_energy, "core.fit"),
        (core_calibration.fit_convergence_constants, "core.fit"),
        (campaign_runner.execute_unit, "campaign.unit"),
    ):
        _patch_function(fn, recorder.wrap(fn, name))
    kernel = population.fullbatch_gd_stack
    _patch_function(kernel, recorder.wrap(kernel, "fl.stack_kernel", kernel_flops))

    _patch_method(recorder, HardwarePrototype, "__init__", "hardware.prototype_init")
    _patch_method(recorder, HardwarePrototype, "run", "hardware.run", prototype_run)
    for attr in ("round_timing", "phase_energies"):
        _patch_method(
            recorder, RaspberryPiEdgeServer, attr, "hardware.energy",
            count("hardware.energy_calls"),
        )
    _patch_method(
        recorder, PopulationState, "from_clients", "fl.engine_init", state_bytes
    )
    _patch_method(recorder, FederatedTrainer, "run_round", "fl.round", count("fl.rounds"))
    _patch_method(recorder, ClientSampler, "select", "fl.select")
    _patch_method(recorder, ExecutionEngine, "train_round", "fl.engine")
    _patch_method(recorder, Coordinator, "aggregate", "fl.aggregate", aggregated)
    _patch_method(recorder, Observer, "emit", "obs.emit", count("obs.events"))
    _patch_method(recorder, Observer, "counter", "obs.emit")
    _patch_method(recorder, EnergyPlanner, "plan", "core.plan")
    _patch_method(recorder, CampaignRunner, "run", "campaign.run")
    _patch_method(
        recorder, ArtifactStore, "record_unit", "campaign.checkpoint",
        count("campaign.checkpoints"),
    )
    _patch_method(recorder, CampaignReport, "from_store", "campaign.report")
    _patch_method(recorder, CampaignReport, "render", "campaign.report")

    # Model evaluation.  Inside the f* estimate every loss call is one
    # L-BFGS function evaluation: it is counted there and left in the
    # estimate's own time instead of being filed as evaluation.
    for attr in ("loss", "accuracy"):
        raw = LogisticRegressionModel.__dict__[attr]
        traced = recorder.wrap(raw, "fl.eval", count("fl.eval_calls"))

        def evaluate(*args, _raw=raw, _traced=traced, _attr=attr, **kwargs):
            if recorder.inside("experiments.fstar"):
                if _attr == "loss":
                    counts["experiments.fstar_evals"] += 1
                return _raw(*args, **kwargs)
            return _traced(*args, **kwargs)

        setattr(LogisticRegressionModel, attr, functools.wraps(raw)(evaluate))

    # LocalUpdate is a frozen dataclass built once per trained client;
    # its construction is counted, not timed.
    init = LocalUpdate.__init__

    @functools.wraps(init)
    def counted_init(self, *args, **kwargs):
        counts["fl.updates_wrapped"] += 1
        init(self, *args, **kwargs)

    LocalUpdate.__init__ = counted_init
