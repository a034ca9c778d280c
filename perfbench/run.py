#!/usr/bin/env python3
"""The repository benchmark: one command that runs, checks and reports.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Workloads are ``sweep``, ``population`` and ``plan`` (see README.md).
Each measured piece of work runs in a fresh interpreter
(``workload.py``) in its own process group, under a deadline, while
this process samples the group's memory.  With ``--trace 0`` the last
line of standard output is a JSON object holding every end-to-end
metric; with ``--trace 1`` it holds every per-layer metric, taken from
a traced child compared against an untraced one.  The full record of
the run -- host fingerprint, commit, per-child exit codes, stderr
tails, output checks, metrics -- is written under ``.perfbench/runs/``.

The exit code is 0 when every operation and output check passed, 1
when any failed, and 2 when the program to benchmark is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from datetime import datetime, timezone
from pathlib import Path

import workload as wl

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

# A run must end within 180 s; children get what is left of this.
RUN_BUDGET_S = 165.0
TEARDOWN_S = 10.0
SETUP_SAMPLES = 3
# Fresh-interpreter repetitions of the timed operation per run: at
# least this many, and more while less than --seconds was measured.
MIN_REPS = {"sweep": 1, "population": 1, "plan": 3}
SWEEP_JOBS = 2
# Operations a child performs: units of work plus output checks.
EXPECTED_OPS = {
    "sweep": len(wl.SWEEP_PARTICIPANTS) * len(wl.SWEEP_EPOCHS)
    * len(wl.SWEEP_TRAINING_SEEDS) + wl.SWEEP_CHECKS,
    "population": wl.POP_ROUNDS + wl.POP_CHECKS,
    "plan": 1 + wl.PLAN_CHECKS,
}
STDERR_TAIL_LINES = 25
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


# ----------------------------------------------------------------------
# Process groups: memory sampling, deadline kill, reaping.
# ----------------------------------------------------------------------


def _become_subreaper() -> None:
    """Adopt orphaned descendants so they can be reaped here (Linux)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes whose process group is ``pgid``."""
    members = []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            stat = Path("/proc", entry.name, "stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry.name))
    return members


def _peak_rss_kib(pid: int) -> int:
    try:
        for line in Path("/proc", str(pid), "status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def _reap_orphans() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _stop_group(pgid: int) -> bool:
    """Kill every process of the group and wait until none is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    deadline = time.monotonic() + TEARDOWN_S
    while time.monotonic() < deadline:
        _reap_orphans()
        if not _group_members(pgid):
            return True
        time.sleep(0.05)
    return False


class Child:
    """One fresh-interpreter run of ``workload.py``."""

    def __init__(self, index: int, job: dict, tmp: Path) -> None:
        self.index = index
        self.job = dict(job)
        self.tmp = tmp
        self.exit_code: int | None = None
        self.timed_out = False
        self.group_left = False
        self.wall_s = 0.0
        self.peaks: dict[int, int] = {}
        self.result: dict | None = None
        self.stderr_tail: list[str] = []
        self.tracebacks = 0

    def run(self, timeout_s: float) -> None:
        job_path = self.tmp / f"job-{self.index}.json"
        result_path = self.tmp / f"result-{self.index}.json"
        log_path = self.tmp / f"stderr-{self.index}.txt"
        self.job.update(result=str(result_path), spawn_ts=time.monotonic())
        job_path.write_text(json.dumps(self.job), encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
        )
        started = time.monotonic()
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "workload.py"), str(job_path)],
                cwd=ROOT,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            done = threading.Event()
            sampler = threading.Thread(
                target=self._sample, args=(proc.pid, done), daemon=True
            )
            sampler.start()
            try:
                proc.wait(timeout=max(timeout_s, 1.0))
            except subprocess.TimeoutExpired:
                self.timed_out = True
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
            done.set()
            sampler.join()
            self.group_left = not _stop_group(proc.pid)
        self.wall_s = time.monotonic() - started
        self.exit_code = proc.returncode
        lines = log_path.read_text(encoding="utf-8", errors="replace").splitlines()
        self.stderr_tail = lines[-STDERR_TAIL_LINES:]
        self.tracebacks = sum("Traceback (most recent call last)" in l for l in lines)
        if self.exit_code == 0 and result_path.exists():
            self.result = json.loads(result_path.read_text(encoding="utf-8"))
            own = self.result["peak_rss_self_kib"]
            self.peaks[proc.pid] = max(self.peaks.get(proc.pid, 0), own)

    def _sample(self, pgid: int, done: threading.Event) -> None:
        while not done.is_set():
            for pid in _group_members(pgid):
                self.peaks[pid] = max(self.peaks.get(pid, 0), _peak_rss_kib(pid))
            done.wait(0.1)

    @property
    def ok(self) -> bool:
        return self.result is not None and not self.timed_out

    @property
    def peak_rss_mib(self) -> float:
        """Summed per-process peak RSS of the child and its descendants."""
        return sum(self.peaks.values()) / 1024.0

    def record(self) -> dict:
        return {
            "mode": self.job["mode"],
            "jobs": self.job.get("jobs"),
            "exit_code": self.exit_code,
            "timed_out": self.timed_out,
            "processes_left_after_kill": self.group_left,
            "wall_s": self.wall_s,
            "process_peak_rss_mib": sorted(
                (kib / 1024.0 for kib in self.peaks.values()), reverse=True
            ),
            "peak_rss_mib": self.peak_rss_mib,
            "tracebacks_in_stderr": self.tracebacks,
            "stderr_tail": self.stderr_tail,
            "result": {k: v for k, v in (self.result or {}).items() if k != "libraries"},
        }


# ----------------------------------------------------------------------
# Host fingerprint and commit.
# ----------------------------------------------------------------------


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def host_fingerprint(libraries: dict | None) -> dict:
    """What must match for two runs to be compared."""
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "libraries": libraries,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def source_identity() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest()}


# ----------------------------------------------------------------------
# Metrics.
# ----------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it.

    Returns ``(value, percentile)``; with 10 or fewer samples no such
    percentile exists and the maximum is reported as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n > 10:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return ordered[-1], 100.0


def end_to_end(children: list[Child], setups: list[float]) -> tuple[dict, dict]:
    runs = [c.result for c in children]
    durations = [d for r in runs for d in r["unit_durations"]]
    tail_value, tail_pct = tail(durations)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (statistics.median(c.peak_rss_mib for c in children), "MiB"),
        "result_s": (statistics.median(r["op_s"] for r in runs), "s"),
        "units_per_s": (statistics.median(r["units"] / r["op_s"] for r in runs), "1/s"),
        "unit_s.p50": (statistics.median(durations), "s"),
        "unit_s.tail": (tail_value, "s"),
        "clients_per_s": (
            statistics.median(r["clients"] / r["op_s"] for r in runs),
            "1/s",
        ),
    }
    detail = {
        "unit_samples": len(durations),
        "unit_s.tail_percentile": tail_pct,
        "setup_samples": setups,
        "reps": len(runs),
    }
    return metrics, detail


# Per-layer metrics are seconds when named ``*_s``, counts unless
# listed here.
PER_LAYER_UNITS = {
    "fl.population_state_bytes": "bytes",
    "campaign.bytes_written": "bytes",
    "fl.kernel_flops": "flop",
    "fl.useful_ratio": "ratio",
    "perf.idle_share": "ratio",
    "failed_frac": "ratio",
    "trace.reconcile_error": "ratio",
}


def unit_of(name: str) -> str:
    return "s" if name.endswith("_s") else PER_LAYER_UNITS.get(name, "count")


def per_layer(reference: Child, untraced: Child, traced: Child) -> dict:
    """Per-layer metrics of a traced run.

    ``reference`` is the untraced run of the workload as measured
    end to end (for ``sweep``: ``jobs=2``); ``untraced`` does exactly
    what ``traced`` does, without the wrappers.
    """
    layer = dict(traced.result["traced_layer"])
    layer["import.repro_s"] = reference.result["import_s"]
    defaults = {
        "campaign.unit_exec_s": 0.0,
        "campaign.retries": 0,
        "campaign.report_s": 0.0,
        "campaign.bytes_written": 0,
        "perf.idle_share": 0.0,
    }
    layer.update({k: reference.result.get("layer", {}).get(k, v) for k, v in defaults.items()})
    wall = traced.result["region_s"]
    layer_self = sum(v for k, v in layer.items() if k.startswith("self."))
    layer["trace.wall_s"] = wall
    layer["trace.untraced_wall_s"] = untraced.result["region_s"]
    layer["trace.overhead_s"] = wall - untraced.result["region_s"]
    layer["trace.unattributed_s"] = wall - layer_self
    layer["trace.reconcile_error"] = abs(wall - layer_self) / wall
    layer["trace.spans"] = traced.result["spans"]
    return layer


# ----------------------------------------------------------------------
# Digest ledger: the same seed must give the same outputs.
# ----------------------------------------------------------------------


def check_digests(workload: str, seed: int, children: list[Child]) -> dict:
    ledger_path = STATE / "digests.json"
    try:
        ledger = json.loads(ledger_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        ledger = {}
    seen = {c.result["digest"] for c in children if c.ok and "digest" in c.result}
    known = ledger.setdefault(workload, {}).get(str(seed))
    ok = len(seen) <= 1 and (known is None or seen <= {known})
    if ok and seen and known is None:
        ledger[workload][str(seed)] = next(iter(seen))
        tmp = ledger_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, ledger_path)
    return {
        "name": "output digest identical across runs of this seed",
        "ok": ok,
        "detail": f"this run {sorted(seen)}, earlier runs {known}",
    }


# ----------------------------------------------------------------------
# The run.
# ----------------------------------------------------------------------


def run(args: argparse.Namespace, tmp: Path, record: dict) -> list[Child]:
    started = time.monotonic()
    children: list[Child] = []
    base = {"workload": args.workload, "seed": args.seed, "src": str(SRC)}

    def launch(mode: str, **extra) -> Child | None:
        remaining = RUN_BUDGET_S - (time.monotonic() - started) - TEARDOWN_S
        if remaining <= 0 or (children and not children[-1].ok):
            return None
        child_tmp = Path(tempfile.mkdtemp(prefix=f"child{len(children)}-", dir=tmp))
        child = Child(len(children), dict(base, mode=mode, tmp=str(child_tmp), **extra), tmp)
        children.append(child)
        child.run(remaining)
        return child

    jobs = {"jobs": SWEEP_JOBS} if args.workload == "sweep" else {}
    if not args.trace:
        for _ in range(SETUP_SAMPLES - MIN_REPS[args.workload]):
            launch("setup", **jobs)
        measured = 0.0
        reps = 0
        while reps < MIN_REPS[args.workload] or measured < args.seconds:
            child = launch("run", **jobs)
            if child is None or not child.ok:
                break
            reps += 1
            measured += child.result["op_s"]
        return children

    record["spans_file"] = str(STATE / "runs" / f"{record['id']}.spans.jsonl.gz")
    launch("run", **jobs)
    if args.workload == "sweep":
        # The traced run executes the same units in-process, so its
        # untraced twin does too.
        launch("run", jobs=1)
        launch("traced", jobs=1, spans_path=record["spans_file"])
    else:
        launch("traced", spans_path=record["spans_file"])
    return children


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(MIN_REPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2

    _become_subreaper()
    (STATE / "runs").mkdir(parents=True, exist_ok=True)
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    record = {
        "id": f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_utc": stamp,
        **source_identity(),
    }
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=STATE / "tmp"))
    try:
        children = run(args, tmp, record)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    libraries = next((c.result["libraries"] for c in children if c.ok), None)
    record["fingerprint"] = host_fingerprint(libraries)
    checks = [
        dict(check, child=c.index)
        for c in children
        if c.ok
        for check in c.result["checks"]
    ]
    measured = [c for c in children if c.job["mode"] != "setup"]
    checks.append(check_digests(args.workload, args.seed, measured))
    attempted = failed = 0
    for child in children:
        if child.job["mode"] == "setup":
            attempted += 1
            failed += not child.ok
        elif child.ok:
            attempted += child.result["attempted"]
            failed += child.result["failed"]
        else:
            attempted += EXPECTED_OPS[args.workload]
            failed += EXPECTED_OPS[args.workload]
    attempted += 1  # the digest check
    failed += sum(not check["ok"] for check in checks)
    # A traced run needs its untraced twin(s) and the traced child.
    needed = (3 if args.workload == "sweep" else 2) if args.trace else 1
    complete = all(c.ok for c in children) and len(measured) >= needed
    correct = complete and failed == 0

    metrics: dict = {}
    if complete:
        if args.trace:
            values = per_layer(measured[0], measured[-2], measured[-1])
            values["failed_frac"] = failed / attempted
            metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(values.items())}
        else:
            setups = [c.result["setup_s"] for c in children]
            values, detail = end_to_end(measured, setups)
            record.update(detail)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    record.update(
        children=[c.record() for c in children],
        checks=checks,
        attempted=attempted,
        failed=failed,
        failed_frac=failed / attempted,
        correct=correct,
        metrics=metrics,
    )
    record_path = STATE / "runs" / f"{record['id']}.json"
    record_path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    for child in children:
        status = "timed out" if child.timed_out else f"exit {child.exit_code}"
        print(
            f"[{child.index}] {child.job['mode']:<6} {status}, {child.wall_s:.1f} s, "
            f"peak {child.peak_rss_mib:.0f} MiB, {child.tracebacks} traceback(s) in stderr",
            file=sys.stderr,
        )
        if child.stderr_tail and (child.tracebacks or not child.ok):
            print("    " + "\n    ".join(child.stderr_tail), file=sys.stderr)
    for check in checks:
        if not check["ok"]:
            print(f"CHECK FAILED: {check['name']}: {check['detail']}", file=sys.stderr)
    print(f"record: {record_path.relative_to(ROOT)}", file=sys.stderr)
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
