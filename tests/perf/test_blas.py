"""One BLAS thread per process: the pin at ``import repro`` and its reach.

Every process that imports ``repro`` computes with one OpenBLAS thread:
the importing process, forked workers (they inherit it) and spawned
ones (they re-import the package).  BLAS thread count sets the
floating-point reduction order, so with the pin a campaign stores the
same bytes whatever the host's CPU count or ``OPENBLAS_NUM_THREADS``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

import repro
from repro.campaign import ArtifactStore, CampaignRunner, CampaignSpec
from repro.obs.observer import Observer
from repro.perf.blas import blas_thread_counts, blas_threads

pytestmark = pytest.mark.parallel_smoke

_SRC = str(Path(repro.__file__).resolve().parents[1])

_COUNTS_SCRIPT = """
import json
import repro
import scipy.linalg, scipy.optimize
from repro.perf.blas import blas_thread_counts
print(json.dumps(blas_thread_counts()))
"""

# Two units whose results depend on the BLAS thread count when it is
# not pinned: the K = 8 unit's kernel is large enough for OpenBLAS to
# split.  ``jobs=2`` runs them in forked workers.
_CAMPAIGN_SCRIPT = """
import sys
from repro import ArtifactStore, CampaignRunner, CampaignSpec, RunSpec
base = RunSpec(
    name="blas-host", n_train=800, n_test=200, n_servers=8, max_rounds=80,
    target_accuracy=0.75, train_to_target=True, backend="auto",
)
campaign = CampaignSpec(name="blas-host", base=base, participants=(1, 8), epochs=(8,))
store = ArtifactStore(sys.argv[1])
summary = CampaignRunner(campaign, store).run(jobs=2)
assert summary.executed == 2, summary
print(store.index_digest())
"""


def _python(script: str, *args: str, threads: int) -> str:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH", "")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


def _require_openblas() -> None:
    if blas_threads() is None:
        pytest.skip("no OpenBLAS loaded in this process")


def test_every_loaded_openblas_runs_one_thread() -> None:
    _require_openblas()
    assert set(blas_thread_counts().values()) == {1}


def test_fresh_interpreter_pins_numpy_and_scipy_blas() -> None:
    _require_openblas()
    counts = json.loads(_python(_COUNTS_SCRIPT, threads=2))
    assert counts and set(counts.values()) == {1}


def test_spawned_child_runs_one_thread() -> None:
    _require_openblas()
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        assert pool.submit(blas_threads).result(timeout=120) == 1


def test_campaign_store_does_not_depend_on_blas_environment(tmp_path) -> None:
    _require_openblas()
    digests = {
        threads: _python(
            _CAMPAIGN_SCRIPT, str(tmp_path / f"store-{threads}"), threads=threads
        )
        for threads in (1, 2)
    }
    assert digests[1] == digests[2]


def test_campaign_start_records_blas_threads(
    tmp_path, tiny_campaign: CampaignSpec
) -> None:
    observer = Observer()
    store = ArtifactStore(tmp_path / "store")
    CampaignRunner(tiny_campaign, store, observer=observer).run(max_units=1)
    (start,) = observer.events.filter("campaign.start")
    assert start.fields["blas_threads"] == blas_threads()
