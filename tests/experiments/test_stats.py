"""Unit tests for the multi-seed statistics helpers."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.experiments.stats import SeedSummary, repeat_over_seeds, summarize


def test_import_repro_does_not_load_scipy_stats() -> None:
    # scipy.stats is the slowest import in the package's chain, and
    # only summarize() needs it.
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH", "")) if p
    )
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro; print('scipy.stats' in sys.modules)",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


class TestSummarize:
    def test_mean_and_std(self) -> None:
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.mean == pytest.approx(2.5)
        assert summary.std == pytest.approx(np.std([1, 2, 3, 4], ddof=1))
        assert summary.n == 4

    def test_ci_contains_mean(self) -> None:
        summary = summarize([10.0, 12.0, 11.0, 13.0, 9.0])
        assert summary.ci_low < summary.mean < summary.ci_high

    def test_higher_confidence_wider_interval(self) -> None:
        values = [10.0, 12.0, 11.0, 13.0, 9.0]
        narrow = summarize(values, confidence=0.80)
        wide = summarize(values, confidence=0.99)
        assert wide.half_width() > narrow.half_width()

    def test_single_value_degenerate(self) -> None:
        summary = summarize([5.0])
        assert summary.mean == 5.0
        assert summary.std == 0.0
        assert summary.ci_low == summary.ci_high == 5.0

    def test_ci_shrinks_with_more_samples(self) -> None:
        rng = np.random.default_rng(0)
        few = summarize(rng.normal(10, 1, 5).tolist())
        many = summarize(rng.normal(10, 1, 100).tolist())
        assert many.half_width() < few.half_width()

    def test_t_interval_matches_scipy(self) -> None:
        from scipy import stats as scipy_stats

        values = [3.1, 2.9, 3.3, 3.0, 3.2]
        summary = summarize(values, confidence=0.95)
        lo, hi = scipy_stats.t.interval(
            0.95,
            df=len(values) - 1,
            loc=np.mean(values),
            scale=scipy_stats.sem(values),
        )
        assert summary.ci_low == pytest.approx(lo)
        assert summary.ci_high == pytest.approx(hi)

    def test_formatted_output(self) -> None:
        text = summarize([10.0, 12.0], confidence=0.95).formatted("J")
        assert "±" in text
        assert "J" in text
        assert "n=2" in text

    def test_rejects_empty(self) -> None:
        with pytest.raises(ValueError, match="no values"):
            summarize([])

    def test_rejects_nan(self) -> None:
        with pytest.raises(ValueError, match="non-finite"):
            summarize([1.0, float("nan")])

    def test_rejects_bad_confidence(self) -> None:
        with pytest.raises(ValueError, match="confidence"):
            summarize([1.0], confidence=1.0)


class TestRepeatOverSeeds:
    def test_runs_every_seed(self) -> None:
        calls: list[int] = []

        def experiment(seed: int) -> float:
            calls.append(seed)
            return float(seed)

        summary = repeat_over_seeds(experiment, [1, 2, 3])
        assert calls == [1, 2, 3]
        assert summary.mean == pytest.approx(2.0)

    def test_failures_propagate_by_default(self) -> None:
        def experiment(seed: int) -> float:
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            repeat_over_seeds(experiment, [1, 2])

    def test_skip_failures_drops_bad_runs(self) -> None:
        def experiment(seed: int) -> float:
            if seed == 2:
                raise RuntimeError("did not converge")
            return float(seed)

        summary = repeat_over_seeds(experiment, [1, 2, 3], skip_failures=True)
        assert summary.values == (1.0, 3.0)

    def test_all_failures_raise(self) -> None:
        def experiment(seed: int) -> float:
            raise RuntimeError("nope")

        with pytest.raises(ValueError, match="every seeded run failed"):
            repeat_over_seeds(experiment, [1, 2], skip_failures=True)

    def test_rejects_duplicate_seeds(self) -> None:
        with pytest.raises(ValueError, match="distinct"):
            repeat_over_seeds(lambda s: 1.0, [1, 1])

    def test_rejects_empty_seeds(self) -> None:
        with pytest.raises(ValueError, match="at least one seed"):
            repeat_over_seeds(lambda s: 1.0, [])
