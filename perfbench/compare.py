#!/usr/bin/env python3
"""Compare two sets of benchmark run records.

Usage, from the root of a checkout::

    python3 perfbench/compare.py BASE CHANGE

``BASE`` and ``CHANGE`` are run records written by ``run.py`` (files,
or directories holding them, such as ``.perfbench/runs``).  For every
workload and metric the two sides ran, it prints each side's median and
quartiles and the change of the medians.  An end-to-end metric whose
median got worse by more than its bound in ``BENCHMARK.json`` is a
regression; one whose own spread (quartile distance over median) is
wider than its bound is reported as unresolved.

It refuses, with exit code 2, to compare records whose host
fingerprints differ, or a side that mixes source trees.  The exit code
is 1 when any metric regressed and 0 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(argument: str) -> list[dict]:
    path = Path(argument)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = [json.loads(f.read_text(encoding="utf-8")) for f in files]
    return [r for r in records if "fingerprint" in r and r.get("metrics")]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    sides = {"base": load(argv[1]), "change": load(argv[2])}
    for name, records in sides.items():
        if not records:
            print(f"no run records in {name} side", file=sys.stderr)
            return 2
        trees = {r["source_sha256"] for r in records}
        if len(trees) > 1:
            print(f"{name} side mixes {len(trees)} source trees", file=sys.stderr)
            return 2
    fingerprints = {
        json.dumps(r["fingerprint"], sort_keys=True)
        for records in sides.values()
        for r in records
    }
    if len(fingerprints) > 1:
        print("refusing to compare runs from different host fingerprints:", file=sys.stderr)
        for fingerprint in sorted(fingerprints):
            print(f"  {fingerprint}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    values: dict = defaultdict(lambda: defaultdict(list))
    for name, records in sides.items():
        for record in records:
            for metric, entry in record["metrics"].items():
                values[(record["workload"], metric)][name].append(entry["value"])

    regressed = False
    print(f"{'workload':<11} {'metric':<26} {'base median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'change':>7}  verdict")
    for (workload, metric), by_side in sorted(values.items()):
        if len(by_side) < 2:
            continue
        base_q1, base, base_q3 = quartiles(by_side["base"])
        change_q1, change, change_q3 = quartiles(by_side["change"])
        delta = (change - base) / base if base else 0.0
        worse = delta if better.get(metric) == "lower" else -delta
        verdict = ""
        if metric in bounds:
            bound = bounds[metric]["bound"]
            spread = (base_q3 - base_q1) / base if base else 0.0
            if worse > bound:
                verdict, regressed = f"REGRESSED (bound {bound:.0%})", True
            elif spread > bound:
                verdict = f"unresolved (base spread {spread:.0%})"
            else:
                verdict = "within bound"
        base_text = f"{base:.5g} [{base_q1:.5g}, {base_q3:.5g}]"
        change_text = f"{change:.5g} [{change_q1:.5g}, {change_q3:.5g}]"
        print(f"{workload:<11} {metric:<26} {base_text:<34} {change_text:<34} "
              f"{delta:>+7.1%}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
