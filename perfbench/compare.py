#!/usr/bin/env python3
"""Compare two sets of benchmark result files.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are each a result file written by run.py or a directory of
them (for example perfbench/results/ copied aside before and after a
change). Files are grouped by (workload, trace, scale); for every metric
the table shows each side's median over its files, the quartiles, and
NEW/BASE. An end-to-end metric whose NEW median is worse than BASE by more
than its BENCHMARK.json bound is marked REGRESSED. Output files of runs
with the same workload and seed are compared by SHA-256, so a change that
alters any output byte is listed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(arg: str) -> list[dict]:
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(p.read_text(encoding="utf-8")) for p in files]


def grouped(reports: list[dict]) -> dict:
    groups: dict = {}
    for r in reports:
        groups.setdefault((r["workload"], r["trace"], r["scale"]), []).append(r)
    return groups


def summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.6g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = (grouped(load(a)) for a in argv)
    regressed = 0
    for key in sorted(set(base) & set(new)):
        workload, trace, scale = key
        print(f"\n== {workload} trace={trace} scale={scale} "
              f"(runs: {len(base[key])} base, {len(new[key])} new)")
        names = sorted(set.intersection(*(set(r["metrics"]) for r in base[key] + new[key])))
        for name in names:
            b = [r["metrics"][name]["median"] for r in base[key]]
            n = [r["metrics"][name]["median"] for r in new[key]]
            if None in b or None in n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            ratio = mn / mb if mb else float("nan")
            flag = ""
            if name in bounds and mb:
                worse = ratio - 1 if better[name] == "lower" else 1 - ratio
                if worse > bounds[name]["bound"]:
                    flag = "  REGRESSED"
                    regressed += 1
            print(f"{name:48s} {summary(b):>34s} {summary(n):>34s}  x{ratio:.3f}{flag}")
        seeds = {r["seed"]: r["digests"] for r in base[key]}
        for r in new[key]:
            old = seeds.get(r["seed"])
            if old is None:
                continue
            changed = sorted(k for k in old if k in r["digests"] and old[k] != r["digests"][k])
            for k in changed:
                print(f"output bytes differ (seed {r['seed']}): {k}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
