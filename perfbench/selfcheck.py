#!/usr/bin/env python3
"""Quick self-check of the benchmark itself, at tiny scale (a few minutes).

    python3 perfbench/selfcheck.py

For every workload and both trace modes it runs run.py at `--scale tiny`
and checks the result line against the contract: keys, `correct`, no
failed operation, and exactly the metrics BENCHMARK.json declares. It
repeats one seed to check that the output digests match across runs, and
checks that a directory without the svkit sources makes run.py fail
without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    sys.path.insert(0, str(HERE))
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = run(ROOT, workload, 7, trace)
            where = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(line)}")
            if not line["correct"] or line["failed"] or line["attempted"] < 1:
                problems.append(f"{where}: correct={line['correct']} failed={line['failed']} "
                                f"attempted={line['attempted']}")
            if got != want:
                problems.append(f"{where}: metrics {sorted(set(got) ^ set(want))} differ")
            print(f"ok {where}: attempted {line['attempted']}", flush=True)

        first = json.loads((HERE / "results" / f"{workload}-seed7-trace0-tiny.json").read_text())
        again = run(ROOT, workload, 7, 0)
        second = json.loads((HERE / "results" / f"{workload}-seed7-trace0-tiny.json").read_text())
        if again.returncode != 0 or first["digests"] != second["digests"]:
            problems.append(f"{workload}: a rerun with seed 7 gave different output digests")
        else:
            print(f"ok {workload}: rerun digests identical", flush=True)

    bare = HERE / "work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in HERE.glob("*.py"):
        shutil.copy(p, bare / "perfbench")
    proc = run(bare, workloads.WORKLOADS[0], 7, 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    else:
        print("ok without sources: run.py fails without a result", flush=True)

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
