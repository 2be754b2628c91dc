#!/usr/bin/env python3
"""Benchmark of the svkit command line over seeded synthetic workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: svkit is imported from ./src and
nothing needs installing. `--trace 0` runs every CLI command as a child
process (started from launch.py, so its peak RSS is its own), one after
another (a closed loop with one client), and reports the end-to-end
metrics. `--trace 1` runs the same commands in-process
through `svkit.cli.main`, alternating untraced and traced iterations, and
reports per-layer metrics from the spans. Either way every output is
checked against the oracles in oracles.py and its SHA-256 compared across
iterations. The last line of stdout is one JSON object; the full report
goes to perfbench/results/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import oracles
import provenance
import trace
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_ITERATIONS = 2  # so the determinism check always has a second run
RUN_BUDGET_S = 150.0  # no new iteration starts past this, to end within 180 s
RUN_DEADLINE_S = 170.0  # a command still running then is killed
SUBCENTER = dict(dim=256, classes=2000, subcenters=3, reps=5)


@dataclass
class Outcome:
    """One CLI invocation as the benchmark saw it."""

    stage: str
    wall_s: float
    rss_mb: float
    failures: list[str] = field(default_factory=list)


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Launcher:
    """Runs `python -m svkit argv` from launch.py's lean process.

    Returns (wall s, peak RSS MB, exit code, stdout, stderr); the RSS is
    the child's own, from its wait4 rusage. Close it to end the helper.
    """

    def __init__(self):
        self.helper = subprocess.Popen([sys.executable, str(HERE / "launch.py")],
                                       stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                       env=cli_env(), text=True)

    def __call__(self, argv: list[str], rundir: Path, timeout: float):
        out, err = rundir / "stdout", rundir / "stderr"
        request = dict(argv=[sys.executable, "-m", "svkit", *argv], cwd=str(rundir),
                       timeout=timeout, stdout=str(out), stderr=str(err))
        self.helper.stdin.write(json.dumps(request) + "\n")
        self.helper.stdin.flush()
        result = json.loads(self.helper.stdout.readline())
        return (result["wall_s"], result["maxrss_kb"] / 1024.0, result["code"],
                out.read_text("utf-8", "replace"), err.read_text("utf-8", "replace"))

    def close(self) -> None:
        self.helper.stdin.close()
        self.helper.wait()


def run_inprocess(argv: list[str], rundir: Path, timeout: float) -> tuple[float, float, int, str, str]:
    """Run `svkit.cli.main(argv)` in this process; same tuple as Launcher (RSS 0).

    There is no child to kill, so `timeout` is not enforced here.
    """
    from svkit.cli import main

    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            code = -1
            err.write(f"{type(exc).__name__}: {exc}")
    return perf_counter() - start, 0.0, code, out.getvalue(), err.getvalue()


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Pipeline:
    """Runs a workload's iterations and keeps the books: outcomes, digests, checks."""

    def __init__(self, workload: workloads.Workload, runner, rundir: Path, t0: float):
        self.workload = workload
        self.runner = runner
        self.rundir = rundir
        self.deadline = t0 + RUN_DEADLINE_S
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def command(self, key: str, stage: str, argv: list[str], outputs=(), check=(),
                verify=False) -> Outcome:
        """Run one command; `key` names it among the workload's steps for the digests."""
        timeout = max(1.0, self.deadline - perf_counter())
        wall, rss, code, stdout, stderr = self.runner(argv, self.rundir, timeout)
        self.attempted += 1
        outcome = Outcome(stage, wall, rss)
        if code != 0:
            outcome.failures.append(f"exit {code}")
        if stderr:
            outcome.failures.append(f"stderr: {stderr.strip()[:300]}")
        got = {"stdout": hashlib.sha256(stdout.encode("utf-8")).hexdigest()}
        got.update({Path(p).name: digest(Path(p)) for p in outputs if Path(p).is_file()})
        for name, value in got.items():
            if self.digests.setdefault(f"{key}/{name}", value) != value:
                outcome.failures.append(f"SHA-256 of {name} differs from the first run")
        if verify and not outcome.failures and check:
            outcome.failures += oracles.check(check[0], outputs, stdout, **check[1])
        if outcome.failures:
            self.failed += 1
            self.failures += [f"{stage}: {msg}" for msg in outcome.failures]
        return outcome

    def iteration(self, verify: bool) -> list[Outcome]:
        return [self.command(f"{i}.{s.stage}", s.stage, s.argv, s.outputs, s.check, verify)
                for i, s in enumerate(self.workload.steps)]


def median(values):
    return statistics.median(values) if values else None


def spread(values):
    """(q1, median, q3, n) of a sample, quartiles as statistics.quantiles gives them."""
    if len(values) < 2:
        return dict(median=median(values), n=len(values))
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return dict(q1=q1, median=q2, q3=q3, n=len(values))


def end_to_end(workload, iterations: list[list[Outcome]], probes: list[float]) -> dict:
    """Every end-to-end figure of this workload, as a median over iterations."""
    stages = sorted({o.stage for it in iterations for o in it})
    per_stage = {s: [sum(o.wall_s for o in it if o.stage == s) for it in iterations]
                 for s in stages}
    out = {"wall_s": spread([sum(o.wall_s for o in it) for it in iterations]),
           "setup_s": spread(probes)}
    for s in stages:
        out[f"{s}_s"] = spread(per_stage[s])
    scored = workload.facts["scored"]
    score_walls = [sum(o.wall_s for o in it if o.stage.startswith("score_")) for it in iterations]
    out["score_s"] = spread(score_walls)
    trials = sum(c["trials"] for c in scored.values())
    out["trials_per_s"] = spread([trials / w for w in score_walls])
    if "embed" in stages:
        embed_walls = [a + b for a, b in zip(per_stage["embed"], per_stage["embed_msa"])]
        out["audio_s_per_s"] = spread([workload.facts["embedded_audio_s"] / w for w in embed_walls])
    out["peak_rss_mb"] = dict(median=max(o.rss_mb for it in iterations for o in it), n=1)
    return out


def timed_loop(seconds: float, t0: float, per_iteration) -> list:
    """Run iterations until the next would pass `seconds` of measured time,
    but at least MIN_ITERATIONS unless the run budget is spent.

    The first iteration's outputs go through the oracles, outside the
    measured time; later ones are held to its digests.
    """
    results, measured = [], []
    while True:
        result, took = per_iteration(verify=not results)
        results.append(result)
        measured.append(took)
        if perf_counter() - t0 + median(measured) > RUN_BUDGET_S:
            break
        if len(results) >= MIN_ITERATIONS and sum(measured) + median(measured) > seconds:
            break
    return results


def run_untraced(pipeline: Pipeline, seconds: float, t0: float) -> tuple[dict, dict]:
    """Child-process iterations; a `svkit --version` probe (setup_s) precedes
    each one, so set-up is sampled across the whole run."""
    probes = []

    def one(verify):
        probes.append(pipeline.command("setup", "setup", ["--version"], check=("version", {}),
                                      verify=True).wall_s)
        outcomes = pipeline.iteration(verify)
        return outcomes, sum(o.wall_s for o in outcomes)

    iterations = timed_loop(seconds, t0, one)
    figures = end_to_end(pipeline.workload, iterations, probes)
    return figures, {"iterations": [[(o.stage, o.wall_s, o.rss_mb) for o in it]
                                    for it in iterations]}


def run_traced(pipeline: Pipeline, seconds: float, t0: float, seed: int) -> tuple[dict, dict]:
    """Alternate untraced and traced in-process iterations; per-layer figures."""
    tracer = trace.Tracer()
    plain, traced, totals, spans = [], [], [], []

    def pair(verify):
        plain.append(sum(o.wall_s for o in pipeline.iteration(verify)))
        first = len(tracer.spans)
        tracer.install()
        try:
            traced.append(sum(o.wall_s for o in pipeline.iteration(False)))
        finally:
            tracer.uninstall()
        spans.append(tracer.spans[first:])
        totals.append(trace.layer_totals(spans[-1]))
        return None, plain[-1] + traced[-1]

    timed_loop(seconds, t0, pair)
    # a layer the workload never calls did no work: its counts and times are 0
    names = sorted({k for t in totals for k in t} | set(trace.all_quantities()))
    figures = {k: spread([t.get(k, 0) for t in totals]) for k in names}
    for mode_total in ("busy_s", "calls"):
        figures[f"scoring.score_trials.{mode_total}"] = spread(
            [sum(v for k, v in t.items() if k.startswith("scoring.score_trials.")
                 and k.endswith(f".{mode_total}")) for t in totals])
    all_spans = [s for group in spans for s in group]
    figures.update({k: dict(median=v, n=1) for k, v in trace.per_call(all_spans).items()})
    figures["trace.overhead_frac"] = dict(
        median=median(traced) / median(plain) - 1.0, n=len(traced),
        plain_s=spread(plain), traced_s=spread(traced))
    figures["model.subcenter_cosines.busy_s"] = subcenter_row(seed)
    details = {"baseline": baseline_rows(pipeline.workload.name, all_spans, figures),
               "spans_last_traced_iteration": trace.span_records(spans[-1])}
    return figures, details


def subcenter_row(seed: int) -> dict:
    """Median seconds of one subcenter_cosines call (off the CLI path)."""
    from svkit.model.losses import subcenter_cosines

    rng = np.random.default_rng(seed)
    c = SUBCENTER
    weights = rng.standard_normal((c["dim"], c["classes"], c["subcenters"]))
    weights /= np.linalg.norm(weights, axis=0, keepdims=True)
    x = rng.standard_normal(c["dim"])
    x /= np.linalg.norm(x)
    times = []
    for _ in range(c["reps"]):
        start = perf_counter()
        subcenter_cosines(x, weights)
        times.append(perf_counter() - start)
    return spread(times)


# ROADMAP baseline rows (single runs, ms) and the spans that reproduce them
BASELINE = [
    ("parse_trials, 100k labeled lines", 485.0, "score_dense", "trials.parse_trials", {}),
    ("score_trials raw, 100k trials, 2000 utts, dim 256", 1165.0, "score_dense",
     "scoring.score_trials.raw", {}),
    ("score_trials asnorm, 5k trials / 1980 utts, cohort 5000, top-100", 3262.0,
     "score_cohort", "scoring.score_trials.asnorm", {}),
    ("score_trials msa, 2k trials, 400 utts x 5 segments", 432.0, "score_cohort",
     "scoring.score_trials.msa", {}),
    ("serialize_scores, 100k", 209.0, "score_dense", "trials.serialize_scores", {}),
    ("parse_scores, 100k", 218.0, "score_dense", "trials.parse_scores", {}),
    ("evaluate_scores, 100k", 30.0, "score_dense", "metrics.evaluate_scores", {}),
    ("read_embeddings, 2k x 256", 14.9, "score_dense", "trials.read_embeddings_file",
     {"rows": 2000}),
    ("embed_waveform, 8 s @ 16 kHz", 10.0, "wav_pipeline", "model.embed_waveform",
     {"samples": 128000}),
]


def baseline_rows(workload: str, spans, figures) -> list[dict]:
    rows = []
    for row, roadmap_ms, where, name, match in BASELINE:
        if where != workload:
            continue
        ms = [1e3 * s.duration for s in spans if s.name == name
              and all(s.counts.get(k) == v for k, v in match.items())]
        rows.append(dict(row=row, roadmap_ms=roadmap_ms, measured_ms=median(ms), n=len(ms)))
    sub = figures["model.subcenter_cosines.busy_s"]
    rows.append(dict(row="subcenter_cosines, 2000 classes x 3", roadmap_ms=13.4,
                     measured_ms=1e3 * sub["median"], n=sub["n"]))
    return rows


def declared_metrics(trace_on: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace_on else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SIZES), default="full",
                        help="input sizes; 'tiny' is for the self-check")
    args = parser.parse_args(argv)
    t0 = perf_counter()

    if not (SRC / "svkit" / "__init__.py").is_file():
        print(f"error: no svkit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))
    # byte-compile first, so no measured command pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "svkit")],
                   check=True, env=cli_env())

    work = HERE / "work" / args.workload
    rundir = HERE / "work" / f"{args.workload}.run"
    rundir.mkdir(parents=True, exist_ok=True)
    workload = workloads.build(args.workload, work, args.seed, args.scale)
    if args.trace:
        sys.path.insert(0, str(SRC))
        import svkit
        import svkit.cli  # imported here so no measured command pays for it

        if Path(svkit.__file__).resolve().parent != (SRC / "svkit").resolve():
            print(f"error: imported svkit from {svkit.__file__}, not {SRC}", file=sys.stderr)
            return 2
        pipeline = Pipeline(workload, run_inprocess, rundir, t0)
        figures, details = run_traced(pipeline, args.seconds, t0, args.seed)
    else:
        launcher = Launcher()
        try:
            pipeline = Pipeline(workload, launcher, rundir, t0)
            figures, details = run_untraced(pipeline, args.seconds, t0)
        finally:
            launcher.close()

    figures["error_rate"] = dict(median=pipeline.failed / pipeline.attempted, n=pipeline.attempted)
    report = dict(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        scale=args.scale, provenance=provenance.collect(ROOT, SRC), sizes=workload.sizes,
        computed=workload.facts,
        metrics=figures, attempted=pipeline.attempted, failed=pipeline.failed,
        failures=pipeline.failures, digests=pipeline.digests, **details,
    )
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    suffix = "" if args.scale == "full" else f"-{args.scale}"
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json"
    out.write_text(json.dumps(report, indent=1, default=str) + "\n", encoding="utf-8")

    for name in sorted(figures):
        f = figures[name]
        print(f"{name:48s} {f['median']!s:>24}  n={f.get('n')}")
    for msg in pipeline.failures:
        print(f"FAILED {msg}")
    print(f"report: {out.relative_to(ROOT)}")
    missing = [m["name"] for m in declared if m["name"] not in figures]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    line = dict(
        correct=not pipeline.failures, attempted=pipeline.attempted, failed=pipeline.failed,
        metrics={m["name"]: dict(value=figures[m["name"]]["median"], unit=m["unit"])
                 for m in declared},
    )
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
