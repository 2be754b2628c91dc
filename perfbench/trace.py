"""Span tracing of svkit's layers, installed at run time from outside.

`Tracer.install()` replaces the public functions listed in TARGETS with
wrappers that record a span (name, start, end, parent, error, work counts)
and puts the originals back on `uninstall()`. A function imported by name
into another svkit module (`from .features import read_wav`) is replaced
there too, so calls through every alias are seen. Spans stay in memory.

Hot per-trial functions (cosine_score, asnorm_score, msa_score) are not
wrapped: their call counts follow from array sizes, so tracing them would
only add overhead.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float
    error: bool
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# work counters: (quantity names, function of (args, kwargs, result) -> values)
LINES = (("lines",), lambda a, k, r: (len(r),))
SERIALIZED_LINES = (("lines",), lambda a, k, r: (r.count("\n"),))
FILE_BYTES = (("bytes",), lambda a, k, r: (os.path.getsize(a[1]),))
STORE = (("bytes", "rows"), lambda a, k, r: (os.path.getsize(a[0]), len(r)))
FRAMES = (("frames", "ffts"), lambda a, k, r: (r.n_frames, r.n_frames))
SAMPLES = (("samples",), lambda a, k, r: (len(a[0]),))
PADDED = (("padded",), lambda a, k, r: (int(r.padded),))
THRESHOLDS = (("thresholds",), lambda a, k, r: (len(r),))
FIT = (("iterations", "converged"), lambda a, k, r: (r.iterations, int(r.converged)))
NO_COUNTS = ((), None)

SCORING_MODES = ("raw", "asnorm", "msa")


def _scoring_mode(args, kwargs):
    return "scoring.score_trials." + kwargs.get("mode", args[2] if len(args) > 2 else "raw")


CLI_COMMANDS = ("features", "augment", "embed", "score", "evaluate", "fuse")

# (module, attribute, span name or name function, work counter)
TARGETS = [("svkit.cli", f"cmd_{c}", f"cli.{c}", NO_COUNTS) for c in CLI_COMMANDS] + [
    ("svkit.config", "load_pipeline_config", "config.load_pipeline_config", NO_COUNTS),
    ("svkit.trials", "parse_trials", "trials.parse_trials", LINES),
    ("svkit.trials", "parse_scores", "trials.parse_scores", LINES),
    ("svkit.trials", "serialize_scores", "trials.serialize_scores", SERIALIZED_LINES),
    ("svkit.trials", "read_embeddings_file", "trials.read_embeddings_file", STORE),
    ("svkit.trials", "write_embeddings_file", "trials.write_embeddings_file", FILE_BYTES),
    ("svkit.features", "read_wav", "features.read_wav", NO_COUNTS),
    ("svkit.features", "write_wav", "features.write_wav", NO_COUNTS),
    ("svkit.features", "compute_logmel", "features.compute_logmel", FRAMES),
    ("svkit.augment", "apply_policy", "augment.apply_policy", NO_COUNTS),
    ("svkit.augment", "NoiseBank.from_manifest", "augment.NoiseBank.from_manifest", NO_COUNTS),
    ("svkit.model.embedder", "embed_waveform", "model.embed_waveform", SAMPLES),
    ("svkit.model.embedder", "toy_embed", "model.toy_embed", NO_COUNTS),
    ("svkit.model.losses", "subcenter_cosines", "model.subcenter_cosines", NO_COUNTS),
    ("svkit.scoring", "score_trials", _scoring_mode, NO_COUNTS),
    ("svkit.scoring", "cohort_stats", "scoring.cohort_stats", NO_COUNTS),
    ("svkit.scoring", "segment_plan", "scoring.segment_plan", PADDED),
    ("svkit.metrics", "evaluate_scores", "metrics.evaluate_scores", NO_COUNTS),
    ("svkit.metrics", "roc_points", "metrics.roc_points", THRESHOLDS),
    ("svkit.fusion", "fit_fusion", "fusion.fit_fusion", FIT),
    ("svkit.fusion", "stack_scores", "fusion.stack_scores", NO_COUNTS),
    ("svkit.fusion", "fuse", "fusion.fuse", NO_COUNTS),
]


def all_quantities() -> list[str]:
    """Every `<span>.<quantity>` TARGETS can record; 0 when the span never ran."""
    out = []
    for _, _, name, (keys, _) in TARGETS:
        names = [name] if isinstance(name, str) else [
            f"scoring.score_trials.{m}" for m in SCORING_MODES]
        for n in names:
            out += [f"{n}.{q}" for q in ("calls", "busy_s", "self_s", "errors", *keys)]
    return out


# functions called once per item (utterance, segment, file), so their
# per-call latency distribution is reported
PER_CALL = (
    "features.read_wav",
    "features.compute_logmel",
    "model.embed_waveform",
    "model.toy_embed",
    "scoring.cohort_stats",
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, counter):
        stack, spans, ids = self._stack, self.spans, self._ids
        keys, count = counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            parent = stack[-1] if stack else None
            sid = next(ids)
            stack.append(sid)
            result, error = None, True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                counts = dict(zip(keys, count(args, kwargs, result))) if keys and not error else {}
                spans.append(Span(sid, span_name, parent, start, end, error, counts))

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "svkit" or n.startswith("svkit.")]
        for module_name, attr, name, counter in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:  # a classmethod
                owner_name, method = attr.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                wrapped = classmethod(self._wrap(original.__func__, name, counter))
                setattr(owner, method, wrapped)
                self._patches.append((owner, method, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Per span name: calls, busy_s, self_s, errors and summed work counts.

    self_s is a span's duration minus the time its direct children cover;
    a span name seen nowhere in `spans` is absent from the result.
    """
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for s in spans:
        add(f"{s.name}.calls", 1)
        add(f"{s.name}.busy_s", s.duration)
        add(f"{s.name}.self_s", s.duration - child_time.get(s.id, 0.0))
        add(f"{s.name}.errors", int(s.error))
        for key, value in s.counts.items():
            add(f"{s.name}.{key}", value)
    return out


def per_call(spans: list[Span]) -> dict[str, float]:
    """p50/p90 latency in ms, with sample counts, for the PER_CALL functions."""
    out = {}
    for name in PER_CALL:
        ms = sorted(1e3 * s.duration for s in spans if s.name == name)
        if len(ms) >= 2:
            q = statistics.quantiles(ms, n=10, method="inclusive")
            out.update({f"{name}.p50_ms": statistics.median(ms), f"{name}.p90_ms": q[8],
                        f"{name}.n": len(ms)})
        elif ms:
            out.update({f"{name}.p50_ms": ms[0], f"{name}.p90_ms": ms[0], f"{name}.n": 1})
    return out


def span_records(spans: list[Span]) -> list[dict]:
    return [dict(id=s.id, name=s.name, parent=s.parent, start=s.start, end=s.end,
                 error=s.error, **s.counts) for s in spans]
