"""The benchmark's span tracer still sees svkit's layers.

perfbench/trace.py wraps svkit functions by module and name, so renaming
one of them would silently blind a traced run. The tracer is loaded here
by path, as the benchmark loads it, and checked against the package.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from svkit.cli import main
from svkit.features import Waveform, write_wav
from svkit.scoring import segment_id
from svkit.store import EmbeddingStore
from svkit.trials import write_embeddings_file

TRACE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"


@pytest.fixture(scope="module")
def trace():
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        # install patches only the svkit modules already loaded, and each
        # command loads its own when it runs: a benchmark run loads them in
        # the untraced iteration that precedes every traced one
        for module_name, *_ in module.TARGETS:
            importlib.import_module(module_name)
        yield module
    finally:
        del sys.modules[spec.name]


def svkit_bindings():
    """Every (module, name) -> object binding in the loaded svkit modules."""
    modules = [m for n, m in sys.modules.items() if n == "svkit" or n.startswith("svkit.")]
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items()}


def test_every_target_resolves(trace):
    for module_name, attr, _, _ in trace.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{module_name}.{attr} is gone"
            owner = getattr(owner, part)
        assert callable(owner)


def test_uninstall_restores_originals(trace):
    import svkit.scoring
    from svkit.augment import NoiseBank

    before = svkit_bindings()
    from_manifest = NoiseBank.__dict__["from_manifest"]
    tracer = trace.Tracer()
    tracer.install()
    try:
        assert svkit.scoring.segment_plan is not before[("svkit.scoring", "segment_plan")]
        assert NoiseBank.__dict__["from_manifest"] is not from_manifest
    finally:
        tracer.uninstall()
    after = svkit_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert NoiseBank.__dict__["from_manifest"] is from_manifest


def test_traced_msa_embed_counts_padded_plans(trace, tmp_path):
    rng = np.random.default_rng(0)
    # a 2 s clip is padded for 6 s segments; a 7 s clip is not
    for name, seconds in (("short", 2), ("long", 7)):
        write_wav(Waveform(0.1 * rng.standard_normal(16000 * seconds)), tmp_path / f"{name}.wav")
    wav_list = tmp_path / "utts.txt"
    wav_list.write_text("short short.wav\nlong long.wav\n", encoding="utf-8")
    tracer = trace.Tracer()
    tracer.install()
    try:
        code = main(["embed", "--msa", "--wav-list", str(wav_list),
                     "--output", str(tmp_path / "emb.bin")])
    finally:
        tracer.uninstall()
    assert code == 0
    totals = trace.layer_totals(tracer.spans)
    assert totals["scoring.segment_plan.calls"] == 2
    assert totals["scoring.segment_plan.padded"] == 1
    # one embedding for the padded clip, one per distinct segment of the other
    assert totals["model.embed_waveform.calls"] == 1 + 5
    assert totals["cli.embed.calls"] == 1


def test_traced_asnorm_msa_score_calls_cohort_stats_once(trace, tmp_path):
    rng = np.random.default_rng(1)

    def units(n):
        vectors = rng.standard_normal((n, 16))
        return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)

    utts = [f"u{i}" for i in range(6)]
    write_embeddings_file(
        EmbeddingStore([segment_id(u, k) for u in utts for k in range(5)], units(30)),
        tmp_path / "seg.bin",
    )
    write_embeddings_file(EmbeddingStore([f"c{i}" for i in range(20)], units(20)),
                          tmp_path / "cohort.bin")
    trials = tmp_path / "trials.txt"
    trials.write_text("".join(f"{a} {b}\n" for a in utts for b in utts if a < b), encoding="utf-8")
    config = tmp_path / "cohort.cfg"
    config.write_text("cohort = cohort.bin\ntop_k = 5\n", encoding="utf-8")
    tracer = trace.Tracer()
    tracer.install()
    try:
        code = main(["score", "--asnorm", "--msa", "--trials", str(trials),
                     "--embeddings", str(tmp_path / "seg.bin"),
                     "--config", str(config),
                     "--output", str(tmp_path / "scores.txt")])
    finally:
        tracer.uninstall()
    assert code == 0
    totals = trace.layer_totals(tracer.spans)
    assert totals["scoring.cohort_stats.calls"] == 1
    assert totals["scoring.score_trials.msa.calls"] == 1
