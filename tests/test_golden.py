"""Golden output digests: output bytes pinned from one change to the next.

A tiny seeded pipeline runs every data command once, through `main`, on
WAVs and a noise bank made here as guarantee 10 makes them. The SHA-256 of
each output file, of each command's stdout, of the float64 scores that
`score_trials` holds for each scoring mode, and of the fitted fusion
weights must equal tests/golden_digests.json, whose `build` records the
numpy, BLAS, BLAS kernel and CPU the table was made on.

On another build the bytes may legitimately differ. If they do, the test
skips and names the digests that moved and both builds: it passes only
when every digest equals the table's.

A change that moves output bytes regenerates the table in the same
commit, and says which outputs moved, by how much, and why:

    PYTHONPATH=src python tests/test_golden.py > tests/golden_digests.json
"""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from _text_oracle import trial_text
from svkit.cli import main
from svkit.fusion import fit_fusion, stack_scores
from svkit.scoring import score_trials
from svkit.trials import TrialList, parse_file, parse_scores, parse_trials, read_embeddings_file
from test_acceptance import write_noise_manifest, write_tone

GOLDEN = Path(__file__).with_name("golden_digests.json")


def blas_kernel() -> str:
    """The core of the OpenBLAS that numpy bundles, picked at load from the
    CPU or forced by OPENBLAS_CORETYPE: "unknown" if it is not found."""
    libs = sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_*"))
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def build() -> dict:
    """What besides the source decides an output's bits."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_kernel": blas_kernel(),
        "machine": platform.machine(),
        "cpu_features": sorted(config.get("SIMD Extensions", {}).get("found", [])),
    }


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pipeline_digests(work: Path) -> dict[str, str]:
    """Digest of every output, keyed '<step>:<file or stdout or array>'."""
    digests = {}

    def run(step, argv, outputs=()):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([str(a) for a in argv]) == 0, argv
        digests[f"{step}:stdout"] = sha256(out.getvalue().encode())
        for name in outputs:
            digests[f"{step}:{name}"] = sha256((work / name).read_bytes())

    n_utts = 6
    manifest = write_noise_manifest(work)
    config = work / "pipeline.cfg"
    # 1.0 s segments: the 0.8 s clip takes the padded MSA path, the others not
    config.write_text(f"seed = 11\nnoise_manifest = {manifest.name}\ncohort = emb.bin\n"
                      "top_k = 4\nn_segments = 3\nsegment_duration = 1.0\n", encoding="utf-8")
    (work / "schedule.cfg").write_text("cycle0_steps = 7\n", encoding="utf-8")
    pairs = [(i, j) for i in range(n_utts) for j in range(i + 1, n_utts)]
    trials = TrialList([f"u{i}" for i, _ in pairs], [f"u{j}" for _, j in pairs],
                       [i // 2 == j // 2 for i, j in pairs])
    (work / "trials.txt").write_text(trial_text(trials), encoding="utf-8")

    for i in range(n_utts):
        write_tone(work / f"src{i}.wav", 260 + 130 * i, seed=i, duration=0.8 if i == 5 else 1.2)
        run(f"augment{i}", ["augment", "--wav", work / f"src{i}.wav", "--config", config,
                            "--output", work / f"aug{i}.wav"], [f"aug{i}.wav"])
    run("features", ["features", "--wav", work / "aug0.wav", "--config", config,
                     "--output", work / "aug0.mel"], ["aug0.mel"])
    (work / "utts.txt").write_text(
        "".join(f"u{i} {work / f'aug{i}.wav'}\n" for i in range(n_utts)), encoding="utf-8")
    run("embed", ["embed", "--wav-list", work / "utts.txt", "--config", config,
                  "--output", work / "emb.bin"], ["emb.bin"])
    run("embed-msa", ["embed", "--wav-list", work / "utts.txt", "--config", config, "--msa",
                      "--output", work / "msa.bin"], ["msa.bin"])

    systems = {"raw": ("emb.bin", []), "asnorm": ("emb.bin", ["--asnorm"]),
               "msa": ("msa.bin", ["--msa"]), "msa-asnorm": ("msa.bin", ["--msa", "--asnorm"])}
    cohort = read_embeddings_file(work / "emb.bin")
    for mode, (store, flags) in systems.items():
        run(f"score-{mode}", ["score", "--trials", work / "trials.txt", "--labeled",
                              "--embeddings", work / store, "--config", config, *flags,
                              "--output", work / f"{mode}.txt"], [f"{mode}.txt"])
        result = score_trials(trials, read_embeddings_file(work / store),
                              mode="msa" if "--msa" in flags else "raw",
                              cohort=cohort if "--asnorm" in flags else None, top_k=4)
        digests[f"score-{mode}:scores"] = sha256(result.scores.tobytes())
    run("evaluate", ["evaluate", "--trials", work / "trials.txt", "--scores", work / "raw.txt"])

    score_files = [work / f"{mode}.txt" for mode in systems]
    run("fuse-fit", ["fuse", "--trials", work / "trials.txt", "--scores", *score_files,
                     "--fit-labels", "--model", work / "fusion.model",
                     "--output", work / "fused.txt"], ["fusion.model", "fused.txt"])
    read_back = parse_file(work / "trials.txt", "trials", parse_trials, True)
    matrix = stack_scores([parse_file(p, "scores", parse_scores, read_back) for p in score_files])
    model = fit_fusion(matrix, read_back.labels())
    digests["fuse-fit:weights"] = sha256(np.append(model.weights, model.bias).tobytes())
    run("fuse-apply", ["fuse", "--trials", work / "trials.txt", "--scores", *score_files,
                       "--model", work / "fusion.model"])

    run("schedule-dump", ["schedule-dump", "--config", work / "schedule.cfg", "--steps", "40"])
    run("shapes", ["shapes", "ResNet34-st1112"])
    return digests


def test_outputs_match_golden_digests(tmp_path):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = pipeline_digests(tmp_path)
    moved = sorted(k for k in want["digests"].keys() | got.keys()
                   if want["digests"].get(k) != got.get(k))
    if moved and build() != want["build"]:
        pytest.skip(f"{len(moved)} digests differ on build {build()}; the table was made "
                    f"on {want['build']}: {moved}")
    assert moved == []


def test_another_blas_kernel_passes_or_skips():
    # a kernel's gemm and dot may round otherwise; the build key names the
    # kernel, so moved digests skip instead of failing
    native = blas_kernel()
    if native == "unknown" or platform.machine() != "x86_64":
        pytest.skip(f"no x86_64 OpenBLAS kernel to force (found {native})")
    # Haswell's kernels need AVX2 (numpy's X86_V3); Prescott's run on any x86_64
    avx2 = "X86_V3" in build()["cpu_features"]
    forced = "Haswell" if avx2 and native != "Haswell" else "Prescott"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_outputs_match_golden_digests"],
        capture_output=True, text=True, cwd=Path(__file__).parents[1],
        env={**os.environ, "OPENBLAS_CORETYPE": forced})
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1].startswith(("1 passed", "1 skipped")), done.stdout


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        table = {"build": build(), "digests": pipeline_digests(Path(work))}
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    print()
