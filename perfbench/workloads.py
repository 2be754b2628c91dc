"""Seeded synthetic inputs and the CLI command list of each workload.

A workload writes its inputs under a work directory and returns a
`Workload`: the ordered CLI steps of one pipeline iteration plus the facts
the output checks and the computed counts need. Sizes never depend on the
seed; the seed only changes content and order, so every seed does the same
amount of work.
"""

from __future__ import annotations

import struct
import wave
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

RATE = 16000
SEGMENTS = 5
SEGMENT_S = 6.0
EMBED_DIM = 512  # dimension of the toy embedder's output
WINDOW = 400  # 25 ms at 16 kHz
HOP = 160  # 10 ms at 16 kHz

# One pipeline iteration per workload at each scale. The "full" sizes are
# the ROADMAP baseline rows; "tiny" exists for the self-check.
SIZES = {
    "full": {
        "wav_pipeline": dict(
            speakers=4, durations=(2.0, 3.0, 4.0, 5.5, 6.5, 7.0, 8.0, 10.0), augmented=2
        ),
        "score_dense": dict(
            speakers=200, utts_per_speaker=10, dim=256, trials=100_000,
            target_share=0.1, cohort=1000, top_k=100,
        ),
        "score_cohort": dict(
            speakers=198, utts_per_speaker=10, dim=256, trials=5000,
            target_share=0.1, cohort=5000, top_k=100,
            msa_speakers=40, msa_utts_per_speaker=10, msa_trials=2000,
        ),
    },
    "tiny": {
        "wav_pipeline": dict(speakers=2, durations=(2.0, 7.0), augmented=1),
        "score_dense": dict(
            speakers=20, utts_per_speaker=5, dim=32, trials=1000,
            target_share=0.2, cohort=200, top_k=20,
        ),
        "score_cohort": dict(
            speakers=8, utts_per_speaker=5, dim=32, trials=100,
            target_share=0.2, cohort=200, top_k=20,
            msa_speakers=4, msa_utts_per_speaker=5, msa_trials=50,
        ),
    },
}

WORKLOADS = tuple(SIZES["full"])


@dataclass
class Step:
    """One CLI invocation: the stage it is timed under, argv after `svkit`,
    the files it writes, and the check that validates them."""

    stage: str
    argv: list[str]
    outputs: list[Path]
    check: tuple = ()  # (oracle name, keyword arguments)


@dataclass
class Workload:
    name: str
    steps: list[Step]
    sizes: dict
    facts: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# file writers (independent of svkit, so the program only ever sees bytes)


def write_wav(path: Path, samples: np.ndarray) -> None:
    pcm = np.round(np.clip(samples, -1.0, 32767 / 32768) * 32768).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(RATE)
        fh.writeframes(pcm.tobytes())


def write_emb1(path: Path, ids: list[str], vectors: np.ndarray) -> None:
    vectors = np.ascontiguousarray(vectors, dtype="<f4")
    parts = [b"EMB1", struct.pack("<IQ", vectors.shape[1], len(ids))]
    for utt, row in zip(ids, vectors):
        raw = utt.encode("utf-8")
        parts += [struct.pack("<H", len(raw)), raw, row.tobytes()]
    path.write_bytes(b"".join(parts))


def write_trials(path: Path, enroll: list[str], test: list[str], labels: np.ndarray) -> None:
    path.write_text(
        "".join(f"{int(y)} {e} {t}\n" for y, e, t in zip(labels, enroll, test)),
        encoding="utf-8",
    )


def unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def speaker_vectors(rng, n_speakers, per_speaker, dim, spread=2.0):
    """Unit vectors around per-speaker centres; spread sets the EER."""
    centres = unit_rows(rng.standard_normal((n_speakers, dim)))
    noise = rng.standard_normal((n_speakers, per_speaker, dim)) / np.sqrt(dim)
    return unit_rows(centres[:, None, :] + spread * noise)


def sample_trials(rng, n_speakers: int, per_speaker: int, n_trials: int, target_share: float):
    """Labelled (enroll, test) index pairs over speaker-major utterances.

    Utterance i belongs to speaker i // per_speaker; target pairs are two
    distinct utterances of one speaker, nontarget pairs span two speakers.
    """
    n_target = int(round(n_trials * target_share))
    spk = rng.integers(n_speakers, size=n_target)
    first = rng.integers(per_speaker, size=n_target)
    second = (first + 1 + rng.integers(per_speaker - 1, size=n_target)) % per_speaker
    enroll = [spk * per_speaker + first]
    test = [spk * per_speaker + second]
    need = n_trials - n_target
    while need:
        a, b = rng.integers(n_speakers * per_speaker, size=(2, need))
        keep = a // per_speaker != b // per_speaker
        enroll.append(a[keep])
        test.append(b[keep])
        need -= int(keep.sum())
    labels = np.arange(n_trials) < n_target
    order = rng.permutation(n_trials)
    return np.concatenate(enroll)[order], np.concatenate(test)[order], labels[order]


def score_config(work: Path, rng: np.random.Generator, size: dict) -> Path:
    """Pipeline config naming the cohort store (resolved next to it) and top_k."""
    config = work / "pipeline.cfg"
    config.write_text(
        f"seed = {int(rng.integers(2**31))}\ncohort = cohort.bin\ntop_k = {size['top_k']}\n",
        encoding="utf-8",
    )
    return config


def _svkit(*argv) -> list[str]:
    return [str(a) for a in argv]


# ---------------------------------------------------------------------------
# workloads


def wav_pipeline(work: Path, rng: np.random.Generator, size: dict) -> Workload:
    """Tone/harmonic/noise WAVs -> augment -> embed (plain, MSA) -> score -> evaluate."""
    wavs, bank = work / "wavs", work / "bank"
    wavs.mkdir()
    bank.mkdir()
    durations = size["durations"]
    ids, paths, secs, speaker = [], [], [], []
    for s in range(size["speakers"]):
        f0 = rng.uniform(110.0, 320.0)
        harmonics = rng.uniform(0.05, 0.2, size=3)
        for k, dur in enumerate(rng.permutation(durations)):
            t = np.arange(int(round(dur * RATE))) / RATE
            f = f0 * rng.uniform(0.98, 1.02)
            x = 0.3 * np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
            for h, amp in enumerate(harmonics, start=2):
                x += amp * np.sin(2 * np.pi * h * f * t)
            x += 0.01 * rng.standard_normal(t.size)
            utt = f"spk{s:02d}_u{k:02d}"
            write_wav(wavs / f"{utt}.wav", 0.7 * x)
            ids.append(utt)
            paths.append(wavs / f"{utt}.wav")
            secs.append(float(dur))
            speaker.append(s)

    lines = []
    for cat in ("noise", "music"):
        write_wav(bank / f"{cat}.wav", 0.1 * rng.standard_normal(RATE // 2))
        lines.append(f"{cat} {cat}.wav")
    for i in range(7):
        write_wav(bank / f"sp{i}.wav", 0.1 * rng.standard_normal(RATE // 2))
        lines.append(f"speech sp{i}.wav")
    rir = np.zeros(800)
    rir[0], rir[350] = 1.0, 0.4
    write_wav(bank / "rir.wav", rir)
    lines.append("rir rir.wav")
    (bank / "bank.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")

    # every augmentation fires, so each augment call does the same work
    config = work / "pipeline.cfg"
    config.write_text(
        f"seed = {int(rng.integers(2**31))}\nnoise_manifest = bank/bank.txt\n"
        "p_noise = 1.0\np_music = 1.0\np_babble = 1.0\np_reverb = 1.0\n",
        encoding="utf-8",
    )

    # augment the longest utterance of the first speakers, so the subset's
    # length does not depend on the seed
    steps = []
    listed = list(paths)
    per = len(durations)
    for i in range(size["augmented"]):
        k = i * per + int(np.argmax(secs[i * per : (i + 1) * per]))
        out = work / f"aug{i}.wav"
        steps.append(Step(
            "augment",
            _svkit("augment", "--wav", paths[k], "--config", config, "--output", out),
            [out], ("augmented_wav", dict(source=paths[k])),
        ))
        listed[k] = out
    wav_list = work / "utts.txt"
    wav_list.write_text("".join(f"{u} {p}\n" for u, p in zip(ids, listed)), encoding="utf-8")

    pairs = [(i, j) for i in range(len(ids)) for j in range(i + 1, len(ids))]
    trials = work / "trials.txt"
    write_trials(
        trials, [ids[i] for i, _ in pairs], [ids[j] for _, j in pairs],
        np.array([speaker[i] == speaker[j] for i, j in pairs]),
    )
    emb, emb_msa = work / "emb.bin", work / "emb_msa.bin"
    raw, msa = work / "scores_raw.txt", work / "scores_msa.txt"
    padded = [u for u, d in zip(ids, secs) if d < SEGMENT_S]
    steps += [
        Step("embed", _svkit("embed", "--wav-list", wav_list, "--config", config, "--output", emb),
             [emb], ("embed_store", dict(ids=ids))),
        Step("embed_msa",
             _svkit("embed", "--msa", "--wav-list", wav_list, "--config", config, "--output", emb_msa),
             [emb_msa], ("msa_store", dict(ids=ids, padded=padded))),
        Step("score_raw",
             _svkit("score", "--labeled", "--trials", trials, "--embeddings", emb,
                    "--config", config, "--output", raw),
             [raw], ("raw_scores", dict(trials=trials, store=emb))),
        Step("score_msa",
             _svkit("score", "--msa", "--labeled", "--trials", trials, "--embeddings", emb_msa,
                    "--config", config, "--output", msa),
             [msa], ("msa_scores", dict(trials=trials, store=emb_msa))),
        Step("evaluate", _svkit("evaluate", "--trials", trials, "--scores", raw), [],
             ("evaluation", dict(trials=trials, scores=raw))),
    ]
    segment_samples = int(round(SEGMENT_S * RATE))
    plain_frames = sum(1 + (int(round(d * RATE)) - WINDOW) // HOP for d in secs)
    msa_frames = len(ids) * SEGMENTS * (1 + (segment_samples - WINDOW) // HOP)
    facts = dict(
        audio_s=sum(secs),
        embedded_audio_s=sum(secs) + len(ids) * SEGMENTS * SEGMENT_S,
        utterances=len(ids),
        padded_share=len(padded) / len(ids),
        logmel_frames=plain_frames + msa_frames,
        logmel_ffts=plain_frames + msa_frames,
        scored={"raw": _trial_counts(len(pairs), len(ids), EMBED_DIM),
                "msa": _trial_counts(len(pairs), len(ids), EMBED_DIM, segments=SEGMENTS)},
    )
    return Workload("wav_pipeline", steps, size, facts)


def score_dense(work: Path, rng: np.random.Generator, size: dict) -> Workload:
    """Many trials over few utterances: text parsing and per-trial loops dominate."""
    n_spk, per, dim = size["speakers"], size["utts_per_speaker"], size["dim"]
    vectors = speaker_vectors(rng, n_spk, per, dim).reshape(-1, dim)
    ids = [f"s{s:04d}_u{k:02d}" for s in range(n_spk) for k in range(per)]
    cohort = speaker_vectors(rng, size["cohort"] // 10, 10, dim).reshape(-1, dim)
    emb, cohort_bin = work / "emb.bin", work / "cohort.bin"
    write_emb1(emb, ids, vectors)
    write_emb1(cohort_bin, [f"c{k:05d}" for k in range(len(cohort))], cohort)
    e, t, labels = sample_trials(rng, n_spk, per, size["trials"], size["target_share"])
    trials = work / "trials.txt"
    write_trials(trials, [ids[i] for i in e], [ids[i] for i in t], labels)

    config = score_config(work, rng, size)
    raw, asn = work / "scores_raw.txt", work / "scores_asnorm.txt"
    model, fused = work / "fusion.txt", work / "scores_fused.txt"
    steps = [
        Step("score_raw",
             _svkit("score", "--labeled", "--trials", trials, "--embeddings", emb,
                    "--config", config, "--output", raw),
             [raw], ("raw_scores", dict(trials=trials, store=emb))),
        Step("score_asnorm",
             _svkit("score", "--asnorm", "--labeled", "--trials", trials, "--embeddings", emb,
                    "--config", config, "--output", asn),
             [asn], ("asnorm_scores", dict(trials=trials, store=emb, cohort=cohort_bin,
                                           top_k=size["top_k"]))),
        Step("evaluate", _svkit("evaluate", "--trials", trials, "--scores", raw), [],
             ("evaluation", dict(trials=trials, scores=raw))),
        Step("evaluate", _svkit("evaluate", "--trials", trials, "--scores", asn), [],
             ("evaluation", dict(trials=trials, scores=asn))),
        Step("fuse",
             _svkit("fuse", "--fit-labels", "--trials", trials, "--scores", raw, asn,
                    "--model", model, "--output", fused),
             [model, fused], ("fusion", dict(trials=trials, scores=[raw, asn], model=model))),
    ]
    counts = _trial_counts(size["trials"], len(np.unique(np.concatenate([e, t]))), dim)
    facts = dict(scored={"raw": counts,
                         "asnorm": _trial_counts(counts["trials"], counts["utterances"], dim,
                                                 cohort=len(cohort))})
    return Workload("score_dense", steps, size, facts)


def score_cohort(work: Path, rng: np.random.Generator, size: dict) -> Workload:
    """Few trials per utterance against a large cohort, plus segment-matrix scoring."""
    n_spk, per, dim = size["speakers"], size["utts_per_speaker"], size["dim"]
    vectors = speaker_vectors(rng, n_spk, per, dim).reshape(-1, dim)
    ids = [f"s{s:04d}_u{k:02d}" for s in range(n_spk) for k in range(per)]
    cohort = speaker_vectors(rng, size["cohort"] // 10, 10, dim).reshape(-1, dim)
    emb, cohort_bin = work / "emb.bin", work / "cohort.bin"
    write_emb1(emb, ids, vectors)
    write_emb1(cohort_bin, [f"c{k:05d}" for k in range(len(cohort))], cohort)
    e, t, labels = sample_trials(rng, n_spk, per, size["trials"], size["target_share"])
    trials = work / "trials.txt"
    write_trials(trials, [ids[i] for i in e], [ids[i] for i in t], labels)

    # segment store: half the utterances repeat one vector five times, as a
    # padded (shorter than one segment) utterance does after `embed --msa`
    m_spk, m_per = size["msa_speakers"], size["msa_utts_per_speaker"]
    base = speaker_vectors(rng, m_spk, m_per, dim).reshape(-1, dim)
    segs = unit_rows(base[:, None, :] + 0.3 * rng.standard_normal((len(base), SEGMENTS, dim))
                     / np.sqrt(dim))
    padded = rng.permutation(len(base))[: len(base) // 2]
    segs[padded] = segs[padded, :1]
    msa_ids = [f"m{s:03d}_u{k:02d}" for s in range(m_spk) for k in range(m_per)]
    msa_store = work / "emb_msa.bin"
    write_emb1(msa_store, [f"{u}#{j}" for u in msa_ids for j in range(SEGMENTS)],
               segs.reshape(-1, dim))
    me, mt, mlabels = sample_trials(rng, m_spk, m_per, size["msa_trials"], size["target_share"])
    msa_trials = work / "trials_msa.txt"
    write_trials(msa_trials, [msa_ids[i] for i in me], [msa_ids[i] for i in mt], mlabels)

    config = score_config(work, rng, size)
    asn, msa = work / "scores_asnorm.txt", work / "scores_msa.txt"
    steps = [
        Step("score_asnorm",
             _svkit("score", "--asnorm", "--labeled", "--trials", trials, "--embeddings", emb,
                    "--config", config, "--output", asn),
             [asn], ("asnorm_scores", dict(trials=trials, store=emb, cohort=cohort_bin,
                                           top_k=size["top_k"]))),
        Step("score_msa",
             _svkit("score", "--msa", "--labeled", "--trials", msa_trials, "--embeddings",
                    msa_store, "--config", config, "--output", msa),
             [msa], ("msa_scores", dict(trials=msa_trials, store=msa_store))),
        Step("evaluate", _svkit("evaluate", "--trials", trials, "--scores", asn), [],
             ("evaluation", dict(trials=trials, scores=asn))),
        Step("evaluate", _svkit("evaluate", "--trials", msa_trials, "--scores", msa), [],
             ("evaluation", dict(trials=msa_trials, scores=msa))),
    ]
    n_utts = len(np.unique(np.concatenate([e, t])))
    facts = dict(
        padded_share=len(padded) / len(base),
        scored={
            "asnorm": _trial_counts(size["trials"], n_utts, dim, cohort=len(cohort)),
            "msa": _trial_counts(size["msa_trials"], len(np.unique(np.concatenate([me, mt]))),
                                 dim, segments=SEGMENTS),
        },
    )
    return Workload("score_cohort", steps, size, facts)


def _trial_counts(trials: int, utterances: int, dim: int, cohort: int = 0, segments: int = 1):
    """Computed work of one scoring call, from array sizes only.

    dots: length-dim dot products; flops: 2*dim per dot; bytes_dots: the
    float64 operands each dot reads; bytes_min: float32 rows that must be
    read at least once. raw 2*T*D flops, AS-Norm adds 2*U*C*D, MSA 2*T*n^2*D.
    """
    dots = trials * segments * segments + utterances * cohort
    return dict(
        trials=trials,
        utterances=utterances,
        trial_reuse=2 * trials / utterances,
        dots=dots,
        flops=2 * dots * dim,
        bytes_dots=2 * dots * dim * 8,
        bytes_min=4 * dim * (utterances * segments + cohort),
    )


BUILDERS = {"wav_pipeline": wav_pipeline, "score_dense": score_dense, "score_cohort": score_cohort}


def build(name: str, work: Path, seed: int, scale: str = "full") -> Workload:
    """Write the inputs of workload `name` for `seed` under `work` (emptied first)."""
    if work.exists():
        for p in sorted(work.rglob("*"), reverse=True):
            p.rmdir() if p.is_dir() else p.unlink()
    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return BUILDERS[name](work, rng, SIZES[scale][name])
