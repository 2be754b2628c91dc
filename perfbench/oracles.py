"""Output checks, written without svkit: plain numpy over the files' bytes.

Each oracle takes the paths a step read and wrote and returns a list of
failure messages (empty when the output is correct). Scores are compared
to their printed precision: half a unit in the last printed digit, plus a
1e-12 allowance for a different summation order.
"""

from __future__ import annotations

import struct
import wave
from pathlib import Path

import numpy as np

NORM_TOL = 1e-6  # the EmbeddingStore(normalized=True) contract
P_TARGET, C_MISS, C_FA = 0.05, 1.0, 1.0  # evaluate's defaults


def read_emb1(path) -> tuple[list[str], np.ndarray]:
    data = Path(path).read_bytes()
    if data[:4] != b"EMB1":
        raise ValueError(f"{path}: bad magic {data[:4]!r}")
    dim, count = struct.unpack_from("<IQ", data, 4)
    pos, ids = 16, []
    vectors = np.empty((count, dim), dtype=np.float64)
    for k in range(count):
        (n,) = struct.unpack_from("<H", data, pos)
        ids.append(data[pos + 2 : pos + 2 + n].decode("utf-8"))
        pos += 2 + n
        vectors[k] = np.frombuffer(data, dtype="<f4", count=dim, offset=pos)
        pos += 4 * dim
    if pos != len(data):
        raise ValueError(f"{path}: {len(data) - pos} trailing bytes")
    return ids, vectors


def read_trials(path) -> tuple[list[str], list[str], np.ndarray]:
    rows = [line.split() for line in Path(path).read_text(encoding="utf-8").splitlines()]
    return [r[1] for r in rows], [r[2] for r in rows], np.array([r[0] == "1" for r in rows])


def read_scores(path) -> tuple[list[tuple[str, str]], np.ndarray, np.ndarray]:
    """(pairs, values, tolerance) of a score file; tolerance from printed digits."""
    rows = [line.split() for line in Path(path).read_text(encoding="utf-8").splitlines()]
    if any(len(r) != 3 for r in rows):
        raise ValueError(f"{path}: a line without exactly 3 fields")
    printed = [r[2] for r in rows]
    values = np.array([float(v) for v in printed])
    decimals = np.array([len(v) - v.find(".") - 1 if "." in v else 0 for v in printed])
    tol = 0.5 * 10.0 ** -decimals.astype(np.float64) + 1e-12 * np.maximum(1.0, np.abs(values))
    return [(r[0], r[1]) for r in rows], values, tol


def _compare_scores(path, enroll, test, expected: np.ndarray) -> list[str]:
    pairs, got, tol = read_scores(path)
    if pairs != list(zip(enroll, test)):
        return [f"{path.name}: trial pairs differ from the trial list"]
    err = np.abs(got - expected)
    bad = np.flatnonzero(err > tol)
    if len(bad):
        k = int(bad[0])
        return [f"{path.name}: {len(bad)} scores off, first line {k + 1}: "
                f"{float(got[k])!r} vs oracle {float(expected[k])!r}"]
    return []


def _index(ids: list[str], names: list[str]) -> np.ndarray:
    where = {u: k for k, u in enumerate(ids)}
    return np.fromiter((where[u] for u in names), dtype=np.intp, count=len(names))


def raw_scores(outputs, trials, store) -> list[str]:
    enroll, test, _ = read_trials(trials)
    ids, vectors = read_emb1(store)
    gram = vectors @ vectors.T  # every pair's dot product, looked up per trial
    expected = gram[_index(ids, enroll), _index(ids, test)]
    return _compare_scores(outputs[0], enroll, test, expected)


def asnorm_scores(outputs, trials, store, cohort, top_k) -> list[str]:
    enroll, test, _ = read_trials(trials)
    ids, vectors = read_emb1(store)
    _, coh = read_emb1(cohort)
    mean, std = np.empty(len(ids)), np.empty(len(ids))
    for lo in range(0, len(ids), 256):  # bounds the utts x cohort block
        top = np.sort(vectors[lo : lo + 256] @ coh.T, axis=1)[:, -top_k:]
        mean[lo : lo + 256] = top.mean(axis=1)
        std[lo : lo + 256] = np.sqrt(((top - top.mean(axis=1, keepdims=True)) ** 2).mean(axis=1))
    ei, ti = _index(ids, enroll), _index(ids, test)
    raw = (vectors @ vectors.T)[ei, ti]
    expected = 0.5 * ((raw - mean[ei]) / std[ei] + (raw - mean[ti]) / std[ti])
    return _compare_scores(outputs[0], enroll, test, expected)


def msa_scores(outputs, trials, store, segments=5) -> list[str]:
    enroll, test, _ = read_trials(trials)
    ids, vectors = read_emb1(store)

    def segs(names):
        rows = vectors[_index(ids, [f"{u}#{j}" for u in names for j in range(segments)])]
        return rows.reshape(len(names), segments, -1)

    expected = np.einsum("tad,tbd->t", segs(enroll), segs(test)) / segments**2
    return _compare_scores(outputs[0], enroll, test, expected)


def counting_eer_mindcf(scores: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """EER (percent) and minDCF by counting each side of every threshold.

    Accept iff score >= t, one threshold per distinct score plus +inf. EER
    interpolates linearly between the two points where P_miss - P_fa turns
    non-negative.
    """
    tgt = np.sort(scores[labels])
    non = np.sort(scores[~labels])
    thresholds = np.append(np.unique(scores), np.inf)
    p_miss = np.searchsorted(tgt, thresholds, side="left") / len(tgt)
    p_fa = (len(non) - np.searchsorted(non, thresholds, side="left")) / len(non)
    diff = p_miss - p_fa
    i = int(np.argmax(diff >= 0))
    if diff[i] == 0.0:
        eer = 100.0 * p_miss[i]
    else:
        t = (p_fa[i - 1] - p_miss[i - 1]) / ((p_miss[i] - p_miss[i - 1]) - (p_fa[i] - p_fa[i - 1]))
        eer = 100.0 * (p_miss[i - 1] + t * (p_miss[i] - p_miss[i - 1]))
    costs = C_MISS * P_TARGET * p_miss + C_FA * (1 - P_TARGET) * p_fa
    return float(eer), float(np.min(costs)) / min(C_MISS * P_TARGET, C_FA * (1 - P_TARGET))


def evaluation(outputs, trials, scores, stdout: str) -> list[str]:
    _, _, labels = read_trials(trials)
    _, values, _ = read_scores(scores)
    eer, dcf = counting_eer_mindcf(values, labels)
    lines = stdout.split("\n")
    if len(lines) != 3 or lines[2] or not lines[0].startswith("EER(%) ") \
            or not lines[1].startswith("minDCF "):
        return [f"evaluate printed {stdout!r}"]
    got_eer, got_dcf = float(lines[0].split()[1]), float(lines[1].split()[1])
    errors = []
    if abs(got_eer - eer) > 5e-7 + 1e-9:
        errors.append(f"EER {got_eer} vs oracle {eer!r}")
    if abs(got_dcf - dcf) > 5e-7 + 1e-9:
        errors.append(f"minDCF {got_dcf} vs oracle {dcf!r}")
    return errors


def fusion(outputs, trials, scores, model) -> list[str]:
    bias, *weights = (float(v) for v in Path(model).read_text(encoding="utf-8").split())
    if len(weights) != len(scores):
        return [f"model has {len(weights)} weights for {len(scores)} score files"]
    expected = bias + sum(w * read_scores(p)[1] for w, p in zip(weights, scores))
    enroll, test, _ = read_trials(trials)
    return _compare_scores(outputs[1], enroll, test, expected)


def _store_errors(path, ids: list[str]) -> list[str]:
    got, vectors = read_emb1(path)
    errors = []
    if got != ids:
        errors.append(f"{path.name}: {len(got)} ids, expected {len(ids)} in list order")
    worst = float(np.max(np.abs(np.linalg.norm(vectors, axis=1) - 1.0))) if len(got) else 0.0
    if worst > NORM_TOL:
        errors.append(f"{path.name}: a row has norm off by {worst:.3g}")
    return errors


def embed_store(outputs, ids, stdout: str) -> list[str]:
    errors = _store_errors(outputs[0], ids)
    if not stdout.startswith(f"embedded {len(ids)} utterances"):
        errors.append(f"embed printed {stdout!r}")
    return errors


def msa_store(outputs, ids, padded, stdout: str, segments=5) -> list[str]:
    errors = _store_errors(outputs[0], [f"{u}#{j}" for u in ids for j in range(segments)])
    if errors:
        return errors
    got, vectors = read_emb1(outputs[0])
    rows = vectors.reshape(len(ids), segments, -1)
    for u in padded:
        block = rows[ids.index(u)]
        if not np.array_equal(block, np.broadcast_to(block[0], block.shape)):
            errors.append(f"{outputs[0].name}: padded utterance {u} has differing segment rows")
    return errors


def augmented_wav(outputs, source, stdout: str) -> list[str]:
    with wave.open(str(source), "rb") as src, wave.open(str(outputs[0]), "rb") as out:
        shape_in = (src.getnchannels(), src.getsampwidth(), src.getframerate(), src.getnframes())
        shape_out = (out.getnchannels(), out.getsampwidth(), out.getframerate(), out.getnframes())
    if shape_out != shape_in:
        return [f"{outputs[0].name}: (channels, width, rate, frames) {shape_out} != {shape_in}"]
    if stdout != f"samples {shape_in[3]} rate {shape_in[2]}\n":
        return [f"augment printed {stdout!r}"]
    return []


def version(outputs, stdout: str) -> list[str]:
    return [] if stdout.startswith("svkit ") else [f"--version printed {stdout!r}"]


ORACLES = {
    "raw_scores": raw_scores,
    "asnorm_scores": asnorm_scores,
    "msa_scores": msa_scores,
    "evaluation": evaluation,
    "fusion": fusion,
    "embed_store": embed_store,
    "msa_store": msa_store,
    "augmented_wav": augmented_wav,
    "version": version,
}

NEEDS_STDOUT = {"evaluation", "embed_store", "msa_store", "augmented_wav", "version"}


def check(name: str, outputs, stdout: str, **kwargs) -> list[str]:
    """Failure messages of oracle `name`; an exception is itself a failure."""
    if name in NEEDS_STDOUT:
        kwargs["stdout"] = stdout
    try:
        return ORACLES[name]([Path(p) for p in outputs], **kwargs)
    except (OSError, ValueError, KeyError, IndexError, EOFError, wave.Error) as exc:
        return [f"{name}: {type(exc).__name__}: {exc}"]
