"""Trial scoring: raw cosine, adaptive symmetric normalization, and
segment-matrix averaging.

All scorers consume unit-norm embeddings, never fixed up here: a store,
a cohort included, is unit-norm by construction, and the scorers check
their array inputs with `store.check_unit`.
Every trial score goes through one kernel, `dot_rows`, which runs the
same BLAS dot as np.dot on each pair of rows, so a score computed in a
batch of any size equals the single-pair score bit for bit. An MSA
score, the mean of all pairwise segment cosines, is bilinear, so it is one
such dot of the two sides' `segment_means` rows, which `cohort_stats`
scores too. Cohort scores are the one exception: `cohort_stats` scores
each block of rows as one gemm of fixed shape over the cohort store's
zero-padded array, and sums each row's top K in sorted order. Its
contract is that a stacked call equals its single-row calls bit for bit,
and that the statistics depend on the cohort as a set of vectors, not on
its order. `score_trials` reads a store through index arrays
(`MeanRows`), so it copies only bounded blocks of rows, never the whole
store, and its scores depend on the trial list and on the store and
cohort as sets of (id, vector), not on the order of their records.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .config import MAX_N_SEGMENTS
from .store import EmbeddingStore, check_unit
from .trials import ScoreSet, TrialList

if TYPE_CHECKING:
    from .features import Waveform

SIGMA_FLOOR = 1e-9
# trials, or utterances, per gathered chunk: bounds every row copy
TRIAL_CHUNK = 128
# rows per cohort_stats gemm, a choice of memory and of bits. A larger
# size is faster (1980 rows x 5000 on a 2-core x86_64: ~110 ms at 32, ~100
# at 64, ~90 at 128), but the score block is rows x cohort float64 (1.3 MB
# at 32 x 5000), and 128 rows raised score_cohort's peak RSS from 46.5 to
# 50.8 MB for ~4% of its wall time. On OpenBLAS 0.3.31's SkylakeX kernels
# the size also moves the statistics' bits against a small cohort (300
# rows, dim 256 and 512, k = 4): against 32's, 256 rows differ at 4 to 32
# vectors, 128 at 9 to 32 and 64 at 17 to 32, and every size agrees from
# 33 vectors up. On its Haswell kernels every size agrees at 4 vectors and
# up. The golden score digests use a 6-vector cohort.
COHORT_BLOCK = 32


class CohortError(ValueError):
    """A cohort that cannot normalize the rows: a dim other than theirs, fewer
    than K vectors, or a row whose top-K scores are too nearly identical."""


def dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each pair of matching last-axis rows of a and b,
    broadcast over the leading axes. Each is the np.dot of those two rows
    with their strides, so batched and single-pair scores agree bit for bit."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def segment_means(rows: np.ndarray, label: Callable[[int], str]) -> np.ndarray:
    """Mean segment vector s_0 + sum(s_i - s_0) / s of each row of an
    (n, s, dim) stack: exactly s_0 for identical segments, a view of it for
    one. Each segment is first checked for unit norm, naming row i as
    label(i); the mean is not unit-norm."""
    check_unit(rows, label)
    return _unchecked_means(rows)


def _unchecked_means(rows: np.ndarray) -> np.ndarray:
    first, segs = rows[:, 0], rows.shape[1]
    return first if segs == 1 else first + np.sum(rows[:, 1:] - rows[:, :1], axis=1) / segs


class MeanRows(NamedTuple):
    """Checked mean segment vectors read through an index: row i is
    vectors[index[i]], the mean of `segments` segments. A plain store's
    vectors are their own means."""

    vectors: np.ndarray
    index: np.ndarray
    segments: int = 1


def cohort_stats(
    rows: np.ndarray | MeanRows,
    cohort: EmbeddingStore,
    k: int = 100,
    label: Callable[[int], str] = "embedding row {}".format,
) -> tuple[np.ndarray, np.ndarray]:
    """Top-K imposter score statistics for each row of an (n, dim) stack,
    or of an (n, s, dim) stack of s segment vectors per row.

    Scores every row against every cohort vector, keeps the K largest, and
    returns their means and population (1/K) standard deviations as two
    float64 arrays of length n; a row of segments scores as its
    `segment_means` row. Errors name row i as label(i); the rows are checked
    here, and the cohort, an EmbeddingStore, is unit-norm by construction.
    Rows given as `MeanRows` are already checked means, read block by block;
    a fault of the cohort itself is a CohortError.

    Every block, a single row included, is one gemm of fixed shape: rows
    zero-padded to COHORT_BLOCK, against the cohort's `padded` array, whose
    row count is a multiple of 8. A score's bits then depend on neither the
    row's position in the block nor the cohort vector's position in the
    cohort (a property of the BLAS build, which `svkit selftest` checks),
    and each row's top K are summed in sorted order. So a stacked call
    equals its single-row calls bit for bit, and the statistics depend on
    the cohort as a set of vectors, not on its order.
    """
    if isinstance(rows, MeanRows):
        means, shape = rows, (len(rows.index), rows.segments, rows.vectors.shape[1])
    else:
        rows = np.asarray(rows, dtype=np.float64)
        means, shape = None, rows.shape
    if len(shape) not in (2, 3) or shape[-1] != cohort.dim:
        raise CohortError(f"embedding stack shape {shape} does not match cohort dim {cohort.dim}")
    if means is None:
        means = MeanRows(segment_means(rows if rows.ndim == 3 else rows[:, None], label),
                         np.arange(len(rows)))
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n_cohort = len(cohort)
    if n_cohort < k:
        raise CohortError(f"cohort has {n_cohort} vectors, need at least k={k}")
    cut = n_cohort - k
    vectors, index = means.vectors, means.index
    blk = np.zeros((COHORT_BLOCK, cohort.dim))
    # one score buffer for every block, partitioned and sorted in place
    scores = np.empty((COHORT_BLOCK, len(cohort.padded)))
    mean = np.empty(len(index))
    std = np.empty(len(index))
    for s in range(0, len(index), COHORT_BLOCK):
        n = min(COHORT_BLOCK, len(index) - s)
        blk[:n] = vectors[index[s : s + n]]
        blk[n:] = 0.0
        np.matmul(blk, cohort.padded.T, out=scores)
        top = scores[:n, :n_cohort]
        if cut:
            top.partition(cut, axis=1)
            top = top[:, cut:]
        top.sort(axis=1)
        m = np.mean(top, axis=1)
        mean[s : s + n] = m
        std[s : s + n] = np.sqrt(np.mean((top - m[:, None]) ** 2, axis=1))
    bad = np.flatnonzero(~(std >= SIGMA_FLOOR))  # a NaN std is degenerate too
    if len(bad):
        raise CohortError(
            f"degenerate cohort for {label(bad[0])}: top-{k} scores have std "
            f"{std[bad[0]]:.3g} (all nearly identical)"
        )
    return mean, std


def asnorm_score(raw, mean_e, std_e, mean_t, std_t):
    """Symmetric z-normalization of raw scores against both sides' cohort
    statistics; elementwise over scalars or arrays."""
    return 0.5 * ((raw - mean_e) / std_e + (raw - mean_t) / std_t)


@dataclass(frozen=True)
class SegmentPlan:
    """Fixed-length segment layout over one utterance, in samples.

    Segment i is the `length` samples from sample offsets[i]; offsets
    never decrease, so equal offsets are adjacent. padded means the
    utterance is shorter than one segment, so every segment is its cyclic
    extension to `length` samples.
    """

    length: int
    offsets: tuple[int, ...]
    padded: bool

    @property
    def n_segments(self) -> int:
        return len(self.offsets)


def segment_plan(n_samples: int, sample_rate: int, n: int = 5, seg: float = 6.0) -> SegmentPlan:
    """Evenly spaced, overlapping segments of seg seconds covering an utterance.

    Shorter-than-one-segment utterances get a single padded layout with
    every offset at zero; otherwise segment i starts at i * (len - seg) /
    (n - 1) seconds, rounded to a sample, so the first begins at 0 and the
    last ends at the utterance's last sample.
    """
    if n_samples <= 0:
        raise ValueError(f"utterance length must be positive, got {n_samples} samples")
    if n < 1:
        raise ValueError(f"need at least one segment, got {n}")
    if seg <= 0:
        raise ValueError(f"segment duration must be positive, got {seg}")
    length = round(seg * sample_rate)
    duration = n_samples / sample_rate
    if duration < seg:
        return SegmentPlan(length, (0,) * n, padded=True)
    step = (duration - seg) / max(n - 1, 1)  # segment 0 is at 0 whatever the step
    offsets = tuple(min(round(i * step * sample_rate), n_samples - length) for i in range(n))
    return SegmentPlan(length, offsets, padded=False)


def extract_segments(w: Waveform, plan: SegmentPlan) -> list[tuple[list[int], Waveform]]:
    """(segment indices, waveform) for each distinct planned segment, in
    offset order.

    Segments are views of the utterance's samples. A padded plan's one
    cyclic extension of the utterance serves every index.
    """
    from .features import Waveform, match_length  # here, so `score` loads no front end

    if plan.padded:
        extended = match_length(w.samples, plan.length)
        return [(list(range(plan.n_segments)), Waveform(extended, w.sample_rate))]
    offsets = plan.offsets
    if not (offsets and plan.length >= 1 and min(offsets) >= 0
            and max(offsets) + plan.length <= len(w)):
        raise ValueError(
            f"segments of {plan.length} samples at offsets {offsets} do not fit "
            f"a {len(w)}-sample utterance"
        )
    return [
        (list(indices), Waveform(w.samples[i0 : i0 + plan.length], w.sample_rate))
        for i0, indices in itertools.groupby(range(len(offsets)), offsets.__getitem__)
    ]


def segment_id(utt_id: str, index: int) -> str:
    """Store id for one segment of an utterance."""
    return f"{utt_id}#{index}"


def score_trials(
    trials: TrialList,
    store: EmbeddingStore,
    mode: str = "raw",
    cohort: EmbeddingStore | None = None,
    top_k: int = 100,
) -> ScoreSet:
    """Score every trial: similarity by mode, then AS-Norm if a cohort is given.

    raw: plain cosine on each pair. msa: the mean of the pairwise segment
    scores; the store holds n embeddings per utterance under segment ids
    #0..#n-1, n being how many the first utterance has in a row, and an
    utterance with more, or n over MAX_N_SEGMENTS, is a ValueError.
    asnorm: raw, with a cohort required. With a cohort, each side is
    normalized by its top-K cohort scores (an MSA side's mean segment
    vector's). A missing trial id is a ValueError, a cohort fault a CohortError.

    The store is read through index arrays (`MeanRows`): a plain store's
    vectors are scored in place, and a segment store's means are formed
    once, TRIAL_CHUNK utterances at a time. Each chunk of trials gathers
    only its own rows and is normalized as it is scored.
    """
    if mode not in ("raw", "asnorm", "msa"):
        raise ValueError(f"unknown scoring mode {mode!r}; expected raw, asnorm, or msa")
    if mode == "asnorm" and cohort is None:
        raise ValueError("asnorm scoring needs a cohort store")
    utts = trials.ids
    enroll, test = np.frombuffer(trials.pairs, np.int64).reshape(-1, 2).T
    if mode != "msa":
        rows = MeanRows(store.vectors, store.row_index(utts))
    else:  # a store without utts[0]#0 then fails on that id
        n_segments = 1
        while (len(utts) and n_segments <= MAX_N_SEGMENTS
               and segment_id(utts[0], n_segments) in store):
            n_segments += 1
        if n_segments > MAX_N_SEGMENTS:
            raise ValueError(f"utterance {utts[0]!r} has more than {MAX_N_SEGMENTS} "
                             "segments in the embedding store")
        extra = [u for u in utts if segment_id(u, n_segments) in store]
        if extra:
            raise ValueError(f"utterance {extra[0]!r} has more than the {n_segments} "
                             f"segments of {utts[0]!r} in the embedding store")
        index = store.row_index([segment_id(u, i) for u in utts for i in range(n_segments)])
        index = index.reshape(len(utts), n_segments)
        means = np.empty((len(utts), store.dim))
        for s in range(0, len(utts), TRIAL_CHUNK):  # store vectors are unit-norm already
            means[s : s + TRIAL_CHUNK] = _unchecked_means(store.vectors[index[s : s + TRIAL_CHUNK]])
        rows = MeanRows(means, np.arange(len(utts)), n_segments)
    if cohort is not None:
        mean, std = cohort_stats(rows, cohort, top_k, lambda i: f"embedding {utts[i]!r}")
    vectors, index = rows.vectors, rows.index
    out = array("d", [0.0]) * len(trials)
    scores = np.frombuffer(out)
    for s in range(0, len(trials), TRIAL_CHUNK):
        e, t = enroll[s : s + TRIAL_CHUNK], test[s : s + TRIAL_CHUNK]
        raw = dot_rows(vectors[index[e]], vectors[index[t]])
        scores[s : s + TRIAL_CHUNK] = (
            raw if cohort is None else asnorm_score(raw, mean[e], std[e], mean[t], std[t]))
    return ScoreSet(trials=trials, scores=out)
