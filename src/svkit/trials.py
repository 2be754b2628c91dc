"""Trial lists, score files, and the binary embedding store.

Text formats are one trial per line: either "label enroll test" (label
in {0, 1}) or "enroll test" for unlabeled lists. Scores are stored
as "enroll test score" lines. Embeddings use the little-endian "EMB1"
binary layout so round-trips are bit-exact.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from math import floor, log10
from typing import BinaryIO, Iterator, Sequence

import numpy as np

EMB_MAGIC = b"EMB1"


class TrialParseError(ValueError):
    """Malformed trial or score line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class StoreFormatError(ValueError):
    """Corrupt embedding store; carries the byte offset of the problem."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset


@dataclass(frozen=True)
class Trial:
    """One (enrollment, test) utterance pair, optionally labeled.

    label is True for same-speaker, False for different-speaker, None for
    unlabeled trials.
    """

    enroll_id: str
    test_id: str
    label: bool | None = None

    def __post_init__(self):
        for name, value in (("enroll_id", self.enroll_id), ("test_id", self.test_id)):
            if not value:
                raise ValueError(f"{name} must be non-empty")
            if any(c.isspace() for c in value):
                raise ValueError(f"{name} {value!r} contains whitespace")


@dataclass(frozen=True)
class TrialList:
    """Ordered trials with all-or-none labeling."""

    trials: tuple[Trial, ...]
    labeled: bool = field(init=False)

    def __post_init__(self):
        has_label = [t.label is not None for t in self.trials]
        if any(has_label) and not all(has_label):
            raise ValueError("trial labels must be all-or-none")
        object.__setattr__(self, "labeled", bool(has_label) and all(has_label))

    def __len__(self) -> int:
        return len(self.trials)

    def __iter__(self) -> Iterator[Trial]:
        return iter(self.trials)

    def labels(self) -> np.ndarray:
        """Boolean label vector; only valid for labeled lists."""
        if not self.labeled:
            raise ValueError("trial list is unlabeled")
        return np.array([t.label for t in self.trials], dtype=bool)

    def utterance_ids(self) -> list[str]:
        """Unique utterance ids over both sides, in first-seen order."""
        seen: dict[str, None] = {}
        for t in self.trials:
            seen.setdefault(t.enroll_id)
            seen.setdefault(t.test_id)
        return list(seen)


@dataclass(frozen=True)
class ScoreSet:
    """Per-trial scalar scores aligned 1:1 with a TrialList."""

    trials: TrialList
    scores: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.ndim != 1 or len(scores) != len(self.trials):
            raise ValueError(
                f"expected {len(self.trials)} scores, got shape {scores.shape}"
            )
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores must be finite")
        object.__setattr__(self, "scores", scores)

    def __len__(self) -> int:
        return len(self.trials)


class EmbeddingStore:
    """Id-indexed matrix of fixed-dimension speaker embeddings.

    Vectors are rounded to float32 (the on-disk precision) and held as
    float64, the precision scoring computes in. `normalized` asserts every
    vector has unit L2 norm within 1e-6.
    """

    def __init__(self, ids: Sequence[str], vectors: np.ndarray, normalized: bool = False):
        vectors = np.ascontiguousarray(vectors, dtype=np.float32).astype(np.float64)
        if vectors.ndim != 2:
            raise ValueError(f"vectors must be 2-D, got shape {vectors.shape}")
        if len(ids) != vectors.shape[0]:
            raise ValueError(f"{len(ids)} ids but {vectors.shape[0]} vectors")
        if vectors.shape[1] < 1:
            raise ValueError("embedding dimension must be positive")
        if not np.all(np.isfinite(vectors)):
            raise ValueError("embedding vectors must be finite")
        self.ids = tuple(str(i) for i in ids)
        self._index = {u: k for k, u in enumerate(self.ids)}
        if len(self._index) != len(self.ids):
            raise ValueError("duplicate utterance ids in store")
        if normalized and len(self.ids):
            norms = np.sqrt(np.einsum("ij,ij->i", vectors, vectors))  # no n x d temporary
            worst = float(np.max(np.abs(norms - 1.0)))
            if worst > 1e-6:
                raise ValueError(f"normalized store has norm off by {worst:.3g}")
        self.vectors = vectors
        self.normalized = bool(normalized)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, utt_id: str) -> bool:
        return utt_id in self._index

    def get(self, utt_id: str) -> np.ndarray:
        try:
            return self.vectors[self._index[utt_id]]
        except KeyError:
            raise KeyError(f"utterance id {utt_id!r} not in embedding store") from None

    def rows(self, utt_ids: Sequence[str]) -> np.ndarray:
        """Stacked vectors for the given ids, in order; a missing id is a ValueError."""
        try:
            index = [self._index[u] for u in utt_ids]
        except KeyError as exc:
            raise ValueError(f"utterance id {exc.args[0]!r} not in embedding store") from None
        return self.vectors[index]


def parse_trials(text: str, labeled: bool) -> TrialList:
    """Parse a trial list from text.

    Labeled lines are "label enroll test" with label in {0, 1}; unlabeled
    lines are "enroll test". Blank lines are skipped. Duplicate pairs are
    allowed; order is preserved.
    """
    trials = []
    want = 3 if labeled else 2
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        if len(tokens) != want:
            raise TrialParseError(line_no, f"expected {want} fields, got {len(tokens)}")
        if labeled:
            if tokens[0] not in ("0", "1"):
                raise TrialParseError(line_no, f"label must be 0 or 1, got {tokens[0]!r}")
            trials.append(Trial(tokens[1], tokens[2], tokens[0] == "1"))
        else:
            trials.append(Trial(tokens[0], tokens[1]))
    return TrialList(tuple(trials))


def serialize_trials(trial_list: TrialList) -> str:
    """Inverse of parse_trials, one trial per line."""
    lines = []
    for t in trial_list:
        if trial_list.labeled:
            lines.append(f"{int(t.label)} {t.enroll_id} {t.test_id}")
        else:
            lines.append(f"{t.enroll_id} {t.test_id}")
    return "".join(line + "\n" for line in lines)


def format_score(value: float) -> str:
    """Format a score with at least 9 significant digits, positionally."""
    v = float(value)
    if v == 0.0:
        return "0.000000000"
    decimals = max(0, 9 - (floor(log10(abs(v))) + 1))
    return f"{v:.{decimals}f}"


def serialize_scores(score_set: ScoreSet) -> str:
    """One "enroll test score" line per trial."""
    lines = []
    for t, s in zip(score_set.trials, score_set.scores):
        lines.append(f"{t.enroll_id} {t.test_id} {format_score(s)}")
    return "".join(line + "\n" for line in lines)


def parse_scores(text: str, trials: TrialList | None = None) -> ScoreSet:
    """Parse "enroll test score" lines.

    When `trials` is given, every line must match it pairwise in order (the
    parsed set then carries its labels); otherwise an unlabeled TrialList is
    reconstructed from the score file itself.
    """
    pairs = []
    scores = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        if len(tokens) != 3:
            raise TrialParseError(line_no, f"expected 3 fields, got {len(tokens)}")
        try:
            value = float(tokens[2])
        except ValueError:
            raise TrialParseError(line_no, f"bad score {tokens[2]!r}") from None
        pairs.append((tokens[0], tokens[1]))
        scores.append(value)
    if trials is not None:
        if len(pairs) != len(trials):
            raise ValueError(f"score file has {len(pairs)} lines for {len(trials)} trials")
        for k, (t, (e, s)) in enumerate(zip(trials, pairs)):
            if (t.enroll_id, t.test_id) != (e, s):
                raise ValueError(
                    f"score line {k + 1} is for ({e}, {s}), trial list has "
                    f"({t.enroll_id}, {t.test_id})"
                )
        return ScoreSet(trials, np.array(scores, dtype=np.float64))
    rebuilt = TrialList(tuple(Trial(e, s) for e, s in pairs))
    return ScoreSet(rebuilt, np.array(scores, dtype=np.float64))


def write_embeddings(store: EmbeddingStore, sink: BinaryIO) -> None:
    """Write the EMB1 binary layout.

    Layout: magic "EMB1", u32 dim, u64 record count, then per record a
    u16 id byte length, the UTF-8 id bytes, and dim little-endian f32.
    """
    sink.write(EMB_MAGIC)
    sink.write(struct.pack("<IQ", store.dim, len(store)))
    le_vectors = store.vectors.astype("<f4", copy=False)
    for k, utt_id in enumerate(store.ids):
        id_bytes = utt_id.encode("utf-8")
        if len(id_bytes) > 0xFFFF:
            raise ValueError(f"utterance id longer than 65535 bytes: {utt_id[:40]!r}...")
        sink.write(struct.pack("<H", len(id_bytes)))
        sink.write(id_bytes)
        sink.write(le_vectors[k].tobytes())


def read_embeddings(source: BinaryIO, normalized: bool = False) -> EmbeddingStore:
    """Inverse of write_embeddings; the source is read once, whole, and bounds-checked."""
    data = memoryview(source.read())

    def take(n: int, what: str) -> memoryview:
        nonlocal offset
        chunk = data[offset : offset + n]
        if len(chunk) != n:
            raise StoreFormatError(offset, f"truncated {what} ({len(chunk)} of {n} bytes)")
        offset += n
        return chunk

    magic = bytes(data[:4])
    if magic != EMB_MAGIC:
        raise StoreFormatError(0, f"bad magic {magic!r}, expected {EMB_MAGIC!r}")
    offset = 4
    dim, count = struct.unpack("<IQ", take(12, "header"))
    if dim < 1:
        raise StoreFormatError(4, f"non-positive dimension {dim}")
    ids: dict[str, None] = {}
    vector_bytes = bytearray()
    for _ in range(count):
        record_offset = offset
        (id_len,) = struct.unpack("<H", take(2, "id length"))
        utt_id = str(take(id_len, "id bytes"), "utf-8")
        if utt_id in ids:
            raise StoreFormatError(record_offset, f"duplicate id {utt_id!r}")
        ids[utt_id] = None
        vector_bytes += take(4 * dim, "vector")
    vectors = np.frombuffer(vector_bytes, dtype="<f4").reshape(len(ids), dim)
    return EmbeddingStore(list(ids), vectors, normalized=normalized)


def write_embeddings_file(store: EmbeddingStore, path) -> None:
    with open(path, "wb") as sink:
        write_embeddings(store, sink)


def read_embeddings_file(path, normalized: bool = False) -> EmbeddingStore:
    with open(path, "rb") as source:
        return read_embeddings(source, normalized=normalized)
