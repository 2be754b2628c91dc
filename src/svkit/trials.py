"""Trial lists, score files, and the binary embedding store.

Text formats are one trial per line: either "label enroll test" (label
in {0, 1}) or "enroll test" for unlabeled lists. Scores are stored
as "enroll test score" lines. Embeddings use the little-endian "EMB1"
binary layout so round-trips are bit-exact. Every text input svkit
reads goes through `read_text`, every other input file through `require_file`.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from math import floor, isfinite, log10
from pathlib import Path
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


def require_file(path, what: str) -> Path:
    """The path of a regular file, checked before any whole-file read (so
    /dev/zero is never read); anything else is a ValueError."""
    path = Path(path)
    if not os.path.isfile(path):  # False, not OSError, for an over-long name
        raise ValueError(f"{what} file not found: {path}")
    return path


def read_text(path, what: str) -> str:
    """A text input file, decoded as UTF-8; a bad byte is named with its offset."""
    path = require_file(path, what)
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{what} file {path}: byte {exc.start} is not UTF-8") from None


def read_path_list(path, what: str) -> list[tuple[int, str, Path]]:
    """(line number, key, path) for each "<key> <path>" line, blank lines
    skipped. The path is the rest of the line, stripped, resolved against
    the list's directory (an absolute path replaces it)."""
    path = Path(path)
    entries = []
    for line_no, raw in enumerate(read_text(path, what).splitlines(), start=1):
        tokens = raw.split(None, 1)
        if not tokens:
            continue
        if len(tokens) != 2:
            raise ValueError(f"{path}:{line_no}: expected '<key> <path>'")
        entries.append((line_no, tokens[0], path.parent / tokens[1].strip()))
    return entries


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


class TrialList:
    """Ordered trials held as index arrays over their unique utterance ids.

    `ids` is an object array holding each utterance id once, in first-seen
    order over every trial's (enroll, test); `enroll` and `test` are np.intp
    arrays indexing into it, one entry per trial. Labels are all-or-none and
    kept as one bool array (None when the list is unlabeled or empty).
    Nothing is held per trial: `Trial` objects are built only on iteration.
    Two lists with the same trials in the same order have equal arrays.
    """

    def __init__(self, trials: Sequence[Trial] = ()):
        has_label = [t.label is not None for t in trials]
        if any(has_label) and not all(has_label):
            raise ValueError("trial labels must be all-or-none")
        flat_ids = [u for t in trials for u in (t.enroll_id, t.test_id)]
        self._intern(flat_ids, [t.label for t in trials] if any(has_label) else None)

    @classmethod
    def _from_flat_ids(cls, flat_ids: list[str], labels: list[bool] | None) -> TrialList:
        """List from the ids [enroll0, test0, enroll1, test1, ...], unchecked."""
        trial_list = cls.__new__(cls)
        trial_list._intern(flat_ids, labels)
        return trial_list

    def _intern(self, flat_ids: list[str], labels: list[bool] | None) -> None:
        ids = list(dict.fromkeys(flat_ids))
        code = dict(zip(ids, range(len(ids))))
        pairs = np.fromiter(map(code.__getitem__, flat_ids), np.intp, len(flat_ids))
        self.ids = np.array(ids, dtype=object)
        self.enroll, self.test = pairs.reshape(-1, 2).T
        self._labels = np.array(labels, dtype=bool) if labels else None
        for array in (self.ids, self.enroll, self.test, self._labels):
            if array is not None:
                array.setflags(write=False)

    @property
    def labeled(self) -> bool:
        return self._labels is not None

    @property
    def trials(self) -> tuple[Trial, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return len(self.enroll)

    def __iter__(self) -> Iterator[Trial]:
        ids = self.ids
        labels = self._labels.tolist() if self.labeled else [None] * len(self)
        for e, t, label in zip(self.enroll.tolist(), self.test.tolist(), labels):
            yield Trial(ids[e], ids[t], label)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrialList):
            return NotImplemented
        return self is other or (
            np.array_equal(self.ids, other.ids)
            and np.array_equal(self.enroll, other.enroll)
            and np.array_equal(self.test, other.test)
            and np.array_equal(self._labels, other._labels)
        )

    def labels(self) -> np.ndarray:
        """Boolean label vector (read-only); only valid for labeled lists."""
        if not self.labeled:
            raise ValueError("trial list is unlabeled")
        return self._labels

    def pair_ids(self) -> tuple[np.ndarray, np.ndarray]:
        """(enroll ids, test ids) as object arrays, one entry per trial."""
        return self.ids[self.enroll], self.ids[self.test]


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
    # ids are tokens of str.split(), so they are non-empty and hold no
    # whitespace: the checks Trial makes on its ids cannot fail here
    want = 3 if labeled else 2
    fields: list[str] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if len(tokens) != want:
            if not tokens:
                continue
            raise TrialParseError(line_no, f"expected {want} fields, got {len(tokens)}")
        if labeled and tokens[0] not in ("0", "1"):
            raise TrialParseError(line_no, f"label must be 0 or 1, got {tokens[0]!r}")
        fields += tokens
    labels = None
    if labeled:
        labels = [y == "1" for y in fields[::3]]
        del fields[::3]
    return TrialList._from_flat_ids(fields, labels)


def serialize_trials(trial_list: TrialList) -> str:
    """Inverse of parse_trials, one trial per line."""
    enroll, test = (ids.tolist() for ids in trial_list.pair_ids())
    if trial_list.labeled:
        labels = trial_list.labels().astype(int).tolist()
        return "".join(f"{y} {e} {t}\n" for y, e, t in zip(labels, enroll, test))
    return "".join(f"{e} {t}\n" for e, t in zip(enroll, test))


def format_score(value: float) -> str:
    """Format a score with at least 9 significant digits, positionally."""
    v = float(value)
    if v == 0.0:
        return "0.000000000"
    decimals = max(0, 9 - (floor(log10(abs(v))) + 1))
    return f"{v:.{decimals}f}"


def serialize_scores(score_set: ScoreSet) -> str:
    """One "enroll test score" line per trial."""
    enroll, test = (ids.tolist() for ids in score_set.trials.pair_ids())
    scores = score_set.scores.tolist()
    return "".join(f"{e} {t} {format_score(s)}\n" for e, t, s in zip(enroll, test, scores))


def parse_scores(text: str, trials: TrialList | None = None) -> ScoreSet:
    """Parse "enroll test score" lines; a score must be finite.

    When `trials` is given, every line must match it pairwise in order (the
    parsed set then carries its labels); otherwise an unlabeled TrialList is
    reconstructed from the score file itself.
    """
    flat_ids: list[str] = []
    scores: list[float] = []
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
        if not isfinite(value):
            raise TrialParseError(line_no, f"non-finite score {tokens[2]!r}")
        flat_ids += tokens[:2]
        scores.append(value)
    if trials is None:
        trials = TrialList._from_flat_ids(flat_ids, None)
    elif len(scores) != len(trials):
        raise ValueError(f"score file has {len(scores)} lines for {len(trials)} trials")
    else:
        got = np.array(flat_ids, dtype=object).reshape(-1, 2)
        want_e, want_t = trials.pair_ids()
        bad = np.flatnonzero((got[:, 0] != want_e) | (got[:, 1] != want_t))
        if len(bad):
            k = bad[0]
            # the file line of entry k, counted only on this error path
            line_no = [n for n, raw in enumerate(text.splitlines(), 1) if raw.split()][k]
            raise ValueError(
                f"score line {line_no} is for ({got[k, 0]}, {got[k, 1]}), trial list has "
                f"({want_e[k]}, {want_t[k]})"
            )
    return ScoreSet(trials, np.array(scores, dtype=np.float64))


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
        id_bytes = take(id_len, "id bytes")
        try:
            utt_id = str(id_bytes, "utf-8")
        except UnicodeDecodeError:
            raise StoreFormatError(record_offset, "id is not UTF-8") from None
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
