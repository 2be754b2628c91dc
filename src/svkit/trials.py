"""Trial lists, score files, and the binary embedding store.

Text formats are one trial per line: either "label enroll test" (label
in {0, 1}) or "enroll test" for unlabeled lists. Scores are stored
as "enroll test score" lines. Embeddings use the little-endian "EMB1"
binary layout so round-trips are bit-exact. Every text input svkit
reads goes through `read_text` (trial and score files through
`parse_file`); every reader of an input file checks it with `require_file`.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from math import floor, log10
from operator import length_hint
from pathlib import Path
from typing import BinaryIO, Callable, Generator, Iterator, Sequence

import numpy as np

from . import EMB_MAGIC

NORM_TOL = 1e-6  # on an embedding's L2 norm; rounding to float32 moves it under 1e-7
# float32 vector bytes an EMB1 read stages before decoding them to float64
_STAGE_BYTES = 1 << 16
# an EmbeddingStore's array has a multiple of this many rows, so a gemm over
# all of them (`scoring.cohort_stats`) gives each vector's score the same
# bits at any row: BLAS kernels take a separate path for a ragged last block
ROW_ALIGN = 8


class TrialParseError(ValueError):
    """Malformed line of a text input (trials, scores, a fusion model);
    carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message


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


@contextmanager
def output_file(path, mode: str):
    """An output file opened for writing (text is UTF-8). If the block
    fails, the file is removed (never a device or a link), so a failed
    write leaves no partial file."""
    path = Path(path)
    sink = path.open(mode, encoding=None if "b" in mode else "utf-8")
    try:
        with sink:
            yield sink
    except BaseException:
        if path.is_file() and not path.is_symlink():
            path.unlink()
        raise


def read_text(path, what: str) -> str:
    """A text input file, decoded as UTF-8; a bad byte is named with its offset."""
    path = require_file(path, what)
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{what} file {path}: byte {exc.start} is not UTF-8") from None


def parse_file(path, what: str, parse, *args):
    """`parse(text, *args)` over a text input file. A parse error names the
    file: "<path>:<line>: <message>" when it has a line, else "<path>: ..."."""
    text = read_text(path, what)
    try:
        return parse(text, *args)
    except TrialParseError as exc:
        raise ValueError(f"{path}:{exc.line_no}: {exc.message}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


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


class TrialList:
    """Ordered trials held as index arrays over their unique utterance ids.

    A list is built from id sequences or parsed from text (`parse_trials`);
    nothing is held per trial. `TrialList(enroll, test, labels)` pairs
    enroll[k] with test[k], labeled True for same-speaker or False
    (`labels=None` for an unlabeled list); an id is non-empty and holds no
    whitespace. `ids` is an object array holding each utterance id once, in
    first-seen order over every trial's (enroll, test); `enroll` and `test`
    are np.intp arrays indexing into it, one entry per trial. Labels are
    all-or-none and kept as one bool array (None when the list is unlabeled
    or empty). Two lists with the same trials in the same order have equal
    arrays.
    """

    def __init__(self, enroll: Sequence[str], test: Sequence[str],
                 labels: Sequence[bool] | None = None):
        n = len(enroll)
        if len(test) != n or (labels is not None and len(labels) != n):
            raise ValueError("enroll, test and labels must have equal lengths")
        if labels is not None:
            if any(y is None for y in labels):
                raise ValueError("trial labels must be all-or-none")
            labels = np.array(labels, dtype=bool)
        codes = _Codes()
        pairs = codes.of([u for pair in zip(enroll, test) for u in pair])
        for u in codes:
            if u.split() != [u]:  # str.split() splits at every str.isspace character
                raise ValueError(f"utterance id {u!r} is empty or contains whitespace")
        self._set(list(codes), pairs, labels)

    @classmethod
    def _from_codes(cls, ids: list[str], pairs: np.ndarray, labels: np.ndarray | None) -> TrialList:
        """List from its unique ids, the codes [enroll0, test0, enroll1, ...]
        into them and its bool labels (None or empty when unlabeled), unchecked."""
        trial_list = cls.__new__(cls)
        trial_list._set(ids, pairs, labels)
        return trial_list

    def _set(self, ids: list[str], pairs: np.ndarray, labels: np.ndarray | None) -> None:
        self.ids = np.array(ids, dtype=object)
        self.enroll, self.test = pairs.reshape(-1, 2).T
        self._labels = labels if labels is not None and len(labels) else None
        for array in (self.ids, self.enroll, self.test, self._labels):
            if array is not None:
                array.setflags(write=False)

    @property
    def labeled(self) -> bool:
        return self._labels is not None

    def __len__(self) -> int:
        return len(self.enroll)

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


def check_unit(vectors: np.ndarray, label: Callable[[int], str]) -> None:
    """Reject an (n, ..., dim) array if the L2 norm of any of its vectors
    is off 1 by more than NORM_TOL; a NaN norm is off too. The error names
    the first such vector's row i as label(i), built only then."""
    _check_norms(_norms(vectors), label)


def _norms(vectors: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("...j,...j->...", vectors, vectors))  # no n x d temporary


def _check_norms(norms: np.ndarray, label: Callable[[int], str]) -> None:
    off = ~(np.abs(norms - 1.0) <= NORM_TOL)
    if off.any():
        first = tuple(np.argwhere(off)[0])
        raise ValueError(f"{label(first[0])} is not length-normalized "
                         f"(norm {norms[first]:.6g})")


def _aligned_rows(n: int, dim: int) -> np.ndarray:
    """A zeroed float64 array for n vectors of dim, its row count rounded up
    to a multiple of ROW_ALIGN."""
    return np.zeros((-(-n // ROW_ALIGN) * ROW_ALIGN, dim))


class EmbeddingStore:
    """Id-indexed matrix of fixed-dimension, unit-norm speaker embeddings.

    Vectors are rounded to float32 (the on-disk precision) and held,
    read-only, as float64, the precision scoring computes in: a float32
    input, strided or not, is copied once, and `read_embeddings` decodes
    into the array the store keeps. Each must have unit L2 norm within
    NORM_TOL (`check_unit`). That one array is `padded`: its row count is
    rounded up to a multiple of ROW_ALIGN and the rows past the last
    vector are zero. `vectors` is a C-contiguous view of its first
    len(store) rows.
    """

    def __init__(self, ids: Sequence[str], vectors: np.ndarray):
        ids = tuple(str(i) for i in ids)
        with np.errstate(invalid="ignore", over="ignore"):  # _set rejects what these casts flag
            vectors = np.asarray(vectors, dtype=np.float32)
            if vectors.ndim != 2:
                raise ValueError(f"vectors must be 2-D, got shape {vectors.shape}")
            if len(ids) != vectors.shape[0]:
                raise ValueError(f"{len(ids)} ids but {vectors.shape[0]} vectors")
            padded = _aligned_rows(*vectors.shape)
            padded[: len(vectors)] = vectors
        self._set(ids, {u: k for k, u in enumerate(ids)}, padded)

    @classmethod
    def _from_rows(cls, index: dict[str, int], padded: np.ndarray) -> EmbeddingStore:
        """A store that keeps `padded`, an `_aligned_rows` array whose first
        rows are float64 values already rounded to float32, with no copy;
        `index` maps the ids, in row order, to their rows."""
        store = cls.__new__(cls)
        store._set(tuple(index), index, padded)
        return store

    def _set(self, ids: tuple[str, ...], index: dict[str, int], padded: np.ndarray) -> None:
        if padded.shape[1] < 1:
            raise ValueError("embedding dimension must be positive")
        padded.flags.writeable = False  # before the view, which inherits it
        vectors = padded[: len(ids)]
        # squares of float32-range values cannot overflow float64, so a
        # row's norm is finite exactly when all its entries are
        norms = _norms(vectors)
        if not np.isfinite(norms).all():
            raise ValueError("embedding vectors must be finite")
        if len(index) != len(ids):
            raise ValueError("duplicate utterance ids in store")
        _check_norms(norms, lambda i: f"embedding {ids[i]!r}")
        self.ids, self._index, self.padded, self.vectors = ids, index, padded, vectors

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, utt_id: str) -> bool:
        return utt_id in self._index

    def row_index(self, utt_ids: Sequence[str]) -> np.ndarray:
        """The row of `vectors` holding each id, in order; a missing id is a ValueError."""
        try:
            return np.fromiter(map(self._index.__getitem__, utt_ids), np.intp, len(utt_ids))
        except KeyError as exc:
            raise ValueError(f"utterance id {exc.args[0]!r} not in embedding store") from None


# The text layer. parse_trials and parse_scores read text through one
# tokenizer, `_rows`, a chunk of whole lines at a time (proven well-formed at
# C speed, or else split line by line), and run each check once per chunk, a
# column at a time; a line number is looked up only when a check fails.
# Errors come in the per-line reference's order: a malformed line first, in
# line order; then a score file's line count; then its first wrong pair.

_CHUNK_CHARS = 1 << 16
# score lines per chunk of written score text: about 250 KB of text
SCORE_CHUNK = 8192
# each "\n" becomes the token "\x00", so no chunk holding a NUL is proven;
# nor is one holding a line break of str.splitlines() other than "\n"
_LOOP_ONLY = ("\x00", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def _rows(text: str, width: int) -> Iterator[tuple[list[str], Sequence[int]]]:
    """(the fields of its rows, row-major; the line number of each row) for
    each chunk of about _CHUNK_CHARS of whole lines of `text`. A row is a
    non-blank line of str.splitlines(), its fields those of str.split(); a
    row of other than `width` fields is a TrialParseError, raised once the
    rows before it are yielded. A chunk is proven at C speed when its every
    line ends at "\\n" (or the end of the text) and has `width` fields;
    any other chunk is split line by line (`_split_rows`)."""
    step = width + 1
    start, line_no = 0, 1
    while start < len(text):
        end = text.find("\n", start + _CHUNK_CHARS) + 1 or len(text)
        chunk = text[start:end]
        start = end
        if not any(c in chunk for c in _LOOP_ONLY):
            if not chunk.endswith("\n"):
                chunk += "\n"
            tokens = chunk.replace("\n", " \x00 ").split()
            lines = chunk.count("\n")
            # exactly `lines` markers exist, so a marker at every step-th token
            # and nowhere else leaves `width` fields on every line
            if len(tokens) == lines * step and tokens[width::step].count("\x00") == lines:
                del tokens[width::step]
                yield tokens, range(line_no, line_no + lines)
                line_no += lines
                continue
        line_no = yield from _split_rows(chunk, width, line_no)


def _split_rows(chunk: str, width: int,
                line_no: int) -> Generator[tuple[list[str], list[int]], None, int]:
    """`_rows` of a chunk it cannot prove, split line by line, the chunk's
    first line being line `line_no`; returns the number of the line after it."""
    fields, numbers = [], []
    lines = chunk.splitlines()
    for k, line in enumerate(lines, start=line_no):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != width:
            yield fields, numbers
            raise TrialParseError(k, f"expected {width} fields, got {len(tokens)}")
        fields += tokens
        numbers.append(k)
    yield fields, numbers
    return line_no + len(lines)


class _Codes(dict):
    """Utterance id -> code, codes in first-seen order: looking up an id not
    yet held stores it under the next code, len(self)."""

    def __missing__(self, utt_id: str) -> int:
        code = self[utt_id] = len(self)
        return code

    def of(self, ids: Sequence[str]) -> np.ndarray:
        """The code of each of `ids`, in order, as one np.intp array."""
        return np.fromiter(map(self.__getitem__, ids), np.intp, len(ids))


def parse_trials(text: str, labeled: bool | None) -> TrialList:
    """Parse a trial list from text.

    Labeled lines are "label enroll test" with label in {0, 1}; unlabeled
    lines are "enroll test". With `labeled=None` the first non-blank line
    decides: three fields make the list labeled, any other count unlabeled.
    Blank lines are skipped. Duplicate pairs are allowed; order is preserved.
    """
    if labeled is None:
        head = text.lstrip()  # the text itself when its first line is not blank
        head = head[: head.find("\n") + 1 or None].splitlines()
        labeled = bool(head) and len(head[0].split()) == 3
    # ids are tokens of str.split(), so they are non-empty and hold no
    # whitespace: the checks TrialList() makes on its ids cannot fail here
    codes = _Codes()
    pairs, marks = [], []
    for fields, line_nos in _rows(text, 3 if labeled else 2):
        if labeled:
            column = fields[::3]
            bad = set(column) - {"0", "1"}
            if bad:
                k = min(map(column.index, bad))
                raise TrialParseError(line_nos[k], f"label must be 0 or 1, got {column[k]!r}")
            marks.append("".join(column))
            del fields[::3]
        pairs.append(codes.of(fields))
    labels = np.frombuffer("".join(marks).encode(), np.uint8) == ord("1")
    pairs = np.concatenate(pairs) if pairs else np.empty(0, np.intp)
    return TrialList._from_codes(list(codes), pairs, labels)


def _score_decimals(scores: np.ndarray) -> np.ndarray:
    """The number of decimals that writes each score positionally with at
    least 9 significant digits: max(0, 8 - floor(log10|v|)), 9 for ±0."""
    magnitude = np.abs(scores)
    zero = magnitude == 0.0
    logs = np.log10(np.where(zero, 1.0, magnitude))
    exponents = np.floor(logs)
    # np.log10 may differ from math.log10 in the last bits, which moves the
    # floor only for a log next to an integer: those take math.log10's floor
    for k in np.flatnonzero(~zero & (np.abs(logs - np.rint(logs)) < 1e-9)).tolist():
        exponents[k] = floor(log10(magnitude[k]))
    decimals = np.maximum(0.0, 8.0 - exponents).astype(np.intp)
    decimals[zero] = 9
    return decimals


def score_text_chunks(score_set: ScoreSet) -> Iterator[str]:
    """serialize_scores' text, SCORE_CHUNK lines at a time, so no whole
    score file is ever held: each chunk applies one %-format per precision
    in use in one call."""
    trials, scores = score_set.trials, score_set.scores
    for s in range(0, len(scores), SCORE_CHUNK):
        chunk = scores[s : s + SCORE_CHUNK]
        decimals = _score_decimals(chunk).tolist()
        line_formats = {d: f"%s %s %.{d}f\n" for d in set(decimals)}
        fields: list = [None] * (3 * len(chunk))
        fields[0::3] = trials.ids[trials.enroll[s : s + SCORE_CHUNK]].tolist()
        fields[1::3] = trials.ids[trials.test[s : s + SCORE_CHUNK]].tolist()
        fields[2::3] = np.where(chunk == 0.0, 0.0, chunk).tolist()  # -0.0 writes as 0
        yield "".join(map(line_formats.__getitem__, decimals)) % tuple(fields)


def serialize_scores(score_set: ScoreSet) -> str:
    """One "enroll test score" line per trial, each score written
    positionally with at least 9 significant digits (`_score_decimals`)."""
    return "".join(score_text_chunks(score_set))


def _floats(tokens: list[str]) -> np.ndarray:
    """float() of each of `tokens`, up to the first that float() rejects."""
    rest = iter(tokens)
    try:
        return np.fromiter(map(float, rest), np.float64, len(tokens))
    except ValueError:  # `rest` stopped just past the rejected token
        return _floats(tokens[: len(tokens) - 1 - length_hint(rest)])


def parse_scores(text: str, trials: TrialList) -> ScoreSet:
    """Parse the "enroll test score" lines written for `trials`: one per trial,
    in its order, each score finite. A malformed line is a TrialParseError,
    found before any line is checked against the list; a pair or count that
    does not fit it is a ValueError. The set carries `trials`, labels and all."""
    want_ids = np.stack((trials.enroll, trials.test), axis=1)
    chunks = []
    done = 0  # rows read
    mismatch = None  # the error for the first pair that is not the list's
    for fields, line_nos in _rows(text, 3):
        values = fields[2::3]
        scores = _floats(values)
        bad = np.flatnonzero(~np.isfinite(scores))
        if len(bad):
            k = bad[0]
            raise TrialParseError(line_nos[k], f"non-finite score {values[k]!r}")
        if len(scores) < len(values):
            raise TrialParseError(line_nos[len(scores)], f"bad score {values[len(scores)]!r}")
        chunks.append(scores)
        done += len(scores)
        if mismatch is None and done <= len(trials):  # else the count is the error
            del fields[2::3]
            want = trials.ids[want_ids[done - len(scores) : done]].ravel().tolist()
            if fields != want:
                k = next(k for k in range(0, len(fields), 2) if fields[k : k + 2] != want[k : k + 2])
                mismatch = (f"score line {line_nos[k // 2]} is for ({fields[k]}, {fields[k + 1]}), "
                            f"trial list has ({want[k]}, {want[k + 1]})")
    if done != len(trials):
        raise ValueError(f"score file has {done} lines for {len(trials)} trials")
    if mismatch:
        raise ValueError(mismatch)
    return ScoreSet(trials, np.concatenate(chunks) if chunks else np.empty(0))


def write_embeddings(store: EmbeddingStore, sink: BinaryIO) -> None:
    """Write the EMB1 binary layout.

    Layout: magic "EMB1", u32 dim, u64 record count, then per record a
    u16 id byte length, the UTF-8 id bytes, and dim little-endian f32.
    Every id is checked before the first write, so an id the layout
    cannot hold writes nothing.
    """
    encoded = [utt_id.encode("utf-8") for utt_id in store.ids]
    for utt_id, id_bytes in zip(store.ids, encoded):
        if len(id_bytes) > 0xFFFF:
            raise ValueError(f"utterance id longer than 65535 bytes: {utt_id[:40]!r}...")
    sink.write(EMB_MAGIC)
    sink.write(struct.pack("<IQ", store.dim, len(store)))
    le_vectors = store.vectors.astype("<f4", copy=False)
    for k, id_bytes in enumerate(encoded):
        sink.write(struct.pack("<H", len(id_bytes)))
        sink.write(id_bytes)
        sink.write(le_vectors[k].tobytes())


def read_embeddings(source: BinaryIO) -> EmbeddingStore:
    """Inverse of write_embeddings over a seekable source, from its
    position to its end. The records are streamed, every read clamped to
    the bytes left, and each vector is decoded into the store's float64
    array, which the header's count sizes only as far as the bytes left
    can hold it: that array is the one full-size allocation of a load.
    Bytes after the last record are an error, and every vector must be
    unit-norm (`EmbeddingStore`)."""
    start = source.tell()
    size = source.seek(0, os.SEEK_END) - start
    source.seek(start)

    def take(n: int, what: str) -> bytes:
        nonlocal offset
        chunk = source.read(min(n, size - offset))
        if len(chunk) != n:
            raise StoreFormatError(offset, f"truncated {what} ({len(chunk)} of {n} bytes)")
        offset += n
        return chunk

    magic = source.read(min(4, size))
    if magic != EMB_MAGIC:
        raise StoreFormatError(0, f"bad magic {magic!r}, expected {EMB_MAGIC!r}")
    offset = 4
    dim, count = struct.unpack("<IQ", take(12, "header"))
    if dim < 1:
        raise StoreFormatError(4, f"non-positive dimension {dim}")
    width = 4 * dim
    # a record takes at least 2 + width bytes, so record k's vector can be
    # whole only if k < rows: past that, the bytes left fall short
    # of it. Vectors are read into float32 blocks, each decoded in one copy
    rows = min(count, (size - offset) // (2 + width))
    vectors = _aligned_rows(rows, dim)
    stage = np.empty((min(rows, max(1, _STAGE_BYTES // width)), dim), "<f4")
    index: dict[str, int] = {}
    done = 0  # rows decoded into vectors
    # a signalling NaN flags `invalid` as it decodes; the store rejects it as not finite
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(count):
            record_offset = offset
            (id_len,) = struct.unpack("<H", take(2, "id length"))
            try:
                utt_id = str(take(id_len, "id bytes"), "utf-8")
            except UnicodeDecodeError:
                raise StoreFormatError(record_offset, "id is not UTF-8") from None
            if index.setdefault(utt_id, k) != k:
                raise StoreFormatError(record_offset, f"duplicate id {utt_id!r}")
            got = source.readinto(stage[k - done]) if k < rows else size - offset
            if got != width:
                raise StoreFormatError(offset, f"truncated vector ({got} of {width} bytes)")
            offset += width
            if k + 1 - done == len(stage) or k + 1 == count:
                vectors[done : k + 1] = stage[: k + 1 - done]
                done = k + 1
    if offset != size:
        raise StoreFormatError(offset, f"{size - offset} bytes after the last of {count} records")
    return EmbeddingStore._from_rows(index, vectors)


def write_embeddings_file(store: EmbeddingStore, path) -> None:
    with output_file(path, "wb") as sink:
        write_embeddings(store, sink)


def read_embeddings_file(path, what: str = "embeddings") -> EmbeddingStore:
    """`read_embeddings` of a file; `what` names it if it is not a regular file."""
    path = require_file(path, what)
    with open(path, "rb") as source:
        try:
            return read_embeddings(source)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
