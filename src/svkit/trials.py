"""Trial lists, score files, and the file layer every command reads through.

Text formats are one trial per line: either "label enroll test" (label
in {0, 1}) or "enroll test" for unlabeled lists. Scores are stored
as "enroll test score" lines. Every text input svkit reads goes through
`read_text` (trial and score files through `parse_file`); every reader
of an input file checks it with `require_file`. Embedding store files
are read and written here, in the layout of `svkit.store`.

This module loads no numpy: a trial list and a score set are stdlib
arrays, which numpy code views with `np.frombuffer`, copying nothing.
The score writer and the store files import numpy when they run; the
parsers never do, whatever a list's length.
"""

from __future__ import annotations

import os
from array import array
from contextlib import contextmanager
from math import floor, isfinite, log10
from operator import itemgetter, length_hint
from pathlib import Path
from struct import pack
from typing import TYPE_CHECKING, Generator, Iterator, Sequence

if TYPE_CHECKING:
    from .store import EmbeddingStore


class TrialParseError(ValueError):
    """Malformed line of a text input (trials, scores, a fusion model);
    carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message


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
    whitespace. `ids` is a tuple holding each utterance id once, in
    first-seen order over every trial's (enroll, test). `pairs` is a
    read-only memoryview of the array('q') of codes into it, [enroll0,
    test0, enroll1, ...], and `enroll` and `test` are its two strided
    views, one code per trial. Labels are all-or-none and kept as one bytes
    object, 1 for a target and 0 for a nontarget (None when the list is
    unlabeled or empty). Two lists with the same trials in the same order
    are equal.
    """

    def __init__(self, enroll: Sequence[str], test: Sequence[str],
                 labels: Sequence[bool] | None = None):
        n = len(enroll)
        if len(test) != n or (labels is not None and len(labels) != n):
            raise ValueError("enroll, test and labels must have equal lengths")
        if labels is not None:
            if any(y is None for y in labels):
                raise ValueError("trial labels must be all-or-none")
            labels = bytes(map(bool, labels))
        codes = _Codes()
        pairs = codes.of([u for pair in zip(enroll, test) for u in pair])
        for u in codes:
            if u.split() != [u]:  # str.split() splits at every str.isspace character
                raise ValueError(f"utterance id {u!r} is empty or contains whitespace")
        self._set(tuple(codes), pairs, labels)

    @classmethod
    def _from_codes(cls, ids: Sequence[str], pairs: Sequence[int],
                    labels: bytes | None) -> TrialList:
        """List from its unique ids, the codes [enroll0, test0, enroll1, ...]
        into them and its 0/1 label bytes (None or empty when unlabeled),
        unchecked."""
        trial_list = cls.__new__(cls)
        trial_list._set(tuple(ids), array("q", pairs), labels)
        return trial_list

    def _set(self, ids: tuple[str, ...], pairs: array, labels: bytes | None) -> None:
        self.ids = ids
        self.pairs = memoryview(pairs).toreadonly()
        self.enroll, self.test = self.pairs[0::2], self.pairs[1::2]
        self._labels = labels or None

    @property
    def labeled(self) -> bool:
        return self._labels is not None

    def __len__(self) -> int:
        return len(self.enroll)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrialList):
            return NotImplemented
        return self is other or (
            self.ids == other.ids
            and self.pairs == other.pairs
            and self._labels == other._labels
        )

    def labels(self) -> bytes:
        """One byte per trial, 1 for a target and 0 for a nontarget; only
        valid for labeled lists."""
        if not self.labeled:
            raise ValueError("trial list is unlabeled")
        return self._labels


class ScoreSet:
    """Per-trial scalar scores aligned 1:1 with a TrialList.

    `scores` is an array('d') of finite values. One is kept as given;
    any other sequence of numbers is copied into one, a float64 buffer
    (a numpy array, say) at C speed."""

    __slots__ = ("trials", "scores")

    def __init__(self, trials: TrialList, scores):
        scores = _doubles(scores, len(trials))
        # a sum of finite values is finite unless it overflows
        if not isfinite(sum(scores)) and not all(map(isfinite, scores)):
            raise ValueError("scores must be finite")
        self.trials, self.scores = trials, scores

    def __len__(self) -> int:
        return len(self.trials)


def _doubles(values, count: int) -> array:
    """`values`, `count` numbers, as an array('d'): itself if it is one; a
    buffer is copied, at C speed when it holds native doubles."""
    if isinstance(values, array) and values.typecode == "d":
        doubles = values
    else:
        try:
            view = memoryview(values)
        except TypeError:  # a list, say
            view = None
        if view is None:
            doubles = array("d", values)
        elif view.ndim != 1:
            raise ValueError(f"expected {count} scores, got shape {view.shape}")
        elif view.format != "d" or not view.c_contiguous:
            doubles = array("d", view.tolist())
        else:
            doubles = array("d")
            doubles.frombytes(view.cast("B"))
    if len(doubles) != count:
        raise ValueError(f"expected {count} scores, got shape ({len(doubles)},)")
    return doubles


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

    def of(self, ids: Sequence[str]) -> array:
        """The code of each of `ids`, in order, as one array('q')."""
        return array("q", _packed("q", list(map(self.__getitem__, ids))))


def _packed(typecode: str, values: list) -> bytes:
    """The bytes of array(typecode, values): struct converts each value at C
    speed, where array() parses each as a generic argument."""
    return pack(f"{len(values)}{typecode}", *values)


# label characters of a trial line to the bytes of TrialList labels
_LABEL_BYTES = bytes.maketrans(b"01", b"\x00\x01")


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
    pairs, marks = array("q"), []
    for fields, line_nos in _rows(text, 3 if labeled else 2):
        if labeled:
            column = fields[::3]
            bad = set(column) - {"0", "1"}
            if bad:
                k = min(map(column.index, bad))
                raise TrialParseError(line_nos[k], f"label must be 0 or 1, got {column[k]!r}")
            marks.append("".join(column))
            del fields[::3]
        pairs += codes.of(fields)
    labels = "".join(marks).encode().translate(_LABEL_BYTES)
    return TrialList._from_codes(list(codes), pairs, labels)


def _score_decimals(scores):
    """The number of decimals that writes each of an np.ndarray of scores
    positionally with at least 9 significant digits:
    max(0, 8 - floor(log10|v|)), 9 for ±0."""
    import numpy as np

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
    import numpy as np

    ids = np.array(score_set.trials.ids, dtype=object)
    pairs = np.frombuffer(score_set.trials.pairs, np.int64).reshape(-1, 2)
    scores = np.frombuffer(score_set.scores)
    for s in range(0, len(scores), SCORE_CHUNK):
        chunk = scores[s : s + SCORE_CHUNK]
        decimals = _score_decimals(chunk).tolist()
        line_formats = {d: f"%s %s %.{d}f\n" for d in set(decimals)}
        fields: list = [None] * (3 * len(chunk))
        names = ids[pairs[s : s + SCORE_CHUNK]]
        fields[0::3] = names[:, 0].tolist()
        fields[1::3] = names[:, 1].tolist()
        fields[2::3] = np.where(chunk == 0.0, 0.0, chunk).tolist()  # -0.0 writes as 0
        yield "".join(map(line_formats.__getitem__, decimals)) % tuple(fields)


def serialize_scores(score_set: ScoreSet) -> str:
    """One "enroll test score" line per trial, each score written
    positionally with at least 9 significant digits (`_score_decimals`)."""
    return "".join(score_text_chunks(score_set))


def _floats(tokens: list[str]) -> list[float]:
    """float() of each of `tokens`, up to the first that float() rejects."""
    rest = iter(tokens)
    try:
        return list(map(float, rest))
    except ValueError:  # `rest` stopped just past the rejected token
        return _floats(tokens[: len(tokens) - 1 - length_hint(rest)])


def parse_scores(text: str, trials: TrialList) -> ScoreSet:
    """Parse the "enroll test score" lines written for `trials`: one per trial,
    in its order, each score finite. A malformed line is a TrialParseError,
    found before any line is checked against the list; a pair or count that
    does not fit it is a ValueError. The set carries `trials`, labels and all."""
    scores = array("d")
    mismatch = None  # the error for the first pair that is not the list's
    for fields, line_nos in _rows(text, 3):
        values = fields[2::3]
        chunk = _floats(values)
        # a sum of finite values is finite unless it overflows
        if not isfinite(sum(chunk)):
            k = next((k for k, v in enumerate(chunk) if not isfinite(v)), None)
            if k is not None:
                raise TrialParseError(line_nos[k], f"non-finite score {values[k]!r}")
        if len(chunk) < len(values):
            raise TrialParseError(line_nos[len(chunk)], f"bad score {values[len(chunk)]!r}")
        done = len(scores)  # rows read before this chunk
        scores.frombytes(_packed("d", chunk))
        # past the list's length the count is the error
        if mismatch is None and chunk and len(scores) <= len(trials):
            del fields[2::3]
            # two or more codes, so itemgetter returns a tuple
            want = list(itemgetter(*trials.pairs[2 * done : 2 * len(scores)])(trials.ids))
            if fields != want:
                k = next(k for k in range(0, len(fields), 2) if fields[k : k + 2] != want[k : k + 2])
                mismatch = (f"score line {line_nos[k // 2]} is for ({fields[k]}, {fields[k + 1]}), "
                            f"trial list has ({want[k]}, {want[k + 1]})")
    if len(scores) != len(trials):
        raise ValueError(f"score file has {len(scores)} lines for {len(trials)} trials")
    if mismatch:
        raise ValueError(mismatch)
    return ScoreSet(trials, scores)


def write_embeddings_file(store: EmbeddingStore, path) -> None:
    """`store.write_embeddings` into a file."""
    from .store import write_embeddings

    with output_file(path, "wb") as sink:
        write_embeddings(store, sink)


def read_embeddings_file(path, what: str = "embeddings") -> EmbeddingStore:
    """`store.read_embeddings` of a file; `what` names it if it is not a regular file."""
    from .store import read_embeddings

    path = require_file(path, what)
    with open(path, "rb") as source:
        try:
            return read_embeddings(source)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
