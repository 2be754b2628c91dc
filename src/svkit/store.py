"""The binary embedding store: unit-norm vectors by utterance id.

Embeddings use the little-endian "EMB1" binary layout, so round-trips are
bit-exact; `trials.read_embeddings_file` and `write_embeddings_file` read
and write it as files.
"""

from __future__ import annotations

import os
import struct
from typing import BinaryIO, Callable, Sequence

import numpy as np

from . import EMB_MAGIC

NORM_TOL = 1e-6  # on an embedding's L2 norm; rounding to float32 moves it under 1e-7
# float32 vector bytes an EMB1 read stages before decoding them to float64
_STAGE_BYTES = 1 << 16
# an EmbeddingStore's array has a multiple of this many rows, so a gemm over
# all of them (`scoring.cohort_stats`) gives each vector's score the same
# bits at any row: BLAS kernels take a separate path for a ragged last block
ROW_ALIGN = 8


class StoreFormatError(ValueError):
    """Corrupt embedding store; carries the byte offset of the problem."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset


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
