"""An independent EMB1 decoder, for differential tests of trials.read_embeddings.

It holds the whole byte string and walks it with struct.unpack_from,
record by record. A format fault is raised as FormatFault(offset, message)
in the words the reader's StoreFormatError uses; a well-formed file gives
its ids and its vectors as lists of Python floats (float32 values, so
exact in float64).
"""

import struct


class FormatFault(Exception):
    def __init__(self, offset: int, message: str):
        super().__init__(offset, message)
        self.offset = offset
        self.message = message


def decode_emb1(data: bytes) -> tuple[list[str], list[list[float]]]:
    if data[:4] != b"EMB1":
        raise FormatFault(0, f"bad magic {data[:4]!r}, expected {b'EMB1'!r}")

    def need(pos: int, n: int, what: str) -> None:
        have = min(n, len(data) - pos)
        if have < n:
            raise FormatFault(pos, f"truncated {what} ({have} of {n} bytes)")

    need(4, 12, "header")
    dim, count = struct.unpack_from("<IQ", data, 4)
    if dim == 0:
        raise FormatFault(4, f"non-positive dimension {dim}")
    pos, ids, rows = 16, [], []
    for _ in range(count):  # each record takes at least 2 bytes, so a huge count ends
        start = pos
        need(pos, 2, "id length")
        (id_len,) = struct.unpack_from("<H", data, pos)
        need(pos + 2, id_len, "id bytes")
        try:
            utt_id = data[pos + 2 : pos + 2 + id_len].decode("utf-8")
        except UnicodeDecodeError:
            raise FormatFault(start, "id is not UTF-8") from None
        if utt_id in ids:
            raise FormatFault(start, f"duplicate id {utt_id!r}")
        pos += 2 + id_len
        need(pos, 4 * dim, "vector")
        ids.append(utt_id)
        rows.append(list(struct.unpack_from(f"<{dim}f", data, pos)))
        pos += 4 * dim
    if pos != len(data):
        raise FormatFault(pos, f"{len(data) - pos} bytes after the last of {count} records")
    return ids, rows
