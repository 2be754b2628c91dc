"""An independent MEL1 decoder, for tests of features.write_mel and of the
`svkit features` command; nothing in svkit reads MEL1.

It holds the whole byte string and reads it with struct.unpack_from. A
format fault is raised as FormatFault(offset, message); a well-formed file
gives its rows, its cols and its row-major values as Python floats (float32
values, so exact in float64).
"""

import struct


class FormatFault(ValueError):
    def __init__(self, offset: int, message: str):
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset
        self.message = message


def decode_mel1(data: bytes) -> tuple[int, int, list[float]]:
    if data[:4] != b"MEL1":
        raise FormatFault(0, f"bad feature magic {data[:4]!r}, expected {b'MEL1'!r}")
    if len(data) < 12:
        raise FormatFault(4, f"truncated feature header ({len(data) - 4} of 8 bytes)")
    rows, cols = struct.unpack_from("<II", data, 4)
    end = 12 + 4 * rows * cols  # a Python int: no header sizes an allocation
    if len(data) < end:
        raise FormatFault(12, f"truncated feature matrix ({len(data) - 12} of {end - 12} bytes)")
    if len(data) > end:
        raise FormatFault(end, f"{len(data) - end} bytes after the {rows} x {cols} feature matrix")
    return rows, cols, list(struct.unpack_from(f"<{rows * cols}f", data, 12))
