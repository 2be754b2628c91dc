"""A BytesIO that records the largest byte count any read(n) asked for."""

import io


class RecordingSource(io.BytesIO):
    def __init__(self, data: bytes):
        super().__init__(data)
        self.size = len(data)
        self.largest_read = 0

    def read(self, n=-1):
        if n is not None and n >= 0:
            self.largest_read = max(self.largest_read, n)
        return super().read(n)
