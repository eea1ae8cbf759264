"""Binary record framing shared by the dataset and checkpoint formats.

A record file is a 4-byte magic, a little-endian u32 version, then records of
fixed little-endian fields and float64 arrays ending exactly at end of file.
Every read is checked against the bytes left before it is made, so a corrupt
length raises the format's error, naming the byte offset.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager

import numpy as np


def write_header(f, magic: bytes, version: int) -> None:
    f.write(magic + struct.pack("<I", version))


def write_array(f, value: np.ndarray) -> None:
    f.write(np.ascontiguousarray(value, dtype="<f8").tobytes())


class RecordReader:
    """Reads a record file from its current offset; every failure raises the format's error."""

    def __init__(self, f, error: type[ValueError], kind: str) -> None:
        self._f, self._error, self._kind = f, error, kind
        self._size = os.fstat(f.fileno()).st_size
        self.offset = f.tell()

    def at_end(self) -> bool:
        return self.offset == self._size

    def read(self, n: int, what: str) -> bytes:
        if n > self._size - self.offset:
            raise self._error(
                f"truncated {self._kind} file: expected {n} bytes for {what} at byte offset {self.offset}"
            )
        self.offset += n
        return self._f.read(n)

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.read(struct.calcsize(fmt), what))

    def array(self, shape: tuple[int, ...], what: str) -> np.ndarray:
        payload = self.read(8 * math.prod(shape), what)
        return np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64)


@contextmanager
def open_records(path: str, magic: bytes, version: int, error: type[ValueError], kind: str):
    """Open a record file, check its magic and version, and yield its reader."""
    with open(path, "rb") as f:
        found = f.read(len(magic))
        if found != magic:
            raise error(f"bad magic {found!r}; not a {kind} file")
        reader = RecordReader(f, error, kind)
        (found_version,) = reader.unpack("<I", "version")
        if found_version != version:
            raise error(f"unsupported {kind} version {found_version}")
        yield reader
