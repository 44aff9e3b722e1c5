"""Versioned binary checkpoints for named parameter arrays.

Layout (all integers little-endian uint32):

    magic b"STDAC01"
    repeated until EOF:
        name length | name (utf-8) | rank | dim_0 .. dim_{rank-1} | f64 payload

Payloads are little-endian float64 in C order. Batch-norm running statistics
are stored as ordinary named records so eval mode survives a round trip.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import CheckpointError

MAGIC = b"STDAC01"


def save_checkpoint(path, records: dict[str, np.ndarray]) -> None:
    """Write named arrays in insertion order."""
    with open(path, "wb") as f:
        f.write(MAGIC)
        for name, arr in records.items():
            arr = np.asarray(arr, dtype=np.float64)
            nb = name.encode("utf-8")
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.astype("<f8", copy=False).tobytes(order="C"))


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read all records back; preserves on-disk order."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:len(MAGIC)] != MAGIC:
        raise CheckpointError(f"bad checkpoint magic: {blob[:len(MAGIC)]!r}, "
                              f"expected {MAGIC!r}")
    pos = len(MAGIC)
    out: dict[str, np.ndarray] = {}
    # slices of a view copy nothing, so a payload's one copy is its array. A
    # bytes copy of each payload, freed at once, leaves free chunks above the
    # arrays in the never-trimmed heap (tensor.py, "Allocator policy"); a
    # small allocation landing there can keep the largest array, once the
    # state is dropped, from rejoining the heap's top, and peak RSS then
    # varies from run to run
    view = memoryview(blob)

    def take(n: int, what: str) -> memoryview:
        nonlocal pos
        if pos + n > len(blob):
            raise CheckpointError(f"truncated checkpoint: needed {n} bytes for "
                                  f"{what} at offset {pos}, have {len(blob) - pos}")
        chunk = view[pos:pos + n]
        pos += n
        return chunk

    while pos < len(blob):
        (nlen,) = struct.unpack("<I", take(4, "name length"))
        raw = take(nlen, "name")
        try:
            name = str(raw, "utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"record name of {nlen} bytes at offset {pos - nlen} "
                                  f"is not UTF-8") from None
        (rank,) = struct.unpack("<I", take(4, "rank"))
        shape = struct.unpack(f"<{rank}I", take(4 * rank, "dims"))
        count = int(np.prod(shape, dtype=np.int64)) if rank else 1
        payload = take(8 * count, f"payload of {name!r}")
        arr = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(shape)
        if name in out:
            raise CheckpointError(f"duplicate record name {name!r}")
        out[name] = arr
    return out
