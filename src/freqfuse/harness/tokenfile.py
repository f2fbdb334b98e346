"""Self-describing binary container for token sequences.

Layout, all little-endian: magic b"TOKF", version u32, rows u64, cols u64,
then rows*cols float64 values row-major.
"""

import struct

import numpy as np

MAGIC = b"TOKF"
VERSION = 1
_HEADER = struct.Struct("<4sIQQ")


def write_tokens(tokens, path) -> None:
    arr = np.ascontiguousarray(tokens, dtype="<f8")
    if arr.ndim != 2:
        raise ValueError(f"tokens must be 2-D, got shape {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, arr.shape[0], arr.shape[1]))
        fh.write(arr.tobytes())
