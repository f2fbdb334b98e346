"""Self-describing binary container for token sequences.

Layout, all little-endian: magic b"TOKF", version u32, rows u64, cols u64,
then rows*cols float64 values row-major.
"""

import struct

import numpy as np

MAGIC = b"TOKF"
VERSION = 1
_HEADER = struct.Struct("<4sIQQ")


class TokenFileError(Exception):
    """Malformed or truncated token file."""


def write_tokens(tokens, path) -> None:
    arr = np.ascontiguousarray(tokens, dtype="<f8")
    if arr.ndim != 2:
        raise ValueError(f"tokens must be 2-D, got shape {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, arr.shape[0], arr.shape[1]))
        fh.write(arr.tobytes())


def read_tokens(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size:
        raise TokenFileError(f"{path}: too short for a token file header")
    magic, version, rows, cols = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise TokenFileError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise TokenFileError(f"{path}: unsupported version {version}")
    expected = _HEADER.size + rows * cols * 8
    if len(data) != expected:
        raise TokenFileError(
            f"{path}: has {len(data)} bytes, expected {expected} "
            f"for {rows}x{cols} values"
        )
    values = np.frombuffer(data, dtype="<f8", offset=_HEADER.size)
    return values.reshape(rows, cols).copy()

