"""Token-container round trips and corruption handling."""

import struct

import numpy as np
import pytest

from freqfuse.harness.tokenfile import (
    MAGIC,
    TokenFileError,
    read_tokens,
    write_tokens,
)


def test_token_round_trip(tmp_path):
    tokens = np.random.default_rng(0).normal(size=(7, 5))
    path = tmp_path / "t.tok"
    write_tokens(tokens, path)
    assert np.array_equal(read_tokens(path), tokens)


def test_empty_sequence_round_trip(tmp_path):
    path = tmp_path / "empty.tok"
    write_tokens(np.zeros((0, 4)), path)
    assert read_tokens(path).shape == (0, 4)


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.tok"
    path.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(TokenFileError, match="magic"):
        read_tokens(path)


def test_rejects_bad_version(tmp_path):
    path = tmp_path / "v9.tok"
    path.write_bytes(struct.pack("<4sIQQ", MAGIC, 9, 0, 0))
    with pytest.raises(TokenFileError, match="version"):
        read_tokens(path)


def test_rejects_truncation(tmp_path):
    path = tmp_path / "short.tok"
    write_tokens(np.ones((3, 3)), path)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(TokenFileError, match="expected"):
        read_tokens(path)
    tiny = tmp_path / "tiny.tok"
    tiny.write_bytes(b"TO")
    with pytest.raises(TokenFileError, match="too short"):
        read_tokens(tiny)


def test_write_rejects_non_2d():
    with pytest.raises(ValueError):
        write_tokens(np.ones(5), "/dev/null")
