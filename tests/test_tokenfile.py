"""Token-container round trips through the naive reader of the README layout."""

import numpy as np
import pytest

from freqfuse.harness.tokenfile import write_tokens
from oracles import naive_read_tokens


def test_token_round_trip(tmp_path):
    tokens = np.random.default_rng(0).normal(size=(7, 5))
    path = tmp_path / "t.tok"
    write_tokens(tokens, path)
    assert np.array_equal(naive_read_tokens(path), tokens)


def test_empty_sequence_round_trip(tmp_path):
    path = tmp_path / "empty.tok"
    write_tokens(np.zeros((0, 4)), path)
    assert naive_read_tokens(path).shape == (0, 4)


def test_write_rejects_non_2d():
    with pytest.raises(ValueError):
        write_tokens(np.ones(5), "/dev/null")
