"""Shared helpers for harness tests."""

import json
import tracemalloc

import numpy as np


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    return str(path)


def random_image(seed, h, w, lo=0.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=(h, w, 3))


def cosine_image(freq, size=256, mean=0.5, amplitude=0.45):
    """Smooth test card: one horizontal cosine of the given frequency."""
    v = np.arange(size)
    wave = mean + amplitude * np.cos(2.0 * np.pi * freq * v / size)
    return np.repeat(wave[None, :, None], size, axis=0).repeat(3, axis=2)


def traced_peak(call):
    """Peak bytes tracemalloc sees during call(), its result included.

    One untraced call goes first, so numpy's FFT plan cache and any other
    state built on first use is not counted.
    """
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
