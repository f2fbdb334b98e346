"""Shared helpers for harness tests."""

import json
import re
import tracemalloc

import numpy as np


def exactly(message):
    """A pytest.raises match= pattern for message and nothing else."""
    return f"^{re.escape(message)}$"


# more digits than Python prints: repr() and str() of it raise ValueError
UNPRINTABLE = 10**5000


def unprintable(field):
    """A pytest.raises match= pattern for a refusal that names field and
    shows the refused value, too long to print, by its type."""
    return rf"\b{re.escape(field)}\b.*<(int|list) too long to print>$"


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


def natural_image(seed, h, w):
    """(h, w, 3) image of 8-bit levels with a 1/f amplitude spectrum, as a
    photograph has: a shared luminance field plus weaker per-channel colour,
    its contrast and mean drawn from the seed."""
    rng = np.random.default_rng(seed)
    radius = np.hypot(np.fft.fftfreq(h)[:, None], np.fft.rfftfreq(w)[None, :])
    radius[0, 0] = 1.0 / max(h, w)

    def field():
        spec = rng.normal(size=radius.shape) + 1j * rng.normal(size=radius.shape)
        plane = np.fft.irfft2(spec / radius, s=(h, w))
        return (plane - plane.mean()) / plane.std()

    lum = field()
    contrast, mean = rng.uniform(0.04, 0.3), rng.uniform(0.2, 0.65)
    img = np.stack([mean + contrast * (0.8 * lum + 0.35 * field()) for _ in range(3)], axis=-1)
    return np.floor(np.clip(img, 0.0, 1.0) * 255.0 + 0.5) / 255.0


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
