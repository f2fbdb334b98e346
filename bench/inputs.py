"""Seeded synthetic inputs for the benchmark.

Everything here is a pure function of the workload seed. The program under
test only ever sees the files written from these arrays: images with
natural-image-like 1/f spectra, PNGs filtered with all five scanline
filters by this module's own encoder, ground-truth JSONL and a captions
JSONL with planted object mentions whose counts are known exactly.
"""

import json
import struct
import zlib

import numpy as np

# Surface form -> canonical class, as a captioner would write them. It is
# kept apart from the package's bundled table on purpose: a check built on
# it fails if the package's table or extraction changes meaning.
SURFACES = {
    "person": "person", "man": "person", "woman": "person", "people": "person",
    "child": "person",
    "dog": "dog", "puppy": "dog",
    "hot dog": "hot_dog",
    "cat": "cat", "kitten": "cat",
    "car": "car", "sports car": "car", "automobile": "car",
    "bicycle": "bicycle", "bike": "bicycle",
    "boat": "boat", "bird": "bird", "horse": "horse", "tree": "tree",
    "house": "house", "building": "house",
    "chair": "chair", "table": "table", "dining table": "table",
    "cup": "cup", "mug": "cup", "bottle": "bottle", "book": "book",
    "clock": "clock", "ball": "ball",
    "unicorn": "unicorn", "dragon": "dragon", "ghost": "ghost",
}
# The fantasy classes, which the energy mock names, are never ground truth.
_GT_SURFACES = sorted(s for s, c in SURFACES.items() if c not in ("unicorn", "dragon", "ghost"))
_BY_CLASS = {}
for _surface, _canon in sorted(SURFACES.items()):
    _BY_CLASS.setdefault(_canon, []).append(_surface)
_CLASSES = sorted(_BY_CLASS)
# Words that are no surface form and cannot join with one into another.
_FILLER = ("a", "the", "with", "near", "beside", "and", "in", "of", "small",
           "large", "red", "blue", "photo", "scene", "next", "to", "under")


def natural_image(rng, h, w, contrast, mean):
    """(h, w, 3) uint8 image with a 1/f amplitude spectrum.

    A shared luminance field plus weaker per-channel colour fields, scaled
    to the given standard deviation around the given mean and clipped.
    """
    fy = np.fft.fftfreq(h)[:, None]
    fx = np.fft.rfftfreq(w)[None, :]
    radius = np.sqrt(fy * fy + fx * fx)
    radius[0, 0] = 1.0 / max(h, w)
    amplitude = 1.0 / radius

    def field():
        spec = rng.normal(size=radius.shape) + 1j * rng.normal(size=radius.shape)
        plane = np.fft.irfft2(spec * amplitude, s=(h, w))
        return (plane - plane.mean()) / plane.std()

    lum = field()
    chans = [0.8 * lum + 0.35 * field() for _ in range(3)]
    img = np.stack([mean + contrast * c for c in chans], axis=-1)
    return np.floor(np.clip(img, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)


def image_set(rng, shapes, contrast=(0.04, 0.3), mean=(0.2, 0.65)):
    """One natural image per shape, contrast and mean drawn per image."""
    return [
        natural_image(rng, h, w, rng.uniform(*contrast), rng.uniform(*mean))
        for h, w in shapes
    ]


# Codecs. Written from the PNG and Netpbm specifications, not from the
# package, so a decode check compares two independent implementations.


def encode_ppm(pixels):
    h, w, _ = pixels.shape
    return b"P6\n%d %d\n255\n" % (w, h) + pixels.tobytes()


def _paeth_predictor(a, b, c):
    p = a + b - c
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    return np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))


def encode_png(pixels, rng):
    """8-bit RGB PNG; every filter type 0-4 is used, the rest drawn by rng.

    Filters predict from the unfiltered previous row and left pixel (PNG
    spec, section 9), so every row can be filtered at once.
    """
    h, w, _ = pixels.shape
    rows = pixels.reshape(h, w * 3).astype(np.int16)
    kinds = np.concatenate([np.arange(5), rng.integers(0, 5, size=max(h - 5, 0))])[:h]
    prior = np.vstack([np.zeros((1, w * 3), np.int16), rows[:-1]])
    left = np.hstack([np.zeros((h, 3), np.int16), rows[:, :-3]])
    upleft = np.hstack([np.zeros((h, 3), np.int16), prior[:, :-3]])
    predictions = (np.zeros_like(rows), left, prior, (left + prior) // 2,
                   _paeth_predictor(left, prior, upleft))
    pred = np.choose(kinds[:, None], predictions)
    filtered = ((rows - pred) & 0xFF).astype(np.uint8)
    scanlines = np.hstack([kinds[:, None].astype(np.uint8), filtered])

    def chunk(tag, payload):
        return (struct.pack(">I", len(payload)) + tag + payload
                + struct.pack(">I", zlib.crc32(tag + payload)))

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(scanlines.tobytes(), 6)) + chunk(b"IEND", b""))


# Records


def ground_truth(rng, n_objects=(1, 3)):
    """A few ground-truth surface names; returns (names, canonical set)."""
    k = int(rng.integers(n_objects[0], n_objects[1] + 1))
    names = []
    canon = set()
    while len(canon) < k:
        surface = _GT_SURFACES[int(rng.integers(len(_GT_SURFACES)))]
        if SURFACES[surface] not in canon:
            canon.add(SURFACES[surface])
            names.append(surface)
    return names, frozenset(canon)


def _caption(rng, objects):
    """A caption naming each object class once, separated by filler words."""
    words = []
    for canon in objects:
        surfaces = _BY_CLASS[canon]
        for _ in range(int(rng.integers(1, 3))):
            words.append(_FILLER[int(rng.integers(len(_FILLER)))])
        words.append(surfaces[int(rng.integers(len(surfaces)))])
    words.append(_FILLER[int(rng.integers(len(_FILLER)))])
    return " ".join(words).capitalize() + "."


def caption_records(rng, n):
    """n captions JSONL lines with planted mentions, plus their exact counts.

    Each caption mentions a random subset of its ground truth and a random
    set of classes outside it. Counts follow the CHAIR definitions over
    canonical classes (Rohrbach et al., EMNLP 2018).
    """
    lines = []
    counts = dict(captions=n, hallucinated_captions=0, mentions=0,
                  hallucinated_mentions=0, true_mentions=0, gt_objects=0)
    for i in range(n):
        names, gt = ground_truth(rng, (1, 4))
        true = [c for c in sorted(gt) if rng.random() < 0.7]
        others = [c for c in _CLASSES if c not in gt]
        bad = [others[j] for j in rng.choice(len(others), int(rng.integers(0, 3)), replace=False)]
        mentioned = true + bad
        rng.shuffle(mentioned)
        lines.append(json.dumps({"id": f"cap{i:06d}", "caption": _caption(rng, mentioned),
                                 "ground_truth": names}))
        counts["mentions"] += len(mentioned)
        counts["hallucinated_mentions"] += len(bad)
        counts["hallucinated_captions"] += bool(bad)
        counts["true_mentions"] += len(true)
        counts["gt_objects"] += len(gt)
    return "\n".join(lines) + "\n", counts
