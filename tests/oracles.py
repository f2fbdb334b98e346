"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (double sums, explicit loops, plain
counting) and shares no code with the package under test, except the two
fusion loops: naive_gradient_check and naive_fit restate gradient_check and
fit_demo one entry or one sample at a time over the public fusion functions.
"""

import json
import math
import re
import struct
import zlib

import numpy as np

from freqfuse.fusion import FusionParams, fuse_backward, fuse_sequence, init_params


def naive_dft2d(plane):
    """Unnormalized forward 2-D DFT as an explicit double sum, O(n^4)."""
    plane = np.asarray(plane, dtype=float)
    h, w = plane.shape
    jj, kk = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    out = np.empty((h, w), dtype=complex)
    for u in range(h):
        for v in range(w):
            phase = np.exp(-2j * np.pi * (u * jj / h + v * kk / w))
            out[u, v] = (plane * phase).sum()
    return out


def naive_idft2d(spectrum):
    """Normalized inverse 2-D DFT as an explicit double sum; returns real part."""
    spectrum = np.asarray(spectrum, dtype=complex)
    h, w = spectrum.shape
    uu, vv = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    out = np.empty((h, w), dtype=complex)
    for j in range(h):
        for k in range(w):
            phase = np.exp(2j * np.pi * (j * uu / h + k * vv / w))
            out[j, k] = (spectrum * phase).sum()
    return out.real / (h * w)


def naive_center_shift(spectrum):
    """Move the DC bin to (h//2, w//2) by explicit index remapping."""
    spectrum = np.asarray(spectrum)
    h, w = spectrum.shape
    out = np.empty_like(spectrum)
    for u in range(h):
        for v in range(w):
            out[(u + h // 2) % h, (v + w // 2) % w] = spectrum[u, v]
    return out


def naive_center_unshift(spectrum):
    spectrum = np.asarray(spectrum)
    h, w = spectrum.shape
    out = np.empty_like(spectrum)
    for u in range(h):
        for v in range(w):
            out[u, v] = spectrum[(u + h // 2) % h, (v + w // 2) % w]
    return out


def naive_gaussian_low_mask(h, w, cutoff):
    mask = np.empty((h, w))
    cu, cv = h // 2, w // 2
    for u in range(h):
        for v in range(w):
            d2 = (u - cu) ** 2 + (v - cv) ** 2
            mask[u, v] = math.exp(-d2 / (2.0 * cutoff * cutoff))
    return mask


def naive_weight(mask, gain):
    """Hermitian branch weight on the unshifted half grid, built the long way.

    mask is a centered (h, w) mask, gain a scalar or a centered (h, w, 1)
    array. g = mask * gain is unshifted over the whole grid, and the weight
    at each cell k of the half grid is (g(k) + g(-k)) / 2, -k gathered from
    the full grid.
    """
    h, w = mask.shape
    half = w // 2 + 1
    g = np.fft.ifftshift(mask[:, :, None] * gain, axes=(0, 1))
    return (g[:, :half] + g[(-np.arange(h) % h)[:, None], -np.arange(half) % w]) / 2.0


def naive_decompose(image, cutoff, low_gain=None, high_gain=None):
    """Full filter pipeline built only from the naive pieces above.

    low_gain / high_gain optionally damp a branch: an (h, w, 3) array on the
    centered grid whose channel c multiplies that branch's mask for channel
    c. Each channel keeps only the real part of its inverse transform.
    """
    image = np.asarray(image, dtype=float)
    h, w, _ = image.shape
    low_mask = naive_gaussian_low_mask(h, w, cutoff)
    high_mask = 1.0 - low_mask
    if low_gain is None:
        low_gain = np.ones((h, w, 3))
    if high_gain is None:
        high_gain = np.ones((h, w, 3))
    low = np.empty_like(image)
    high = np.empty_like(image)
    for c in range(3):
        spec = naive_center_shift(naive_dft2d(image[:, :, c]))
        low_w = low_mask * low_gain[:, :, c]
        high_w = high_mask * high_gain[:, :, c]
        low[:, :, c] = naive_idft2d(naive_center_unshift(spec * low_w))
        high[:, :, c] = naive_idft2d(naive_center_unshift(spec * high_w))
    return low, high


def central_difference(fn, x, eps=1e-5):
    """Central finite-difference gradient of scalar fn at array x."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    flat = grad.ravel()
    xf = x.ravel()
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + eps
        f_plus = fn(x)
        xf[i] = orig - eps
        f_minus = fn(x)
        xf[i] = orig
        flat[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def naive_gradient_check(dim, positions, seed, tol=1e-4):
    """gradient_check's instance, with two fuse_sequence calls per entry."""
    params = init_params(dim, seed)
    rng = np.random.default_rng(seed)
    v_o = rng.normal(size=(positions, dim))
    v_l = rng.normal(size=(positions, dim))
    v_h = rng.normal(size=(positions, dim))
    upstream = rng.normal(size=(positions, dim))

    grads = fuse_backward(v_o, v_l, v_h, params, upstream)

    # each entry is perturbed in place, through a ravel() view of its array
    def objective():
        return float((upstream * fuse_sequence(v_o, v_l, v_h, params)).sum())

    tensors = [params.w_q, params.w_k, params.w_v, v_o, v_l, v_h]
    analytic = [grads.d_w_q, grads.d_w_k, grads.d_w_v,
                grads.d_v_o, grads.d_v_l, grads.d_v_h]
    worst = 0.0
    eps = 1e-5
    for tensor, grad in zip(tensors, analytic):
        flat = tensor.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = objective()
            flat[i] = orig - eps
            f_minus = objective()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            expected = grad.ravel()[i]
            err = abs(numeric - expected)
            denom = max(abs(numeric), abs(expected))
            rel = err / max(denom, 1e-3)
            worst = max(worst, rel)
    return worst < tol, worst


def naive_fit(dataset, params, steps, lr):
    """fit_demo's update rule, one fuse_sequence and one fuse_backward per
    sample and step: each step subtracts lr times the summed weight
    gradients of the MSE over every entry of every target."""
    n_entries = sum(np.asarray(target).size for *_, target in dataset)
    losses = []
    for step in range(steps + 1):
        total = 0.0
        grads = []
        for v_o, v_l, v_h, target in dataset:
            diff = fuse_sequence(v_o, v_l, v_h, params) - target
            total += (diff**2).sum()
            grads.append(fuse_backward(v_o, v_l, v_h, params, 2.0 * diff / n_entries))
        losses.append(total / n_entries)
        if step == steps:
            return params, losses
        d_w_q = np.zeros_like(params.w_q)
        d_w_k = np.zeros_like(params.w_k)
        d_w_v = np.zeros_like(params.w_v)
        for g in grads:
            d_w_q += g.d_w_q
            d_w_k += g.d_w_k
            d_w_v += g.d_w_v
        params = FusionParams(
            w_q=params.w_q - lr * d_w_q,
            w_k=params.w_k - lr * d_w_k,
            w_v=params.w_v - lr * d_w_v,
        )


def recount_chair(records):
    """Brute-force recount of hallucination ratios from (mentioned, gt) pairs."""
    n_caps = 0
    n_bad_caps = 0
    n_mentions = 0
    n_bad_mentions = 0
    n_true = 0
    n_gt = 0
    for mentioned, gt in records:
        n_caps += 1
        bad = [m for m in mentioned if m not in gt]
        if bad:
            n_bad_caps += 1
        n_mentions += len(mentioned)
        n_bad_mentions += len(bad)
        n_true += len([m for m in mentioned if m in gt])
        n_gt += len(gt)
    chair_s = n_bad_caps / n_caps if n_caps else 0.0
    chair_i = n_bad_mentions / n_mentions if n_mentions else 0.0
    precision = n_true / n_mentions if n_mentions else 0.0
    recall = n_true / n_gt if n_gt else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return chair_s, chair_i, precision, recall, f1


def naive_tokenize(text):
    """Runs of ASCII a-z and 0-9 in text.lower(), by regular expression."""
    return tuple(re.findall(r"[a-z0-9]+", text.lower()))


def naive_extract_objects(caption, mapping):
    """Canonical classes a caption mentions under a {surface: class} mapping.

    The token-tuple table is rebuilt from the mapping on every call, and the
    scan tries every length from the longest form down at every token.
    """
    by_tokens = {naive_tokenize(surface): target for surface, target in mapping.items()}
    for target in mapping.values():
        by_tokens.setdefault(naive_tokenize(target), target)
    max_len = max(len(key) for key in by_tokens)
    tokens = naive_tokenize(caption)
    found = set()
    i = 0
    while i < len(tokens):
        for n in range(min(max_len, len(tokens) - i), 0, -1):
            target = by_tokens.get(tokens[i : i + n])
            if target is not None:
                found.add(target)
                i += n
                break
        else:
            i += 1
    return found


def recount_pope(pairs):
    """Confusion-matrix recount for (predicted, gold) yes/no pairs."""
    tp = sum(1 for p, g in pairs if p == "yes" and g == "yes")
    fp = sum(1 for p, g in pairs if p == "yes" and g == "no")
    fn = sum(1 for p, g in pairs if p == "no" and g == "yes")
    tn = sum(1 for p, g in pairs if p == "no" and g == "no")
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    accuracy = (tp + tn) / len(pairs) if pairs else 0.0
    return precision, recall, f1, accuracy


# Export


def naive_quantize(image):
    """Export rounding in one expression: clamp to [0, 1], scale, round half up."""
    x = np.asarray(image, dtype=float)
    return np.floor(np.clip(x, 0, 1) * 255 + 0.5).astype(np.uint8)


# PNG scanline filters (https://www.w3.org/TR/png/, Filtering), byte by byte

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def png_chunk(kind, payload):
    return (
        struct.pack(">I", len(payload))
        + kind
        + payload
        + struct.pack(">I", zlib.crc32(kind + payload))
    )


def naive_paeth(a, b, c):
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    if pb <= pc:
        return b
    return c


def filter_row(filter_type, row, prior):
    """One filtered scanline (encode direction): the type byte, then the row."""
    out = bytearray([filter_type])
    for i in range(len(row)):
        left = row[i - 3] if i >= 3 else 0
        up = prior[i]
        upleft = prior[i - 3] if i >= 3 else 0
        if filter_type == 0:
            pred = 0
        elif filter_type == 1:
            pred = left
        elif filter_type == 2:
            pred = up
        elif filter_type == 3:
            pred = (left + up) // 2
        else:
            pred = naive_paeth(left, up, upleft)
        out.append((row[i] - pred) & 0xFF)
    return bytes(out)


def filter_rows(pixels, filter_types):
    """The inflated PNG stream of an (h, w, 3) uint8 image, one type per row."""
    h, w, _ = pixels.shape
    raw = bytearray()
    prior = bytes(w * 3)
    for r in range(h):
        row = pixels[r].tobytes()
        raw += filter_row(filter_types[r], row, prior)
        prior = row
    return bytes(raw)


def wrap_png(raw, h, w, depth=8, color=2, interlace=0):
    """A PNG file around an inflated scanline stream."""
    ihdr = struct.pack(">IIBBBBB", w, h, depth, color, 0, 0, interlace)
    return (
        PNG_SIGNATURE
        + png_chunk(b"IHDR", ihdr)
        + png_chunk(b"IDAT", zlib.compress(raw))
        + png_chunk(b"IEND", b"")
    )


def build_png(pixels, filter_types, **header):
    h, w, _ = pixels.shape
    return wrap_png(filter_rows(pixels, filter_types), h, w, **header)


def naive_unfilter(raw, h, w):
    """Decode an inflated 8-bit RGB PNG stream one byte at a time."""
    stride = w * 3
    out = bytearray(h * stride)
    prior = bytes(stride)
    pos = 0
    for r in range(h):
        if pos >= len(raw):
            raise ValueError("PNG pixel data truncated")
        filter_type = raw[pos]
        row = bytearray(raw[pos + 1 : pos + 1 + stride])
        if len(row) != stride:
            raise ValueError("PNG pixel data truncated")
        pos += 1 + stride
        if filter_type == 0:
            pass
        elif filter_type == 1:
            for i in range(3, stride):
                row[i] = (row[i] + row[i - 3]) & 0xFF
        elif filter_type == 2:
            for i in range(stride):
                row[i] = (row[i] + prior[i]) & 0xFF
        elif filter_type == 3:
            for i in range(stride):
                left = row[i - 3] if i >= 3 else 0
                row[i] = (row[i] + (left + prior[i]) // 2) & 0xFF
        elif filter_type == 4:
            for i in range(stride):
                left = row[i - 3] if i >= 3 else 0
                upleft = prior[i - 3] if i >= 3 else 0
                row[i] = (row[i] + naive_paeth(left, prior[i], upleft)) & 0xFF
        else:
            raise ValueError(f"unknown PNG filter type {filter_type}")
        out[r * stride : (r + 1) * stride] = row
        prior = row
    return bytes(out)


def naive_batch(output, ids):
    """Captions a batch of ids gets from a child that writes output and
    exits, or None where the reply protocol is broken."""
    outstanding, captions = set(ids), {}
    for raw in output.split(b"\n"):
        if not outstanding:
            break
        try:
            line = raw.decode("utf-8").strip()
            if not line:
                continue
            reply = json.loads(line)
        except ValueError:  # not UTF-8, or not JSON
            return None
        if not isinstance(reply, dict):
            return None
        rid, caption = reply.get("id"), reply.get("caption")
        if not (isinstance(rid, str) and isinstance(caption, str)) or rid not in outstanding:
            return None  # wrong types, or an id answered twice or never asked
        outstanding.remove(rid)
        captions[rid] = caption
    return None if outstanding else captions


def naive_read_tokens(path):
    """Token file as the README lays it out, little-endian: magic b"TOKF",
    u32 version 1, u64 rows, u64 cols, then rows*cols float64 row-major."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, version, rows, cols = struct.unpack("<4sIQQ", data[:24])
    assert (magic, version) == (b"TOKF", 1), (magic, version)
    assert len(data) == 24 + 8 * rows * cols, (len(data), rows, cols)
    values = [struct.unpack("<d", data[24 + 8 * i : 32 + 8 * i])[0]
              for i in range(rows * cols)]
    return np.array(values, dtype=float).reshape(rows, cols)
