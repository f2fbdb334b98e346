"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (double sums, explicit loops, plain
counting) and shares no code with the package under test.
"""

import math

import numpy as np


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
