"""Deterministic linear patch encoder.

A toy stand-in for a visual backbone: the image is cut into non-overlapping
square patches, each patch is flattened to its 3*p*p raw values (row-major
over pixels, channels interleaved), and projected to `dim` through a fixed
random matrix. Being linear, it makes downstream fusion tests exact.
"""

from dataclasses import dataclass

import numpy as np

from .spectral import check_int, validate_image


@dataclass(frozen=True)
class EncoderConfig:
    patch_size: int
    dim: int
    projection_seed: int = 0

    def __post_init__(self):
        check_int("patch_size", self.patch_size, 1)
        check_int("dim", self.dim, 1)
        check_int("projection_seed", self.projection_seed, 0)


def projection_matrix(cfg: EncoderConfig) -> np.ndarray:
    """The fixed (3*p*p, dim) projection, uniform +-1/sqrt(3*p*p)."""
    raw_len = 3 * cfg.patch_size * cfg.patch_size
    bound = 1.0 / np.sqrt(raw_len)
    rng = np.random.default_rng(cfg.projection_seed)
    return rng.uniform(-bound, bound, size=(raw_len, cfg.dim))


def patch_tokens(image, cfg: EncoderConfig) -> np.ndarray:
    """Encode an image into an (L, dim) token sequence, row-major over patches."""
    arr = validate_image(image)
    h, w, _ = arr.shape
    p = cfg.patch_size
    if h % p or w % p:
        raise ValueError(
            f"patch_size {p} does not divide image dimensions {h}x{w}"
        )
    rows, cols = h // p, w // p
    # (rows, cols, p, p, 3) patch grid, then flatten each patch row-major
    patches = arr.reshape(rows, p, cols, p, 3).transpose(0, 2, 1, 3, 4)
    raw = patches.reshape(rows * cols, 3 * p * p)
    return raw @ projection_matrix(cfg)
