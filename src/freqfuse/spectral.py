"""Frequency-domain decomposition of RGB images.

An image is an (h, w, 3) float array with intensities in [0, 1]. The split
has two steps. image_spectrum validates the image and takes one real forward
transform (rfft2) over all three channels. filter_branch weights that half
spectrum by a Gaussian low- or high-pass mask on the centered frequency grid
and returns through one normalized inverse (irfft2); it leaves the spectrum
as it was, so a sweep transforms each image once for all its cutoffs.
decompose returns both branches from one forward transform, and
decompose_attenuated also multiplies each mask by a damping gain. The masks
are exact complements, so undamped components sum back to the image.
Outputs are not clamped to [0, 1]; export clamps.
"""

from dataclasses import dataclass

import numpy as np

DEFAULT_CUTOFF = 30.0
DEFAULT_GAMMA = 0.23

BRANCHES = ("low", "high")

MODE_RANDOM = "random"
MODE_CONSTANT = "constant"


@dataclass(frozen=True)
class AttenuationSpec:
    """Spectral damping configuration.

    gamma: upper bound of the uniform distribution the damping matrix is
        drawn from, in [0, 1].
    seed: seed for the damping draws (PCG64; fixed, platform-independent).
    mode: "random" draws each cell i.i.d. from U(0, gamma); "constant"
        fills every cell with gamma (deterministic, for exact tests).
    share_branches: use one draw for both the low and the high branch
        instead of independent draws per branch.
    per_channel: draw a fresh matrix per RGB channel instead of sharing
        one matrix across the three channels of a branch.

    Branches stay real, so the damping that takes effect at frequency k is
    the mean of mask * draw at k and -k: two U(0, gamma) draws averaged, not
    one draw, except at frequencies that are their own mirror such as DC.
    """

    gamma: float = DEFAULT_GAMMA
    seed: int = 0
    mode: str = MODE_RANDOM
    share_branches: bool = False
    per_channel: bool = False

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if self.mode not in (MODE_RANDOM, MODE_CONSTANT):
            raise ValueError(f"unknown attenuation mode {self.mode!r}")


def validate_image(image) -> np.ndarray:
    """Check (h, w, 3) shape and [0, 1] intensities; return a float64 view."""
    arr = np.asarray(image, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"expected an (h, w, 3) image, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"image dimensions must be positive, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("image contains non-finite values")
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise ValueError("image intensities must lie in [0, 1]")
    return arr


def dft2d(plane) -> np.ndarray:
    """Unnormalized forward 2-D DFT of a real plane; F[0,0] = sum of values."""
    arr = np.asarray(plane, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D plane, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("cannot transform an empty plane")
    return np.fft.fft2(arr)


def idft2d(spectrum) -> np.ndarray:
    """Real part of the 1/(h*w)-normalized inverse 2-D DFT.

    When the input is conjugate-symmetric (i.e. the spectrum of a real
    plane), the discarded imaginary residue is asserted to be negligible.
    """
    arr = np.asarray(spectrum, dtype=complex)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"expected a non-empty 2-D spectrum, got shape {arr.shape}")
    out = np.fft.ifft2(arr)
    if __debug__ and _is_conjugate_symmetric(arr):
        residue = np.abs(out.imag).max()
        assert residue < 1e-9, f"imaginary residue {residue:g} on a symmetric spectrum"
    return out.real


def _is_conjugate_symmetric(spectrum, tol=1e-9):
    h, w = spectrum.shape
    flipped = spectrum[(-np.arange(h)) % h][:, (-np.arange(w)) % w]
    return bool(np.abs(spectrum - np.conj(flipped)).max() <= tol)


def gaussian_masks(h: int, w: int, cutoff: float):
    """Complementary Gaussian low/high masks on the centered frequency grid.

    low[u, v] = exp(-D^2 / (2 * cutoff^2)) with D the Euclidean distance from
    (h//2, w//2); high = 1 - low, exact per cell.
    """
    if h < 1 or w < 1:
        raise ValueError(f"mask dimensions must be positive, got {h}x{w}")
    if not cutoff > 0:  # NaN too
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    du = np.arange(h) - h // 2
    dv = np.arange(w) - w // 2
    d2 = du[:, None] ** 2 + dv[None, :] ** 2
    low = np.exp(-d2 / (2.0 * cutoff * cutoff))
    high = 1.0 - low
    return low, high


@dataclass(frozen=True)
class ImageSpectrum:
    """Half spectrum of a validated image: rfft2 over the two pixel axes.

    half: complex (h, w // 2 + 1, 3) array, all channels at once.
    shape: (h, w) of the image, which irfft2 needs back for odd widths.
    """

    half: np.ndarray
    shape: tuple


def image_spectrum(image) -> ImageSpectrum:
    """Validate an (h, w, 3) image and take its forward transform once."""
    return _forward(validate_image(image))


def _forward(arr):
    return ImageSpectrum(np.fft.rfft2(arr, axes=(0, 1)), arr.shape[:2])


def _weight(mask, gain):
    """Hermitian weight of one branch on the unshifted half grid.

    mask is centered (h, w); gain is a scalar or a centered (h, w, 1) /
    (h, w, 3) array. mask * gain is made Hermitian, (g(k) + g(-k)) / 2, the
    filter that the real part of a complex inverse applies, so irfft2 gives
    it exactly.
    """
    h, w = mask.shape
    half = w // 2 + 1
    g = np.fft.ifftshift(mask[:, :, None] * gain, axes=(0, 1))
    return (g[:, :half] + g[(-np.arange(h) % h)[:, None], -np.arange(half) % w]) / 2.0


def _inverse(spectrum, weight):
    return np.fft.irfft2(spectrum.half * weight, s=spectrum.shape, axes=(0, 1))


def filter_branch(spectrum: ImageSpectrum, cutoff: float, which: str) -> np.ndarray:
    """One branch, "low" or "high", of the image behind spectrum at cutoff.

    Bit-identical to the matching output of decompose(image, cutoff), from
    one inverse transform. The spectrum is not modified, so one spectrum
    serves any number of cutoffs.
    """
    if which not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}, got {which!r}")
    mask = gaussian_masks(*spectrum.shape, cutoff)[BRANCHES.index(which)]
    return _inverse(spectrum, _weight(mask, 1.0))


def _split(arr, cutoff, low_gain, high_gain):
    """(low, high) of a validated image from one forward transform."""
    masks = gaussian_masks(*arr.shape[:2], cutoff)
    weights = [_weight(mask, gain) for mask, gain in zip(masks, (low_gain, high_gain))]
    # the spectrum after the smaller weights, and the masks held until the
    # inverses are done: over many calls this order fragments the heap
    # least, so peak RSS stays lower
    spectrum = _forward(arr)
    return tuple(_inverse(spectrum, weight) for weight in weights)


def decompose(image, cutoff: float = DEFAULT_CUTOFF):
    """Split an image into its low- and high-frequency components.

    Returns (low, high) as (h, w, 3) float arrays satisfying
    low + high == image up to transform round-off. Not clamped.
    """
    return _split(validate_image(image), cutoff, 1.0, 1.0)


def _draw_gains(h, w, spec, count):
    if spec.mode == MODE_CONSTANT:
        return np.full((count, h, w), spec.gamma)
    rng = np.random.default_rng(spec.seed)
    return rng.uniform(0.0, spec.gamma, size=(count, h, w))


def attenuation_matrix(h: int, w: int, spec: AttenuationSpec) -> np.ndarray:
    """Damping matrix per the spec: U(0, gamma) draws or the constant gamma."""
    if h < 1 or w < 1:
        raise ValueError(f"matrix dimensions must be positive, got {h}x{w}")
    return _draw_gains(h, w, spec, 1)[0]


def decompose_attenuated(image, cutoff: float, spec: AttenuationSpec):
    """Decompose with each branch's masked spectrum damped elementwise.

    By default the low and high branches get independent damping draws and
    each draw is shared across the three RGB channels of its branch; see
    AttenuationSpec for the alternative granularities.
    """
    arr = validate_image(image)
    h, w, _ = arr.shape
    per_branch = 3 if spec.per_channel else 1
    n_branch = 1 if spec.share_branches else 2
    # (h, w, draw): draw c damps channel c, or every channel when there is
    # one; the high branch takes the last draws, the low branch's if shared
    draws = np.moveaxis(_draw_gains(h, w, spec, n_branch * per_branch), 0, -1)
    return _split(arr, cutoff, draws[:, :, :per_branch], draws[:, :, -per_branch:])
