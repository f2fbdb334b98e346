"""Frequency-domain decomposition of RGB images.

An image is an (h, w, 3) float array with intensities in [0, 1]. The split
has two steps. image_spectrum validates the image and takes one real forward
transform (rfft2) over all three channels, in double precision unless it is
asked for single. filter_branch builds a Gaussian low- or high-pass mask on
the centered frequency grid, multiplies a copy of the half spectrum by it
and returns through one normalized inverse (irfft2); the spectrum stays as
it was, so a sweep transforms each image once for all its cutoffs. The
precision follows the spectrum: a complex64 spectrum gives float32 masks
and branches, a complex128 one float64. Only the sweep's exports, which
are quantized to 8 bits, ask for single precision; every other result is
float64, whatever the input's dtype. Both transforms run the 1-D steps of
rfft2 and irfft2 themselves, the complex step in place, so each takes at
most one full-size buffer besides its result. decompose inverts the low
branch alone and returns the image minus it as the high branch: the masks
are exact complements, so that is filter_branch's high branch up to
round-off (about 1e-15 on [0, 1] images). decompose_attenuated multiplies
each mask by a damping draw of its own first, so it inverts both branches.
Outputs are not clamped to [0, 1]; export clamps.

Spectra and branches keep the (h, w, 3) shape but live in channel-planar
memory, each channel one contiguous block: the transforms run faster there
and give the same values. Masks are built in each call, never cached,
directly on the half grid that rfft2 returns, as one 1-D Gaussian per axis
and their outer product. They are even, so an undamped branch weight is its
mask as it stands; only a damping gain, which is not even, makes its own.
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

    The low and the high branch each get one draw, the low branch's first
    from the seeded stream, and the three RGB channels of a branch share it.
    Branches stay real, so the damping that takes effect at frequency k is
    the mean of mask * draw at k and -k: two U(0, gamma) draws averaged, not
    one draw, except at frequencies that are their own mirror such as DC.
    """

    gamma: float = DEFAULT_GAMMA
    seed: int = 0
    mode: str = MODE_RANDOM

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if self.mode not in (MODE_RANDOM, MODE_CONSTANT):
            raise ValueError(f"unknown attenuation mode {self.mode!r}")


def float_image(image) -> np.ndarray:
    """image as an (h, w, 3) float array with h, w >= 1, else ValueError.

    Only booleans, integers and floats are taken: a complex image would lose
    its imaginary part in the cast, and strings would be parsed. A float32
    array is returned as it is, not upcast; anything else as float64,
    without a copy where it already is float64.
    """
    arr = np.asarray(image)
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"image must hold real numbers, got dtype {arr.dtype}")
    if arr.dtype != np.float32:
        arr = np.asarray(arr, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"expected an (h, w, 3) image, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"image dimensions must be positive, got {arr.shape}")
    return arr


def validate_image(image) -> np.ndarray:
    """float_image, checked for [0, 1] intensities: float32 or float64,
    never cast to a lower precision, so no value is rounded into range."""
    arr = float_image(image)
    # NaN propagates through min and max, and an infinity is at one end
    lo, hi = arr.min(), arr.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("image contains non-finite values")
    if lo < 0.0 or hi > 1.0:
        raise ValueError("image intensities must lie in [0, 1]")
    return arr


def gaussian_masks(h: int, w: int, cutoff: float):
    """Complementary Gaussian low/high masks on the centered frequency grid.

    low[u, v] = exp(-D^2 / (2 * cutoff^2)) with D the Euclidean distance from
    (h//2, w//2), or 0 where that is under sqrt(float64 tiny) = 1.5e-154;
    high = 1 - low, exact per cell.
    """
    if h < 1 or w < 1:
        raise ValueError(f"mask dimensions must be positive, got {h}x{w}")
    return _masks(np.arange(h) - h // 2, np.arange(w) - w // 2, cutoff, np.float64)


def _masks(du, dv, cutoff, dtype):
    """(low, high) of dtype at row offsets du and column offsets dv from the
    center."""
    if not cutoff > 0:  # NaN too
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    # exp(-D^2 / 2c^2) is separable. d / cutoff overflows to weight 0 off
    # center at a tiny cutoff, where 2c^2 would underflow and give 0/0 at DC
    with np.errstate(over="ignore"):
        rows, cols = (
            np.exp(-0.5 * (d / cutoff) ** 2).astype(dtype, copy=False) for d in (du, dv)
        )
    low = rows[:, None] * cols
    # Low-pass weights under sqrt(tiny) are zero. A weight passes tiny, the
    # smallest normal number, 13.2 cutoffs from the center in float32 and
    # 37.6 in float64: a weight there, or its product with the spectrum, is
    # subnormal, and the inverse runs several times slower over subnormal
    # numbers. A product of two numbers of at least sqrt(tiny) is normal.
    # The weights dropped move no branch value by more than sqrt(tiny) *
    # sqrt(h * w): 1.1e-19 * sqrt(h * w) in float32, 1.5e-154 * sqrt(h * w)
    # in float64.
    floor = np.sqrt(np.finfo(dtype).tiny)
    if rows.min() * cols.min() < floor:  # the smallest weight: else no pass
        low[low < floor] = 0.0
    return low, 1.0 - low


def _half_masks(h, w, cutoff, dtype=np.float64):
    """gaussian_masks of dtype at the cells of the unshifted half spectrum.

    Unshifted row k lies (k + h//2) % h - h//2 rows from the center, and
    column k of the 0..w//2 that rfft2 keeps lies +-k columns from it.
    -k lies at offsets of the same magnitudes and both 1-D factors are even,
    so both masks are even: m(k) == m(-k) bitwise.
    """
    rows = (np.arange(h) + h // 2) % h - h // 2
    return _masks(rows, np.arange(w // 2 + 1), cutoff, dtype)


@dataclass(frozen=True)
class ImageSpectrum:
    """Half spectrum of a validated image: rfft2 over the two pixel axes.

    half: complex (h, w // 2 + 1, 3) array, all channels at once, a view
        over channel-planar memory: each channel's half spectrum is one
        contiguous block. complex128 and unscaled, as rfft2 gives it; or,
        when image_spectrum was asked for float32, complex64 and scaled by
        1 / sqrt(h * w) (see _norm). filter_branch keeps its precision.
    shape: (h, w) of the image, which the inverse needs back for odd widths.
    """

    half: np.ndarray
    shape: tuple


def image_spectrum(image, dtype=np.float64) -> ImageSpectrum:
    """Validate an (h, w, 3) image and take its forward transform once.

    dtype, float64 or float32, is the precision of the transform: the half
    spectrum is complex128 or complex64, whatever the image's own dtype.
    The image is checked as it is given and cast only after, so a value
    outside [0, 1] is refused even where the cast would round it into range.
    """
    if np.dtype(dtype) not in (np.float32, np.float64):
        raise ValueError(f"dtype must be float32 or float64, got {dtype!r}")
    return _forward(_planar(validate_image(image), dtype))


def _planar(arr, dtype):
    """arr cast to dtype in channel-planar memory. The numpy transforms keep
    the memory order of their input, and run faster over channel-planar
    memory; every value is the same either way. The planar copy is also the
    cast, so an image that is already planar and of dtype, as load_image
    returns it for float64, is arr itself, not a copy."""
    return np.ascontiguousarray(arr.transpose(2, 0, 1), dtype=dtype).transpose(1, 2, 0)


def _forward(planar):
    # rfft2's two steps, the second in place: the same calls, so the same bits
    norm = _norm(planar)
    half = np.fft.rfft(planar, axis=1, norm=norm)
    np.fft.fft(half, axis=0, out=half, norm=norm)
    return ImageSpectrum(half, planar.shape[:2])


def _norm(arr):
    """The numpy.fft norm for arr's precision: the default for double, and
    "ortho" for single, which scales each forward and inverse step by
    1 / sqrt(n), so a round trip is scaled as the default's. numpy.fft hands
    its loops the default's unit forward scale as the int 1, which selects
    the float64 loop: a single-precision forward step would run in double
    through cast buffers, 3x slower than a float64 one at 224x224."""
    return "ortho" if arr.dtype in (np.float32, np.complex64) else None


def _damped_weight(mask, gain):
    """Hermitian weight of one damped branch on the unshifted half grid.

    mask is a half-grid mask from _half_masks and gain a centered (h, w, 1)
    array. With g = mask * gain, the weight is (g(k) + g(-k)) / 2, the
    filter that the real part of a complex inverse applies, so irfft2 gives
    it exactly. The mask is even, so only the gain is gathered at -k.
    """
    h, w, _ = gain.shape
    # unshifted cell (r, c) is centered cell ((r + h//2) % h, (c + w//2) % w),
    # and its mirror (-r, -c) is centered cell ((h//2 - r) % h, (w//2 - c) % w);
    # one take per axis, columns first, is faster than indexing both at once
    rows, cols = np.arange(h), np.arange(w // 2 + 1)
    g = gain.take((cols + w // 2) % w, axis=1).take((rows + h // 2) % h, axis=0)
    mirror = gain.take((w // 2 - cols) % w, axis=1).take((h // 2 - rows) % h, axis=0)
    m = mask[:, :, None]
    g *= m
    mirror *= m
    g += mirror
    g /= 2.0
    return g


def _weighted(spectrum, weight):
    """spectrum.half * weight, a real weight, signed zeros aside: a copy
    weighted in place, where a broadcast complex-by-real product would hold
    an iterator buffer of up to 128 KiB besides."""
    prod = spectrum.half.copy(order="K")
    prod.real *= weight
    prod.imag *= weight
    return prod


def _inverse(prod, w):
    # irfft2's two steps, the first in place on the weighted copy
    norm = _norm(prod)
    np.fft.ifft(prod, axis=0, out=prod, norm=norm)
    return np.fft.irfft(prod, n=w, axis=1, norm=norm)


def filter_branch(spectrum: ImageSpectrum, cutoff: float, which: str) -> np.ndarray:
    """One branch, "low" or "high", of the image behind spectrum at cutoff:
    its mask is built in the call, then one inverse. spectrum is unchanged.
    The branch is float32 for a complex64 spectrum, float64 otherwise."""
    if which not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}, got {which!r}")
    # a mask of the spectrum's precision: a float64 one would upcast the product
    real = spectrum.half.real.dtype
    mask = _half_masks(*spectrum.shape, cutoff, real)[BRANCHES.index(which)]
    prod = _weighted(spectrum, mask[:, :, None])
    del mask  # before the inverse allocates: fewer page faults, faster
    return _inverse(prod, spectrum.shape[1])


def decompose(image, cutoff: float = DEFAULT_CUTOFF):
    """Split an image into its low- and high-frequency components.

    (low, high) as (h, w, 3) float64 arrays in channel-planar memory: low is
    filter_branch(image_spectrum(image), cutoff, "low"), bit for bit, and
    high is the image minus low, one inverse transform fewer. The masks are
    exact complements, so high equals filter_branch's "high" branch up to
    transform round-off (about 1e-15 on [0, 1] images), and low + high ==
    image up to the round-off of one subtraction. Not clamped.
    """
    planar = _planar(validate_image(image), np.float64)
    low = filter_branch(_forward(planar), cutoff, "low")
    # a new array: planar may be the caller's own image
    return low, planar - low


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
    """Decompose with each branch's masked spectrum damped elementwise,
    by one damping draw per branch as AttenuationSpec describes."""
    spectrum = image_spectrum(image)
    masks = _half_masks(*spectrum.shape, cutoff)
    gains = _draw_gains(*spectrum.shape, spec, 2)[..., None]
    weighted = (_weighted(spectrum, _damped_weight(m, g)) for m, g in zip(masks, gains))
    return tuple(_inverse(prod, spectrum.shape[1]) for prod in weighted)
