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
rfft2 and irfft2 themselves, the complex step in place: the forward
allocates its half spectrum and the inverse its branch, nothing else of
full size, because a branch's half spectrum is weighted and inverted in
place. filter_branch copies the spectrum first, as it is the caller's;
decompose and decompose_attenuated build their own spectrum and drop it on
return, so they weight it as it is for the last branch they take from it.
decompose inverts the low branch alone and returns the image minus it as
the high branch: the masks are exact complements, so that is
filter_branch's high branch up to round-off (about 1e-15 on [0, 1] images).
decompose_attenuated multiplies each mask by a damping draw of its own
first, so it inverts both branches, the low one from a copy. Outputs are
not clamped to [0, 1]; export clamps.

decompose and decompose_attenuated run each full-size step as two halves at
once, the upper half on one worker thread and the rest in the caller's: each
1-D transform step by rows or by columns; by rows the range check with the
planar cast, the weighting, the subtraction of the low branch and the
damping weights; and the two damping draws, one each. numpy's FFT loops, its
elementwise loops and Generator.random release the GIL, and each value is
computed on its own, so the bits are the same as on one thread. On 2 CPUs
the split takes 25 to 30% off a split at 224x224, 375x500 and 512x512,
damped or not, against one thread. Every full-size array is allocated in the
caller's thread. The worker is one per process, made on first use where two
CPUs are usable, and a forked child makes its own. image_spectrum and
filter_branch, the sweep's path, stay on the caller's thread: in a sweep the
captioner child and the PNG decoders keep the other CPU busy, and a split
made it slower there.

Spectra and branches keep the (h, w, 3) shape but live in channel-planar
memory, each channel one contiguous block: the transforms run faster there
and give the same values. Masks are built in each call, never cached,
directly on the half grid that rfft2 returns, as one 1-D Gaussian per axis
and their outer product. They are even, so an undamped branch weight is its
mask as it stands; only a damping gain, which is not even, makes its own.
"""

import numbers
import os
import threading
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
        fills every cell with gamma (deterministic, for exact tests). It
        draws nothing, so its seed must be 0.

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
        check_real("gamma", self.gamma)
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if self.mode not in (MODE_RANDOM, MODE_CONSTANT):
            raise ValueError(f"unknown attenuation mode {shown(self.mode)}")
        check_int("seed", self.seed, 0)
        if self.mode == MODE_CONSTANT and self.seed:
            raise ValueError("seed must be 0 in constant mode, which draws nothing, "
                             f"got {shown(self.seed)}")


def shown(value):
    """repr(value), or its type where Python cannot print it (an int of over 4300 digits)."""
    try:
        return repr(value)
    except (ValueError, RecursionError):
        return f"<{type(value).__name__} too long to print>"


def check_int(field, value, least):
    """ValueError naming field unless value is an int, Python's or numpy's,
    >= least; a bool is refused, though Python counts it an int."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        bound = "a non-negative int" if least == 0 else f"an int >= {least}"
        raise ValueError(f"{field} must be {bound}, got {shown(value)}")


# the most a size that becomes an array dimension may be: as many as the
# pixels of the largest image harness.imageio reads (its MAX_PIXELS), so
# no image read has a side longer
MAX_SIZE = 1 << 25


def check_size(field, value):
    """check_int(field, value, 1), and ValueError naming field if value is
    over MAX_SIZE: a size that becomes an array dimension."""
    check_int(field, value, 1)
    if value > MAX_SIZE:
        raise ValueError(f"{field} must be at most {MAX_SIZE}, got {shown(value)}")


def check_real(field, value):
    """float(value), or ValueError naming field unless value is a real
    number, Python's or numpy's, that a float can hold; a bool is refused,
    though Python counts it a number. The caller checks the range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{field} must be a real number, got {shown(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{field} must be a real number a float can hold") from None


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
    _check_range(arr.min(), arr.max())
    return arr


def _check_range(lo, hi):
    """ValueError unless the least and greatest values of an image, lo and
    hi, are finite and in [0, 1]: NaN propagates through numpy's min and
    max, and an infinity is at one end."""
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("image contains non-finite values")
    if lo < 0.0 or hi > 1.0:
        raise ValueError("image intensities must lie in [0, 1]")


def gaussian_masks(h: int, w: int, cutoff: float):
    """Complementary Gaussian low/high masks on the centered frequency grid.

    low[u, v] = exp(-D^2 / (2 * cutoff^2)) with D the Euclidean distance from
    (h//2, w//2), or 0 where that is under sqrt(float64 tiny) = 1.5e-154;
    high = 1 - low, exact per cell.
    """
    check_size("h", h)
    check_size("w", w)
    return _masks(np.arange(h) - h // 2, np.arange(w) - w // 2, cutoff, np.float64)


def _masks(du, dv, cutoff, dtype):
    """(low, high) of dtype at row offsets du and column offsets dv from the
    center."""
    check_real("cutoff", cutoff)
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
    return _forward(_checked_planar(image, dtype, _whole), _whole)


def _checked_planar(image, dtype, split):
    """validate_image(image) cast to dtype in channel-planar memory, checked
    and cast in one pass over the rows as split parts them.

    The numpy transforms keep the memory order of their input, and run
    faster over channel-planar memory; every value is the same either way.
    A planar image of dtype, as float_pixels gives, is only checked, and
    returned as it is. Each part is checked before it is cast, and cast only
    if it is in range: a value outside [0, 1] is refused even where the cast
    would round it into range, and is never cast to overflow."""
    arr = float_image(image)
    h, w = arr.shape[:2]
    if arr.dtype == dtype and arr.transpose(2, 0, 1).flags.c_contiguous:
        planar = arr
    else:
        planar = _empty_planar(h, w, dtype)
    ends = {}

    def check_and_cast(rows):
        part = arr[rows]
        lo, hi = ends[rows.start] = part.min(), part.max()
        if planar is not arr and 0.0 <= lo and hi <= 1.0:  # NaN fails both
            planar[rows] = part

    split(check_and_cast, h)
    lo, hi = ends.pop(0)
    for part_lo, part_hi in ends.values():
        # numpy's minimum and maximum keep a NaN; Python's min and max drop
        # it unless it comes first
        lo, hi = np.minimum(lo, part_lo), np.maximum(hi, part_hi)
    _check_range(lo, hi)
    return planar


def usable_cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


# The one worker thread of decompose and decompose_attenuated, in a pool of
# one made on first use where two CPUs are usable. numpy's FFT loops
# release the GIL, so the worker transforms while the caller does.
_worker = None
_worker_lock = threading.Lock()


def _drop_worker():
    """In a forked child: the parent's worker thread was not copied, so a
    task handed to its pool would never run. The child makes its own."""
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # not on Windows, which has no fork
    os.register_at_fork(after_in_child=_drop_worker)


def _whole(call, n):
    """call on all of range(n) at once, in this thread."""
    call(slice(0, n))


def _halves(call, n):
    """call on all of range(n) as two halves at once: the upper one on the
    worker, the lower one here. Without a worker, the whole here."""
    global _worker
    with _worker_lock:
        if _worker is None and n > 1 and usable_cpus() > 1:
            # imported here: it takes 5 ms, and the captioner child imports
            # this module but never splits
            from concurrent.futures import ThreadPoolExecutor

            _worker = ThreadPoolExecutor(1)
        worker = _worker
    if worker is None or n < 2:
        call(slice(0, n))
        return
    upper = worker.submit(call, slice(n // 2, n))
    try:
        call(slice(0, n // 2))
    finally:
        upper.result()  # the worker's half is done: raises its error, if any


def _empty_planar(h, w, dtype):
    """An uninitialized (h, w, 3) array of dtype in channel-planar memory."""
    return np.empty((3, h, w), dtype).transpose(1, 2, 0)


def _forward(planar, split):
    # rfft2's two steps, the second in place: each 1-D transform is computed
    # on its own, whichever part of the rows or columns a call is given, so
    # the same bits however split splits them
    norm = _norm(planar)
    h, w = planar.shape[:2]
    half = _empty_planar(h, w // 2 + 1, np.result_type(planar.dtype, np.complex64))
    split(lambda rows: np.fft.rfft(planar[rows], axis=1, norm=norm, out=half[rows]), h)
    split(lambda cols: np.fft.fft(half[:, cols], axis=0, norm=norm, out=half[:, cols]),
          w // 2 + 1)
    return ImageSpectrum(half, (h, w))


def _norm(arr):
    """The numpy.fft norm for arr's precision: the default for double, and
    "ortho" for single, which scales each forward and inverse step by
    1 / sqrt(n), so a round trip is scaled as the default's. numpy.fft hands
    its loops the default's unit forward scale as the int 1, which selects
    the float64 loop: a single-precision forward step would run in double
    through cast buffers, 3x slower than a float64 one at 224x224."""
    return "ortho" if arr.dtype in (np.float32, np.complex64) else None


def _damped_weight(mask, gain, split):
    """Hermitian weight of one damped branch on the unshifted half grid.

    mask is a half-grid mask from _half_masks and gain a centered (h, w)
    draw. With g = mask * gain, the weight is (g(k) + g(-k)) / 2, the
    filter that the real part of a complex inverse applies, so irfft2 gives
    it exactly. The mask is even, so only the gain is read at -k. The
    weight is built by rows as split parts them, in arrays allocated here:
    memory a worker thread allocates and frees stays in its own malloc
    arena, where this thread cannot reuse it, and raised the decompose
    benchmark's peak RSS.
    """
    h, w = gain.shape
    # unshifted cell (r, c) is centered cell ((r + h//2) % h, (c + w//2) % w),
    # and its mirror (-r, -c) is centered cell ((h//2 - r) % h, (w//2 - c) % w),
    # which is cell ((r + h - 1 - h//2) % h, c) of the gain flipped on both
    # axes from column w//2. So the columns are slices, w//2 up (then column
    # 0 for an even w) and w//2 down, and the rows are rolled
    up = w - w // 2  # columns w//2 .. w - 1
    weight, mirror = np.empty((2, h, w // 2 + 1))

    def build(part):
        _roll_rows(weight[:, :up], gain[:, w // 2:], h // 2, part)
        if up <= w // 2:  # an even w
            _roll_rows(weight[:, up], gain[:, 0], h // 2, part)
        _roll_rows(mirror, gain[::-1, w // 2::-1], h - 1 - h // 2, part)
        g, m = weight[part], mask[part]
        g *= m
        mirror[part] *= m
        g += mirror[part]
        g /= 2.0

    split(build, h)
    return weight[:, :, None]


def _roll_rows(out, rows, shift, part):
    """out[r] = rows[(r + shift) % h] for each r in the slice part, h the
    number of rows: two slice copies, with no gather and no temporary."""
    h = len(rows)
    start = (part.start + shift) % h
    n = min(part.stop - part.start, h - start)
    out[part.start:part.start + n] = rows[start:start + n]
    out[part.start + n:part.stop] = rows[:part.stop - part.start - n]


def _branch(half, weight, w, split):
    """The inverse of half * weight, a real weight, signed zeros aside.

    half is weighted in place, by rows as split parts them, where a
    broadcast product would hold an iterator buffer of up to 128 KiB
    besides, and then overwritten: the caller gives a half spectrum of its
    own, a copy where the spectrum must survive, and weight as a temporary,
    freed before the inverse allocates: fewer page faults, faster."""

    def weigh(rows):
        part, by = half[rows], weight[rows]
        part.real *= by
        part.imag *= by

    split(weigh, half.shape[0])
    del weight
    return _inverse(half, w, split)


def _inverse(half, w, split):
    # irfft2's two steps, the first in place on the weighted half spectrum
    norm = _norm(half)
    h = half.shape[0]
    split(lambda cols: np.fft.ifft(half[:, cols], axis=0, norm=norm, out=half[:, cols]),
          half.shape[1])
    out = _empty_planar(h, w, half.real.dtype)
    split(lambda rows: np.fft.irfft(half[rows], n=w, axis=1, norm=norm, out=out[rows]), h)
    return out


def filter_branch(spectrum: ImageSpectrum, cutoff: float, which: str) -> np.ndarray:
    """One branch, "low" or "high", of the image behind spectrum at cutoff:
    its mask is built in the call, then one inverse. spectrum is unchanged.
    The branch is float32 for a complex64 spectrum, float64 otherwise."""
    if which not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}, got {shown(which)}")
    h, w = spectrum.shape
    real = spectrum.half.real.dtype  # a float64 mask would upcast the product
    # a copy to weight: the spectrum is the caller's, for every cutoff of a sweep
    return _branch(spectrum.half.copy(order="K"),
                   _half_masks(h, w, cutoff, real)[BRANCHES.index(which)][:, :, None], w,
                   _whole)


def decompose(image, cutoff: float = DEFAULT_CUTOFF):
    """Split an image into its low- and high-frequency components.

    (low, high) as (h, w, 3) float64 arrays in channel-planar memory: low is
    filter_branch(image_spectrum(image), cutoff, "low"), bit for bit, and
    high is the image minus low, one inverse transform fewer. The masks are
    exact complements, so high equals filter_branch's "high" branch up to
    transform round-off (about 1e-15 on [0, 1] images), and low + high ==
    image up to the round-off of one subtraction. Not clamped.
    """
    planar = _checked_planar(image, np.float64, _halves)
    h, w = planar.shape[:2]
    # the spectrum is this call's own: weighted as it is, and freed before
    # high is allocated
    low = _branch(_forward(planar, _halves).half, _half_masks(h, w, cutoff)[0][:, :, None],
                  w, _halves)
    # a new array: planar may be the caller's own image
    high = _empty_planar(h, w, np.float64)
    _halves(lambda rows: np.subtract(planar[rows], low[rows], out=high[rows]), h)
    return low, high


def _draw_gains(h, w, spec, count, split):
    """count (h, w) damping draws, the low branch's first: the U(0, gamma)
    stream of PCG64(seed) in order, or gamma throughout. The draws are taken
    at once as split parts them, each from a generator advanced past the
    ones before it, into an array allocated here (see _damped_weight)."""
    if spec.mode == MODE_CONSTANT:
        return np.full((count, h, w), spec.gamma)
    gains = np.empty((count, h, w))

    def draw(part):
        for k in range(count)[part]:
            bits = np.random.PCG64(spec.seed)
            bits.advance(k * h * w)  # each U(0, 1) double takes one 64-bit output
            # U(0, gamma) is gamma times U(0, 1): the bits of uniform(0, gamma),
            # which computes 0 + gamma * u; random fills in place, and
            # releases the GIL
            np.random.Generator(bits).random(out=gains[k])
            gains[k] *= spec.gamma

    split(draw, count)
    return gains


def attenuation_matrix(h: int, w: int, spec: AttenuationSpec) -> np.ndarray:
    """Damping matrix per the spec: U(0, gamma) draws or the constant gamma."""
    check_size("h", h)
    check_size("w", w)
    return _draw_gains(h, w, spec, 1, _whole)[0]


def decompose_attenuated(image, cutoff: float, spec: AttenuationSpec):
    """Decompose with each branch's masked spectrum damped elementwise,
    by one damping draw per branch as AttenuationSpec describes."""
    spectrum = _forward(_checked_planar(image, np.float64, _halves), _halves)
    h, w = spectrum.shape
    masks = _half_masks(h, w, cutoff)
    gains = _draw_gains(h, w, spec, len(BRANCHES), _halves)
    # the low branch weights a copy, and the high branch, the spectrum's last
    # use, the spectrum itself. The masks and draws live to the end: freed
    # earlier, they left heap that raised the decompose benchmark's peak RSS
    low = _branch(spectrum.half.copy(order="K"), _damped_weight(masks[0], gains[0], _halves),
                  w, _halves)
    return low, _branch(spectrum.half, _damped_weight(masks[1], gains[1], _halves), w,
                        _halves)
