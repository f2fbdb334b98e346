"""Frequency-decomposition tests against the naive-DFT oracles."""

import multiprocessing
import re
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqfuse import spectral
from freqfuse.encoder import EncoderConfig, patch_tokens
from freqfuse.harness.imageio import load_image, save_image
from freqfuse.spectral import (
    AttenuationSpec,
    attenuation_matrix,
    decompose,
    decompose_attenuated,
    filter_branch,
    float_image,
    gaussian_masks,
    image_spectrum,
    validate_image,
)
from oracles import (
    naive_decompose,
    naive_dft2d,
    naive_gaussian_low_mask,
    naive_weight,
)
from util import UNPRINTABLE, traced_peak, unprintable


def random_image(rng, h, w):
    return rng.uniform(0.0, 1.0, size=(h, w, 3))


# image_spectrum: the forward transform the package runs


def test_impulse_has_flat_spectrum():
    img = np.zeros((4, 5, 3))
    img[0, 0] = 1.0
    assert np.abs(image_spectrum(img).half - 1.0).max() < 1e-12


def test_constant_plane_is_pure_dc():
    half = image_spectrum(np.full((4, 4, 3), 0.3)).half
    assert half[0, 0] == pytest.approx([16 * 0.3] * 3, abs=1e-12)
    rest = half.copy()
    rest[0, 0] = 0.0
    assert np.abs(rest).max() < 1e-12


@settings(max_examples=25, deadline=None)
@given(
    h=st.integers(min_value=1, max_value=9),
    w=st.integers(min_value=1, max_value=9),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_dft_oracle_equivalence_property(h, w, seed):
    img = random_image(np.random.default_rng(seed), h, w)
    half = image_spectrum(img).half
    for c in range(3):
        want = naive_dft2d(img[:, :, c])[:, : w // 2 + 1]
        assert np.abs(half[:, :, c] - want).max() < 1e-9


# gaussian_masks


def test_mask_center_cell():
    for h, w in [(4, 4), (5, 7), (1, 1), (8, 3)]:
        low, high = gaussian_masks(h, w, 30.0)
        assert low[h // 2, w // 2] == 1.0
        assert high[h // 2, w // 2] == 0.0


def test_mask_value_at_cutoff_distance():
    # cell exactly d0 away from center carries weight exp(-1/2)
    low, high = gaussian_masks(11, 11, 3.0)
    assert low[5 + 3, 5] == pytest.approx(np.exp(-0.5), abs=1e-12)
    assert high[5 + 3, 5] == pytest.approx(1 - np.exp(-0.5), abs=1e-12)


def test_huge_cutoff_is_near_allpass():
    low, _ = gaussian_masks(5, 5, 1000.0)
    assert low.min() > 0.999


def test_mask_matches_naive_oracle():
    # 375x500 at cutoff 6 takes most of the grid into subnormals
    for h, w, cutoff in [(9, 12, 4.5), (1, 1, 3.0), (7, 5, 0.3), (64, 48, 2.0),
                         (375, 500, 6.0)]:
        low, _ = gaussian_masks(h, w, cutoff)
        assert np.abs(low - naive_gaussian_low_mask(h, w, cutoff)).max() < 1e-12


def test_tiny_cutoff_passes_only_dc():
    # 2 * cutoff**2 underflows to 0 here; the mask must not divide by it
    low, high = gaussian_masks(5, 4, 1e-200)
    want = np.zeros((5, 4))
    want[2, 2] = 1.0
    assert np.array_equal(low, want)
    assert np.array_equal(high, 1.0 - want)
    img = random_image(np.random.default_rng(17), 6, 7)
    low, high = decompose(img, 1e-200)
    mean = img.mean(axis=(0, 1))
    assert np.abs(low - mean).max() < 1e-12
    assert np.abs(high - (img - mean)).max() < 1e-12


def test_mask_rejects_bad_cutoff():
    with pytest.raises(ValueError):
        gaussian_masks(4, 4, 0.0)
    with pytest.raises(ValueError):
        gaussian_masks(4, 4, -5.0)
    with pytest.raises(ValueError, match="positive"):
        gaussian_masks(4, 4, float("nan"))


@settings(max_examples=50, deadline=None)
@given(
    h=st.integers(min_value=1, max_value=32),
    w=st.integers(min_value=1, max_value=32),
    d0=st.floats(min_value=0.1, max_value=1000.0),
)
def test_mask_complementarity_is_exact(h, w, d0):
    low, high = gaussian_masks(h, w, d0)
    assert np.all(low + high == 1.0)
    assert low.min() >= 0.0 and low.max() <= 1.0


@settings(max_examples=30, deadline=None)
@given(
    h=st.integers(min_value=1, max_value=16),
    w=st.integers(min_value=1, max_value=16),
    d0_a=st.floats(min_value=0.1, max_value=100.0),
    d0_b=st.floats(min_value=0.1, max_value=100.0),
)
def test_low_mask_monotone_in_cutoff(h, w, d0_a, d0_b):
    if d0_a > d0_b:
        d0_a, d0_b = d0_b, d0_a
    low_a, _ = gaussian_masks(h, w, d0_a)
    low_b, _ = gaussian_masks(h, w, d0_b)
    assert np.all(low_a <= low_b + 1e-15)


# decompose


def test_constant_image_is_all_low():
    low, high = decompose(np.full((6, 6, 3), 0.5), 30.0)
    assert np.abs(low - 0.5).max() < 1e-9
    assert np.abs(high).max() < 1e-9


def test_reconstruction_identity():
    rng = np.random.default_rng(1)
    for h, w in [(8, 8), (5, 9), (17, 23)]:
        img = random_image(rng, h, w)
        for d0 in (1.0, 5.0, 30.0, 100.0):
            low, high = decompose(img, d0)
            assert np.abs(low + high - img).max() < 1e-9


def test_decompose_matches_naive_pipeline():
    img = random_image(np.random.default_rng(3), 8, 8)
    low, high = decompose(img, 2.0)
    naive_low, naive_high = naive_decompose(img, 2.0)
    assert np.abs(low - naive_low).max() < 1e-8
    assert np.abs(high - naive_high).max() < 1e-8


# spectrum reuse: image_spectrum once, filter_branch per cutoff


@settings(max_examples=25, deadline=None)
@given(
    h=st.integers(min_value=1, max_value=16),
    w=st.integers(min_value=1, max_value=16),
    cutoff=st.floats(min_value=0.5, max_value=20.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_filter_branch_naive_oracle_property(h, w, cutoff, seed):
    img = random_image(np.random.default_rng(seed), h, w)
    spectrum = image_spectrum(img)
    for got, want in zip((filter_branch(spectrum, cutoff, "low"),
                          filter_branch(spectrum, cutoff, "high")),
                         naive_decompose(img, cutoff)):
        assert np.abs(got - want).max() < 1e-9


def assert_decompose_is_low_and_the_rest(img, spectrum, cutoff):
    """decompose's low branch is filter_branch's, bit for bit; its high
    branch is the float64 image minus that, bit for bit, and within
    round-off of filter_branch's high branch."""
    low, high = decompose(img, cutoff)
    assert np.array_equal(low, filter_branch(spectrum, cutoff, "low"))
    assert np.array_equal(high, np.asarray(img, dtype=np.float64) - low)
    assert np.abs(filter_branch(spectrum, cutoff, "high") - high).max() <= 1e-12


@pytest.mark.parametrize("h, w", [(224, 224), (375, 500), (1, 1)])
def test_decompose_is_filter_branchs_low_and_the_image_minus_it(h, w):
    img = random_image(np.random.default_rng(h + w), h, w)
    spectrum = image_spectrum(img)
    for cutoff in (1.0, 30.0, 120.0):
        assert_decompose_is_low_and_the_rest(img, spectrum, cutoff)


def test_decompose_is_filter_branchs_low_and_the_image_minus_it_across_shapes():
    # widths 4 and 5 have the same half-spectrum width, 3
    images = [random_image(np.random.default_rng(s), 6, w)
              for s, w in enumerate((4, 5, 4))]
    spectra = [image_spectrum(img) for img in images]
    for cutoff in (1.0, 2.5):
        for img, spectrum in zip(images, spectra):
            assert_decompose_is_low_and_the_rest(img, spectrum, cutoff)


def test_decompose_takes_one_inverse_transform(monkeypatch):
    img = random_image(np.random.default_rng(17), 12, 10)
    inverted = []
    original = spectral._inverse

    def counted(prod, w, split):
        inverted.append(prod.shape)
        return original(prod, w, split)

    monkeypatch.setattr(spectral, "_inverse", counted)
    decompose(img, 3.0)
    assert inverted == [(12, 6, 3)]


def test_decompose_leaves_a_loaded_image_alone(tmp_path):
    # load_image gives float64 channel-planar memory, which decompose
    # transforms as it stands, without a copy
    save_image(random_image(np.random.default_rng(18), 9, 7), tmp_path / "a.ppm")
    img = load_image(tmp_path / "a.ppm")
    assert img.dtype == np.float64 and img.transpose(2, 0, 1).flags.c_contiguous
    before = img.copy()
    low, high = decompose(img, 2.0)
    assert np.array_equal(img, before)
    assert not np.shares_memory(high, img) and not np.shares_memory(low, img)


def test_decompose_attenuated_leaves_a_loaded_image_alone(tmp_path):
    # the damped split weights its own spectrum in place, never the image
    save_image(random_image(np.random.default_rng(19), 9, 7), tmp_path / "a.ppm")
    img = load_image(tmp_path / "a.ppm")
    assert img.dtype == np.float64 and img.transpose(2, 0, 1).flags.c_contiguous
    before = img.copy()
    low, high = decompose_attenuated(img, 2.0, AttenuationSpec(0.5, seed=4))
    assert np.array_equal(img, before)
    assert not np.shares_memory(high, img) and not np.shares_memory(low, img)
    assert not np.shares_memory(low, high)


def test_filter_branch_leaves_the_spectrum_alone():
    spectrum = image_spectrum(random_image(np.random.default_rng(15), 9, 10))
    before = spectrum.half.copy()
    for which in ("low", "high", "low"):
        filter_branch(spectrum, 4.0, which)
    assert np.array_equal(spectrum.half, before)
    assert spectrum.shape == (9, 10)


# half-grid weights and channel-planar memory


@settings(max_examples=300, deadline=None)
@given(
    h=st.integers(min_value=1, max_value=40),
    w=st.integers(min_value=1, max_value=40),
    # log-uniform; the small end takes exp into subnormals and to 0
    cutoff=st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_half_grid_weight_matches_the_full_grid_oracle(h, w, cutoff, seed):
    # undamped, the weight is the mask itself; damped, a centered (h, w) draw
    gain = np.random.default_rng(seed).uniform(size=(h, w))
    for full, half in zip(gaussian_masks(h, w, cutoff), spectral._half_masks(h, w, cutoff)):
        assert np.array_equal(half[:, :, None], naive_weight(full, 1.0))
        want = naive_weight(full, gain[:, :, None])
        for split in (spectral._whole, spectral._halves):  # rows in one part or two
            assert np.array_equal(spectral._damped_weight(half, gain, split), want)


def test_one_mask_build_per_split(monkeypatch):
    img = random_image(np.random.default_rng(16), 12, 10)
    built = []
    original = spectral._half_masks

    def counted(h, w, cutoff):
        built.append((h, w, cutoff))
        return original(h, w, cutoff)

    monkeypatch.setattr(spectral, "_half_masks", counted)
    decompose_attenuated(img, 3.0, AttenuationSpec(0.5, seed=1))
    assert built == [(12, 10, 3.0)]


def planar_copy(img):
    return np.ascontiguousarray(img.transpose(2, 0, 1)).transpose(1, 2, 0)


def layouts(img):
    """One image in C order, over channel-planar memory, in Fortran order and
    as a view strided on every axis."""
    h, w, _ = img.shape
    strided = np.full((2 * h, 2 * w, 6), np.nan)
    strided[::2, ::2, ::2] = img
    return {
        "C": np.ascontiguousarray(img),
        "planar": planar_copy(img),
        "Fortran": np.asfortranarray(img),
        "strided": strided[::2, ::2, ::2],
    }


def all_outputs(img, cutoff):
    spectrum = image_spectrum(img)
    return (
        *decompose(img, cutoff),
        *decompose_attenuated(img, cutoff, AttenuationSpec(0.6, seed=3)),
        *(filter_branch(spectrum, cutoff, which) for which in ("low", "high")),
    )


@pytest.mark.parametrize("h, w", [(1, 1), (1, 6), (7, 10), (16, 9)])
def test_outputs_do_not_depend_on_the_input_layout(h, w):
    img = random_image(np.random.default_rng(h * 100 + w), h, w)
    want = all_outputs(img, 2.5)
    for name, arr in layouts(img).items():
        assert np.array_equal(arr, img), name
        for got, expected in zip(all_outputs(arr, 2.5), want):
            assert np.array_equal(got, expected), name


def is_channel_planar(arr):
    return np.moveaxis(arr, 2, 0).flags.c_contiguous


def test_spectra_and_branches_are_channel_planar():
    # the transforms run faster over planar memory; an interleaved input is
    # made planar once, and everything after it stays so
    img = random_image(np.random.default_rng(16), 12, 9)
    assert not is_channel_planar(img)
    assert is_channel_planar(image_spectrum(img).half)
    for branch in all_outputs(img, 3.0):
        assert is_channel_planar(branch)


@settings(max_examples=200, deadline=None)
@given(
    h=st.integers(min_value=1, max_value=33),
    w=st.integers(min_value=1, max_value=33),
    planar=st.booleans(),
    cutoff=st.floats(min_value=0.5, max_value=40.0),
    which=st.sampled_from(spectral.BRANCHES),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_transforms_are_the_2d_numpy_calls_bit_for_bit(h, w, planar, cutoff, which, seed):
    # the package runs the 1-D steps of rfft2 and irfft2 itself, in place
    img = random_image(np.random.default_rng(seed), h, w)
    spectrum = image_spectrum(planar_copy(img) if planar else img)
    assert np.array_equal(spectrum.half, np.fft.rfft2(planar_copy(img), axes=(0, 1)))
    branch = filter_branch(spectrum, cutoff, which)
    weight = spectral._half_masks(h, w, cutoff)[spectral.BRANCHES.index(which)]
    want = np.fft.irfft2(spectrum.half * weight[:, :, None], s=(h, w), axes=(0, 1))
    assert np.array_equal(branch, want)


# at most one fresh full-size buffer besides the result: peak traced bytes
# at 64x80, each bound with 10% for numpy's and Python's small objects
BUDGET_H, BUDGET_W = 64, 80
HALF_BYTES = BUDGET_H * (BUDGET_W // 2 + 1) * 3 * 16
IMAGE_BYTES = BUDGET_H * BUDGET_W * 3 * 8


def test_forward_transform_of_a_planar_image_allocates_one_half_spectrum():
    img = planar_copy(random_image(np.random.default_rng(5), BUDGET_H, BUDGET_W))
    assert traced_peak(lambda: image_spectrum(img)) <= 1.1 * HALF_BYTES


def test_filter_branch_allocates_one_half_spectrum_and_one_image():
    img = random_image(np.random.default_rng(6), BUDGET_H, BUDGET_W)
    spectrum = image_spectrum(img)
    peak = traced_peak(lambda: filter_branch(spectrum, 7.0, "high"))
    assert peak <= 1.1 * (HALF_BYTES + IMAGE_BYTES)


def test_decompose_of_a_planar_image_allocates_one_half_spectrum_and_one_image():
    # the spectrum is weighted in place and freed before high is allocated,
    # so low and high are the only full-size buffers at once
    img = planar_copy(random_image(np.random.default_rng(7), BUDGET_H, BUDGET_W))
    assert traced_peak(lambda: decompose(img, 7.0)) <= 1.1 * (HALF_BYTES + IMAGE_BYTES)


def test_decompose_attenuated_allocates_one_spectrum_copy():
    # while the low branch is inverted: the spectrum, the copy the low branch
    # weights, the low branch, both masks and both (h, w) damping draws; the
    # high branch then weights the spectrum itself, not a second copy
    img = planar_copy(random_image(np.random.default_rng(8), BUDGET_H, BUDGET_W))
    masks_bytes = 2 * BUDGET_H * (BUDGET_W // 2 + 1) * 8
    draws_bytes = 2 * BUDGET_H * BUDGET_W * 8
    peak = traced_peak(lambda: decompose_attenuated(img, 7.0, AttenuationSpec(0.5, seed=2)))
    assert peak <= 1.1 * (2 * HALF_BYTES + IMAGE_BYTES + masks_bytes + draws_bytes)


# the same budgets in single precision: a complex64 spectrum is half the
# bytes, and an upcast anywhere on the way would not fit
HALF32_BYTES = HALF_BYTES // 2
IMAGE32_BYTES = IMAGE_BYTES // 2


def test_single_precision_forward_transform_allocates_one_half_spectrum():
    img = planar_copy(random_image(np.random.default_rng(5), BUDGET_H, BUDGET_W))
    img = img.astype(np.float32, order="K")
    assert traced_peak(lambda: image_spectrum(img, np.float32)) <= 1.1 * HALF32_BYTES


def test_single_precision_filter_branch_allocates_one_half_spectrum_and_one_image():
    img = random_image(np.random.default_rng(6), BUDGET_H, BUDGET_W)
    spectrum = image_spectrum(img, np.float32)
    peak = traced_peak(lambda: filter_branch(spectrum, 7.0, "high"))
    assert peak <= 1.1 * (HALF32_BYTES + IMAGE32_BYTES)


def test_precision_follows_the_requested_dtype_not_the_image():
    img = random_image(np.random.default_rng(17), 9, 12)
    img32 = img.astype(np.float32)
    for image in (img, img32):
        assert image_spectrum(image).half.dtype == np.complex128
        spectrum = image_spectrum(image, np.float32)
        assert spectrum.half.dtype == np.complex64
        for which in ("low", "high"):
            assert filter_branch(spectrum, 2.5, which).dtype == np.float32


def test_library_results_stay_double_precision_for_a_float32_image():
    # a float32 image is widened exactly, so every result is the float64
    # one of the same values, bit for bit
    img32 = random_image(np.random.default_rng(18), 10, 7).astype(np.float32)
    img64 = img32.astype(np.float64)
    for got, want in zip(all_outputs(img32, 2.5), all_outputs(img64, 2.5)):
        assert got.dtype == np.float64
        assert np.array_equal(got, want)


def test_single_precision_branches_match_the_naive_pipeline():
    # float32 has a 1.2e-7 epsilon; a branch of [0, 1] pixels stays within
    # a few dozen of them of the naive double-precision result
    for h, w in [(6, 6), (5, 7), (8, 3)]:
        img = random_image(np.random.default_rng(h * 10 + w), h, w)
        spectrum = image_spectrum(img, np.float32)
        for cutoff in (0.7, 2.0, 30.0):
            for which, naive in zip(("low", "high"), naive_decompose(img, cutoff)):
                assert np.abs(filter_branch(spectrum, cutoff, which) - naive).max() < 1e-5


@pytest.mark.parametrize(
    "h, w, cutoff", [(224, 224, 2.0), (375, 500, 6.0), (64, 80, 0.7), (512, 512, 6.0)]
)
def test_single_precision_masks_hold_no_subnormal_weights(h, w, cutoff):
    # a subnormal weight, or one whose product with the spectrum is
    # subnormal, slows the inverse several times over; float64 weights pass
    # the normal range too, 37.6 cutoffs from the center
    exact = np.fft.ifftshift(naive_gaussian_low_mask(h, w, cutoff))[:, : w // 2 + 1]
    for dtype, tolerance in ((np.float32, 1e-7), (np.float64, 1e-15)):
        floor = np.sqrt(np.finfo(dtype).tiny)
        masks = spectral._half_masks(h, w, cutoff, dtype)
        for mask in masks:
            assert mask.dtype == dtype
            assert not np.any((mask > 0) & (mask < floor))
        # the floor drops weights, and does not round the ones it keeps
        assert np.any(exact[exact < floor] > 0)
        assert np.abs(masks[0] - exact).max() < tolerance
        assert np.array_equal(masks[0] == 0, exact < floor)


@pytest.mark.parametrize("bad", [1 + 1e-9, 1e300, -1e-9, -1e300])
def test_image_is_checked_before_the_cast_to_single_precision(bad):
    # cast first, 1 + 1e-9 would round to 1.0 and pass, and 1e300 would
    # overflow to inf with a warning and read as non-finite
    img = np.full((3, 4, 3), 0.5)
    img[2, 1, 0] = bad
    with pytest.raises(ValueError, match=r"intensities must lie in \[0, 1\]"):
        image_spectrum(img, np.float32)


@pytest.mark.parametrize("dtype", [np.float16, np.complex64, np.complex128, np.int32])
def test_image_spectrum_takes_only_single_or_double_precision(dtype):
    with pytest.raises(ValueError, match="float32 or float64"):
        image_spectrum(np.zeros((2, 2, 3)), dtype)


def test_spectrum_and_branch_reject_bad_input():
    with pytest.raises(ValueError, match="intensities"):
        image_spectrum(np.full((2, 2, 3), 1.5))
    spectrum = image_spectrum(np.zeros((2, 2, 3)))
    with pytest.raises(ValueError, match="branch"):
        filter_branch(spectrum, 5.0, "both")
    with pytest.raises(ValueError, match="cutoff"):
        filter_branch(spectrum, 0.0, "low")


def test_validate_image_rejects_bad_input(tmp_path):
    with pytest.raises(ValueError, match="shape"):
        validate_image(np.zeros((4, 4)))
    # a cast would drop the imaginary part, or parse the strings
    path = tmp_path / "img.ppm"
    for bad in (
        np.full((4, 4, 3), 0.5) + 0.3j,
        np.full((4, 4, 3), "0.5"),
        np.full((4, 4, 3), 0.5, dtype=object),
    ):
        for check in (
            float_image,
            validate_image,
            lambda image: decompose(image, 3),
            lambda image: save_image(image, path),
            lambda image: patch_tokens(image, EncoderConfig(patch_size=2, dim=4)),
        ):
            with pytest.raises(ValueError, match=re.escape(f"got dtype {bad.dtype}")):
                check(bad)
    assert not path.exists()
    for bad in (1.5, -0.1):
        with pytest.raises(ValueError, match=r"intensities must lie in \[0, 1\]"):
            validate_image(np.full((2, 2, 3), bad))
    for bad in (np.nan, np.inf, -np.inf):
        img = np.full((3, 2, 3), 0.5)
        img[1, 1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            validate_image(img)
        img[0, 0, 0] = 1.5  # out of range as well: non-finite is what is reported
        with pytest.raises(ValueError, match="non-finite"):
            validate_image(img)


# attenuation


def test_zero_gamma_matrix_is_zero():
    for mode in ("random", "constant"):
        m = attenuation_matrix(4, 6, AttenuationSpec(gamma=0.0, mode=mode))
        assert np.all(m == 0.0)


def test_constant_matrix_holds_gamma():
    m = attenuation_matrix(3, 3, AttenuationSpec(gamma=0.23, mode="constant"))
    assert np.all(m == 0.23)


def test_random_matrix_statistics():
    m = attenuation_matrix(64, 64, AttenuationSpec(gamma=0.5, seed=123))
    assert m.min() >= 0.0 and m.max() < 0.5
    assert 0.22 <= m.mean() <= 0.28


def test_attenuation_spec_rejects_bad_values():
    with pytest.raises(ValueError):
        AttenuationSpec(gamma=1.5)
    with pytest.raises(ValueError):
        AttenuationSpec(gamma=-0.1)
    with pytest.raises(ValueError):
        AttenuationSpec(mode="gaussian")


def test_constant_damping_refuses_a_seed_it_would_ignore():
    # it was accepted and ignored; the CLI already refused --seed with --const-gamma
    with pytest.raises(
        ValueError, match=r"^seed must be 0 in constant mode, which draws nothing, got 7$"
    ):
        AttenuationSpec(0.5, seed=7, mode="constant")
    assert AttenuationSpec(0.5, seed=0, mode="constant").seed == 0


@pytest.mark.parametrize("gamma", [True, "0.5", None, 0.5j])
def test_attenuation_spec_names_a_gamma_that_is_not_a_real_number(gamma):
    # True once ran at gamma 1, and "0.5" raised a bare TypeError
    with pytest.raises(ValueError, match="^gamma must be a real number, got"):
        AttenuationSpec(gamma)


@pytest.mark.parametrize("cutoff", [True, "3", None, 3j])
def test_every_split_names_a_cutoff_that_is_not_a_real_number(cutoff):
    # True once ran at cutoff 1, and "3" raised a bare TypeError
    img = random_image(np.random.default_rng(20), 4, 5)
    for call in (
        lambda: decompose(img, cutoff),
        lambda: decompose_attenuated(img, cutoff, AttenuationSpec(0.5)),
        lambda: filter_branch(image_spectrum(img), cutoff, "low"),
        lambda: gaussian_masks(4, 5, cutoff),
    ):
        with pytest.raises(ValueError, match="^cutoff must be a real number, got"):
            call()


@pytest.mark.parametrize("cutoff", [10**400, -(10**400)], ids=["int-past-float", "negative"])
def test_every_split_names_a_cutoff_that_a_float_cannot_hold(cutoff):
    # each raised a bare OverflowError from the float conversion
    img = random_image(np.random.default_rng(20), 4, 5)
    for call in (
        lambda: decompose(img, cutoff),
        lambda: decompose_attenuated(img, cutoff, AttenuationSpec(0.5)),
        lambda: filter_branch(image_spectrum(img), cutoff, "low"),
        lambda: gaussian_masks(4, 5, cutoff),
    ):
        with pytest.raises(ValueError, match="^cutoff must be a real number a float can hold$"):
            call()


_SPECTRUM = image_spectrum(np.full((4, 5, 3), 0.5))


# each raised Python's own "Exceeds the limit (4300 digits)" ValueError,
# which names no argument, in place of its own refusal
@pytest.mark.parametrize(
    "field, call",
    [
        pytest.param("h", lambda v: gaussian_masks(-v, 5, 3.0), id="masks-h"),
        pytest.param("h", lambda v: gaussian_masks([v], 5, 3.0), id="masks-h-list"),
        pytest.param("w", lambda v: attenuation_matrix(4, -v, AttenuationSpec(0.5)),
                     id="attenuation_matrix-w"),
        pytest.param("cutoff", lambda v: gaussian_masks(4, 5, [v]), id="masks-cutoff-list"),
        pytest.param("cutoff", lambda v: decompose(np.zeros((4, 5, 3)), [v]),
                     id="decompose-cutoff-list"),
        pytest.param("gamma", lambda v: AttenuationSpec([v]), id="spec-gamma-list"),
        pytest.param("seed", lambda v: AttenuationSpec(0.5, seed=-v), id="spec-seed"),
        pytest.param("seed", lambda v: AttenuationSpec(0.5, seed=[v]), id="spec-seed-list"),
        pytest.param("seed", lambda v: AttenuationSpec(0.5, seed=v, mode="constant"),
                     id="spec-constant-seed"),
        pytest.param("mode", lambda v: AttenuationSpec(0.5, mode=v), id="spec-mode"),
        pytest.param("mode", lambda v: AttenuationSpec(0.5, mode=[v]), id="spec-mode-list"),
        pytest.param("branch", lambda v: filter_branch(_SPECTRUM, 3.0, v),
                     id="filter_branch-which"),
        pytest.param("branch", lambda v: filter_branch(_SPECTRUM, 3.0, [v]),
                     id="filter_branch-which-list"),
    ],
)
def test_a_refused_value_too_long_to_print_is_named_by_its_type(field, call):
    with pytest.raises(ValueError, match=unprintable(field)):
        call(UNPRINTABLE)


def test_real_number_arguments_take_numpy_scalars():
    img = random_image(np.random.default_rng(21), 4, 5)
    for a, b in zip(decompose(img, np.float32(2.5)), decompose(img, 2.5)):
        assert np.array_equal(a, b)
    for a, b in zip(decompose(img, np.int64(3)), decompose(img, 3.0)):
        assert np.array_equal(a, b)
    assert AttenuationSpec(np.float64(0.5)).gamma == 0.5


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_attenuation_spec_checks_its_seed_where_it_is_stored(seed):
    with pytest.raises(ValueError, match="seed must be a non-negative int"):
        AttenuationSpec(0.5, seed=seed)


@pytest.mark.parametrize("size", [2.5, True, 0, "3"])
@pytest.mark.parametrize("field", ["h", "w"])
def test_masks_and_damping_matrix_name_a_size_that_is_not_an_int(field, size):
    # 2.5 and True once built a mask of 3 and 1 rows; "3" raised a bare TypeError
    sizes = {"h": 3, "w": 3, field: size}
    with pytest.raises(ValueError, match=f"^{field} must be an int >= 1, got"):
        gaussian_masks(sizes["h"], sizes["w"], 1.0)
    with pytest.raises(ValueError, match=f"^{field} must be an int >= 1, got"):
        attenuation_matrix(sizes["h"], sizes["w"], AttenuationSpec(0.5))


def test_masks_take_numpy_integer_sizes():
    for a, b in zip(gaussian_masks(np.int64(3), np.int32(4), 1.0), gaussian_masks(3, 4, 1.0)):
        assert np.array_equal(a, b)


def test_zero_gamma_decomposition_is_zero():
    img = random_image(np.random.default_rng(4), 6, 8)
    low, high = decompose_attenuated(img, 30.0, AttenuationSpec(gamma=0.0))
    assert np.all(low == 0.0)
    assert np.all(high == 0.0)


def test_constant_one_equals_plain_decompose():
    img = random_image(np.random.default_rng(5), 7, 5)
    spec = AttenuationSpec(gamma=1.0, mode="constant")
    low_a, high_a = decompose_attenuated(img, 30.0, spec)
    low_p, high_p = decompose(img, 30.0)
    assert np.abs(low_a - low_p).max() < 1e-12
    assert np.abs(high_a - high_p).max() < 1e-12


def test_constant_half_scales_decompose():
    img = random_image(np.random.default_rng(6), 9, 4)
    spec = AttenuationSpec(gamma=0.5, mode="constant")
    low_a, high_a = decompose_attenuated(img, 30.0, spec)
    low_p, high_p = decompose(img, 30.0)
    assert np.abs(low_a - 0.5 * low_p).max() < 1e-9
    assert np.abs(high_a - 0.5 * high_p).max() < 1e-9


def test_attenuated_determinism():
    img = random_image(np.random.default_rng(8), 6, 6)
    spec = AttenuationSpec(gamma=0.23, seed=99)
    a = decompose_attenuated(img, 30.0, spec)
    b = decompose_attenuated(img, 30.0, spec)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_branches_get_independent_draws():
    # the high branch is damped by the second draw, not the low branch's
    img = random_image(np.random.default_rng(12), 8, 8)
    spec = AttenuationSpec(gamma=1.0, seed=0)
    low, high = decompose_attenuated(img, 30.0, spec)
    first, _ = documented_gains(8, 8, spec)
    low_s, high_s = naive_decompose(img, 30.0, first, first)
    assert np.abs(low - low_s).max() < 1e-9
    assert not np.allclose(high, high_s)


def test_decompose_determinism_bit_identical():
    img = random_image(np.random.default_rng(10), 12, 10)
    a = decompose(img, 30.0)
    b = decompose(img, 30.0)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def documented_gains(h, w, spec):
    """Centered (h, w, 3) low/high gains built from the draw order the spec
    documents: two draws from one PCG64 stream, the low branch's first, each
    shared by all three channels of its branch."""
    rng = np.random.default_rng(spec.seed)

    def branch():
        return np.repeat(rng.uniform(0.0, spec.gamma, size=(h, w, 1)), 3, axis=-1)

    return branch(), branch()


@pytest.mark.parametrize("h, w", [(6, 6), (5, 7)])
def test_attenuated_matches_naive_pipeline(h, w):
    img = random_image(np.random.default_rng(14), h, w)
    spec = AttenuationSpec(gamma=0.7, seed=31)
    low, high = decompose_attenuated(img, 2.0, spec)
    naive_low, naive_high = naive_decompose(img, 2.0, *documented_gains(h, w, spec))
    assert np.abs(low - naive_low).max() < 1e-9
    assert np.abs(high - naive_high).max() < 1e-9


@settings(max_examples=25, deadline=None)
@given(
    h=st.integers(min_value=1, max_value=16),
    w=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_attenuated_naive_oracle_property(h, w, seed):
    img = random_image(np.random.default_rng(seed), h, w)
    spec = AttenuationSpec(gamma=1.0, seed=seed)
    low, high = decompose_attenuated(img, 3.0, spec)
    naive_low, naive_high = naive_decompose(img, 3.0, *documented_gains(h, w, spec))
    assert np.abs(low - naive_low).max() < 1e-9
    assert np.abs(high - naive_high).max() < 1e-9


# the worker thread: decompose and decompose_attenuated run each transform
# step as two halves, the upper one on the worker


@pytest.fixture
def worker(monkeypatch):
    """A worker of the test's own, made on first use as if the process had
    two usable CPUs, whatever it has; shut down after the test."""
    monkeypatch.setattr(spectral, "usable_cpus", lambda: 2)
    monkeypatch.setattr(spectral, "_worker", None)
    yield
    if spectral._worker is not None:
        spectral._worker.shutdown()


def fft_threads(monkeypatch):
    """The thread of every numpy transform call from here on, in order."""
    threads = []
    for name in ("rfft", "fft", "ifft", "irfft"):
        def recorded(*args, _original=getattr(np.fft, name), **kwargs):
            threads.append(threading.get_ident())
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, recorded)
    return threads


def both_splits(img, cutoff, spec=AttenuationSpec(0.4, seed=9)):
    return (*decompose(img, cutoff), *decompose_attenuated(img, cutoff, spec))


def input_kinds(img):
    """img as each kind of input the check and cast take apart: interleaved,
    planar, read-only planar (only checked, never copied), strided
    backwards, and float32, bool and int images."""
    read_only = planar_copy(img)
    read_only.flags.writeable = False
    return {
        "interleaved": img,
        "planar": planar_copy(img),
        "read-only": read_only,
        "negative strides": np.ascontiguousarray(img[::-1, ::-1])[::-1, ::-1],
        "float32": img.astype(np.float32),
        "bool": img > 0.5,
        "int": (img > 0.5).astype(np.int32),
    }


DAMPING = {
    "random": AttenuationSpec(0.4, seed=9),
    "constant": AttenuationSpec(0.7, mode="constant"),
    "zero gamma": AttenuationSpec(0.0, seed=3),
}


@pytest.mark.parametrize(
    "h, w", [(1, 1), (1, 2), (2, 1), (2, 2), (7, 9), (13, 4), (224, 224), (375, 500), (512, 512)]
)
def test_split_transforms_give_the_one_thread_bits(worker, monkeypatch, h, w):
    img = random_image(np.random.default_rng(h * 1000 + w), h, w)
    cutoff = 30.0 if h > 100 else 2.5
    # every kind of input at the small sizes; odd h * w at 1x1 and 7x9
    kinds = input_kinds(img) if h < 100 else {"interleaved": img}
    threads = fft_threads(monkeypatch)
    split = {(kind, damping): both_splits(image, cutoff, spec)
             for kind, image in kinds.items() for damping, spec in DAMPING.items()}
    # a step over one row or one column runs whole, in the caller's thread
    assert len(set(threads)) == (1 if h * w == 1 else 2)
    monkeypatch.setattr(spectral, "_halves", spectral._whole)
    for (kind, damping), outputs in split.items():
        for got, want in zip(outputs, both_splits(kinds[kind], cutoff, DAMPING[damping])):
            assert got.tobytes() == want.tobytes(), (kind, damping)
            assert is_channel_planar(got)
    if "read-only" in kinds:  # checked as it is, not copied
        read_only = kinds["read-only"]
        assert spectral._checked_planar(read_only, np.float64, spectral._halves) is read_only


@pytest.mark.parametrize("h, w", [(1, 1), (7, 9), (8, 6)])
@pytest.mark.parametrize("gamma, seed", [(0.3, 0), (0.3, 5), (1.0, 2**40), (0.0, 7)])
def test_the_high_branchs_draw_is_the_stream_after_the_low_ones(worker, h, w, gamma, seed):
    # the branches draw at once, the high one on the worker from a generator
    # advanced by h * w: the bits of one stream of U(0, gamma) drawn low
    # branch first
    spec = AttenuationSpec(gamma, seed=seed)
    stream = np.random.default_rng(seed).uniform(0.0, gamma, size=(2, h, w))
    for split in (spectral._halves, spectral._whole):
        assert spectral._draw_gains(h, w, spec, 2, split).tobytes() == stream.tobytes()
    assert spectral._worker is not None


# one half of the image holds a bad value where the other is good, or a
# value of another kind of bad: (where, value) pairs
BAD_HALVES = {
    "NaN": [("worker", np.nan)],
    "+inf": [("worker", np.inf)],
    "-inf": [("worker", -np.inf)],
    "over 1": [("worker", 1.5)],
    "under 0": [("worker", -0.5)],
    "NaN, out of range": [("worker", np.nan), ("caller", 1.5)],
    "+inf, out of range": [("worker", np.inf), ("caller", -0.5)],
    "out of range, NaN": [("worker", 1.5), ("caller", np.nan)],
    "out of range, -inf": [("worker", -0.5), ("caller", -np.inf)],
}


@pytest.mark.parametrize("bad", BAD_HALVES)
def test_a_bad_value_in_either_half_is_refused(worker, bad):
    # a non-finite value wins over one out of range, whichever half each is in
    img = random_image(np.random.default_rng(26), 10, 6)
    for where, value in BAD_HALVES[bad]:
        row = 7 if where == "worker" else 2  # the worker checks rows 5 to 9
        img[row, 3, 1] = value
    finite = all(np.isfinite(value) for _, value in BAD_HALVES[bad])
    message = r"intensities must lie in \[0, 1\]" if finite else "non-finite"
    spec = AttenuationSpec(0.5, seed=1)
    for image in (img, planar_copy(img)):
        for check in (lambda image: decompose(image, 2.0),
                      lambda image: decompose_attenuated(image, 2.0, spec),
                      image_spectrum, validate_image):
            with pytest.raises(ValueError, match=message):
                check(image)
    assert spectral._worker is not None


def test_one_worker_serves_every_call(worker, monkeypatch):
    threads = fft_threads(monkeypatch)
    before = threading.active_count()
    for seed in range(4):
        both_splits(random_image(np.random.default_rng(seed), 9, 8), 2.0)
        pool = spectral._worker
        assert pool is not None and pool is spectral._worker
    assert threading.active_count() == before + 1
    assert len(set(threads)) == 2
    # 4 steps of decompose and 6 of decompose_attenuated, each two halves
    assert len(threads) == 4 * (4 + 6) * 2


def test_an_error_in_the_workers_half_reaches_the_caller(worker, monkeypatch):
    img = random_image(np.random.default_rng(22), 10, 12)
    want = both_splits(img, 2.0)
    caller = threading.get_ident()
    original = np.fft.irfft

    def failing(*args, **kwargs):
        if threading.get_ident() != caller:
            raise MemoryError("in the worker's half")
        return original(*args, **kwargs)

    with monkeypatch.context() as patched:
        patched.setattr(np.fft, "irfft", failing)
        with pytest.raises(MemoryError, match="in the worker's half"):
            decompose(img, 2.0)
    pool = spectral._worker
    for got, expected in zip(both_splits(img, 2.0), want):
        assert np.array_equal(got, expected)
    assert spectral._worker is pool


def test_one_usable_cpu_starts_no_thread(monkeypatch):
    monkeypatch.setattr(spectral, "usable_cpus", lambda: 1)
    monkeypatch.setattr(spectral, "_worker", None)
    threads = fft_threads(monkeypatch)
    before = threading.active_count()
    both_splits(random_image(np.random.default_rng(23), 16, 16), 2.0)
    assert spectral._worker is None
    assert threading.active_count() == before
    assert set(threads) == {threading.get_ident()}


def _split_in_child(img, results):
    results.send([a.tobytes() for a in both_splits(img, 2.0)])
    results.close()


def test_a_forked_child_makes_its_own_worker(worker):
    # the child is a copy of the caller's thread alone: the parent's pool
    # is there, its thread is not, and a task handed to it never runs
    img = random_image(np.random.default_rng(24), 20, 18)
    want = [a.tobytes() for a in both_splits(img, 2.0)]
    assert spectral._worker is not None
    context = multiprocessing.get_context("fork")
    received, results = context.Pipe(duplex=False)
    child = context.Process(target=_split_in_child, args=(img, results))
    child.start()
    results.close()
    try:
        assert received.poll(60), "the child did not finish its split"
        assert received.recv() == want
    finally:
        child.kill()
        child.join(10)
        received.close()
    assert not child.is_alive()
    child.close()


def test_decompose_command_exits_promptly(tmp_path):
    # the worker is idle once decompose returns, and is joined at exit
    save_image(random_image(np.random.default_rng(25), 64, 48), tmp_path / "in.ppm")
    proc = subprocess.run(
        [sys.executable, "-m", "freqfuse", "decompose", "--input", str(tmp_path / "in.ppm"),
         "--cutoff", "5", "--out-low", str(tmp_path / "low.ppm"),
         "--out-high", str(tmp_path / "high.ppm")],
        capture_output=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "low.ppm").exists() and (tmp_path / "high.ppm").exists()


# 10**5000 failed inside numpy with "Maximum allowed size exceeded"
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda h, w: gaussian_masks(h, w, 3.0), id="gaussian_masks"),
        pytest.param(lambda h, w: attenuation_matrix(h, w, AttenuationSpec(0.5)),
                     id="attenuation_matrix"),
    ],
)
@pytest.mark.parametrize("field", ["h", "w"])
@pytest.mark.parametrize(
    "value, shown",
    [(spectral.MAX_SIZE + 1, str(spectral.MAX_SIZE + 1)),
     (np.int64(spectral.MAX_SIZE + 1), repr(np.int64(spectral.MAX_SIZE + 1))),
     (UNPRINTABLE, "<int too long to print>")],
    ids=["cap+1", "numpy-cap+1", "unprintable"],
)
def test_a_size_over_the_cap_is_refused_by_name(call, field, value, shown):
    sizes = {"h": 3, "w": 4, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be at most {spectral.MAX_SIZE}, got "):
        call(sizes["h"], sizes["w"])
    with pytest.raises(ValueError) as refused:
        call(sizes["h"], sizes["w"])
    assert str(refused.value).endswith(f"got {shown}")


def test_a_size_at_the_cap_is_taken():
    assert spectral.check_size("h", spectral.MAX_SIZE) is None
    assert spectral.check_size("h", np.uint32(spectral.MAX_SIZE)) is None
    with pytest.raises(ValueError, match="^h must be an int >= 1, got 0$"):
        spectral.check_size("h", 0)
