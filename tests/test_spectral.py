"""Frequency-decomposition tests against the naive-DFT oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqfuse.spectral import (
    AttenuationSpec,
    attenuation_matrix,
    decompose,
    decompose_attenuated,
    dft2d,
    filter_branch,
    gaussian_masks,
    idft2d,
    image_spectrum,
    validate_image,
)
from oracles import (
    naive_decompose,
    naive_dft2d,
    naive_gaussian_low_mask,
    naive_idft2d,
)


def random_image(rng, h, w):
    return rng.uniform(0.0, 1.0, size=(h, w, 3))


# dft2d


def test_impulse_has_flat_spectrum():
    spec = dft2d([[1.0, 0.0], [0.0, 0.0]])
    assert np.allclose(spec, np.ones((2, 2)), atol=1e-12)


def test_constant_plane_is_pure_dc():
    spec = dft2d(np.full((4, 4), 0.3))
    assert spec[0, 0] == pytest.approx(16 * 0.3, abs=1e-12)
    rest = spec.copy()
    rest[0, 0] = 0.0
    assert np.abs(rest).max() < 1e-12

def test_dft_matches_naive_oracle():
    rng = np.random.default_rng(42)
    plane = rng.uniform(size=(8, 8))
    assert np.abs(dft2d(plane) - naive_dft2d(plane)).max() < 1e-9


def test_dft_rejects_empty_and_non_2d():
    with pytest.raises(ValueError):
        dft2d(np.zeros((0, 4)))
    with pytest.raises(ValueError):
        dft2d(np.zeros(8))


@settings(max_examples=25, deadline=None)
@given(
    h=st.integers(min_value=1, max_value=9),
    w=st.integers(min_value=1, max_value=9),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_dft_oracle_equivalence_property(h, w, seed):
    plane = np.random.default_rng(seed).uniform(size=(h, w))
    assert np.abs(dft2d(plane) - naive_dft2d(plane)).max() < 1e-9


# idft2d


def test_round_trip_identity():
    plane = np.random.default_rng(7).uniform(size=(8, 8))
    assert np.abs(idft2d(dft2d(plane)) - plane).max() < 1e-9


def test_zero_spectrum_inverts_to_zero():
    assert np.all(idft2d(np.zeros((3, 5), dtype=complex)) == 0.0)


def test_inverse_of_impulse_spectrum():
    back = idft2d(np.ones((2, 2), dtype=complex))
    assert np.abs(back - [[1.0, 0.0], [0.0, 0.0]]).max() < 1e-12


def test_idft_matches_naive_oracle():
    spec = naive_dft2d(np.random.default_rng(9).uniform(size=(6, 7)))
    assert np.abs(idft2d(spec) - naive_idft2d(spec)).max() < 1e-9


@settings(max_examples=20, deadline=None)
@given(
    h=st.integers(min_value=1, max_value=64),
    w=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_round_trip_property(h, w, seed):
    plane = np.random.default_rng(seed).uniform(size=(h, w))
    assert np.abs(idft2d(dft2d(plane)) - plane).max() < 1e-9


def test_parseval():
    plane = np.random.default_rng(21).uniform(size=(13, 17))
    spec = dft2d(plane)
    space = (plane**2).sum()
    freq = (np.abs(spec) ** 2).sum() / plane.size
    assert abs(space - freq) / space < 1e-9


def test_conjugate_symmetry_of_real_plane_spectrum():
    plane = np.random.default_rng(33).uniform(size=(6, 9))
    spec = dft2d(plane)
    h, w = spec.shape
    flipped = spec[(-np.arange(h)) % h][:, (-np.arange(w)) % w]
    assert np.abs(spec - np.conj(flipped)).max() < 1e-9


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
    low, _ = gaussian_masks(9, 12, 4.5)
    assert np.abs(low - naive_gaussian_low_mask(9, 12, 4.5)).max() < 1e-12


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


@pytest.mark.parametrize("h, w", [(224, 224), (375, 500), (1, 1)])
def test_filter_branch_bit_identical_to_decompose(h, w):
    img = random_image(np.random.default_rng(h + w), h, w)
    spectrum = image_spectrum(img)
    for cutoff in (1.0, 30.0, 120.0):
        for which, want in zip(("low", "high"), decompose(img, cutoff)):
            assert np.array_equal(filter_branch(spectrum, cutoff, which), want)


def test_filter_branch_leaves_the_spectrum_alone():
    spectrum = image_spectrum(random_image(np.random.default_rng(15), 9, 10))
    before = spectrum.half.copy()
    for which in ("low", "high", "low"):
        filter_branch(spectrum, 4.0, which)
    assert np.array_equal(spectrum.half, before)
    assert spectrum.shape == (9, 10)


def test_spectrum_and_branch_reject_bad_input():
    with pytest.raises(ValueError, match="intensities"):
        image_spectrum(np.full((2, 2, 3), 1.5))
    spectrum = image_spectrum(np.zeros((2, 2, 3)))
    with pytest.raises(ValueError, match="branch"):
        filter_branch(spectrum, 5.0, "both")
    with pytest.raises(ValueError, match="cutoff"):
        filter_branch(spectrum, 0.0, "low")


def test_validate_image_rejects_bad_input():
    with pytest.raises(ValueError):
        validate_image(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        validate_image(np.full((2, 2, 3), 1.5))
    with pytest.raises(ValueError):
        validate_image(np.full((2, 2, 3), -0.1))
    with pytest.raises(ValueError):
        validate_image(np.full((2, 2, 3), np.nan))


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
    # same gamma but different matrices for low and high by default
    img = random_image(np.random.default_rng(12), 8, 8)
    spec = AttenuationSpec(gamma=1.0, seed=0)
    low, high = decompose_attenuated(img, 30.0, spec)
    shared = AttenuationSpec(gamma=1.0, seed=0, share_branches=True)
    low_s, high_s = decompose_attenuated(img, 30.0, shared)
    assert np.array_equal(low, low_s)
    assert not np.allclose(high, high_s)


def test_decompose_determinism_bit_identical():
    img = random_image(np.random.default_rng(10), 12, 10)
    a = decompose(img, 30.0)
    b = decompose(img, 30.0)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def documented_gains(h, w, spec):
    """Centered (h, w, 3) low/high gains built from the draw order the spec
    documents: draws come from one PCG64 stream, the low branch's first, one
    per channel when per_channel, else one shared by all three channels."""
    rng = np.random.default_rng(spec.seed)
    per_branch = 3 if spec.per_channel else 1

    def branch():
        draws = [rng.uniform(0.0, spec.gamma, size=(h, w)) for _ in range(per_branch)]
        return np.stack([draws[c % per_branch] for c in range(3)], axis=-1)

    low = branch()
    high = low if spec.share_branches else branch()
    return low, high


@pytest.mark.parametrize("share_branches", [False, True])
@pytest.mark.parametrize("per_channel", [False, True])
@pytest.mark.parametrize("h, w", [(6, 6), (5, 7)])
def test_attenuated_matches_naive_pipeline(h, w, share_branches, per_channel):
    img = random_image(np.random.default_rng(14), h, w)
    spec = AttenuationSpec(gamma=0.7, seed=31, share_branches=share_branches,
                           per_channel=per_channel)
    low, high = decompose_attenuated(img, 2.0, spec)
    naive_low, naive_high = naive_decompose(img, 2.0, *documented_gains(h, w, spec))
    assert np.abs(low - naive_low).max() < 1e-9
    assert np.abs(high - naive_high).max() < 1e-9


@settings(max_examples=25, deadline=None)
@given(
    h=st.integers(min_value=1, max_value=16),
    w=st.integers(min_value=1, max_value=16),
    share_branches=st.booleans(),
    per_channel=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_attenuated_naive_oracle_property(h, w, share_branches, per_channel, seed):
    img = random_image(np.random.default_rng(seed), h, w)
    spec = AttenuationSpec(gamma=1.0, seed=seed, share_branches=share_branches,
                           per_channel=per_channel)
    low, high = decompose_attenuated(img, 3.0, spec)
    naive_low, naive_high = naive_decompose(img, 3.0, *documented_gains(h, w, spec))
    assert np.abs(low - naive_low).max() < 1e-9
    assert np.abs(high - naive_high).max() < 1e-9
