"""Patch-encoder tests, including an independent straight-line reimplementation."""

import numpy as np
import pytest

from freqfuse.encoder import EncoderConfig, patch_tokens, projection_matrix
from freqfuse.spectral import MAX_SIZE
from util import UNPRINTABLE, unprintable


def reference_tokens(image, cfg):
    # independent pipeline: explicit per-patch loops, no reshape tricks
    h, w, _ = image.shape
    p = cfg.patch_size
    proj = projection_matrix(cfg)
    out = []
    for pr in range(h // p):
        for pc in range(w // p):
            raw = []
            for i in range(p):
                for j in range(p):
                    for c in range(3):
                        raw.append(image[pr * p + i, pc * p + j, c])
            out.append(np.array(raw) @ proj)
    return np.array(out)


def test_constant_image_gives_identical_tokens():
    img = np.full((8, 8, 3), 0.7)
    tokens = patch_tokens(img, EncoderConfig(patch_size=4, dim=5))
    assert tokens.shape == (4, 5)
    assert np.abs(tokens - tokens[0]).max() < 1e-12


def test_zero_image_gives_zero_tokens():
    tokens = patch_tokens(np.zeros((6, 9, 3)), EncoderConfig(patch_size=3, dim=4))
    assert np.all(tokens == 0.0)


def test_matches_reference_reimplementation():
    img = np.random.default_rng(5).uniform(size=(8, 8, 3))
    cfg = EncoderConfig(patch_size=4, dim=3, projection_seed=9)
    assert np.abs(patch_tokens(img, cfg) - reference_tokens(img, cfg)).max() < 1e-12


def test_matches_reference_on_rectangles():
    img = np.random.default_rng(50).uniform(size=(6, 10, 3))
    cfg = EncoderConfig(patch_size=2, dim=7, projection_seed=1)
    assert np.abs(patch_tokens(img, cfg) - reference_tokens(img, cfg)).max() < 1e-12


def test_linearity():
    rng = np.random.default_rng(14)
    cfg = EncoderConfig(patch_size=2, dim=4, projection_seed=3)
    img1 = rng.uniform(size=(4, 6, 3))
    img2 = rng.uniform(size=(4, 6, 3))
    a, b = 0.3, 0.45
    mixed = patch_tokens(a * img1 + b * img2, cfg)
    parts = a * patch_tokens(img1, cfg) + b * patch_tokens(img2, cfg)
    assert np.abs(mixed - parts).max() < 1e-9


def test_shape_and_token_order():
    img = np.random.default_rng(15).uniform(size=(4, 8, 3))
    cfg = EncoderConfig(patch_size=2, dim=3, projection_seed=0)
    tokens = patch_tokens(img, cfg)
    assert tokens.shape == (8, 3)
    # token 1 is the patch one step right of token 0
    shifted = np.roll(img, -2, axis=1)
    assert np.abs(patch_tokens(shifted, cfg)[0] - tokens[1]).max() < 1e-12


def test_determinism():
    img = np.random.default_rng(16).uniform(size=(6, 6, 3))
    cfg = EncoderConfig(patch_size=3, dim=8, projection_seed=77)
    assert np.array_equal(patch_tokens(img, cfg), patch_tokens(img, cfg))


def test_float32_image_gives_the_float64_tokens():
    img = np.random.default_rng(3).uniform(size=(8, 12, 3)).astype(np.float32)
    cfg = EncoderConfig(patch_size=4, dim=6)
    tokens = patch_tokens(img, cfg)
    assert tokens.dtype == np.float64
    assert np.array_equal(tokens, patch_tokens(img.astype(np.float64), cfg))


def test_projection_bound():
    cfg = EncoderConfig(patch_size=4, dim=16, projection_seed=2)
    proj = projection_matrix(cfg)
    bound = 1.0 / np.sqrt(3 * 16)
    assert proj.min() >= -bound and proj.max() <= bound


def test_rejects_non_divisible_patch():
    img = np.zeros((7, 8, 3))
    with pytest.raises(ValueError, match=r"3.*7x8|7x8.*3"):
        patch_tokens(img, EncoderConfig(patch_size=3, dim=2))


def test_rejects_bad_config():
    with pytest.raises(ValueError):
        EncoderConfig(patch_size=0, dim=2)
    with pytest.raises(ValueError):
        EncoderConfig(patch_size=2, dim=0)


@pytest.mark.parametrize("field", ["patch_size", "dim"])
@pytest.mark.parametrize("value", [2.0, True, "2"])
def test_config_names_a_size_that_is_not_an_int(field, value):
    sizes = {"patch_size": 2, "dim": 2, field: value}
    with pytest.raises(ValueError, match=f"{field} must be an int >= 1"):
        EncoderConfig(**sizes)


def test_config_takes_numpy_integer_sizes():
    image = np.random.default_rng(0).uniform(size=(4, 4, 3))
    cfg = EncoderConfig(patch_size=np.int64(2), dim=np.int32(3))
    assert np.array_equal(patch_tokens(image, cfg), patch_tokens(image, EncoderConfig(2, 3)))


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_config_checks_its_seed_where_it_is_stored(seed):
    with pytest.raises(ValueError, match="projection_seed must be a non-negative int"):
        EncoderConfig(2, 4, projection_seed=seed)


# each raised Python's own "Exceeds the limit (4300 digits)" ValueError,
# which names no field, in place of its own refusal
@pytest.mark.parametrize("field", ["patch_size", "dim", "projection_seed"])
@pytest.mark.parametrize("value", [-UNPRINTABLE, [UNPRINTABLE]], ids=["negative", "list"])
def test_a_refused_value_too_long_to_print_is_named_by_its_type(field, value):
    with pytest.raises(ValueError, match=unprintable(field)):
        EncoderConfig(**{"patch_size": 2, "dim": 2, field: value})


# 10**5000 raised a TypeError from np.sqrt in the projection
@pytest.mark.parametrize("field", ["patch_size", "dim"])
@pytest.mark.parametrize("value", [MAX_SIZE + 1, UNPRINTABLE], ids=["cap+1", "unprintable"])
def test_a_size_over_the_cap_is_refused_by_name(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be at most {MAX_SIZE}, got "):
        EncoderConfig(**{"patch_size": 2, "dim": 2, field: value})
