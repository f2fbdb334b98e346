"""Image codec tests: PPM and PNG, including hand-filtered PNG streams."""

import os
import re
import struct
import subprocess
import sys
import threading
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from freqfuse.harness import imageio
from freqfuse.harness.cli import main
from freqfuse.harness.formats import DataFormatError
from freqfuse.harness.imageio import (
    MAX_PIXELS,
    _paeth_table,
    float_pixels,
    load_image,
    read_image,
    save_image,
)
from oracles import (
    PNG_SIGNATURE,
    build_png,
    filter_rows,
    naive_paeth,
    naive_quantize,
    naive_unfilter,
    png_chunk,
    wrap_png,
)
from util import exactly, random_image, traced_peak


def test_ppm_round_trip_quantizes_only(tmp_path):
    img = random_image(1, 9, 7)
    path = tmp_path / "img.ppm"
    save_image(img, path)
    back = load_image(path)
    assert back.shape == img.shape
    assert np.abs(back - img).max() <= 0.5 / 255 + 1e-9


def test_png_round_trip_quantizes_only(tmp_path):
    img = random_image(2, 6, 11)
    path = tmp_path / "img.png"
    save_image(img, path)
    back = load_image(path)
    assert np.abs(back - img).max() <= 0.5 / 255 + 1e-9


def test_formats_agree(tmp_path):
    img = random_image(3, 5, 5)
    save_image(img, tmp_path / "a.ppm")
    save_image(img, tmp_path / "a.png")
    assert np.array_equal(load_image(tmp_path / "a.ppm"), load_image(tmp_path / "a.png"))


def test_save_clamps_out_of_range(tmp_path):
    img = np.zeros((2, 2, 3))
    img[0, 0] = [1.3, -0.2, 0.5]
    img[1, 1] = [np.inf, -np.inf, 0.5]
    path = tmp_path / "clamp.ppm"
    save_image(img, path)
    back = load_image(path)
    assert back[0, 0, 0] == 1.0
    assert back[0, 0, 1] == 0.0
    assert back[1, 1, 0] == 1.0
    assert back[1, 1, 1] == 0.0


# values around every rounding edge: out of range, infinite, and each half
# step k + 0.5 of the 0..255 scale, with its two float neighbours
HALF_STEPS = (np.arange(255) + 0.5) / 255.0
EDGE_VALUES = [
    *(-np.inf, np.inf, -1e300, 1e300, -0.5, -0.0, 0.0, 1.0, np.nextafter(1.0, 2.0)),
    *HALF_STEPS,
    *np.nextafter(HALF_STEPS, 0.0),
    *np.nextafter(HALF_STEPS, 1.0),
]


@st.composite
def export_images(draw):
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    value = st.sampled_from(EDGE_VALUES) | st.floats(min_value=-2.0, max_value=3.0)
    img = np.array(draw(st.lists(value, min_size=h * w * 3, max_size=h * w * 3)))
    img = img.reshape(h, w, 3)
    if draw(st.booleans()):  # channel-planar, as the spectral branches are
        img = np.ascontiguousarray(img.transpose(2, 0, 1)).transpose(1, 2, 0)
    return img


def png_chunks(blob):
    """{kind: payload} of a PNG file, checking that it is framed as written."""
    chunks, i = {}, len(PNG_SIGNATURE)
    while i < len(blob):
        (length,) = struct.unpack(">I", blob[i : i + 4])
        chunks[blob[i + 4 : i + 8]] = blob[i + 8 : i + 8 + length]
        i += 12 + length
    framed = b"".join(png_chunk(kind, payload) for kind, payload in chunks.items())
    assert blob == PNG_SIGNATURE + framed
    return chunks


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(img=export_images())
def test_export_bytes_are_the_naive_rounding(tmp_path, img):
    h, w, _ = img.shape
    want = naive_quantize(img)
    save_image(img, tmp_path / "x.ppm")
    assert (tmp_path / "x.ppm").read_bytes() == b"P6\n%d %d\n255\n" % (w, h) + want.tobytes()
    save_image(img, tmp_path / "x.png")
    chunks = png_chunks((tmp_path / "x.png").read_bytes())
    assert list(chunks) == [b"IHDR", b"IDAT", b"IEND"]
    assert chunks[b"IHDR"] == struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    assert zlib.decompress(chunks[b"IDAT"]) == filter_rows(want, [0] * h)


def test_ppm_export_allocates_one_float_and_two_byte_images(tmp_path):
    # a PNG export also holds zlib's level-9 compressor, about 270 KB
    h, w = 64, 80
    img = random_image(8, h, w, lo=-0.2, hi=1.2)
    path = tmp_path / "budget.ppm"
    peak = traced_peak(lambda: save_image(img, path))
    assert peak <= 1.1 * (h * w * 3 * 8 + 2 * h * w * 3)


def test_single_precision_export_allocates_one_float_and_two_byte_images(tmp_path):
    # a float32 image is rounded in float32: an upcast would not fit
    h, w = 64, 80
    img = random_image(8, h, w, lo=-0.2, hi=1.2).astype(np.float32)
    path = tmp_path / "budget.ppm"
    peak = traced_peak(lambda: save_image(img, path))
    assert peak <= 1.1 * (h * w * 3 * 4 + 2 * h * w * 3)


# the same edges in float32, where rounding in float64 would part from
# rounding in float32 on some of the half steps' neighbours
HALF_STEPS_32 = HALF_STEPS.astype(np.float32)
EDGE_VALUES_32 = np.concatenate(
    [
        np.array([-np.inf, np.inf, -0.5, -0.0, 0.0, 1.0, 2.0], np.float32),
        HALF_STEPS_32,
        np.nextafter(HALF_STEPS_32, np.float32(0.0)),
        np.nextafter(HALF_STEPS_32, np.float32(1.0)),
    ]
)


@pytest.mark.parametrize("planar", [False, True])
def test_single_precision_export_bytes_are_the_rounding_in_single_precision(
    tmp_path, planar
):
    rng = np.random.default_rng(30)
    img = np.resize(rng.permutation(EDGE_VALUES_32), (16, 18, 3))
    if planar:
        img = np.ascontiguousarray(img.transpose(2, 0, 1)).transpose(1, 2, 0)
    one = np.float32(1.0)
    want = np.floor(np.clip(img, 0, one) * np.float32(255.0) + np.float32(0.5))
    want = want.astype(np.uint8)
    assert not np.array_equal(want, naive_quantize(img))  # float64 rounds otherwise
    save_image(img, tmp_path / "x.ppm")
    assert (tmp_path / "x.ppm").read_bytes() == b"P6\n18 16\n255\n" + want.tobytes()


@pytest.mark.parametrize("ext", ["ppm", "png"])
def test_save_rejects_nan_before_writing(tmp_path, ext):
    img = np.full((2, 2, 3), 0.5)
    img[1, 0, 1] = np.nan
    path = tmp_path / f"nan.{ext}"
    for bad in (img, np.full((2, 2, 3), np.nan)):
        with pytest.raises(ValueError, match="non-finite"):
            save_image(bad, path)
    assert not path.exists()


@pytest.mark.parametrize("ext", ["ppm", "png"])
@pytest.mark.parametrize("shape", [(0, 5, 3), (5, 0, 3), (0, 0, 3)])
def test_save_rejects_empty_images_before_writing(tmp_path, ext, shape):
    path = tmp_path / f"empty.{ext}"
    with pytest.raises(ValueError, match="dimensions must be positive"):
        save_image(np.zeros(shape), path)
    assert not path.exists()


@pytest.mark.parametrize("ext", ["ppm", "png"])
def test_load_is_channel_planar_and_save_reads_any_layout(tmp_path, ext):
    img = random_image(5, 7, 6)
    path = tmp_path / f"img.{ext}"
    save_image(img, path)
    back = load_image(path)
    # the spectral transforms run faster over channel-planar memory
    assert np.moveaxis(back, 2, 0).flags.c_contiguous
    blob = path.read_bytes()
    for other in (back, np.ascontiguousarray(back), np.asfortranarray(img)):
        save_image(other, path)
        assert path.read_bytes() == blob


def test_rounding_is_half_up(tmp_path):
    values = np.array([0.0, 0.5 / 255, 0.4999 / 255, 254.5 / 255, 1.0])
    img = np.tile(values[:, None, None], (1, 1, 3))
    path = tmp_path / "round.ppm"
    save_image(img, path)
    back = load_image(path) * 255.0
    assert back[:, 0, 0] == pytest.approx([0, 1, 0, 255, 255])


def test_direct_p6_decode(tmp_path):
    path = tmp_path / "two.ppm"
    path.write_bytes(b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 0, 255]))
    pixels = read_image(path)
    assert pixels.dtype == np.uint8
    assert np.array_equal(pixels, [[[255, 0, 0], [0, 0, 255]]])
    img = load_image(path)
    assert img.shape == (1, 2, 3)
    assert np.array_equal(img[0, 0], [1.0, 0.0, 0.0])
    assert np.array_equal(img[0, 1], [0.0, 0.0, 1.0])


def test_float32_pixels_are_the_float64_values_cast():
    # every byte value, so every pixel of every image: the sweep takes its
    # spectrum of either in float32, and gets the same bits
    pixels = np.arange(256, dtype=np.uint8).reshape(16, 16, 1).repeat(3, axis=2)
    floats = float_pixels(pixels, np.float32)
    assert floats.dtype == np.float32
    assert floats.transpose(2, 0, 1).flags.c_contiguous  # planar, as float64
    want = float_pixels(pixels).astype(np.float32)
    assert np.array_equal(floats.view(np.uint32), want.view(np.uint32))


def test_ppm_header_comments(tmp_path):
    path = tmp_path / "c.ppm"
    path.write_bytes(b"P6 # eh\n# full line\n1 1 # dims\n255\n\xff\x00\x00")
    assert np.array_equal(load_image(path)[0, 0], [1.0, 0.0, 0.0])


def test_ppm_rejects_wrong_maxval(tmp_path):
    path = tmp_path / "deep.ppm"
    path.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
    with pytest.raises(
        DataFormatError, match=exactly(f"{path}: unsupported maxval 65535, only 255")
    ):
        load_image(path)


def test_ppm_rejects_truncation_and_garbage(tmp_path):
    short = tmp_path / "short.ppm"
    short.write_bytes(b"P6\n4 4\n255\n" + bytes(5))
    message = f"{short}: PPM pixel data truncated: want 48 bytes, have 5"
    with pytest.raises(DataFormatError, match=exactly(message)):
        load_image(short)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"GIF89a whatever")
    with pytest.raises(DataFormatError, match=exactly(f"{bad}: not a P6 PPM or PNG file")):
        load_image(bad)
    header_only = tmp_path / "hdr.ppm"
    header_only.write_bytes(b"P6\n2 2")
    with pytest.raises(
        DataFormatError, match=exactly(f"{header_only}: malformed or truncated PPM header")
    ):
        load_image(header_only)


@pytest.mark.parametrize(
    "header, shape",
    [
        (b"P6#after the magic\n2 1 255\n", (1, 2)),
        (b"P6 2 #between fields\n# and a full line\n1 255\n", (1, 2)),
        (b"P6 2#right after a number\n1 255\n", (1, 2)),
        (b"P6\t1\r2\x0b255\x0c", (2, 1)),
        (b"P6 002 0001 0255\n", (1, 2)),
        (b"P6 " + b"0" * 19 + b"2 1 " + b"0" * 17 + b"255\n", (1, 2)),
    ],
)
def test_ppm_header_grammar_accepts(tmp_path, header, shape):
    path = tmp_path / "ok.ppm"
    path.write_bytes(header + bytes(range(6)) + b"trailing bytes are ignored")
    got = load_image(path)
    assert np.array_equal(got, np.arange(6).reshape(*shape, 3) / 255.0)


_FULL_HEADER = b"P6 #c\n1 1 255\n"


@pytest.mark.parametrize(
    "header",
    [
        b"P61 1 1 255\n",
        b"P6x 1 1 255\n",
        b"P6 +1 1 255\n",
        b"P6 1 -1 255\n",
        b"P6 1 1 +255\n",
        b"P6 1_0 1 255\n",
        b"P6 1 1 2_55\n",
        b"P6 1 1 255#c\n",
        *(_FULL_HEADER[:k] for k in range(2, len(_FULL_HEADER))),
    ],
)
def test_ppm_header_grammar_rejects(tmp_path, header):
    path = tmp_path / "bad.ppm"
    path.write_bytes(header)
    with pytest.raises(
        DataFormatError, match=exactly(f"{path}: malformed or truncated PPM header")
    ):
        load_image(path)


_HEADER_BYTES = st.sampled_from(
    [b" ", b"\n", b"\t", b"\r", b"#", b"0", b"1", b"2", b"255", b"+", b"_", b"x", b"\xff"]
)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    head=st.lists(_HEADER_BYTES, max_size=24).map(b"".join),
    tail=st.binary(max_size=16),
)
def test_any_bytes_after_p6_decode_or_raise_an_image_error(tmp_path, head, tail):
    path = tmp_path / "fuzz.ppm"
    path.write_bytes(b"P6" + head + tail)
    try:
        got = load_image(path)
    except DataFormatError as exc:
        assert str(exc).startswith(f"{path}: ")
    else:
        assert got.ndim == 3 and got.shape[2] == 3


def test_save_rejects_unknown_extension(tmp_path):
    path = tmp_path / "img.bmp"
    with pytest.raises(
        DataFormatError, match=exactly(f"{path}: unknown extension, use .ppm or .png")
    ):
        save_image(np.zeros((2, 2, 3)), path)


# hand-built PNG streams


def test_png_all_filter_types_decode(tmp_path):
    pixels = (random_image(4, 5, 6) * 255).astype(np.uint8)
    path = tmp_path / "filters.png"
    path.write_bytes(build_png(pixels, filter_types=[0, 1, 2, 3, 4]))
    decoded = read_image(path)
    assert decoded.dtype == np.uint8
    assert np.array_equal(decoded, pixels)  # shape (4, 5, 3) too
    back = (load_image(path) * 255).astype(np.uint8)
    assert np.array_equal(back, pixels)


@st.composite
def filtered_images(draw):
    h = draw(st.integers(min_value=1, max_value=12))
    w = draw(st.integers(min_value=1, max_value=12))
    data = draw(st.binary(min_size=h * w * 3, max_size=h * w * 3))
    pixels = np.frombuffer(data, dtype=np.uint8).reshape(h, w, 3)
    kinds = draw(st.lists(st.integers(0, 4), min_size=h, max_size=h))
    return pixels, kinds


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=filtered_images())
def test_png_filters_match_the_naive_codec(tmp_path, case):
    pixels, kinds = case
    h, w, _ = pixels.shape
    path = tmp_path / "case.png"
    path.write_bytes(build_png(pixels, kinds))
    got = load_image(path)
    naive = naive_unfilter(filter_rows(pixels, kinds), h, w)
    assert naive == pixels.tobytes()
    assert np.array_equal(got, pixels / 255.0)


def test_paeth_table_matches_the_naive_predictor_on_every_reachable_cell():
    # cell (u, d) stands for every a = c + u, b = c + d with all three bytes
    # in 0..255; the smallest and the largest such c are checked
    table = _paeth_table()
    assert len(table) == 512 * 512
    checked = 0
    for u in range(-255, 256):
        for d in range(-255, 256):
            lo, hi = max(0, -u, -d), min(255, 255 - u, 255 - d)
            if lo > hi:
                continue
            cell = table[((d + 255) << 9) + (u + 255)]
            for c in {lo, hi}:
                assert (naive_paeth(c + u, c + d, c) - c) % 256 == cell, (u, d, c)
            checked += 1
    assert checked == 511 * 511 - 255 * 256  # the unreachable |u - d| > 255


def test_wide_rows_of_every_filter_match_the_naive_codec(tmp_path):
    # the benchmark's width, with runs of extreme bytes: 255 beside 255 is
    # where the packed Average lanes carry the most
    h, w = 10, 500
    rng = np.random.default_rng(14)
    pixels = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
    extremes = np.array([0, 1, 127, 128, 254, 255], np.uint8)
    mixed = rng.random((h, w, 3)) < 0.5
    pixels[mixed] = rng.choice(extremes, int(mixed.sum()))
    pixels[:, 100:140] = 255
    pixels[3:6, 200:240] = 0
    kinds = [r % 5 for r in range(h)]
    path = tmp_path / "wide.png"
    path.write_bytes(build_png(pixels, kinds))
    naive = naive_unfilter(filter_rows(pixels, kinds), h, w)
    got = load_image(path)
    assert naive == pixels.tobytes()
    assert np.array_equal(got, np.frombuffer(naive, np.uint8).reshape(h, w, 3) / 255.0)
    assert np.array_equal(got, pixels / 255.0)


def decompose_exit_code(path, tmp_path):
    return main(["decompose", "--input", str(path), "--cutoff", "5",
                 "--out-low", str(tmp_path / "l.ppm"),
                 "--out-high", str(tmp_path / "h.ppm")])


@pytest.mark.parametrize("digits", [21, 4301])
@pytest.mark.parametrize("field", range(3))
def test_ppm_header_number_of_more_than_20_digits_names_the_file(
    tmp_path, capsys, digits, field
):
    # int() refuses more than 4300 digits with a bare ValueError
    numbers = [b"2", b"1", b"255"]
    numbers[field] = b"9" * digits
    path = tmp_path / "long.ppm"
    path.write_bytes(b"P6 " + b" ".join(numbers) + b"\n" + bytes(6))
    with pytest.raises(
        DataFormatError, match=exactly(f"{path}: malformed or truncated PPM header")
    ):
        read_image(path)
    assert decompose_exit_code(path, tmp_path) == 2
    assert capsys.readouterr().err == f"error: {path}: malformed or truncated PPM header\n"


@pytest.mark.parametrize("bad", [5, 255])
def test_png_rejects_unknown_filter_type_on_a_later_row(tmp_path, capsys, bad):
    pixels = (random_image(10, 4, 3) * 255).astype(np.uint8)
    raw = bytearray(filter_rows(pixels, [1, 2, 3, 4]))
    raw[2 * (3 * 3 + 1)] = bad  # the filter byte of row 2
    path = tmp_path / "bad.png"
    path.write_bytes(wrap_png(bytes(raw), 4, 3))
    with pytest.raises(
        DataFormatError, match=exactly(f"{path}: unknown PNG filter type {bad}")
    ):
        load_image(path)
    assert decompose_exit_code(path, tmp_path) == 2
    assert f"filter type {bad}" in capsys.readouterr().err


def test_png_rejects_bad_crc(tmp_path):
    pixels = (random_image(5, 2, 2) * 255).astype(np.uint8)
    blob = bytearray(build_png(pixels, [0, 0]))
    blob[-5] ^= 0xFF  # corrupt the IEND type, which its CRC covers
    path = tmp_path / "crc.png"
    path.write_bytes(bytes(blob))
    with pytest.raises(
        DataFormatError, match=exactly(f"{path}: PNG chunk b'IEN\\xbb' fails its checksum")
    ):
        load_image(path)


def test_png_rejects_16_bit(tmp_path):
    pixels = (random_image(6, 2, 2) * 255).astype(np.uint8)
    path = tmp_path / "deep.png"
    path.write_bytes(build_png(pixels, [0, 0], depth=16))
    with pytest.raises(
        DataFormatError, match=exactly(f"{path}: unsupported bit depth 16, only 8")
    ):
        load_image(path)


def test_png_rejects_non_rgb(tmp_path):
    pixels = (random_image(7, 2, 2) * 255).astype(np.uint8)
    path = tmp_path / "gray.png"
    path.write_bytes(build_png(pixels, [0, 0], color=0))
    with pytest.raises(
        DataFormatError, match=exactly(f"{path}: unsupported color type 0, only RGB (2)")
    ):
        load_image(path)


def test_png_rejects_interlaced(tmp_path):
    pixels = (random_image(8, 2, 2) * 255).astype(np.uint8)
    path = tmp_path / "adam7.png"
    path.write_bytes(build_png(pixels, [0, 0], interlace=1))
    with pytest.raises(
        DataFormatError, match=exactly(f"{path}: interlaced PNG is not supported")
    ):
        load_image(path)


def test_png_rejects_corrupt_deflate(tmp_path):
    ihdr = struct.pack(">IIBBBBB", 2, 2, 8, 2, 0, 0, 0)
    blob = (
        PNG_SIGNATURE
        + png_chunk(b"IHDR", ihdr)
        + png_chunk(b"IDAT", b"not deflate data")
        + png_chunk(b"IEND", b"")
    )
    path = tmp_path / "corrupt.png"
    path.write_bytes(blob)
    # the rest is zlib's own reason
    with pytest.raises(
        DataFormatError, match="^" + re.escape(f"{path}: PNG deflate stream is corrupt: ")
    ):
        load_image(path)


def test_png_rejects_truncated_deflate(tmp_path):
    pixels = (random_image(9, 2, 2) * 255).astype(np.uint8)
    blob = build_png(pixels, [0, 0])
    ihdr = blob[len(PNG_SIGNATURE) + 8 : len(PNG_SIGNATURE) + 21]
    raw = b"".join(b"\x00" + pixels[r].tobytes() for r in range(2))
    path = tmp_path / "short.png"
    # every pixel byte is there, only the stream's adler32 trailer is missing
    path.write_bytes(
        PNG_SIGNATURE
        + png_chunk(b"IHDR", ihdr)
        + png_chunk(b"IDAT", zlib.compress(raw)[:-4])
        + png_chunk(b"IEND", b"")
    )
    with pytest.raises(
        DataFormatError, match=exactly(f"{path}: PNG deflate stream is corrupt: truncated")
    ):
        load_image(path)


def test_png_inflate_is_capped_by_the_header(tmp_path):
    # a 1x1 header over 64 MiB of deflated zeros: about 64 KB on disk
    deflater = zlib.compressobj(9)
    zeros = bytes(1 << 20)
    idat = b"".join(deflater.compress(zeros) for _ in range(64)) + deflater.flush()
    ihdr = struct.pack(">IIBBBBB", 1, 1, 8, 2, 0, 0, 0)
    path = tmp_path / "bomb.png"
    path.write_bytes(
        PNG_SIGNATURE
        + png_chunk(b"IHDR", ihdr)
        + png_chunk(b"IDAT", idat)
        + png_chunk(b"IEND", b"")
    )
    del idat, zeros
    tracemalloc.start()
    try:
        message = f"{path}: PNG pixel data exceeds the 4 bytes expected"
        with pytest.raises(DataFormatError, match=exactly(message)):
            load_image(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_png_over_the_pixel_limit_is_refused_before_inflating(tmp_path, capsys, monkeypatch):
    # a tiny IDAT under a 20000x20000 header: 1.2 GB if it were inflated
    path = tmp_path / "bomb.png"
    path.write_bytes(wrap_png(bytes(100), 20000, 20000))

    def no_inflate(*args):
        raise AssertionError("inflated an image over the pixel limit")

    monkeypatch.setattr(zlib, "decompressobj", no_inflate)
    message = f"{path}: PNG of 20000x20000 pixels is over the limit of {MAX_PIXELS} pixels"
    with pytest.raises(DataFormatError, match=exactly(message)):
        load_image(path)
    assert decompose_exit_code(path, tmp_path) == 2
    assert "20000x20000" in capsys.readouterr().err


def test_ppm_over_the_pixel_limit_is_refused(tmp_path):
    path = tmp_path / "big.ppm"
    path.write_bytes(b"P6\n20000 20000\n255\n" + bytes(30))
    message = f"{path}: PPM of 20000x20000 pixels is over the limit of {MAX_PIXELS} pixels"
    with pytest.raises(DataFormatError, match=exactly(message)):
        load_image(path)
    # at the limit the header passes and the short pixel data is what fails
    path.write_bytes(b"P6\n%d 1\n255\n" % MAX_PIXELS + bytes(30))
    message = f"{path}: PPM pixel data truncated: want {3 * MAX_PIXELS} bytes, have 30"
    with pytest.raises(DataFormatError, match=exactly(message)):
        load_image(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_image(tmp_path / "nope.ppm")


# the byte limit: a file is read only past a P6 or PNG signature, and no
# further than MAX_FILE_BYTES

# decompose in a child whose address space is capped at 2 GiB: a read that
# does not stop fails there with MemoryError, not by taking the machine's
# memory
CAPPED_DECOMPOSE = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))
from freqfuse.harness.cli import main
out = sys.argv[2]
sys.exit(main(["decompose", "--input", sys.argv[1], "--cutoff", "5",
               "--out-low", out + "/l.ppm", "--out-high", out + "/h.ppm"]))
"""


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_an_endless_file_with_no_signature_is_refused_unread(tmp_path):
    # read whole, /dev/zero took memory until there was none
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED_DECOMPOSE, "/dev/zero", str(tmp_path)],
        capture_output=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert b"/dev/zero: not a P6 PPM or PNG file" in proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["img.ppm", "img.png"])
def test_a_file_over_the_byte_limit_is_refused(tmp_path, monkeypatch, capsys, name):
    path = tmp_path / name
    save_image(random_image(41, 8, 6), path)
    want = read_image(path)
    limit = path.stat().st_size
    monkeypatch.setattr(imageio, "MAX_FILE_BYTES", limit)
    assert np.array_equal(read_image(path), want)  # at the limit
    with open(path, "ab") as fh:
        fh.write(b"\0")  # a PPM's trailing bytes are read, and count
    message = f"{path}: file is over the limit of {limit} bytes"
    with pytest.raises(DataFormatError, match=exactly(message)):
        read_image(path)
    assert decompose_exit_code(path, tmp_path) == 2
    assert message in capsys.readouterr().err


def fifo_holding(tmp_path, data):
    """A named pipe that a thread writes data to; and the thread."""
    path = tmp_path / "pipe"
    os.mkfifo(path)

    def write():
        with open(path, "wb") as fh:
            try:
                fh.write(data)
            except BrokenPipeError:  # the reader stopped at the limit
                pass

    writer = threading.Thread(target=write)
    writer.start()
    return path, writer


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_pipe_is_read_in_chunks_up_to_the_byte_limit(tmp_path, monkeypatch):
    # a pipe reports no size and cannot be read again from its start
    save_image(random_image(42, 8, 6), tmp_path / "img.ppm")
    data = (tmp_path / "img.ppm").read_bytes()
    want = read_image(tmp_path / "img.ppm")
    monkeypatch.setattr(imageio, "_READ_CHUNK", 7)
    monkeypatch.setattr(imageio, "MAX_FILE_BYTES", len(data))
    for extra, refused in ((b"", False), (b"\0", True)):
        path, writer = fifo_holding(tmp_path, data + extra)
        try:
            if refused:
                message = f"{path}: file is over the limit of {len(data)} bytes"
                with pytest.raises(DataFormatError, match=exactly(message)):
                    read_image(path)
            else:
                assert np.array_equal(read_image(path), want)
        finally:
            writer.join(10)
            os.unlink(path)
        assert not writer.is_alive()


def test_reading_a_file_allocates_no_more_than_it_holds(tmp_path):
    # read(n) allocates its n bytes first: asked for the limit, it would
    # allocate 129 MiB
    path = tmp_path / "img.ppm"
    save_image(random_image(43, 64, 64), path)
    assert traced_peak(lambda: read_image(path)) < path.stat().st_size + (64 << 10)
