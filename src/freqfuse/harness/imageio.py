"""Binary PPM (P6) and 8-bit RGB PNG codecs.

Loading scales byte values to [0, 1]; saving clamps to [0, 1] and rounds
half-up to 0..255, so a save/load round trip only quantizes. The format is
chosen by magic bytes on load and by file extension on save. Only what the
package needs is supported: maxval-255 PPM and non-interlaced 8-bit RGB PNG.
A file that cannot be read as one, or a name with neither extension, is a
formats.DataFormatError (a ValueError) whose message starts with the path.

PNG rows are unfiltered in numpy where the filter allows it: None is a copy,
Sub is a per-channel cumsum in uint8 (which wraps mod 256, as the filter
does) over every Sub row at once, and Up is a wrapping add of the row above.
Average and Paeth are not associative scans that numpy could run: each byte's
predictor needs the decoded byte to its left. Each of their rows is one list
comprehension over Python ints that numpy prepares. Average runs the three
channels of a pixel at once, packed in 10-bit lanes of one int; Paeth runs one
channel at a time and replaces the predictor's comparisons with one lookup in
a table built on first use.
"""

import functools
import os
import re
import struct
import zlib

import numpy as np

from ..spectral import float_image
from .formats import DataFormatError

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
# width * height above which an image is refused from its header, before
# anything is inflated or allocated
MAX_PIXELS = 1 << 25
# bytes above which a file is refused, read no further: MAX_PIXELS pixels
# take at most 4 bytes each in either format, 3 of RGB and, in PNG, up to
# one filter byte a row; the 1 MiB more holds headers, PNG chunk framing
# and deflate's stored-block overhead
MAX_FILE_BYTES = 4 * MAX_PIXELS + (1 << 20)
# what read_image asks for at a time from a file that outruns the size it
# reports, as a pipe or a device does
_READ_CHUNK = 1 << 20


def _quantize(image) -> np.ndarray:
    arr = float_image(image)  # float32 is rounded in float32, not upcast
    # clip's copy is the one float buffer: the rounding runs in place on it
    scaled = np.clip(arr, 0.0, 1.0)
    if np.isnan(scaled.max()):  # clip keeps NaN; +-inf clamp
        raise ValueError("image contains non-finite values")
    scaled *= 255.0
    scaled += 0.5
    # the cast truncates, which is floor on [0.5, 255.5]; it runs plane by
    # plane, since a planar image cast whole into interleaved bytes (as
    # files hold them) takes an inner loop of 3 elements
    pixels = np.empty(scaled.shape, np.uint8)
    for c in range(3):
        pixels[:, :, c] = scaled[:, :, c]
    return pixels


def _check_dimensions(kind, w, h):
    if w < 1 or h < 1:
        raise DataFormatError(f"bad {kind} dimensions {w}x{h}")
    if w * h > MAX_PIXELS:
        raise DataFormatError(
            f"{kind} of {w}x{h} pixels is over the limit of {MAX_PIXELS} pixels"
        )


def load_image(path) -> np.ndarray:
    """Read a PPM or PNG file into an (h, w, 3) float array in [0, 1].

    The array is a view over channel-planar memory, each channel one
    contiguous (h, w) block, which is the layout the spectral transforms
    run fastest on; np.ascontiguousarray gives interleaved memory.
    load_image is read_image, then float_pixels.
    """
    return float_pixels(read_image(path))


def read_image(path) -> np.ndarray:
    """Read and decode a PPM or PNG file into its pixels, an (h, w, 3)
    uint8 array, interleaved as the file holds them. Errors name the path.

    Nothing past the first 8 bytes is read unless they open a P6 PPM or a
    PNG, and a file over MAX_FILE_BYTES is refused once that many bytes are
    read."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(len(PNG_SIGNATURE))
            if head[:2] == b"P6":
                decode = _decode_ppm
            elif head == PNG_SIGNATURE:
                decode = _decode_png
            else:
                raise DataFormatError("not a P6 PPM or PNG file")
            data = _read_capped(fh, head)
        return decode(data)
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def _read_capped(fh, head):
    """All of fh, whose first bytes, head, are read, if it holds at most
    MAX_FILE_BYTES, else DataFormatError.

    read(n) allocates n bytes before it reads, so the file is asked for the
    size it reports and one byte more, to find its end; only a file that
    outruns its size is read on in chunks. A seekable file is read again
    from its start, so its bytes come in one piece, not copied to join them.
    """
    if fh.seekable():
        fh.seek(0)
        parts, size = [], 0
    else:
        parts, size = [head], len(head)
    want = max(os.fstat(fh.fileno()).st_size - size, 0) + 1
    while True:
        want = min(want, MAX_FILE_BYTES + 1 - size)
        part = fh.read(want)
        parts.append(part)
        size += len(part)
        if size > MAX_FILE_BYTES:
            raise DataFormatError(f"file is over the limit of {MAX_FILE_BYTES} bytes")
        if len(part) < want:  # the end of the file
            return parts[0] if len(parts) == 1 else b"".join(parts)
        want = _READ_CHUNK


def float_pixels(pixels, dtype=float) -> np.ndarray:
    """read_image's (h, w, 3) uint8 pixels as load_image returns them, in
    dtype. In float32 each value is float32(x / 255.0), bit for bit."""
    # one float buffer: the cast gathers the bytes into planes, then it is
    # scaled in place
    floats = pixels.transpose(2, 0, 1).astype(dtype, order="C")
    floats /= 255.0
    return floats.transpose(1, 2, 0)


def image_encoder(path):
    """The encoder that path's extension names: PPM (.ppm/.pnm) or PNG
    (.png), else DataFormatError."""
    name = str(path).lower()
    if name.endswith((".ppm", ".pnm")):
        return _encode_ppm
    if name.endswith(".png"):
        return _encode_png
    raise DataFormatError(f"{path}: unknown extension, use .ppm or .png")


def save_image(image, path) -> None:
    """Write an image in the format image_encoder(path) names.

    Values are clamped to [0, 1]; an empty or non-(h, w, 3) image, one
    holding NaN, or one of a dtype other than bool, int or float, is a
    ValueError and no file is written.
    """
    parts = image_encoder(path)(_quantize(image))
    with open(path, "wb") as fh:
        fh.writelines(parts)


# PPM


def _encode_ppm(pixels):
    # the header, then the pixel array itself: nothing is joined or copied
    h, w, _ = pixels.shape
    return b"P6\n%d %d\n255\n" % (w, h), pixels


# P6, then width, height and maxval as unsigned decimals of at most 20
# digits (int() refuses over 4300), each after whitespace or "#" comments
# that run to a newline, then exactly one whitespace byte before the pixels
_PPM_HEADER = re.compile(rb"P6" + rb"(?:\s|#[^\n]*\n)+(\d{1,20})" * 3 + rb"\s")


def _decode_ppm(data):
    header = _PPM_HEADER.match(data)
    if header is None:
        raise DataFormatError("malformed or truncated PPM header")
    w, h, maxval = map(int, header.groups())
    _check_dimensions("PPM", w, h)
    if maxval != 255:
        raise DataFormatError(f"unsupported maxval {maxval}, only 255")
    pixels = memoryview(data)[header.end() :]  # a view: the bytes are not copied
    expected = h * w * 3
    if len(pixels) < expected:
        raise DataFormatError(
            f"PPM pixel data truncated: want {expected} bytes, have {len(pixels)}"
        )
    return np.frombuffer(pixels[:expected], np.uint8).reshape(h, w, 3)


# PNG


def _png_chunk(kind, payload) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + kind
        + payload
        + struct.pack(">I", zlib.crc32(kind + payload))
    )


def _encode_png(pixels):
    h, w, _ = pixels.shape
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    # every scanline uses filter type 0 (None): a zero byte, then the row
    rows = np.hstack([np.zeros((h, 1), np.uint8), pixels.reshape(h, -1)])
    return (
        PNG_SIGNATURE,
        _png_chunk(b"IHDR", ihdr),
        _png_chunk(b"IDAT", zlib.compress(rows, 9)),
        _png_chunk(b"IEND", b""),
    )


def _iter_chunks(data):
    i = len(PNG_SIGNATURE)
    while i < len(data):
        if i + 8 > len(data):
            raise DataFormatError("truncated PNG chunk header")
        (length,) = struct.unpack(">I", data[i : i + 4])
        kind = data[i + 4 : i + 8]
        payload = data[i + 8 : i + 8 + length]
        if len(payload) != length or i + 12 + length > len(data):
            raise DataFormatError(f"truncated PNG chunk {kind!r}")
        (crc,) = struct.unpack(">I", data[i + 8 + length : i + 12 + length])
        if crc != zlib.crc32(payload, zlib.crc32(kind)):  # no joined copy
            raise DataFormatError(f"PNG chunk {kind!r} fails its checksum")
        yield kind, payload
        i += 12 + length


def _unfilter(raw, h, w):
    stride = w * 3
    lines = np.frombuffer(raw, dtype=np.uint8).reshape(h, stride + 1)
    kinds = lines[:, 0]
    if kinds.max() > 4:
        raise DataFormatError(f"unknown PNG filter type {kinds[kinds > 4][0]}")
    out = lines[:, 1:].copy()  # None rows are done
    # Sub rows need no other row: all at once, a per-channel cumsum that wraps
    sub = kinds == 1
    out[sub] = np.cumsum(
        out[sub].reshape(-1, w, 3), axis=1, dtype=np.uint8
    ).reshape(-1, stride)
    prior = np.zeros(stride, np.uint8)
    for row, kind in zip(out, kinds.tolist()):
        if kind == 2:
            row += prior  # uint8 wraps
        elif kind == 3:
            _undo_average(row, prior)
        elif kind == 4:
            _undo_paeth(row, prior)
        prior = row
    return out


# Average and Paeth predict from the decoded byte to the left, so each helper
# decodes row in place, left to right, from prior, the decoded row above: a is
# the decoded byte to the left, b the byte above and c the byte above a, each
# 0 off the left edge.

# a pixel's three bytes in one int, one per 10-bit lane: below 2**30, so
# CPython keeps it in a single digit
_LANE_SHIFTS = np.array([0, 10, 20])
_LANE_MASK = 0xFF | 0xFF << 10 | 0xFF << 20


def _pack_lanes(line):
    return (line.reshape(-1, 3) @ (1 << _LANE_SHIFTS)).tolist()


def _undo_average(row, prior):
    # One packed int per pixel. a + b <= 510 fits in a lane, and >> 1 moves
    # at most the next lane's bit 0 into bit 9. Adding x keeps each lane
    # below 255 + 255 + 512 < 1024, so no carry crosses a lane, and the mask
    # keeps bits 0..7 of each: (x + (a + b) // 2) mod 256, as the filter does.
    m = _LANE_MASK
    a = 0
    packed = [
        a := (x + ((a + b) >> 1)) & m
        for x, b in zip(_pack_lanes(row), _pack_lanes(prior))
    ]
    row.reshape(-1, 3)[:] = (np.array(packed)[:, None] >> _LANE_SHIFTS) & 0xFF


@functools.cache
def _paeth_table() -> bytes:
    """Paeth's predictor minus c, mod 256, by u = a - c and d = b - c.

    p - a = d, p - b = u and p - c = u + d, so the choice depends on u and d
    alone: u (take a), d (take b) or 0 (take c), ties in that order. Cell
    ((d + 255) << 9) + (u + 255) holds it; built on first use, not on import.
    """
    d = np.arange(-255, 257, dtype=np.int16)[:, None]
    u = np.arange(-255, 257, dtype=np.int16)
    pa, pb, pc = abs(d), abs(u), abs(u + d)
    take = np.where((pa <= pb) & (pa <= pc), u, np.where(pb <= pc, d, 0))
    return (take & 0xFF).astype(np.uint8).tobytes()


def _undo_paeth(row, prior):
    # The decoded byte is (x + c + T[cell]) & 255, and the cell of (a, b, c)
    # is k + a with k = ((b - c + 255) << 9) + 255 - c: numpy builds k and
    # x + c for the row, and only an add and the lookup run per byte.
    table = _paeth_table()
    c = np.zeros(len(row), np.intp)
    c[3:] = prior[:-3]
    ks = (((prior - c + 255) << 9) + 255 - c).tolist()
    ys = (row + c).tolist()
    decoded = bytearray(len(row))
    for ch in range(3):
        a = 0
        decoded[ch::3] = [
            a := (y + table[k + a]) & 0xFF
            for y, k in zip(ys[ch::3], ks[ch::3])
        ]
    row[:] = np.frombuffer(decoded, np.uint8)


def _decode_png(data):
    header = None
    idat = bytearray()
    for kind, payload in _iter_chunks(data):
        if kind == b"IHDR":
            if len(payload) != 13:
                raise DataFormatError("bad IHDR length")
            header = struct.unpack(">IIBBBBB", payload)
        elif kind == b"IDAT":
            idat += payload
        elif kind == b"IEND":
            break
    if header is None:
        raise DataFormatError("PNG is missing its IHDR chunk")
    w, h, depth, color, compression, filter_method, interlace = header
    _check_dimensions("PNG", w, h)
    if depth != 8:
        raise DataFormatError(f"unsupported bit depth {depth}, only 8")
    if color != 2:
        raise DataFormatError(f"unsupported color type {color}, only RGB (2)")
    if compression != 0 or filter_method != 0:
        raise DataFormatError("unsupported PNG compression or filter method")
    if interlace != 0:
        raise DataFormatError("interlaced PNG is not supported")
    if not idat:
        raise DataFormatError("PNG has no IDAT data")
    expected = h * (w * 3 + 1)
    inflater = zlib.decompressobj()
    try:
        # one byte past the image is enough to tell that the stream is too long
        raw = inflater.decompress(idat, expected + 1)
    except zlib.error as exc:
        raise DataFormatError(f"PNG deflate stream is corrupt: {exc}") from None
    if len(raw) > expected or inflater.unconsumed_tail:
        raise DataFormatError(f"PNG pixel data exceeds the {expected} bytes expected")
    if not inflater.eof:
        raise DataFormatError("PNG deflate stream is corrupt: truncated")
    if len(raw) != expected:
        raise DataFormatError(
            f"PNG pixel data has {len(raw)} bytes, expected {expected}"
        )
    return _unfilter(raw, h, w).reshape(h, w, 3)
