"""Binary portable graymap (P5) reading and writing.

The native image carrier is the 8-bit binary PGM. Binary PPM (P6) color
input is accepted and converted to luminance with integer BT.601 weights:
Y = (77 R + 150 G + 29 B) >> 8.
"""

import itertools
import os
import re
from pathlib import Path

import numpy as np


class ImageIOError(Exception):
    """Base class for image decode/encode failures."""


class ImageFileMissingError(ImageIOError):
    pass


class ImageFormatError(ImageIOError):
    pass


_TOKEN = re.compile(rb"[ \t\r\n]*(?:#[^\n]*\n[ \t\r\n]*)*([^ \t\r\n]+)")


def _read_tokens(data: bytes, count: int):
    """Pull whitespace/comment-delimited header tokens, returning them plus
    the offset just past the single whitespace byte ending the last one."""
    tokens = []
    pos = 0
    for _ in range(count):
        match = _TOKEN.match(data, pos)  # at pos, with no copy of the tail
        if not match:
            raise ImageFormatError("truncated or malformed header")
        tokens.append(match.group(1))
        pos = match.end()
    if pos >= len(data) or data[pos : pos + 1] not in (b" ", b"\t", b"\r", b"\n"):
        raise ImageFormatError("missing whitespace after header")
    return tokens, pos + 1


def load_image(path) -> np.ndarray:
    """Load an 8-bit grayscale image from a P5 (or P6, via luma) file."""
    path = Path(path)
    if not path.exists():
        raise ImageFileMissingError(f"no such image file: {path}")
    data = path.read_bytes()
    if data[:2] not in (b"P5", b"P6"):
        raise ImageFormatError(f"unsupported image format in {path}")
    color = data[:2] == b"P6"
    tokens, offset = _read_tokens(data, 4)
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError as exc:
        raise ImageFormatError(f"non-numeric header field in {path}") from exc
    if width <= 0 or height <= 0:
        raise ImageFormatError(f"bad dimensions {width}x{height} in {path}")
    if maxval != 255:
        raise ImageFormatError(
            f"unsupported bit depth (maxval {maxval}) in {path}; need 8-bit"
        )
    channels = 3 if color else 1
    expected = width * height * channels
    raster = memoryview(data)[offset : offset + expected]  # no copy
    if len(raster) < expected:
        raise ImageFormatError(f"truncated raster in {path}")
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width, channels)
    if color:  # one channel at a time into uint16: 255 * (77 + 150 + 29) fits
        luma = np.multiply(pixels[:, :, 0], 77, dtype=np.uint16)
        for channel, weight in ((1, 150), (2, 29)):
            luma += np.multiply(pixels[:, :, channel], weight, dtype=np.uint16)
        luma >>= 8
        return luma.astype(np.uint8)
    return pixels[:, :, 0].copy()


def check_gray_pixels(pixels: np.ndarray, error: type) -> None:
    """Raise `error` unless every pixel is an integer in 0..255 (NaN is not);
    the one pixel rule for images read in and written out."""
    if pixels.dtype == np.uint8:
        return
    if np.any(pixels < 0) or np.any(pixels > 255):
        raise error("pixel values must lie in [0, 255]")
    if pixels.dtype.kind == "f" and not np.array_equal(pixels, np.trunc(pixels)):
        raise error("pixel values must be integers")  # NaN fails this too


def save_image(path, pixels: np.ndarray) -> None:
    """Write an 8-bit grayscale image as binary P5."""
    pixels = np.asarray(pixels)
    if pixels.ndim != 2:
        raise ImageFormatError("image must be 2-D")
    check_gray_pixels(pixels, ImageFormatError)
    pixels = pixels.astype(np.uint8, copy=False)
    height, width = pixels.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    write_whole(path, lambda f: f.write(header + pixels.tobytes()))


def write_whole(path, write) -> None:
    """Run write(f) on a new sibling temp file of `path`, then move it onto
    `path`, so `path` is never a partial file. On any error, an interrupt
    too, the temp is unlinked and `path` is left as it was. The temp is made
    as `open(path, "wb")` makes a new file, its permissions set by the umask."""
    path = Path(path)
    flags = os.O_CREAT | os.O_EXCL | os.O_WRONLY | getattr(os, "O_BINARY", 0)
    for n in itertools.count():  # a temp of another writer is never opened
        temp = path.with_name(f".{path.name}.{os.getpid()}.{n}.tmp")
        try:
            fd = os.open(temp, flags, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with open(fd, "wb") as f:
            write(f)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
