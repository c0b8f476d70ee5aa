"""Binary dump of full per-pixel count distributions.

Layout (all integers little-endian):

    offset  size  field
    0       4     magic  b"SDSP"
    4       2     format version (currently 1)
    6       4     feature-map width  W_f
    10      4     feature-map height H_f
    14      2     d_max
    16      4     n_max
    20      ...   counts: for each feature-map row, for each valid pixel
                  (x from d_max to W_f - 1), d_max + 2 uint16 counter values
                  (disparities 0..d_max, then the no-match channel)
    ...     ...   no-match bitmap: W_f * H_f bits over the full feature grid,
                  row-major, LSB-first packing
    ...     ...   invalid bitmap: same shape; set where x < d_max or the
                  machine timed out

No count exceeds n_max. The counts carry each pixel's outcome: its winner is
the first channel at n_max (tied channels also read n_max), and a pixel with
no channel at n_max timed out. `write_dump(path, counts, d_max, n_max)` takes
the width and height from the shape of the counts and builds both bitmaps
from that outcome, whatever winner the caller holds, so it never writes a
file that `read_dump` rejects; the file is written whole or not at all
(`pgm.write_whole`). `read_dump` returns an `engine.CountGrid` whose winner
it reads off the counts once, and rejects a file whose stored bitmaps differ
from the ones that winner gives.
"""

import os
import struct
from typing import Tuple

import numpy as np

from .engine import CountGrid
from .model import Outcome, _walk_bands, winner_dtype
from .pgm import write_whole

MAGIC = b"SDSP"
VERSION = 1
_HEADER = struct.Struct("<4sHIIHI")
# the largest count a dump holds, so also its largest n_max
COUNT_MAX = 2**16 - 1
# the largest d_max the 16-bit header field holds
D_MAX_LIMIT = 2**16 - 1
# (field, low, high) for the header
_HEADER_FIELDS = (("width", 0, 2**32 - 1), ("height", 0, 2**32 - 1),
                  ("d_max", 0, D_MAX_LIMIT), ("n_max", 1, COUNT_MAX))


class DumpFormatError(Exception):
    pass


def _check_header(*values: int) -> None:
    """Reject header values (width, height, d_max, n_max) that do not fit
    their fields or leave no valid pixel."""
    for (name, low, high), value in zip(_HEADER_FIELDS, values):
        if not low <= value <= high:
            raise DumpFormatError(f"{name} outside [{low}, {high}]")
    width, _, d_max, _ = values
    if width <= d_max:
        raise DumpFormatError("header implies no valid pixels")


def _check_counts(counts: np.ndarray, n_max: int) -> None:
    """Reject counts that are not integers in [0, n_max]; float counts are
    written as <u2, which would truncate a fraction and cast NaN to junk."""
    if counts.dtype.kind == "f" and not np.array_equal(counts, np.trunc(counts)):
        raise DumpFormatError("counts must be integers")  # NaN fails this too
    if not (counts.min(initial=0) >= 0 and counts.max(initial=0) <= n_max):
        raise DumpFormatError("counts outside [0, n_max]")


def _winner(counts: np.ndarray, n_max: int) -> np.ndarray:
    """Each valid pixel's winner, read off its counts: the first channel at
    n_max, or -1 (a timeout) where none reached it, band by band."""
    winner = np.empty(counts.shape[:2], winner_dtype(counts.shape[2] - 2))

    def each(k, rows, band):
        at_max = band == n_max
        winner[rows] = np.where(at_max.any(2), at_max.argmax(2), -1)

    _walk_bands([counts], each)
    return winner


def _bitmaps(outcome: Outcome) -> Tuple[bytes, bytes]:
    """The packed no-match and invalid bitmaps over the full feature grid;
    the x < d_max border is invalid."""
    def packed(flags: np.ndarray, border: bool) -> bytes:
        grid = np.pad(flags, ((0, 0), (outcome.d_max, 0)), constant_values=border)
        return np.packbits(grid, axis=None, bitorder="little").tobytes()

    return packed(outcome.no_match, False), packed(outcome.timed_out, True)


def write_dump(path, counts: np.ndarray, d_max: int, n_max: int) -> None:
    """Write a (H_f, W_f - d_max, d_max + 2) count grid; W_f and H_f come
    from its shape, and both bitmaps from its counts."""
    counts = np.asarray(counts)
    if counts.ndim != 3 or counts.shape[2] != d_max + 2:
        raise DumpFormatError(f"counts shape {counts.shape} != (H, W, {d_max + 2})")
    header = (counts.shape[1] + d_max, len(counts), d_max, n_max)
    _check_header(*header)
    _check_counts(counts, n_max)
    bitmaps = _bitmaps(Outcome(_winner(counts, n_max), d_max))

    def write(f):  # the counts go out band by band, as <u2
        f.write(_HEADER.pack(MAGIC, VERSION, *header))
        _walk_bands([counts], lambda k, _, b: f.write(np.ascontiguousarray(b, "<u2")))
        f.writelines(bitmaps)

    write_whole(path, write)


def read_dump(path) -> CountGrid:
    with open(path, "rb") as f:  # the counts are read once, into their array
        head = f.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise DumpFormatError("file shorter than the header")
        magic, version, *header = _HEADER.unpack(head)
        if magic != MAGIC:
            raise DumpFormatError(f"bad magic {magic!r}")
        if version != VERSION:
            raise DumpFormatError(f"unsupported dump version {version}")
        _check_header(*header)
        width, height, d_max, n_max = header
        n_counts = height * (width - d_max) * (d_max + 2)
        bitmap_len = (width * height + 7) // 8
        expected_len = _HEADER.size + 2 * n_counts + 2 * bitmap_len
        length = os.fstat(f.fileno()).st_size
        if length != expected_len:
            raise DumpFormatError(f"file length {length} != expected {expected_len}")
        counts = np.fromfile(f, dtype="<u2", count=n_counts)
        bitmaps = f.read()
    _check_counts(counts, n_max)
    counts = counts.reshape(height, width - d_max, d_max + 2)
    grid = CountGrid(_winner(counts, n_max), d_max, counts, n_max)
    no_match, invalid = _bitmaps(grid)
    # invalid first: a pixel without a counter at n_max breaks both bitmaps
    if bitmaps[bitmap_len:] != invalid:
        raise DumpFormatError("invalid flags disagree with the counts")
    if bitmaps[:bitmap_len] != no_match:
        raise DumpFormatError("no-match flags disagree with the counts")
    return grid
