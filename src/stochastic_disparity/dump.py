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
no channel at n_max timed out. Both bitmaps are derived from that outcome:
`write_dump` builds them from the counts, and `read_dump` rejects a file
whose stored bitmaps differ from the ones its counts give.
"""

import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Tuple

import numpy as np

from .model import Outcome

MAGIC = b"SDSP"
VERSION = 1
_HEADER = struct.Struct("<4sHIIHI")
# the largest count a dump holds, so also its largest n_max
COUNT_MAX = 2**16 - 1
# (field, low, high) for the header
_HEADER_FIELDS = (("width", 0, 2**32 - 1), ("height", 0, 2**32 - 1),
                  ("d_max", 0, 2**16 - 1), ("n_max", 1, COUNT_MAX))


class DumpFormatError(Exception):
    pass


@dataclass(frozen=True)
class DistributionDump:
    """In-memory form of a dump file: the header values and the counts of
    the valid pixels of the feature-map grid."""

    width: int  # W_f
    height: int  # H_f
    d_max: int
    n_max: int
    counts: np.ndarray  # (H_f, W_f - d_max, d_max + 2) uint16

    @property
    def valid_width(self) -> int:
        return self.width - self.d_max

    @cached_property
    def outcome(self) -> Outcome:
        """Each valid pixel's winner, read off its counts: the first channel
        at n_max, or -1 (a timeout) where none reached it. Derived once, so
        `read_dump`'s bitmap check and the caller's scoring share it: set
        the counts before the first read."""
        at_max = np.asarray(self.counts) == self.n_max
        winner = np.where(at_max.any(axis=2), at_max.argmax(axis=2), -1)
        return Outcome(winner=winner, d_max=self.d_max)


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
    if np.any(counts < 0) or np.any(counts > n_max):
        raise DumpFormatError("counts outside [0, n_max]")


def _bitmaps(dump: DistributionDump) -> Tuple[bytes, bytes]:
    """The packed no-match and invalid bitmaps over the full feature grid,
    built from the counts; the x < d_max border is invalid."""
    outcome = dump.outcome

    def packed(flags: np.ndarray, border: bool) -> bytes:
        grid = np.full((dump.height, dump.width), border)
        grid[:, dump.d_max :] = flags
        return np.packbits(grid, axis=None, bitorder="little").tobytes()

    return packed(outcome.no_match, False), packed(outcome.timed_out, True)


def write_dump(path, dump: DistributionDump) -> None:
    _check_header(dump.width, dump.height, dump.d_max, dump.n_max)
    counts = np.asarray(dump.counts)
    expected = (dump.height, dump.valid_width, dump.d_max + 2)
    if counts.shape != expected:
        raise DumpFormatError(f"counts shape {counts.shape} != {expected}")
    _check_counts(counts, dump.n_max)
    header = _HEADER.pack(
        MAGIC, VERSION, dump.width, dump.height, dump.d_max, dump.n_max
    )
    body = counts.astype("<u2").tobytes()
    Path(path).write_bytes(header + body + b"".join(_bitmaps(dump)))


def read_dump(path) -> DistributionDump:
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise DumpFormatError("file shorter than the header")
    magic, version, *header = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise DumpFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise DumpFormatError(f"unsupported dump version {version}")
    _check_header(*header)
    width, height, d_max, n_max = header
    n_counts = height * (width - d_max) * (d_max + 2)
    bitmap_len = (width * height + 7) // 8
    expected_len = _HEADER.size + 2 * n_counts + 2 * bitmap_len
    if len(data) != expected_len:
        raise DumpFormatError(
            f"file length {len(data)} != expected {expected_len}"
        )
    counts = np.frombuffer(data, dtype="<u2", count=n_counts, offset=_HEADER.size)
    _check_counts(counts, n_max)
    dump = DistributionDump(
        *header, counts.reshape(height, width - d_max, d_max + 2).copy()
    )
    pos = _HEADER.size + 2 * n_counts
    no_match, invalid = _bitmaps(dump)
    # invalid first: a pixel without a counter at n_max breaks both bitmaps
    if data[pos + bitmap_len :] != invalid:
        raise DumpFormatError("invalid flags disagree with the counts")
    if data[pos : pos + bitmap_len] != no_match:
        raise DumpFormatError("no-match flags disagree with the counts")
    return dump
