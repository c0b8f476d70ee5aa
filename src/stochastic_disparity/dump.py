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

Every pixel not flagged invalid has at least one count equal to n_max, and no
count exceeds n_max. Its winner is the first channel at n_max (tied channels
also read n_max); the no-match bit is set exactly where that is d_max + 1.
"""

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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
    """In-memory form of a dump file, over the full feature-map grid."""

    width: int  # W_f
    height: int  # H_f
    d_max: int
    n_max: int
    counts: np.ndarray  # (H_f, W_f - d_max, d_max + 2) uint16
    no_match: np.ndarray  # (H_f, W_f) bool
    invalid: np.ndarray  # (H_f, W_f) bool

    @property
    def valid_width(self) -> int:
        return self.width - self.d_max


def _pack_bits(mask: np.ndarray) -> bytes:
    return np.packbits(mask.reshape(-1).astype(np.uint8), bitorder="little").tobytes()


def _unpack_bits(data: bytes, height: int, width: int) -> np.ndarray:
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    return bits[: height * width].reshape(height, width).astype(bool)


def _check_counts(
    counts: np.ndarray, n_max: int, no_match: np.ndarray, invalid: np.ndarray,
    d_max: int,
) -> None:
    if np.any(counts < 0) or np.any(counts > n_max):
        raise DumpFormatError("counts outside [0, n_max]")
    at_max = counts == n_max
    valid = ~invalid[:, d_max:]
    if not np.all(at_max.any(axis=2)[valid]):
        raise DumpFormatError("a valid pixel has no counter at n_max")
    expected = np.zeros_like(invalid)  # the winner is the first channel at n_max
    expected[:, d_max:] = valid & (at_max.argmax(axis=2) == d_max + 1)
    if not np.array_equal(no_match, expected):
        raise DumpFormatError("no-match flags disagree with the counts")


def write_dump(path, dump: DistributionDump) -> None:
    for name, low, high in _HEADER_FIELDS:
        if not low <= getattr(dump, name) <= high:
            raise DumpFormatError(f"{name} outside [{low}, {high}]")
    counts = np.asarray(dump.counts)
    expected = (dump.height, dump.valid_width, dump.d_max + 2)
    if counts.shape != expected:
        raise DumpFormatError(f"counts shape {counts.shape} != {expected}")
    for bitmap in (dump.no_match, dump.invalid):
        if np.shape(bitmap) != (dump.height, dump.width):
            raise DumpFormatError("bitmap shape does not match the header")
    _check_counts(counts, dump.n_max, np.asarray(dump.no_match),
                  np.asarray(dump.invalid), dump.d_max)
    header = _HEADER.pack(
        MAGIC, VERSION, dump.width, dump.height, dump.d_max, dump.n_max
    )
    body = counts.astype("<u2").tobytes()
    bitmap_nm = _pack_bits(dump.no_match)
    bitmap_inv = _pack_bits(dump.invalid)
    Path(path).write_bytes(header + body + bitmap_nm + bitmap_inv)


def read_dump(path) -> DistributionDump:
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise DumpFormatError("file shorter than the header")
    magic, version, width, height, d_max, n_max = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise DumpFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise DumpFormatError(f"unsupported dump version {version}")
    valid_width = width - d_max
    if valid_width <= 0:
        raise DumpFormatError("header implies no valid pixels")
    if n_max == 0:
        raise DumpFormatError("n_max is 0")
    n_counts = height * valid_width * (d_max + 2)
    bitmap_len = (width * height + 7) // 8
    expected_len = _HEADER.size + 2 * n_counts + 2 * bitmap_len
    if len(data) != expected_len:
        raise DumpFormatError(
            f"file length {len(data)} != expected {expected_len}"
        )
    pos = _HEADER.size
    counts = np.frombuffer(data, dtype="<u2", count=n_counts, offset=pos).reshape(
        height, valid_width, d_max + 2
    )
    pos += 2 * n_counts
    no_match = _unpack_bits(data[pos : pos + bitmap_len], height, width)
    pos += bitmap_len
    invalid = _unpack_bits(data[pos : pos + bitmap_len], height, width)
    _check_counts(counts, n_max, no_match, invalid, d_max)
    return DistributionDump(
        width=width,
        height=height,
        d_max=d_max,
        n_max=n_max,
        counts=counts.copy(),
        no_match=no_match,
        invalid=invalid,
    )
