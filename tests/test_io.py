"""Image files, distribution dumps, the pipeline and the CLI front end."""

import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import stochastic_disparity
from stochastic_disparity import cli, model, pgm, pipeline
from stochastic_disparity import dump as dump_module
from stochastic_disparity.cli import EXIT_INTERRUPTED, EXIT_IO, EXIT_OK, EXIT_TIMEOUT
from stochastic_disparity.cli import EXIT_VALIDATION
from stochastic_disparity.cli import main
from stochastic_disparity.dump import DumpFormatError, read_dump, write_dump
from stochastic_disparity.engine import CountGrid, run_stochastic_grid
from stochastic_disparity.metrics import Readout, score_readouts
from stochastic_disparity.model import _rows_per_band, validate_gray_image
from stochastic_disparity.pgm import (
    ImageFileMissingError,
    ImageFormatError,
    load_image,
    save_image,
)
from stochastic_disparity.pipeline import RunConfig, run_pipeline
from stochastic_disparity.synthetic import natural_scene_pair, planted_shift_pair


def write_pair(tmp_path, width=36, height=12, shift=4, seed=6, noise=15.0):
    left, right = planted_shift_pair(width, height, shift, seed, noise_sigma=noise)
    lp, rp = tmp_path / "left.pgm", tmp_path / "right.pgm"
    save_image(lp, left)
    save_image(rp, right)
    return lp, rp


class TestPgm:
    @settings(max_examples=20, deadline=None)
    @given(
        img=arrays(
            np.uint8,
            st.tuples(st.integers(1, 12), st.integers(1, 12)),
            elements=st.integers(0, 255),
        )
    )
    def test_round_trip_is_bit_identical(self, img, tmp_path_factory):
        path = tmp_path_factory.mktemp("pgm") / "img.pgm"
        save_image(path, img)
        assert np.array_equal(load_image(path), img)

    def test_header_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n 2  1\n# another\n255\n\x07\x09")
        assert np.array_equal(load_image(path), [[7, 9]])

    def test_p5_load_holds_the_file_and_one_raster(self, tmp_path):
        # the file's bytes and the returned pixels; a sliced raster and
        # sliced header tails each made one more copy
        img = np.random.default_rng(0).integers(0, 256, (480, 640), np.uint8)
        save_image(tmp_path / "vga.pgm", img)
        tracemalloc.start()
        try:
            loaded = load_image(tmp_path / "vga.pgm")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded, img) and loaded.flags.writeable
        assert peak < 2.2 * img.size

    def test_p6_luma_is_the_formula_below_three_rasters(self, tmp_path):
        # uint16 sums of one channel at a time, not full-frame uint32 products
        rgb = np.random.default_rng(1).integers(0, 256, (480, 640, 3), np.uint8)
        rgb[0, 0], rgb[0, 1] = 0, 255  # the extremes: black and white
        path = tmp_path / "vga.ppm"
        path.write_bytes(b"P6\n640 480\n255\n" + rgb.tobytes())
        tracemalloc.start()
        try:
            loaded = load_image(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        r, g, b = rgb.astype(np.int64).transpose(2, 0, 1)
        assert loaded.dtype == np.uint8
        assert np.array_equal(loaded, (77 * r + 150 * g + 29 * b) >> 8)
        assert list(loaded[0, :2]) == [0, 255]
        assert peak < 3 * rgb.size

    def test_color_input_converts_via_integer_luma(self, tmp_path):
        path = tmp_path / "c.ppm"
        rgb = bytes([200, 10, 30, 0, 255, 0])
        path.write_bytes(b"P6\n2 1\n255\n" + rgb)
        img = load_image(path)
        assert img[0, 0] == (77 * 200 + 150 * 10 + 29 * 30) >> 8
        assert img[0, 1] == (150 * 255) >> 8

    def test_missing_file(self, tmp_path):
        with pytest.raises(ImageFileMissingError):
            load_image(tmp_path / "nope.pgm")

    @pytest.mark.parametrize(
        "data",
        [
            b"P3\n1 1\n255\n0",
            b"P5\n2 2\n65535\n\x00\x00\x00\x00",
            b"P5\n2 2\n255\n\x00",  # truncated raster
            b"P5\n0 2\n255\n",
            b"P5\n2",
        ],
    )
    def test_malformed_files_rejected(self, tmp_path, data):
        path = tmp_path / "bad.pgm"
        path.write_bytes(data)
        with pytest.raises(ImageFormatError):
            load_image(path)

    def test_save_rejects_out_of_range(self, tmp_path):
        for value in (300, -1, 3.7, np.nan):
            with pytest.raises(ImageFormatError):
                save_image(tmp_path / "x.pgm", np.full((2, 2), value))
        assert not (tmp_path / "x.pgm").exists()

    @pytest.mark.parametrize("value", [300, -1, 3.7, np.nan])
    def test_writing_and_filtering_share_one_pixel_rule(self, tmp_path, value):
        image = np.full((2, 2), value)
        with pytest.raises(ImageFormatError) as written:
            save_image(tmp_path / "x.pgm", image)
        with pytest.raises(ValueError) as filtered:
            validate_gray_image(image)
        assert str(written.value) == str(filtered.value)


def whole_array_outcome(counts, n_max):
    at_max = counts == n_max
    return np.where(at_max.any(axis=2), at_max.argmax(axis=2), -1)


def count_grid(counts, d_max, n_max):
    """A `CountGrid` whose winner is read off the whole count array."""
    return CountGrid(whole_array_outcome(counts, n_max), d_max, counts, n_max)


def grid_size(dump):
    """The (width, height) of a dump's full feature grid."""
    height, valid_width = dump.winner.shape
    return valid_width + dump.d_max, height


def tiny_dump(d_max=2, n_max=16):
    rng = np.random.default_rng(0)
    h, w = 3, d_max + 4
    counts = rng.integers(0, n_max, (h, w - d_max, d_max + 2)).astype(np.uint16)
    counts[:, :, 0] = n_max  # every valid pixel has a counter at n_max...
    counts[1, 2, 0], counts[1, 2, -1] = 0, n_max  # ...one at the no-match one
    return count_grid(counts, d_max, n_max)


@st.composite
def valid_dumps(draw):
    """Dumps as the engine writes them: each pixel that did not time out has
    its winner at n_max and every lower channel below it (tied channels above
    it may also read n_max); timeouts stay below n_max."""
    d_max = draw(st.integers(1, 3))
    n_max = draw(st.sampled_from([1, 2, 16, 0xFFFF]))
    h, vw = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    counts = draw(
        arrays(np.uint16, (h, vw, d_max + 2), elements=st.integers(0, n_max))
    ).copy()
    winner = draw(arrays(np.int64, (h, vw), elements=st.integers(0, d_max + 1)))
    timed_out = draw(arrays(bool, (h, vw)))
    below = np.arange(d_max + 2) < winner[..., None]
    counts[below] = np.minimum(counts[below], n_max - 1)
    np.put_along_axis(counts, winner[..., None], n_max, axis=2)
    counts[timed_out] = np.minimum(counts[timed_out], n_max - 1)
    return count_grid(counts, d_max, n_max)


def at_disparity_0():
    """2x5 dump, d_max 2, n_max on disparity 0 at every valid pixel."""
    counts = np.zeros((2, 3, 4), np.uint16)
    counts[..., 0] = 16
    return count_grid(counts, 2, 16)


def engine_like_dump(height, valid_width, d_max=80, n_max=16, seed=0):
    """uint8 counts as the engine leaves them at n_max 16: a random winner
    at n_max, every lower channel below it; about one pixel in twenty a
    timeout and one in twenty no-match."""
    rng = np.random.default_rng(seed)
    shape = (height, valid_width)
    counts = rng.integers(0, n_max, (*shape, d_max + 2), dtype=np.uint8)
    winner = rng.integers(0, d_max + 1, shape)
    winner[rng.random(shape) < 0.05] = d_max + 1
    winner[rng.random(shape) < 0.05] = -1
    np.put_along_axis(counts, np.maximum(winner, 0)[..., None], n_max, axis=2)
    counts[winner < 0, 0] = 0
    return count_grid(counts, d_max, n_max)


def write(path, dump):
    write_dump(path, dump.counts, dump.d_max, dump.n_max)


def written(dump, tmp_path_factory):
    path = tmp_path_factory.mktemp("dump") / "d.bin"
    write(path, dump)
    return path


def stored_bitmaps(path, dump):
    """The no-match and invalid bitmaps of a dump file, unpacked to
    (2, height, width) bools."""
    width, height = grid_size(dump)
    raw = np.frombuffer(path.read_bytes()[20 + 2 * dump.counts.size :], np.uint8)
    bits = np.unpackbits(raw.reshape(2, -1), axis=1, bitorder="little")
    return bits[:, : width * height].reshape(2, height, -1) == 1


def flip_bit(path, dump, plane, bit):
    """Flip bit `bit` of bitmap `plane` (0 no-match, 1 invalid) in a dump
    file."""
    width, height = grid_size(dump)
    raw = bytearray(path.read_bytes())
    bitmap_len = (width * height + 7) // 8
    raw[20 + 2 * dump.counts.size + plane * bitmap_len + bit // 8] ^= 1 << (bit % 8)
    path.write_bytes(bytes(raw))


class TestDump:
    def test_tied_channels_at_n_max_are_accepted(self, tmp_path):
        dump = tiny_dump()
        dump.counts[0, 0, :2] = dump.n_max
        write(tmp_path / "d.bin", dump)
        assert np.array_equal(read_dump(tmp_path / "d.bin").counts, dump.counts)

    @settings(max_examples=20, deadline=None)
    @given(dump=valid_dumps())
    def test_zero_n_max_rejected(self, dump, tmp_path_factory):
        path = written(dump, tmp_path_factory)
        data = bytearray(path.read_bytes())
        data[16:20] = bytes(4)
        path.write_bytes(bytes(data))
        with pytest.raises(DumpFormatError, match="n_max"):
            read_dump(path)

    @settings(max_examples=20, deadline=None)
    @given(dump=valid_dumps(), data=st.data())
    def test_count_above_n_max_rejected(self, dump, data, tmp_path_factory):
        assume(dump.n_max < 0xFFFF)
        path = written(dump, tmp_path_factory)
        raw = bytearray(path.read_bytes())
        i = data.draw(st.integers(0, dump.counts.size - 1))
        raw[20 + 2 * i : 22 + 2 * i] = (dump.n_max + 1).to_bytes(2, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(DumpFormatError, match="outside"):
            read_dump(path)

    @settings(max_examples=20, deadline=None)
    @given(dump=valid_dumps(), data=st.data())
    def test_valid_pixel_without_n_max_rejected(self, dump, data, tmp_path_factory):
        valid = np.argwhere(~dump.timed_out)
        assume(len(valid) > 0)
        y, x = valid[data.draw(st.integers(0, len(valid) - 1))]
        counts = dump.counts.copy()
        counts[y, x] = np.minimum(counts[y, x], dump.n_max - 1)
        path = written(dump, tmp_path_factory)
        raw = bytearray(path.read_bytes())
        body = counts.astype("<u2").tobytes()
        raw[20 : 20 + len(body)] = body
        path.write_bytes(bytes(raw))
        with pytest.raises(DumpFormatError, match="invalid flags"):
            read_dump(path)

    def test_write_rejects_what_read_would(self, tmp_path):
        # the header's width and height come from the shape of the counts
        dump = tiny_dump()
        with pytest.raises(DumpFormatError, match="no valid pixels"):
            write_dump(tmp_path / "d.bin", dump.counts[:, :0], dump.d_max, dump.n_max)
        for counts in (dump.counts[..., 1:], dump.counts[0]):
            with pytest.raises(DumpFormatError, match="counts shape"):
                write_dump(tmp_path / "d.bin", counts, dump.d_max, dump.n_max)

    @pytest.mark.parametrize("fraction", [0.7, 0.5, np.nan])
    def test_non_integer_counts_rejected_before_a_file_opens(self, fraction, tmp_path):
        # cast to <u2, 4.7 and 0.5 went out as 4 and 0 and every pixel read
        # back timed out; whole floats are counts like any other
        counts = np.zeros((2, 3, 6))  # d_max 4
        counts[..., 0] = 5.0
        path = tmp_path / "d.bin"
        write_dump(path, counts, 4, 5)
        assert read_dump(path).winner.tolist() == [[0, 0, 0], [0, 0, 0]]
        path.unlink()
        counts[..., 0] = 4.0 + fraction
        counts[..., 1] = fraction
        with pytest.raises(DumpFormatError, match="integers"):
            write_dump(path, counts, 4, 5)
        assert list(tmp_path.iterdir()) == []

    def test_written_bitmaps_are_derived_from_the_counts(self, tmp_path):
        # row 1 of the 2x5 dump: a no-match winner at x = 3, a timeout at x = 4
        dump = at_disparity_0()
        dump.counts[1, 1] = [3, 0, 15, 16]
        dump.counts[1, 2] = [15, 2, 0, 15]
        path = tmp_path / "d.bin"
        write(path, dump)
        no_match, invalid = stored_bitmaps(path, dump)
        assert np.argwhere(no_match).tolist() == [[1, 3]]
        assert np.argwhere(invalid).tolist() == [[0, 0], [0, 1], [1, 0], [1, 1], [1, 4]]
        assert read_dump(path).winner.tolist() == [[0, 0, 0], [0, 3, -1]]

    @pytest.mark.parametrize("flag_x", [3, 0], ids=["valid_pixel", "border_pixel"])
    def test_no_match_flag_against_the_counts_rejected_on_write(
        self, flag_x, tmp_path
    ):
        # n_max on disparity 0 everywhere: write_dump sets no no-match bit at
        # a valid pixel or at x < d_max, and a file carrying one is rejected
        dump = at_disparity_0()
        path = tmp_path / "d.bin"
        write(path, dump)
        no_match, _ = stored_bitmaps(path, dump)
        assert not no_match.any()
        flip_bit(path, dump, 0, grid_size(dump)[0] + flag_x)
        with pytest.raises(DumpFormatError, match="no-match flags"):
            read_dump(path)

    @settings(max_examples=40, deadline=None)
    @given(dump=valid_dumps(), data=st.data())
    def test_flipped_no_match_bit_rejected(self, dump, data, tmp_path_factory):
        path, (width, height) = written(dump, tmp_path_factory), grid_size(dump)
        flip_bit(path, dump, 0, data.draw(st.integers(0, width * height - 1)))
        with pytest.raises(DumpFormatError, match="no-match flags"):
            read_dump(path)

    @settings(max_examples=40, deadline=None)
    @given(dump=valid_dumps(), data=st.data())
    def test_flipped_invalid_bit_rejected(self, dump, data, tmp_path_factory):
        path, (width, height) = written(dump, tmp_path_factory), grid_size(dump)
        flip_bit(path, dump, 1, data.draw(st.integers(0, width * height - 1)))
        with pytest.raises(DumpFormatError, match="invalid flags"):
            read_dump(path)

    @pytest.mark.parametrize(
        "field, value",
        [("width", 1 << 32), ("height", 1 << 32), ("d_max", 70000), ("n_max", 0)],
    )
    def test_header_field_out_of_range_rejected_on_write(self, tmp_path, field, value):
        # width, height and d_max + 2 are dimensions of the counts, here a
        # zero-stride view that large; the header is checked before any count
        dump = tiny_dump()
        args = {"counts": dump.counts, "d_max": dump.d_max, "n_max": dump.n_max}
        h, vw, m = dump.counts.shape
        shapes = {"width": (h, value - dump.d_max, m), "height": (value, vw, m),
                  "d_max": (h, vw, value + 2)}
        if field in shapes:
            args["counts"] = np.broadcast_to(dump.counts[:1, :1, :1], shapes[field])
        if field in args:
            args[field] = value
        with pytest.raises(DumpFormatError, match=field):
            write_dump(tmp_path / "d.bin", **args)

    @settings(max_examples=40, deadline=None)
    @given(dump=valid_dumps())
    def test_round_trip(self, dump, tmp_path_factory):
        back = read_dump(written(dump, tmp_path_factory))
        assert (back.counts.shape, back.d_max, back.n_max) == (
            dump.counts.shape,
            dump.d_max,
            dump.n_max,
        )
        assert np.array_equal(back.counts, dump.counts)
        assert np.array_equal(back.winner, dump.winner)

    def test_a_grid_of_zero_rows_round_trips(self, tmp_path):
        # a header allows height 0: no band, an empty winner and no bitmap bytes
        counts = np.zeros((0, 5, 7 + 2), np.uint16)
        write_dump(tmp_path / "d.bin", counts, 7, 4)
        assert (tmp_path / "d.bin").stat().st_size == struct.calcsize("<4sHIIHI")
        back = read_dump(tmp_path / "d.bin")
        assert back.counts.shape == counts.shape
        assert back.winner.shape == (0, 5)

    @pytest.mark.parametrize("layout", ["uint8", "uint16", "fortran_order"])
    def test_bytes_equal_the_whole_array_layout(self, layout, tmp_path):
        # 40 rows of 60 valid pixels, three bands of 18 rows (the last of 4):
        # header, then all counts as <u2, then the no-match and invalid bitmaps
        dump = engine_like_dump(40, 60, d_max=12)
        counts = {
            "uint8": dump.counts,
            "uint16": dump.counts.astype(np.uint16),
            "fortran_order": np.asfortranarray(dump.counts),
        }[layout]
        assert len(counts) > 2 * _rows_per_band(counts.shape[1])
        winner = whole_array_outcome(dump.counts, dump.n_max)
        assert (winner == -1).any() and (winner == dump.d_max + 1).any()
        write_dump(tmp_path / "d.bin", counts, dump.d_max, dump.n_max)
        width, height = grid_size(dump)

        def packed(flags, border):
            grid = np.full((height, width), border)
            grid[:, dump.d_max :] = flags
            return np.packbits(grid, axis=None, bitorder="little").tobytes()

        header = struct.pack("<4sHIIHI", b"SDSP", 1, width, height, 12, 16)
        body = dump.counts.astype("<u2").tobytes()
        bitmaps = packed(winner == dump.d_max + 1, False) + packed(winner < 0, True)
        assert (tmp_path / "d.bin").read_bytes() == header + body + bitmaps
        back = read_dump(tmp_path / "d.bin")
        assert np.array_equal(back.counts, dump.counts)
        assert np.array_equal(back.winner, winner)

    def test_write_and_read_hold_one_copy_of_the_counts(self, tmp_path):
        # 38,400 valid pixels: a band, 5 rows of 240, is a small share
        dump = engine_like_dump(160, 240)
        path = tmp_path / "d.bin"
        tracemalloc.start()
        try:
            write(path, dump)
            _, write_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            back = read_dump(path)
            _, read_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert write_peak < dump.counts.nbytes / 4
        # the uint16 counts read back, and little more
        assert read_peak < 1.25 * back.counts.nbytes
        assert np.array_equal(back.counts, dump.counts)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "d.bin"
        write(path, tiny_dump())
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(DumpFormatError):
            read_dump(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "d.bin"
        write(path, tiny_dump())
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(DumpFormatError):
            read_dump(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "d.bin"
        write(path, tiny_dump())
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(DumpFormatError):
            read_dump(path)

    def test_count_range_enforced_on_write(self, tmp_path):
        dump = tiny_dump()
        bad = dump.counts + dump.n_max  # exceeds n_max
        with pytest.raises(DumpFormatError):
            write_dump(tmp_path / "d.bin", bad, dump.d_max, dump.n_max)

    def test_oversized_n_max_rejected(self, tmp_path):
        dump = tiny_dump()
        with pytest.raises(DumpFormatError):
            write_dump(tmp_path / "d.bin", dump.counts, dump.d_max, 1 << 16)

    def test_a_write_that_fails_after_its_header_leaves_no_partial_file(
        self, tmp_path, monkeypatch
    ):
        old, new = tiny_dump(n_max=16), tiny_dump(n_max=8)
        path = tmp_path / "d.bin"
        write(path, old)
        before = path.read_bytes()
        walk, seen = dump_module._walk_bands, []

        def fail_the_counts(grids, each, workers=1):
            if seen:  # the writer's walk, after the header, in a temp file
                seen.append(len(list(tmp_path.iterdir())))
                raise OSError("disk full")
            seen.append("winner")
            return walk(grids, each, workers)

        monkeypatch.setattr(dump_module, "_walk_bands", fail_the_counts)
        for target in (path, tmp_path / "new.bin"):
            seen.clear()
            with pytest.raises(OSError, match="disk full"):
                write_dump(target, new.counts, new.d_max, new.n_max)
            assert seen == ["winner", 2]
            assert [f.name for f in tmp_path.iterdir()] == ["d.bin"]
            assert path.read_bytes() == before

    def test_a_written_file_takes_the_umask_permissions(self, tmp_path):
        mask = os.umask(0o027)
        try:
            save_image(tmp_path / "a.pgm", np.zeros((2, 2), np.uint8))
            write(tmp_path / "d.bin", tiny_dump())
        finally:
            os.umask(mask)
        for name in ("a.pgm", "d.bin"):
            assert (tmp_path / name).stat().st_mode & 0o777 == 0o640


class TestPipeline:
    def test_artifacts_and_dump_contents(self, tmp_path):
        lp, rp = write_pair(tmp_path)
        config = RunConfig(
            left_path=lp,
            right_path=rp,
            params=__import__(
                "stochastic_disparity"
            ).ModelParams(d_max=8),
            n_max=16,
            seed=3,
            reference_image_out=tmp_path / "ref.pgm",
            stochastic_image_out=tmp_path / "sto.pgm",
            dump_out=tmp_path / "counts.bin",
        )
        summary = run_pipeline(config)
        assert summary.reference is not None and summary.stochastic is not None
        ref_img = load_image(tmp_path / "ref.pgm")
        sto_img = load_image(tmp_path / "sto.pgm")
        assert ref_img.shape == sto_img.shape == (8, 32)
        # x < d_max border renders black and is marked invalid in the dump
        assert not ref_img[:, :8].any()
        dump = read_dump(tmp_path / "counts.bin")
        assert dump.d_max == 8 and dump.n_max == 16
        invalid = stored_bitmaps(tmp_path / "counts.bin", dump)[1]
        assert np.all(invalid[:, :8])
        assert not invalid[:, 8:].any()
        assert np.array_equal(
            dump.counts, summary.stochastic.counts.astype(np.uint16)
        )
        # the read grid carries the run's winner and readout
        assert np.array_equal(dump.winner, summary.stochastic.winner)
        assert np.array_equal(dump.readout(), summary.stochastic.readout())

    def test_mismatched_pair_rejected(self, tmp_path):
        lp, _ = write_pair(tmp_path)
        other = tmp_path / "other.pgm"
        save_image(other, np.zeros((5, 40), dtype=np.uint8))
        from stochastic_disparity import ModelParams

        config = RunConfig(left_path=lp, right_path=other, params=ModelParams(d_max=8))
        with pytest.raises(ValueError):
            run_pipeline(config)

    def test_crop_validation(self, tmp_path):
        lp, rp = write_pair(tmp_path)
        from stochastic_disparity import ModelParams

        config = RunConfig(
            left_path=lp,
            right_path=rp,
            params=ModelParams(d_max=8),
            crop=(30, 0, 20, 10),
        )
        with pytest.raises(ValueError):
            run_pipeline(config)

    def test_config_validation(self, tmp_path):
        lp, rp = write_pair(tmp_path)
        with pytest.raises(ValueError):
            RunConfig(left_path=lp, right_path=rp, mode="bogus")
        with pytest.raises(ValueError):
            RunConfig(left_path=lp, right_path=rp, n_max=0)
        with pytest.raises(ValueError):
            RunConfig(left_path=lp, right_path=rp, workers=0)
        for fraction in (float("nan"), -0.1, 1.5):
            with pytest.raises(ValueError):
                RunConfig(left_path=lp, right_path=rp, timeout_warn_fraction=fraction)


# Runs every command on a small planted pair in the directory argv[1]; with
# argv[2] == "blocked", every scipy import fails first.
RUN_PATH_SCRIPT = """
import sys
if sys.argv[2] == "blocked":
    sys.modules["scipy"] = None
from stochastic_disparity.cli import main
from stochastic_disparity.pgm import save_image
from stochastic_disparity.synthetic import planted_shift_pair

out = sys.argv[1]
for name, img in zip(("left", "right"), planted_shift_pair(36, 12, 4, 6, 15.0)):
    save_image(f"{out}/{name}.pgm", img)
pair = ["--left", f"{out}/left.pgm", "--right", f"{out}/right.pgm", "--d-max", "8"]
runs = [
    ["disparity", *pair, "--mode", "both", "--seed", "1", "--ref-out",
     f"{out}/ref.pgm", "--stoch-out", f"{out}/sto.pgm", "--dump-out",
     f"{out}/dump1.bin"],
    ["disparity", *pair, "--mode", "stochastic", "--seed", "2", "--dump-out",
     f"{out}/dump2.bin"],
    ["compare", f"{out}/dump1.bin", f"{out}/dump2.bin"],
    ["sweep", *pair, "--n-max-list", "1,16", "--seeds", "2"],
    ["estimate", "--cycles-per-pixel", "27.97"],
]
for args in runs:
    code = main(args)
    assert code == 0, (args, code)
"""


class TestCli:
    def disparity_args(self, tmp_path, lp, rp, tag=""):
        return [
            "disparity",
            "--left",
            str(lp),
            "--right",
            str(rp),
            "--d-max",
            "8",
            "--n-max",
            "16",
            "--seed",
            "5",
            "--ref-out",
            str(tmp_path / f"ref{tag}.pgm"),
            "--stoch-out",
            str(tmp_path / f"sto{tag}.pgm"),
            "--dump-out",
            str(tmp_path / f"dump{tag}.bin"),
        ]

    def test_every_command_runs_and_matches_with_scipy_blocked(self, tmp_path):
        src = Path(stochastic_disparity.__file__).parents[1]
        outputs = {}
        for mode in ("blocked", "open"):
            out = tmp_path / mode
            out.mkdir()
            done = subprocess.run(
                [sys.executable, "-c", RUN_PATH_SCRIPT, str(out), mode],
                env={**os.environ, "PYTHONPATH": str(src)},
                capture_output=True,
                check=False,
            )
            assert done.returncode == 0, done.stderr.decode()
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            outputs[mode] = (done.stdout, files)
        stdout, files = outputs["blocked"]
        assert set(files) == {
            "left.pgm", "right.pgm", "ref.pgm", "sto.pgm", "dump1.bin", "dump2.bin"
        }
        assert b"rms,f1,n_matched" in stdout and b"n_generators=246" in stdout
        assert outputs["blocked"] == outputs["open"]

    def test_disparity_runs_and_is_deterministic(self, tmp_path, capsys):
        lp, rp = write_pair(tmp_path)
        assert main(self.disparity_args(tmp_path, lp, rp, "a")) == EXIT_OK
        assert main(self.disparity_args(tmp_path, lp, rp, "b")) == EXIT_OK
        for stem in ("ref", "sto", "dump"):
            ext = "bin" if stem == "dump" else "pgm"
            a = (tmp_path / f"{stem}a.{ext}").read_bytes()
            b = (tmp_path / f"{stem}b.{ext}").read_bytes()
            assert a == b
        # cycle statistics go to stderr, not stdout
        captured = capsys.readouterr()
        assert "cycles/pixel" in captured.err
        assert captured.out == ""

    def test_sweep_csv(self, tmp_path):
        lp, rp = write_pair(tmp_path)
        out = tmp_path / "sweep.csv"
        args = [
            "sweep",
            "--left",
            str(lp),
            "--right",
            str(rp),
            "--d-max",
            "8",
            "--n-max-list",
            "1,16",
            "--out",
            str(out),
        ]
        assert main(args) == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n_max,rms,f1,cycles_mean,cycles_sd,timeouts"
        assert len(lines) == 3

    def test_sweep_and_compare_text_is_pinned(self, tmp_path, capsys):
        # text of the whole-grid scoring on a natural pair with 56 rows of 100
        # valid pixels (six bands, the last one row): summing the RMS band by
        # band may move its last bits, never these digits
        for name, img in zip(("l", "r"), natural_scene_pair(120, 60, 8, seed=1)):
            save_image(tmp_path / f"{name}.pgm", img)
        pair = ["--left", str(tmp_path / "l.pgm"), "--right", str(tmp_path / "r.pgm"),
                "--d-max", "16"]
        assert main(["sweep", *pair, "--n-max-list", "1,16", "--seeds", "2"]) == EXIT_OK
        assert capsys.readouterr().out == (
            "n_max,rms,f1,cycles_mean,cycles_sd,timeouts\n"
            "1,0.239432,0.133217,1.1491,0.8542,0\n"
            "16,0.062262,0.361478,20.4802,14.8304,0\n"
        )
        for seed in (1, 2):
            args = ["disparity", *pair, "--seed", str(seed),
                    "--dump-out", str(tmp_path / f"d{seed}.bin")]
            assert main(args) == EXIT_OK
        capsys.readouterr()
        dumps = [str(tmp_path / f"d{seed}.bin") for seed in (1, 2)]
        assert main(["compare", *dumps]) == EXIT_OK
        assert capsys.readouterr().out == "rms,f1,n_matched\n0.090684,0.752456,4965\n"

    def test_estimate_prints_projection(self, capsys):
        args = ["estimate", "--cycles-per-pixel", "27.97"]
        assert main(args) == EXIT_OK
        out = dict(
            line.split("=") for line in capsys.readouterr().out.strip().split("\n")
        )
        assert out["n_generators"] == "246"
        assert float(out["power_mw"]) == pytest.approx(12.3)
        assert out["valid_pixels"] == "264656"
        assert out["cycles_per_image"] == "7402428.32"
        assert float(out["frames_per_second"]) == pytest.approx(67.5, abs=0.1)

    def test_estimate_of_an_impossible_geometry_exits_with_code_2(self, capsys):
        args = ["estimate", "--cycles-per-pixel", "27.97", "--width", "10",
                "--height", "2"]
        assert main(args) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "too small" in captured.err and captured.out == ""

    def test_compare_between_dumps(self, tmp_path, capsys):
        lp, rp = write_pair(tmp_path)
        assert main(self.disparity_args(tmp_path, lp, rp, "a")) == EXIT_OK
        args = [
            "compare",
            str(tmp_path / "dumpa.bin"),
            str(tmp_path / "dumpa.bin"),
        ]
        assert main(args) == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "rms,f1,n_matched"
        rms, f1, n = lines[1].split(",")
        assert float(rms) == 0.0
        assert float(f1) == 1.0
        assert int(n) > 0

    def test_compare_dumps_of_two_seeds(self, tmp_path, capsys):
        lp, rp = write_pair(tmp_path)
        args = self.disparity_args(tmp_path, lp, rp, "a")
        assert main(args) == EXIT_OK
        args = self.disparity_args(tmp_path, lp, rp, "b")
        args[args.index("--seed") + 1] = "6"
        assert main(args) == EXIT_OK
        capsys.readouterr()
        dumps = [str(tmp_path / "dumpa.bin"), str(tmp_path / "dumpb.bin")]
        assert main(["compare", *dumps]) == EXIT_OK
        rms, f1, _ = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert float(rms) > 0.0
        assert 0.0 <= float(f1) <= 1.0

    def test_compare_dumps_of_different_d_max_exits_with_code_2(
        self, tmp_path, capsys
    ):
        lp, rp = write_pair(tmp_path)
        assert main(self.disparity_args(tmp_path, lp, rp, "a")) == EXIT_OK
        args = self.disparity_args(tmp_path, lp, rp, "b")
        args[args.index("--d-max") + 1] = "6"
        assert main(args) == EXIT_OK
        dumps = [str(tmp_path / "dumpa.bin"), str(tmp_path / "dumpb.bin")]
        assert main(["compare", *dumps]) == EXIT_VALIDATION

    def test_compare_scores_timeouts_like_the_shared_helper(
        self, timeout_volume, tmp_path, capsys
    ):
        # the reference dump flags two no-match pixels that time out in the
        # other run; F1 counts each timeout as a missed no-match
        runs = [
            run_stochastic_grid(timeout_volume, 16, master_seed=0, max_cycles=cap)
            for cap in (10**7, 50)
        ]
        assert not runs[0].timed_out.any() and runs[1].timed_out.sum() == 2
        dumps = [tmp_path / "a.bin", tmp_path / "b.bin"]
        for path, run in zip(dumps, runs):
            write_dump(path, run.counts, 2, 16)
        assert main(["compare", *map(str, dumps)]) == EXIT_OK
        reference, run = (Readout(r.counts, r) for r in runs)
        rms, f1, n_matched = score_readouts(run, reference)
        assert (f1, n_matched) == (0.0, 1)
        printed = capsys.readouterr().out.split("\n")[1]
        assert printed == f"{rms:.6f},{f1:.6f},{n_matched}"

    def test_compare_dump_with_contradicted_no_match_exits_with_code_3(
        self, tmp_path, capsys
    ):
        dump = at_disparity_0()
        good, bad = tmp_path / "good.bin", tmp_path / "bad.bin"
        write(good, dump)
        write(bad, dump)
        flip_bit(bad, dump, 0, 8)  # bit 8 is (1, 3)
        assert main(["compare", str(good), str(bad)]) == EXIT_IO
        assert "no-match flags" in capsys.readouterr().err

    def test_compare_dump_with_an_invalid_bit_over_n_max_exits_with_code_3(
        self, tmp_path, capsys
    ):
        dump = at_disparity_0()
        good, bad = tmp_path / "good.bin", tmp_path / "bad.bin"
        write(good, dump)
        write(bad, dump)
        flip_bit(bad, dump, 1, 8)  # bit 8 is (1, 3), which holds n_max
        assert main(["compare", str(good), str(bad)]) == EXIT_IO
        assert "invalid flags" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [
            ["--max-cycles", str(2**63 - 1)],
            ["--n-max", str(2**16)],
            ["--mode", "reference"],  # with a stochastic image and a dump
            ["--mode", "stochastic"],  # with a reference image
            ["--seed", "-1"],
        ],
        ids=[
            "max_cycles_beyond_int64", "n_max_beyond_dump",
            "reference_mode_stochastic_outputs", "stochastic_mode_reference_output",
            "seed_negative",
        ],
    )
    def test_bad_config_exits_with_code_2_before_any_artifact(
        self, extra, tmp_path, capsys
    ):
        lp, rp = write_pair(tmp_path)
        args = self.disparity_args(tmp_path, lp, rp)
        assert main([*args, *extra]) == EXIT_VALIDATION
        assert extra[0][2:].replace("-", "_") in capsys.readouterr().err
        for name in ("ref.pgm", "sto.pgm", "dump.bin"):
            assert not (tmp_path / name).exists()

    @pytest.mark.parametrize("command", ["disparity", "sweep"])
    def test_max_cycles_beyond_int64_exits_with_code_2(
        self, command, tmp_path, capsys
    ):
        lp, rp = write_pair(tmp_path)
        args = [command, "--left", str(lp), "--right", str(rp), "--d-max", "8"]
        if command == "sweep":
            args += ["--n-max-list", "1"]
        assert main([*args, "--max-cycles", str(2**63 - 1)]) == EXIT_VALIDATION
        assert "max_cycles" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", [0, -3])
    @pytest.mark.parametrize("command", ["disparity", "sweep"])
    def test_nonpositive_workers_exits_with_code_2(
        self, command, workers, tmp_path, capsys
    ):
        lp, rp = write_pair(tmp_path)
        args = [command, "--left", str(lp), "--right", str(rp), "--d-max", "8"]
        assert main([*args, "--workers", str(workers)]) == EXIT_VALIDATION
        assert "worker count" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--seed", "-1"], "seed must be nonnegative"),
            (["--seeds", "0"], "need at least one seed"),
            (["--n-max-list", "0"], "n_max must be positive"),
            (["--n-max-list", "1,x"], "invalid literal"),
            (["--max-cycles", "0"], "max_cycles must lie"),
            (["--workers", "0"], "worker count must be positive"),
            (["--sigma-m", "nan"], "sigma_m"),
            (["--n-max-list", "1,8", "--max-cycles", "7"], "not exceed max_cycles"),
        ],
        ids=["seed", "seeds", "n_max_list", "n_max_text", "max_cycles", "workers",
             "param", "n_max_beyond_max_cycles"],
    )
    def test_bad_sweep_argument_exits_with_code_2_before_reading_an_image(
        self, extra, message, tmp_path, monkeypatch, capsys
    ):
        def unread(path):
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(cli, "load_image", unread)
        missing = str(tmp_path / "missing.pgm")
        args = ["sweep", "--left", missing, "--right", missing]
        assert main([*args, *extra]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--crop", "0,0,0,5"], "crop dimensions must be positive"),
            (["--crop=-1,0,5,5"], "crop rectangle outside the image"),
            (["--d-max", "65536", "--n-max", "1"], "d_max above 65535 does not fit"),
            (["--max-cycles", "15"], "must not exceed max_cycles"),  # n_max 16
        ],
        ids=["crop_empty", "crop_negative_origin", "d_max_beyond_dump",
             "n_max_beyond_max_cycles"],
    )
    def test_bad_disparity_argument_exits_with_code_2_before_reading_an_image(
        self, extra, message, tmp_path, monkeypatch, capsys
    ):
        def unread(path):
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(pipeline, "load_image", unread)
        missing = tmp_path / "missing.pgm"
        args = self.disparity_args(tmp_path, missing, missing)
        assert main([*args, *extra]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "first, second",
        [("--ref-out", "--stoch-out"), ("--ref-out", "--dump-out"),
         ("--stoch-out", "--dump-out")],
    )
    def test_two_outputs_naming_one_file_exit_with_code_2_before_reading_an_image(
        self, first, second, tmp_path, monkeypatch, capsys
    ):
        def unread(path):
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(pipeline, "load_image", unread)
        (tmp_path / "sub").mkdir()
        missing = tmp_path / "missing.pgm"
        args = self.disparity_args(tmp_path, missing, missing)
        # one file, spelled two ways
        args[args.index(first) + 1] = str(tmp_path / "out.pgm")
        args[args.index(second) + 1] = str(tmp_path / "sub" / ".." / "out.pgm")
        assert main(args) == EXIT_VALIDATION
        shared = (tmp_path / "out.pgm").resolve()
        assert f"two outputs name one file: {shared}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["sub"]

    @pytest.mark.parametrize(
        "output", ["--ref-out", "--stoch-out", "--dump-out", "--out"]
    )
    def test_missing_output_directory_exits_with_code_3_before_reading_an_image(
        self, output, tmp_path, monkeypatch, capsys
    ):
        def unread(path):
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(pipeline, "load_image", unread)
        monkeypatch.setattr(cli, "load_image", unread)
        missing, nowhere = tmp_path / "missing.pgm", tmp_path / "nodir" / "out"
        if output == "--out":  # sweep's only output
            args = ["sweep", "--left", str(missing), "--right", str(missing)]
            args += ["--out", ""]
        else:
            args = self.disparity_args(tmp_path, missing, missing)
        args[args.index(output) + 1] = str(nowhere)
        assert main(args) == EXIT_IO
        assert f"no such directory: {nowhere.parent}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "output", ["--ref-out", "--stoch-out", "--dump-out", "--out"]
    )
    def test_a_directory_output_exits_with_code_3_before_reading_an_image(
        self, output, tmp_path, monkeypatch, capsys
    ):
        def unread(path):
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(pipeline, "load_image", unread)
        monkeypatch.setattr(cli, "load_image", unread)
        missing, folder = tmp_path / "missing.pgm", tmp_path / "folder"
        folder.mkdir()
        if output == "--out":  # sweep's only output
            args = ["sweep", "--left", str(missing), "--right", str(missing)]
            args += ["--out", ""]
        else:
            args = self.disparity_args(tmp_path, missing, missing)
        args[args.index(output) + 1] = str(folder)
        assert main(args) == EXIT_IO
        assert f"output is a directory: {folder}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["folder"]
        assert not any(folder.iterdir())

    def test_an_interrupt_exits_with_code_130_and_leaves_no_output(
        self, tmp_path, monkeypatch, capsys
    ):
        lp, rp = write_pair(tmp_path)

        def interrupted_while_writing(config):
            def write(f):
                f.write(b"SDSP")
                raise KeyboardInterrupt

            pgm.write_whole(config.dump_out, write)

        monkeypatch.setattr(cli, "run_pipeline", interrupted_while_writing)
        assert main(self.disparity_args(tmp_path, lp, rp)) == EXIT_INTERRUPTED
        assert capsys.readouterr().err == "error: interrupted\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["left.pgm", "right.pgm"]

    @pytest.mark.parametrize("command", ["disparity", "sweep"])
    def test_unequal_images_exit_with_code_2_before_any_filtering(
        self, command, tmp_path, monkeypatch, capsys
    ):
        def unfiltered(img, rows, out):
            raise AssertionError("an image was filtered")

        # every feature row, of `BandRates` and of `compute_features`
        monkeypatch.setattr(model, "_feature_rows", unfiltered)
        rng = np.random.default_rng(0)
        paths = [tmp_path / "left.pgm", tmp_path / "right.pgm"]
        for path, width in zip(paths, (120, 100)):
            save_image(path, rng.integers(0, 256, (40, width), dtype=np.uint8))
        args = [command, "--left", str(paths[0]), "--right", str(paths[1]),
                "--d-max", "16"]
        if command == "disparity":
            args += ["--ref-out", str(tmp_path / "ref.pgm")]
        assert main(args) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == "error: image dimensions differ: (40, 120) vs (40, 100)\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["left.pgm", "right.pgm"]

    def test_timeouts_above_the_warn_fraction_exit_with_code_4_and_warn(
        self, tmp_path, capsys
    ):
        # natural 200x150 at n_max 16 and --max-cycles 64: about 6% time out
        paths = [tmp_path / "left.pgm", tmp_path / "right.pgm"]
        for path, img in zip(paths, natural_scene_pair(200, 150, 12, 1)):
            save_image(path, img)
        args = ["disparity", "--left", str(paths[0]), "--right", str(paths[1]),
                "--n-max", "16", "--seed", "3", "--max-cycles", "64"]
        assert main(args) == EXIT_TIMEOUT
        *_, cycles, warning = capsys.readouterr().err.splitlines()
        pixels, timeouts = map(int, re.search(
            r", (\d+) pixels, (\d+) timeouts\)$", cycles
        ).groups())
        assert 0.01 < timeouts / pixels < 0.5
        assert warning == (
            f"warning: {timeouts} pixels ({timeouts / pixels:.2%}) "
            "timed out before overflow"
        )
        assert main([*args, "--timeout-warn-fraction", "0.5"]) == EXIT_OK
        assert "warning" not in capsys.readouterr().err

    def test_missing_input_exits_with_io_code(self, tmp_path, capsys):
        args = [
            "disparity",
            "--left",
            str(tmp_path / "absent.pgm"),
            "--right",
            str(tmp_path / "absent.pgm"),
        ]
        assert main(args) == EXIT_IO
        assert "error:" in capsys.readouterr().err

    def test_truncated_image_exits_with_io_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n4 4\n255\n\x00")
        args = ["disparity", "--left", str(bad), "--right", str(bad)]
        assert main(args) == EXIT_IO

    def test_validation_error_exits_with_code_2(self, tmp_path, capsys):
        lp, rp = write_pair(tmp_path)
        # d_max too large for this pair: no valid pixels
        args = ["disparity", "--left", str(lp), "--right", str(rp), "--d-max", "80"]
        assert main(args) == EXIT_VALIDATION

    def test_nan_parameter_exits_with_code_2(self, tmp_path, capsys):
        lp, rp = write_pair(tmp_path)
        args = ["disparity", "--left", str(lp), "--right", str(rp), "--sigma-m", "nan"]
        assert main(args) == EXIT_VALIDATION
        assert "sigma_m" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [
            ["--cycles-per-pixel", "nan"],
            ["--cycles-per-pixel", "28", "--clock-hz", "inf"],
        ],
        ids=["cycles_nan", "clock_inf"],
    )
    def test_non_finite_estimate_input_exits_with_code_2(self, extra, capsys):
        assert main(["estimate", *extra]) == EXIT_VALIDATION
        assert "finite" in capsys.readouterr().err
