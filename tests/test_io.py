"""Image files, distribution dumps, the pipeline and the CLI front end."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stochastic_disparity.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from stochastic_disparity.dump import (
    DistributionDump,
    DumpFormatError,
    read_dump,
    write_dump,
)
from stochastic_disparity.engine import run_stochastic_grid
from stochastic_disparity.metrics import Readout, score_readouts
from stochastic_disparity.pgm import (
    ImageFileMissingError,
    ImageFormatError,
    load_image,
    save_image,
)
from stochastic_disparity.pipeline import RunConfig, run_pipeline
from stochastic_disparity.synthetic import planted_shift_pair


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
        with pytest.raises(ImageFormatError):
            save_image(tmp_path / "x.pgm", np.full((2, 2), 300))


def tiny_dump(d_max=2, n_max=16):
    rng = np.random.default_rng(0)
    h, w = 3, d_max + 4
    counts = rng.integers(0, n_max, (h, w - d_max, d_max + 2)).astype(np.uint16)
    counts[:, :, 0] = n_max  # every valid pixel has a counter at n_max...
    counts[1, 2, 0], counts[1, 2, -1] = 0, n_max  # ...one at the no-match one
    return DistributionDump(w, h, d_max, n_max, counts)


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
    return DistributionDump(vw + d_max, h, d_max, n_max, counts)


def at_disparity_0():
    """2x5 dump, d_max 2, n_max on disparity 0 at every valid pixel."""
    counts = np.zeros((2, 3, 4), np.uint16)
    counts[..., 0] = 16
    return DistributionDump(5, 2, 2, 16, counts)


def written(dump, tmp_path_factory):
    path = tmp_path_factory.mktemp("dump") / "d.bin"
    write_dump(path, dump)
    return path


def stored_bitmaps(path, dump):
    """The no-match and invalid bitmaps of a dump file, unpacked to
    (2, height, width) bools."""
    raw = np.frombuffer(path.read_bytes()[20 + 2 * dump.counts.size :], np.uint8)
    bits = np.unpackbits(raw.reshape(2, -1), axis=1, bitorder="little")
    return bits[:, : dump.width * dump.height].reshape(2, dump.height, -1) == 1


def flip_bit(path, dump, plane, bit):
    """Flip bit `bit` of bitmap `plane` (0 no-match, 1 invalid) in a dump
    file."""
    raw = bytearray(path.read_bytes())
    bitmap_len = (dump.width * dump.height + 7) // 8
    raw[20 + 2 * dump.counts.size + plane * bitmap_len + bit // 8] ^= 1 << (bit % 8)
    path.write_bytes(bytes(raw))


class TestDump:
    def test_tied_channels_at_n_max_are_accepted(self, tmp_path):
        dump = tiny_dump()
        dump.counts[0, 0, :2] = dump.n_max
        write_dump(tmp_path / "d.bin", dump)
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
        valid = np.argwhere(~dump.outcome.timed_out)
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
        dump = tiny_dump()
        with pytest.raises(DumpFormatError, match="no valid pixels"):
            write_dump(tmp_path / "d.bin", replace(dump, width=dump.d_max))
        with pytest.raises(DumpFormatError, match="counts shape"):
            write_dump(tmp_path / "d.bin", replace(dump, counts=dump.counts[:, 1:]))

    def test_written_bitmaps_are_derived_from_the_counts(self, tmp_path):
        # row 1 of the 2x5 dump: a no-match winner at x = 3, a timeout at x = 4
        dump = at_disparity_0()
        dump.counts[1, 1] = [3, 0, 15, 16]
        dump.counts[1, 2] = [15, 2, 0, 15]
        path = tmp_path / "d.bin"
        write_dump(path, dump)
        no_match, invalid = stored_bitmaps(path, dump)
        assert np.argwhere(no_match).tolist() == [[1, 3]]
        assert np.argwhere(invalid).tolist() == [[0, 0], [0, 1], [1, 0], [1, 1], [1, 4]]
        assert dump.outcome.winner.tolist() == [[0, 0, 0], [0, 3, -1]]

    @pytest.mark.parametrize("flag_x", [3, 0], ids=["valid_pixel", "border_pixel"])
    def test_no_match_flag_against_the_counts_rejected_on_write(
        self, flag_x, tmp_path
    ):
        # n_max on disparity 0 everywhere: write_dump sets no no-match bit at
        # a valid pixel or at x < d_max, and a file carrying one is rejected
        dump = at_disparity_0()
        path = tmp_path / "d.bin"
        write_dump(path, dump)
        no_match, _ = stored_bitmaps(path, dump)
        assert not no_match.any()
        flip_bit(path, dump, 0, dump.width + flag_x)
        with pytest.raises(DumpFormatError, match="no-match flags"):
            read_dump(path)

    @settings(max_examples=40, deadline=None)
    @given(dump=valid_dumps(), data=st.data())
    def test_flipped_no_match_bit_rejected(self, dump, data, tmp_path_factory):
        path = written(dump, tmp_path_factory)
        flip_bit(path, dump, 0, data.draw(st.integers(0, dump.width * dump.height - 1)))
        with pytest.raises(DumpFormatError, match="no-match flags"):
            read_dump(path)

    @settings(max_examples=40, deadline=None)
    @given(dump=valid_dumps(), data=st.data())
    def test_flipped_invalid_bit_rejected(self, dump, data, tmp_path_factory):
        path = written(dump, tmp_path_factory)
        flip_bit(path, dump, 1, data.draw(st.integers(0, dump.width * dump.height - 1)))
        with pytest.raises(DumpFormatError, match="invalid flags"):
            read_dump(path)

    @pytest.mark.parametrize(
        "field, value",
        [("width", 1 << 32), ("height", 1 << 32), ("d_max", 70000), ("n_max", 0)],
    )
    def test_header_field_out_of_range_rejected_on_write(self, tmp_path, field, value):
        dump = replace(tiny_dump(), **{field: value})
        with pytest.raises(DumpFormatError, match=field):
            write_dump(tmp_path / "d.bin", dump)

    @settings(max_examples=40, deadline=None)
    @given(dump=valid_dumps())
    def test_round_trip(self, dump, tmp_path_factory):
        back = read_dump(written(dump, tmp_path_factory))
        assert (back.width, back.height, back.d_max, back.n_max) == (
            dump.width,
            dump.height,
            dump.d_max,
            dump.n_max,
        )
        assert np.array_equal(back.counts, dump.counts)

    def test_outcome_is_derived_once(self, tmp_path):
        # read_dump's bitmap check and compare's scoring share one outcome
        write_dump(tmp_path / "d.bin", tiny_dump())
        dump = read_dump(tmp_path / "d.bin")
        assert dump.outcome is dump.outcome

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "d.bin"
        write_dump(path, tiny_dump())
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(DumpFormatError):
            read_dump(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "d.bin"
        write_dump(path, tiny_dump())
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(DumpFormatError):
            read_dump(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "d.bin"
        write_dump(path, tiny_dump())
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(DumpFormatError):
            read_dump(path)

    def test_count_range_enforced_on_write(self, tmp_path):
        dump = tiny_dump()
        bad = DistributionDump(
            dump.width,
            dump.height,
            dump.d_max,
            dump.n_max,
            dump.counts + dump.n_max,  # exceeds n_max
        )
        with pytest.raises(DumpFormatError):
            write_dump(tmp_path / "d.bin", bad)

    def test_oversized_n_max_rejected(self, tmp_path):
        dump = tiny_dump()
        bad = DistributionDump(
            dump.width,
            dump.height,
            dump.d_max,
            1 << 16,
            dump.counts,
        )
        with pytest.raises(DumpFormatError):
            write_dump(tmp_path / "d.bin", bad)


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
        assert np.array_equal(dump.outcome.winner, summary.stochastic.winner)

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
            write_dump(path, DistributionDump(5, 1, 2, 16, run.counts))
        assert main(["compare", *map(str, dumps)]) == EXIT_OK
        reference, run = (Readout(r.counts, r.n_max, r) for r in runs)
        rms, f1, n_matched = score_readouts(run, reference)
        assert (f1, n_matched) == (0.0, 1)
        printed = capsys.readouterr().out.split("\n")[1]
        assert printed == f"{rms:.6f},{f1:.6f},{n_matched}"

    def test_compare_dump_with_contradicted_no_match_exits_with_code_3(
        self, tmp_path, capsys
    ):
        dump = at_disparity_0()
        good, bad = tmp_path / "good.bin", tmp_path / "bad.bin"
        write_dump(good, dump)
        write_dump(bad, dump)
        flip_bit(bad, dump, 0, 8)  # bit 8 is (1, 3)
        assert main(["compare", str(good), str(bad)]) == EXIT_IO
        assert "no-match flags" in capsys.readouterr().err

    def test_compare_dump_with_an_invalid_bit_over_n_max_exits_with_code_3(
        self, tmp_path, capsys
    ):
        dump = at_disparity_0()
        good, bad = tmp_path / "good.bin", tmp_path / "bad.bin"
        write_dump(good, dump)
        write_dump(bad, dump)
        flip_bit(bad, dump, 1, 8)  # bit 8 is (1, 3), which holds n_max
        assert main(["compare", str(good), str(bad)]) == EXIT_IO
        assert "invalid flags" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [["--max-cycles", str(2**63 - 1)], ["--n-max", str(2**16)]],
        ids=["max_cycles_beyond_int64", "n_max_beyond_dump"],
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
