"""Exact floating-point inference oracle."""

import io
import tracemalloc

import numpy as np
import pytest

from stochastic_disparity import model
from stochastic_disparity.dump import read_dump, write_dump
from stochastic_disparity.engine import _band_pass, run_stochastic_grid
from stochastic_disparity.metrics import compare_results
from stochastic_disparity.model import (
    BORDER,
    FEATURE_NAMES,
    BandRates,
    LikelihoodVolume,
    ModelParams,
    build_likelihood_volume,
    compute_features,
)
from stochastic_disparity.pgm import save_image
from stochastic_disparity.pipeline import RunConfig, render_disparity, run_pipeline
from stochastic_disparity.reference import ReferenceResult, reference_infer
from stochastic_disparity.synthetic import natural_scene_pair, planted_shift_pair


def volume_from_rates(products, nomatch, d_max):
    """Volume from disparity products (H, W, d_max + 1) and no-match rates."""
    nomatch = np.asarray(nomatch, dtype=float)[..., None]
    rates = np.concatenate([np.asarray(products, dtype=float), nomatch], axis=2)
    return LikelihoodVolume(rates, ModelParams(d_max=d_max))


class TestReferenceInfer:
    def test_toy_volume_hand_computed(self):
        # products (0.504, 0.9, 0.027) -> normalized (0.56, 1.0, 0.03), MAP 1
        lik = np.array([[[0.9 * 0.8 * 0.7, 1.0 * 1.0 * 0.9, 0.3 * 0.3 * 0.3]]])
        result = reference_infer(volume_from_rates(lik, [[0.01]], d_max=2))
        assert result.map_disparity[0, 0] == 1
        assert not result.no_match[0, 0]
        assert result.norm_scores[0, 0] == pytest.approx(
            [0.504 / 0.9, 1.0, 0.027 / 0.9]
        )
        assert result.rates.max(axis=2)[0, 0] == pytest.approx(0.9)

    def test_dominant_row_wins(self):
        # all likelihoods 1 at d=5, p0 floor elsewhere (products p0^3)
        p0 = 0.02
        lik = np.full((1, 2, 7), p0 * p0 * p0)
        lik[:, :, 5] = 1.0
        result = reference_infer(volume_from_rates(lik, np.full((1, 2), 0.01), 6))
        assert np.all(result.map_disparity == 5)
        assert np.all(result.norm_scores[:, :, 5] == 1.0)

    def test_perfect_match_beats_nomatch(self):
        # (1, 1, 1) at d=7 with p_nomatch = 0.01: matched, MAP 7
        lik = np.full((1, 1, 9), 0.02 * 0.02 * 0.02)
        lik[0, 0, 7] = 1.0
        result = reference_infer(volume_from_rates(lik, [[0.01]], d_max=8))
        assert result.map_disparity[0, 0] == 7
        assert not result.no_match[0, 0]

    def test_occlusion_limit_flags_no_match(self):
        # every disparity at the p0^3 product, nomatch floor above it
        lik = np.full((2, 2, 5), 0.02 * 0.02 * 0.02)
        result = reference_infer(volume_from_rates(lik, np.full((2, 2), 0.01), 4))
        assert np.all(result.no_match)
        assert not result.timed_out.any()
        assert np.all(result.map_disparity == -1)
        assert np.all(result.rates.max(axis=2) == result.rates[..., -1])

    def test_exact_tie_with_nomatch_stays_matched(self):
        lik = np.full((1, 1, 3), 0.5 * 0.5 * 0.5)
        lik[0, 0, 1] = 1.0
        result = reference_infer(volume_from_rates(lik, [[1.0]], d_max=2))
        assert not result.no_match[0, 0]
        assert result.map_disparity[0, 0] == 1

    def test_tied_disparities_resolve_to_lowest_index(self):
        lik = np.full((1, 1, 4), 0.9 * 0.9 * 0.9)
        result = reference_infer(volume_from_rates(lik, [[0.01]], d_max=3))
        assert result.map_disparity[0, 0] == 0
        tied_pair = [[[0.3, 0.9, 0.9]]]
        result = reference_infer(volume_from_rates(tied_pair, [[0.01]], d_max=2))
        assert result.map_disparity[0, 0] == 1

    def test_holds_the_rates_without_a_copy(self):
        # no score-sized copy or mask: the only grid is the int16 winner, 2 of
        # the rates' 656 bytes per pixel, and argmax's indices of one band
        rng = np.random.default_rng(0)
        volume = volume_from_rates(
            rng.random((60, 100, 81)), rng.random((60, 100)), d_max=80
        )
        tracemalloc.start()
        try:
            result = reference_infer(volume)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < volume.rates.nbytes / 20
        assert result.rates is volume.rates

    def test_argmax_holds_no_index_grid(self):
        # a natural VGA volume, 476 x 556 valid pixels: the winner grid is 2
        # bytes a pixel, and a whole-volume argmax's intp indices would add 8
        params = ModelParams(d_max=80)
        fmaps = [compute_features(img) for img in natural_scene_pair(640, 480, 40, 1)]
        volume = build_likelihood_volume(*fmaps, params)
        del fmaps
        tracemalloc.start()
        try:
            result = reference_infer(volume)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.winner.shape == (476, 556)
        assert peak < 4 * result.winner.size


def write_pair(tmp_path, left, right):
    paths = tmp_path / "left.pgm", tmp_path / "right.pgm"
    for path, img in zip(paths, (left, right)):
        save_image(path, img)
    return paths


class TestReferenceOutcome:
    """The band pass takes the oracle band by band, over `BandRates` with no
    volume."""

    @pytest.mark.parametrize("height", [1, 4, 5, 6, 37])
    def test_winner_equals_the_volume_oracle(self, monkeypatch, height):
        params = ModelParams(d_max=16)
        left, right = natural_scene_pair(
            120 + BORDER, height + BORDER, 8, seed=3, content_x=20
        )
        fmaps_l, fmaps_r = compute_features(left), compute_features(right)
        # pixel (y, tie) matches exactly at disparity 3 on a flat left, so its
        # no-match rate ties its top disparity rate at 1; pixel (y, flat) is
        # flat with no exact match, so no-match wins outright
        y, tie, flat, d = height // 2, 40, 90, 3
        for name in FEATURE_NAMES:
            getattr(fmaps_l, name)[y, tie] = getattr(fmaps_r, name)[y, tie - d]
        fmaps_l.grad_v[y, [tie, flat]] = fmaps_r.grad_v[y, tie - d] = 0
        monkeypatch.setattr(model, "RACE_BLOCK", 5 * 104)  # 5-row bands
        volume = build_likelihood_volume(fmaps_l, fmaps_r, params)
        rates = volume.rates[y, tie - params.d_max]
        assert rates[d] == rates[-1] == rates.max() == 1.0
        want = volume.rates.argmax(axis=2)  # the oracle rule, over the whole volume
        bands = BandRates(fmaps_l, fmaps_r, params)
        for mode in ("reference", "both"):
            got = _band_pass(bands, mode)[0].winner
            assert got.dtype == model.winner_dtype(params.d_max)
            np.testing.assert_array_equal(got, want)
        assert want[y, tie - params.d_max] <= params.d_max  # the tie stays matched
        assert want[y, flat - params.d_max] == params.nomatch_index

    @pytest.mark.parametrize("workers", [1, 2])
    def test_reference_image_is_the_same_in_both_modes(self, workers, tmp_path):
        paths = write_pair(tmp_path, *natural_scene_pair(200, 150, 12, seed=1))
        images, summaries = [], []
        for mode in ("reference", "both"):
            images.append(tmp_path / f"{mode}.pgm")
            config = RunConfig(
                *paths, n_max=1, mode=mode, workers=workers,
                reference_image_out=images[-1],
            )
            summaries.append(run_pipeline(config, log=io.StringIO()))
        assert images[0].read_bytes() == images[1].read_bytes()
        streamed, whole = (s.reference for s in summaries)
        assert not isinstance(streamed, ReferenceResult)  # a winner grid, no rates
        assert isinstance(whole, ReferenceResult)
        np.testing.assert_array_equal(streamed.winner, whole.winner)

    def test_reference_mode_never_holds_the_volume(self, tmp_path):
        # a 640x480 pair has a 476 x 556 x 82 float64 volume, 174 MB; one
        # band of rates, one group of int16 features and its sums, the images
        # and the int16 winner grid are about a thirtieth of it. Small grids
        # do not show this: the images and the 511 x 511 mean-grad_h table
        # stay a fixed share.
        paths = write_pair(
            tmp_path, *planted_shift_pair(640, 480, 20, seed=1, noise_sigma=20)
        )
        config = RunConfig(
            *paths, mode="reference", reference_image_out=tmp_path / "ref.pgm"
        )
        tracemalloc.start()
        try:
            summary = run_pipeline(config, log=io.StringIO())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        volume_bytes = summary.reference.winner.size * config.params.machine_width * 8
        assert summary.reference.winner.shape == (476, 556)
        assert peak < volume_bytes / 16

    @pytest.mark.parametrize("workers", [1, 2])
    def test_both_mode_never_holds_the_volume(self, workers, tmp_path):
        # the same 174 MB volume; a `both` run that writes every artifact
        # holds the uint8 counts (22 MB), the winner, cycles and oracle grids
        # (2 MB each), the images and each thread's band and group buffers,
        # and builds the oracle's rates again only band by band
        paths = write_pair(
            tmp_path, *planted_shift_pair(640, 480, 20, seed=1, noise_sigma=20)
        )
        config = RunConfig(
            *paths, mode="both", workers=workers,
            reference_image_out=tmp_path / "ref.pgm",
            stochastic_image_out=tmp_path / "sto.pgm",
            dump_out=tmp_path / "run.sdsp",
        )
        tracemalloc.start()
        try:
            summary = run_pipeline(config, log=io.StringIO())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert summary.stochastic.counts.shape == (476, 556, 82)
        assert peak < summary.stochastic.counts.size * 8 / 3


class TestBandPass:
    """`stochastic` and `both` runs build, argmax and race each band of rates
    in one pass, and give what the volume path gives."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_both_run_equals_the_volume_path(self, workers, tmp_path):
        left, right = natural_scene_pair(200, 150, 12, seed=1)
        config = RunConfig(
            *write_pair(tmp_path, left, right), n_max=16, seed=5, workers=workers
        )
        summary = run_pipeline(config, log=io.StringIO())
        fmaps = compute_features(left), compute_features(right)
        volume = build_likelihood_volume(*fmaps, config.params)
        oracle = reference_infer(volume)
        run = run_stochastic_grid(volume, 16, 5)
        assert isinstance(summary.reference, ReferenceResult)
        assert summary.reference.winner.dtype == oracle.winner.dtype
        assert summary.reference.winner.tobytes() == oracle.winner.tobytes()
        for name in ("counts", "winner", "cycles"):
            got, want = getattr(summary.stochastic, name), getattr(run, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        # float for float: rms, f1 and n_matched, the oracle's rates rebuilt
        # band by band
        want = compare_results(run, oracle, workers)
        assert compare_results(summary.stochastic, summary.reference, workers) == want

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stochastic_mode_writes_the_both_runs_bytes(self, workers, tmp_path):
        # the race does not depend on whether the oracle ran
        paths = write_pair(tmp_path, *natural_scene_pair(200, 150, 12, seed=1))
        artifacts, logs = {}, {}
        for mode in ("stochastic", "both"):
            artifacts[mode] = tmp_path / f"{mode}.pgm", tmp_path / f"{mode}.sdsp"
            config = RunConfig(
                *paths, n_max=16, seed=7, mode=mode, workers=workers,
                stochastic_image_out=artifacts[mode][0], dump_out=artifacts[mode][1],
            )
            logs[mode] = io.StringIO()
            run_pipeline(config, log=logs[mode])
        for sto, both in zip(artifacts["stochastic"], artifacts["both"]):
            assert sto.read_bytes() == both.read_bytes()
        assert logs["stochastic"].getvalue() == logs["both"].getvalue()

    def test_band_rates_are_the_volume_by_row_slice(self, monkeypatch):
        params = ModelParams(d_max=16)
        monkeypatch.setattr(model, "RACE_BLOCK", 80)  # 2-row bands of 44 pixels
        left, right = natural_scene_pair(60 + BORDER, 9 + BORDER, 8, seed=2)
        fmaps = compute_features(left), compute_features(right)
        volume = build_likelihood_volume(*fmaps, params)
        bands = BandRates(*fmaps, params)
        assert bands.shape == volume.rates.shape
        # one C-contiguous band in the volume's layout, its buffer reused
        build = bands.builder(4)
        for rows in (slice(0, 4), slice(4, 8), slice(8, 9)):
            got = build(rows)
            assert isinstance(got, np.ndarray) and got.flags.c_contiguous
            assert got.shape == (rows.stop - rows.start, *bands.shape[1:])
            assert got.tobytes() == volume.rates[rows].tobytes()
        # walked beside the volume, every band of the builder is the volume's
        walked = []

        def each(k, rows, built, sliced):
            walked.append((k, rows.start, rows.stop))
            assert built.shape == sliced.shape
            assert built.tobytes() == sliced.tobytes()

        for workers in (1, 2):
            walked.clear()
            model._walk_bands([bands, volume.rates], each, workers)
            assert sorted(walked) == [(k, 2 * k, min(2 * k + 2, 9)) for k in range(5)]
        # no whole array: neither numpy nor `norm_scores` builds the volume
        with pytest.raises(TypeError, match="no volume"):
            np.asarray(bands)
        result = ReferenceResult(reference_infer(volume).winner, params.d_max, bands)
        with pytest.raises(TypeError, match="no volume"):
            result.norm_scores


class TestWinnerDtype:
    """Every winner grid has the dtype of `model.winner_dtype`."""

    def test_int16_while_the_no_match_index_fits(self):
        assert model.winner_dtype(32766) == np.int16
        assert model.winner_dtype(32767) == np.int32

    def test_every_producer_gives_the_helpers_dtype(self, tmp_path):
        params = ModelParams(d_max=80)
        left, right = natural_scene_pair(100 + BORDER, 6 + BORDER, 8, seed=3)
        fmaps = compute_features(left), compute_features(right)
        volume = build_likelihood_volume(*fmaps, params)
        run = run_stochastic_grid(volume, 4, 1)
        write_dump(tmp_path / "run.sdsp", run.counts, 80, 4)
        got = {
            "run_stochastic_grid": run.winner.dtype,
            "reference_infer": reference_infer(volume).winner.dtype,
            "read_dump": read_dump(tmp_path / "run.sdsp").winner.dtype,
        }
        bands = BandRates(*fmaps, params)
        for mode in ("reference", "stochastic", "both"):
            results = _band_pass(bands, mode, n_max=4)
            for engine, result in zip(("oracle", "race"), results):
                if result is not None:
                    got[f"{mode} {engine}"] = result.winner.dtype
        assert len(got) == 7
        assert got == dict.fromkeys(got, model.winner_dtype(80))


class TestDisparityImages:
    """`render_disparity` draws every disparity image, over the full
    feature-map width."""

    def test_luminance_endpoints(self):
        img = render_disparity(np.array([[0, 80]]), 80, 82)
        assert list(img[0, 80:]) == [0, 255]
        assert not img[0, :80].any()  # the x < d_max border is black

    def test_luminance_rounding(self):
        assert render_disparity(np.array([[40]]), 80, 81)[0, 80] == 128

    @pytest.mark.parametrize("d_max", [1, 2, 7, 80])
    def test_every_disparity_renders_as_the_float_formula(self, d_max):
        disparity = np.arange(-1, d_max + 1)[None, :]  # -1: no-match or timeout
        want = np.rint(255.0 * np.maximum(disparity, 0) / d_max).astype(np.uint8)
        img = render_disparity(disparity, d_max, d_max + disparity.shape[1])
        assert img.dtype == np.uint8
        assert img[:, d_max:].tobytes() == want.tobytes()

    @pytest.mark.parametrize("band", [1, 2, 3])
    def test_bands_equal_the_whole_grid(self, monkeypatch, band):
        d_max, width = 7, 7 + 11
        monkeypatch.setattr(model, "_IMAGE_BLOCK", band * width)  # `band` rows
        disparity = np.random.default_rng(band).integers(-1, d_max + 1, (9, 11))
        disparity[0, :3] = -1, 0, d_max
        shades = np.rint(255.0 * np.maximum(np.arange(-1, d_max + 1), 0) / d_max)
        want = shades.astype(np.uint8)[disparity + 1]
        img = render_disparity(disparity.astype(np.int16), d_max, width)
        assert not img[:, :d_max].any()
        assert img[:, d_max:].tobytes() == want.tobytes()

    def test_no_match_pixels_render_black(self):
        lik = np.full((1, 2, 3), 0.02 * 0.02 * 0.02)
        lik[0, 0, 2] = 1.0  # pixel 0 matched at d=2, pixel 1 occluded
        result = reference_infer(volume_from_rates(lik, [[0.01, 0.01]], 2))
        img = render_disparity(result.map_disparity, 2, 4)
        assert img.dtype == np.uint8
        assert list(img[0]) == [0, 0, 255, 0]
