"""Feature filters, likelihood mapping and fusion problem assembly."""

import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stochastic_disparity import model
from stochastic_disparity.model import (
    BORDER,
    FEATURE_NAMES,
    GRAD_H_KERNEL,
    GRAD_V_KERNEL,
    MEAN_KERNEL,
    FeatureMaps,
    LikelihoodVolume,
    ModelParams,
    build_likelihood_volume,
    build_pixel_spec,
    compute_features,
    likelihood,
    nomatch_probability,
)
from stochastic_disparity.synthetic import natural_scene_pair, planted_shift_pair


class TestKernels:
    def test_mean_kernel_normalized(self):
        assert MEAN_KERNEL.sum() == pytest.approx(1.0)
        assert MEAN_KERNEL.shape == (5, 5)

    def test_gradient_kernels_are_zero_sum_and_antisymmetric(self):
        assert GRAD_H_KERNEL.sum() == pytest.approx(0.0)
        assert GRAD_V_KERNEL.sum() == pytest.approx(0.0)
        assert np.allclose(GRAD_H_KERNEL, -GRAD_H_KERNEL[:, ::-1])
        assert np.allclose(GRAD_V_KERNEL, -GRAD_V_KERNEL[::-1, :])
        assert np.allclose(GRAD_H_KERNEL, GRAD_V_KERNEL.T)

    def test_gradient_range_is_plus_minus_127(self):
        # worst case: 0 on the negative-ramp side, 255 on the positive side
        worst = np.zeros((5, 5))
        worst[:, 3:] = 255.0
        response = float((GRAD_H_KERNEL * worst).sum())
        assert response == pytest.approx(127.0)
        fmaps = compute_features(np.tile(worst, (2, 2))[:5, :5])
        assert -127 <= fmaps.grad_h[0, 0] <= 127


def whole_frame_features(img):
    """The maps as one whole-frame pass of int32 sums computes them."""
    pixels = np.asarray(img).astype(np.int32)
    cols, rows = model._window_sums(pixels, 0), model._window_sums(pixels, 1)
    ramp_h = 2 * (cols[:, 4:] - cols[:, :-4]) + cols[:, 3:-1] - cols[:, 1:-3]
    ramp_v = 2 * (rows[4:] - rows[:-4]) + rows[3:-1] - rows[1:-3]
    mean = model._rounded(model._window_sums(cols, 1), 1, 25)
    return mean, model._rounded(ramp_h, 127, 3825), model._rounded(ramp_v, 127, 3825)


class TestComputeFeatures:
    def test_constant_image(self):
        fmaps = compute_features(np.full((7, 9), 100, dtype=np.uint8))
        assert fmaps.mean.shape == (7 - BORDER, 9 - BORDER)
        assert np.all(fmaps.mean == 100)
        assert not fmaps.grad_h.any()
        assert not fmaps.grad_v.any()

    def test_ramp_matches_brute_force_convolution(self):
        # I(x, y) = 10x on a 7x7 support, checked against direct evaluation of
        # every 5x5 kernel placement
        img = np.tile(10 * np.arange(7), (7, 1))
        fmaps = compute_features(img)
        for y in range(3):
            for x in range(3):
                patch = img[y : y + 5, x : x + 5].astype(float)
                want_mean = np.round((patch * MEAN_KERNEL).sum())
                want_gh = np.round((patch * GRAD_H_KERNEL).sum())
                assert fmaps.mean[y, x] == want_mean
                assert fmaps.grad_h[y, x] == want_gh
                assert fmaps.grad_v[y, x] == 0

    def test_rounding_is_half_away_from_zero(self):
        img = np.zeros((5, 5))
        img[0, 0] = 13  # raw mean 13/25 = 0.52 -> 1; banker's rounding gives 1 too
        assert compute_features(img).mean[0, 0] == 1
        img[0, 0] = 12  # 0.48 -> 0
        assert compute_features(img).mean[0, 0] == 0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            compute_features(np.zeros((4, 10)))
        with pytest.raises(ValueError):
            compute_features(np.full((6, 6), 300))
        with pytest.raises(ValueError):
            compute_features(np.zeros((2, 3, 4)))
        for bad in (np.nan, 12.7):
            img = np.zeros((6, 6))
            img[2, 3] = bad
            with pytest.raises(ValueError, match="integers"):
                compute_features(img)

    @settings(max_examples=60, deadline=None)
    @given(
        img=arrays(
            np.uint8,
            st.tuples(st.integers(5, 12), st.integers(5, 12)),
            elements=st.one_of(st.sampled_from([0, 255]), st.integers(0, 255)),
        )
    )
    def test_matches_rounded_float_correlation(self, img):
        from scipy.signal import correlate2d

        def rounded(kernel):
            raw = correlate2d(img.astype(np.int64), kernel, mode="valid")
            return np.sign(raw) * np.floor(np.abs(raw) + 0.5)

        fmaps = compute_features(img)
        for name, kernel in zip(
            FEATURE_NAMES, (MEAN_KERNEL, GRAD_H_KERNEL, GRAD_V_KERNEL)
        ):
            np.testing.assert_array_equal(getattr(fmaps, name), rounded(kernel))

    @pytest.mark.parametrize(
        "scale, den, lo, hi", [(1, 25, 0, 6375), (127, 3825, -3825, 3825)],
        ids=["box", "ramp"],
    )
    def test_integer_rounding_is_exact_for_every_raw_response(
        self, scale, den, lo, hi
    ):
        # every box sum and ramp response an 8-bit image can produce, against
        # exact rational rounding half away from zero
        raw = range(lo, hi + 1)
        ratios = [Fraction(r * scale, den) for r in raw]
        want = [
            int(math.copysign(math.floor(abs(q) + Fraction(1, 2)), q)) for q in ratios
        ]
        assert model._rounded(np.array(raw), scale, den).tolist() == want
        # no response lies within 1/7650 of a tie, so float error in the
        # kernels' correlation cannot flip a rounding
        gap = min(abs(abs(q) % 1 - Fraction(1, 2)) for q in ratios)
        assert gap >= Fraction(1, 7650)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float64])
    @pytest.mark.parametrize("band", [1, 2, 3])
    def test_bands_equal_the_whole_frame(self, monkeypatch, band, dtype):
        # 19-pixel rows of maps, `band` rows to a band: heights 5 and 37, a
        # map height of four whole bands and one row more
        width = 19 + BORDER
        monkeypatch.setattr(model, "_IMAGE_BLOCK", band * 19)
        rng = np.random.default_rng(band)
        for height in (5, 37, 4 * band + BORDER, 4 * band + BORDER + 1):
            img = rng.integers(0, 256, (height, width)).astype(dtype)
            img[0, :3] = (0, 255, 0)  # the extremes reach the first band
            fmaps = compute_features(img)
            for name, want in zip(FEATURE_NAMES, whole_frame_features(img)):
                assert getattr(fmaps, name).dtype == np.int16
                np.testing.assert_array_equal(getattr(fmaps, name), want, name)

    def test_vga_maps_are_int16_and_peak_below_12_bytes_per_pixel(self):
        # int16 maps written band by band; whole-frame int32 sums peaked near
        # 38 bytes per pixel and int64 ones at 63; the maps alone are 6
        img, _ = planted_shift_pair(640, 480, 20, seed=1, noise_sigma=20)
        tracemalloc.start()
        try:
            fmaps = compute_features(img)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [getattr(fmaps, n).dtype for n in FEATURE_NAMES] == [np.int16] * 3
        assert peak < 12 * img.size

    def test_package_import_loads_no_heavy_scipy_modules(self):
        src = Path(model.__file__).parents[1]
        code = (
            "import sys, stochastic_disparity.cli; print(' '.join(m for m in"
            " sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert out.strip() == ""


class TestModelParams:
    def test_defaults(self):
        p = ModelParams()
        assert (p.d_max, p.p0, p.p_nm0) == (80, 0.02, 0.01)
        assert p.sigma_m == p.sigma_gh == p.sigma_gv == 10.0
        assert p.sigma_nm == 8.0
        assert p.machine_width == 82
        assert p.nomatch_index == 81

    def test_nomatch_floor_must_dominate_occlusion_products(self):
        with pytest.raises(ValueError):
            ModelParams(p0=0.5, p_nm0=0.1)  # 0.1 <= 0.5^3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"d_max": 0},
            {"p0": 0.0},
            {"p0": 1.0},
            {"p_nm0": 0.0},
            {"sigma_m": 0.0},
            {"sigma_nm": -1.0},
            {"sigma_m": float("nan")},
            {"sigma_gh": float("inf")},
            {"sigma_nm": float("nan")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)


class TestLikelihood:
    def test_zero_cost_gives_one(self):
        assert likelihood(0.0, 10.0, 0.02) == pytest.approx(1.0)

    def test_huge_cost_floors_at_p0(self):
        assert likelihood(1e9, 10.0, 0.02) == pytest.approx(0.02)

    def test_reference_value(self):
        # cost 200, sigma 10, p0 0.02: 0.02 + 0.98 * exp(-1)
        want = 0.02 + 0.98 * math.exp(-1.0)
        assert likelihood(200.0, 10.0, 0.02) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.3805218523, abs=1e-9)

    def test_vectorized(self):
        out = likelihood(np.array([0.0, 200.0]), 10.0, 0.02)
        assert out.shape == (2,)

    def test_validation(self):
        with pytest.raises(ValueError):
            likelihood(1.0, 0.0, 0.02)
        with pytest.raises(ValueError):
            likelihood(-1.0, 10.0, 0.02)


class TestNomatchProbability:
    def test_flat_pixel_rate_near_one(self):
        assert nomatch_probability(0.0, 0.01, 8.0) == pytest.approx(1.0)

    def test_contrasted_pixel_floors_at_p_nm0(self):
        assert nomatch_probability(1e6, 0.01, 8.0) == pytest.approx(0.01)

    def test_reference_value(self):
        # g_V = sigma_nm = 8: 0.01 + 0.99 * exp(-1/2)
        want = 0.01 + 0.99 * math.exp(-0.5)
        assert nomatch_probability(8.0, 0.01, 8.0) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.610465, abs=1e-6)

    @pytest.mark.parametrize("size", [1, 7, 255, 1000, 264_656])
    def test_table_equals_the_direct_call_bit_for_bit(self, size):
        # the rate builder reads no-match rates from a 255-entry table; a
        # vectorised exp must give those bits at any array length
        params = ModelParams()
        grad_v = np.random.default_rng(size).integers(-127, 128, size)
        direct = nomatch_probability(grad_v, params.p_nm0, params.sigma_nm)
        tabled = model._likelihood_tables(params)[3][grad_v + 127]
        assert tabled.tobytes() == direct.tobytes()


def sigmas(params):
    return (params.sigma_m, params.sigma_gh, params.sigma_gv)


def matching_cost(fmaps_l, fmaps_r, x, y, d, feature):
    """Squared difference between the left feature at x and the right at x - d:
    the cost the likelihood tables are checked against, computed directly."""
    assert 0 <= x - d
    left = int(getattr(fmaps_l, feature)[y, x])  # int16 maps: square Python ints
    right = int(getattr(fmaps_r, feature)[y, x - d])
    return float((left - right) ** 2)


def feature_pair(params, height=12, width=120, seed=3):
    left, right = natural_scene_pair(
        width + BORDER, height + BORDER, params.d_max // 2, seed, content_x=20
    )
    return compute_features(left), compute_features(right)


class TestLikelihoodVolume:
    def test_planted_shift_scores_peak_at_true_disparity(self):
        params = ModelParams(d_max=8)
        left, right = planted_shift_pair(40, 12, 5, seed=1)
        volume = build_likelihood_volume(
            compute_features(left), compute_features(right), params
        )
        assert volume.rates.shape == (8, 28, 10)
        # exact match: all three likelihoods are 1 at d=5 for every pixel
        assert np.all(volume.rates[:, :, 5] == pytest.approx(1.0))

    def test_channel_rates_layout(self):
        # one valid pixel (x = 2); disparity d reads right column 2 - d, so
        # the mean costs are 3^2, 0, 10^2 and the gradients match everywhere
        params = ModelParams(d_max=2)
        flat = np.zeros((1, 3), dtype=np.int64)
        grad_v = np.full((1, 3), 8)
        left = FeatureMaps(np.array([[0, 0, 100]]), flat, grad_v)
        right = FeatureMaps(np.array([[110, 100, 103]]), flat, grad_v)
        volume = build_likelihood_volume(left, right, params)
        assert volume.rates.shape == (1, 1, 4)
        want = likelihood(np.array([9.0, 0.0, 100.0]), params.sigma_m, params.p0)
        assert volume.rates[0, 0, :3] == pytest.approx(want)
        assert volume.rates[0, 0, 3] == pytest.approx(
            nomatch_probability(8.0, params.p_nm0, params.sigma_nm)
        )

    def test_rates_are_the_per_feature_products_bit_for_bit(self):
        params = ModelParams(d_max=16)
        fmaps_l, fmaps_r = feature_pair(params)
        volume = build_likelihood_volume(fmaps_l, fmaps_r, params)
        rng = np.random.default_rng(0)
        ys = rng.integers(0, fmaps_l.height, 300)
        xs = rng.integers(params.d_max, fmaps_l.width, 300)

        def feature_likelihoods(x, y, name, sigma):
            costs = (matching_cost(fmaps_l, fmaps_r, x, y, d, name) for d in range(17))
            return np.array([likelihood(c, sigma, params.p0) for c in costs])

        for x, y in zip(xs, ys):
            mean, grad_h, grad_v = (
                feature_likelihoods(x, y, name, sigma)
                for name, sigma in zip(FEATURE_NAMES, sigmas(params))
            )
            row = volume.rates[y, x - params.d_max]
            np.testing.assert_array_equal(row[:-1], mean * grad_h * grad_v)
            assert row[-1] == nomatch_probability(
                fmaps_l.grad_v[y, x], params.p_nm0, params.sigma_nm
            )
            spec = build_pixel_spec(fmaps_l, fmaps_r, params, x, y)
            np.testing.assert_array_equal(spec.channel_products(), row)

    def test_table_corners_bit_for_bit(self):
        # features at their range ends make every left - right difference in
        # {-255, 0, 255} for the mean and {-254, -127, 0, 127, 254} for the
        # gradients: the first, middle and last entries of each table and the
        # corners of the combined mean x grad_h table; the pixel specs read
        # the same tables, so their rows are the per-feature likelihoods
        params = ModelParams(d_max=6, sigma_m=90.0, sigma_gh=70.0, sigma_gv=50.0)
        rng = np.random.default_rng(2)
        shape = (3, 30)

        def fmaps():
            grads = [rng.choice([-127, 0, 127], shape) for _ in range(2)]
            return FeatureMaps(rng.choice([0, 255], shape), *grads)

        fmaps_l, fmaps_r = fmaps(), fmaps()
        rates = build_likelihood_volume(fmaps_l, fmaps_r, params).rates
        pairs = [(getattr(fmaps_l, n), getattr(fmaps_r, n)) for n in FEATURE_NAMES]
        seen = set()
        for y in range(shape[0]):
            for x in range(params.d_max, shape[1]):
                spec = build_pixel_spec(fmaps_l, fmaps_r, params, x, y)
                for d in range(params.d_max + 1):
                    want = 1.0
                    for row, (name, sigma) in enumerate(
                        zip(FEATURE_NAMES, sigmas(params))
                    ):
                        cost = matching_cost(fmaps_l, fmaps_r, x, y, d, name)
                        feature_likelihood = likelihood(cost, sigma, params.p0)
                        assert spec.term_table[row, d] == feature_likelihood
                        want *= feature_likelihood
                    assert rates[y, x - params.d_max, d] == want
                    seen.add(tuple(int(fl[y, x] - fr[y, x - d]) for fl, fr in pairs))
        ends = (-254, 0, 254)
        assert {s[:2] for s in seen} >= {(m, g) for m in (-255, 0, 255) for g in ends}
        assert {s[2] for s in seen} >= set(ends)

    def test_extreme_features_index_inside_every_table(self):
        # means 0 and 255 and gradients -127 and 127 give the largest and
        # smallest index of each table, the pad column's too; the builder
        # takes in mode "wrap", so an index that left its table would give
        # another rate than plain indexing, which raises on it instead
        params = ModelParams(d_max=80)
        rng = np.random.default_rng(5)
        shape = (30, 120)  # 26-row bands of 40 valid pixels: two, one short

        def fmaps():
            grads = [rng.choice([-127, 127], shape) for _ in range(2)]
            return FeatureMaps(rng.choice([0, 255], shape), *grads)

        fmaps_l, fmaps_r = fmaps(), fmaps()
        rates = build_likelihood_volume(fmaps_l, fmaps_r, params).rates
        t_m, t_h, t_v, t_nm = model._likelihood_tables(params)
        pair = t_m[:, None] * t_h
        x = np.arange(params.d_max, shape[1])
        for d in range(params.d_max + 1):
            dm, dh, dv = (
                getattr(fmaps_l, n)[:, x].astype(int) - getattr(fmaps_r, n)[:, x - d]
                for n in FEATURE_NAMES
            )
            assert min(dm.min(), dh.min(), dv.min()) + 255 >= 0  # no index wraps
            np.testing.assert_array_equal(
                rates[..., d], pair[dm + 255, dh + 255] * t_v[dv + 255]
            )
        np.testing.assert_array_equal(rates[..., -1], t_nm[fmaps_l.grad_v[:, x] + 127])
        # the extremes are all there: both signs of every difference
        assert {-255, 255} <= set(np.unique(fmaps_l.mean[:, x] - fmaps_r.mean[:, x]))

    def test_rates_do_not_depend_on_the_row_band(self, monkeypatch):
        params = ModelParams(d_max=16)
        fmaps_l, fmaps_r = feature_pair(params, height=37)
        whole = build_likelihood_volume(fmaps_l, fmaps_r, params).rates
        monkeypatch.setattr(model, "RACE_BLOCK", 5 * 104)  # 5-row bands
        banded = build_likelihood_volume(fmaps_l, fmaps_r, params).rates
        np.testing.assert_array_equal(banded, whole)

    def test_vga_build_holds_no_second_volume(self):
        # bands are built in per-thread buffers and stored into the one
        # 476 x 556 x 82 array (174 MB); the buffers, codes and tables of two
        # threads are about 6% of it
        params = ModelParams(d_max=80)
        fmaps = [compute_features(img) for img in natural_scene_pair(640, 480, 40, 1)]
        for workers in (1, 2):
            tracemalloc.start()
            try:
                volume = build_likelihood_volume(*fmaps, params, workers)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert volume.rates.shape == (476, 556, 82)
            assert peak < 1.1 * volume.rates.nbytes, workers
            del volume

    def test_built_volume_checks_its_factors_not_its_rates(self, monkeypatch):
        # build_likelihood_volume checks its tables and no-match column and
        # tells the volume so; a volume made from outside scans its rates
        params = ModelParams(d_max=16)
        fmaps_l, fmaps_r = feature_pair(params)
        made = []

        def spy(*args):
            made.append(args[2:])
            return LikelihoodVolume(*args)

        monkeypatch.setattr(model, "LikelihoodVolume", spy)
        volume = build_likelihood_volume(fmaps_l, fmaps_r, params)
        assert made == [(True,)]
        rates = volume.rates.copy()
        rates[-1, -1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            LikelihoodVolume(rates, params)

    def test_built_volume_with_a_bad_factor_is_scanned_and_rejected(self, monkeypatch):
        params = ModelParams(d_max=16)
        fmaps_l, fmaps_r = feature_pair(params)
        monkeypatch.setattr(model, "nomatch_probability", lambda *args: 1.5)
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            build_likelihood_volume(fmaps_l, fmaps_r, params)

    def test_too_narrow_image_rejected(self):
        params = ModelParams(d_max=80)
        fmaps = compute_features(np.zeros((10, 30)))
        with pytest.raises(ValueError):
            build_likelihood_volume(fmaps, fmaps, params)

    def test_occlusion_limit_dominated_by_nomatch_row(self):
        # all-feature likelihoods at the p0 floor: every disparity product is
        # p0^3 = 8e-6, strictly below the p_nm0 = 0.01 floor
        params = ModelParams(d_max=4)
        rates = np.full((2, 3, 6), params.p0 * params.p0 * params.p0)
        rates[..., -1] = params.p_nm0
        volume = LikelihoodVolume(rates, params)
        assert np.all(volume.rates[..., :-1] == pytest.approx(params.p0**3))
        assert np.all(volume.rates[..., -1] > volume.rates[..., :-1].max())

    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5])
    @pytest.mark.parametrize("where", ["likelihoods", "nomatch"])
    def test_rejects_non_finite_or_out_of_range_rates(self, bad, where):
        params = ModelParams(d_max=2)
        rates = np.full((1, 2, 4), 0.5)
        rates[0, 1, 1 if where == "likelihoods" else -1] = bad
        with pytest.raises(ValueError):
            LikelihoodVolume(rates, params)

    def test_rejects_wrong_channel_count(self):
        with pytest.raises(ValueError):
            LikelihoodVolume(np.full((1, 2, 3), 0.5), ModelParams(d_max=2))

    def test_out_of_range_features_rejected(self):
        fmaps = compute_features(np.zeros((6, 6)))
        with pytest.raises(ValueError, match="grad_h"):
            FeatureMaps(fmaps.mean, fmaps.grad_h + 128, fmaps.grad_v)

    def test_maps_of_different_shapes_rejected_before_their_ranges(self):
        # a one-column grad_h would otherwise broadcast across each row's rates
        z = np.zeros((3, 6), int)
        with pytest.raises(ValueError, match="share one shape"):
            FeatureMaps(z, np.zeros((3, 1), int), z)
        with pytest.raises(ValueError, match="share one shape"):
            FeatureMaps(z, np.full((3, 1), 500), z)

    def test_every_integer_dtype_gives_the_same_rates_and_specs(self):
        # the maps are held as int16 and the codes formed in intp, so narrow
        # maps neither overflow the codes nor wrap a uint8 difference
        params = ModelParams(d_max=2)
        rng = np.random.default_rng(7)
        shape = (3, 6)
        views = [
            (rng.integers(0, 256, shape), *rng.integers(-127, 128, (2, *shape)))
            for _ in range(2)
        ]
        dtypes = [(t, t, t) for t in (np.int16, np.int32, np.int64)]
        built = []
        for types in dtypes + [(np.uint8, np.int64, np.int64)]:
            fmaps_l, fmaps_r = (
                FeatureMaps(*(a.astype(t) for a, t in zip(maps, types)))
                for maps in views
            )
            assert all(getattr(fmaps_l, n).dtype == np.int16 for n in FEATURE_NAMES)
            rates = build_likelihood_volume(fmaps_l, fmaps_r, params).rates
            specs = [
                build_pixel_spec(fmaps_l, fmaps_r, params, x, y).term_table
                for y in range(shape[0])
                for x in range(params.d_max, shape[1])
            ]
            built.append((rates, np.array(specs)))
        for rates, specs in built[1:]:
            np.testing.assert_array_equal(rates, built[0][0])
            np.testing.assert_array_equal(specs, built[0][1])
        with pytest.raises(ValueError, match="mean features must be integers"):
            FeatureMaps(views[0][0].astype(float), *views[0][1:])


def one_shot_band(fmaps_l, fmaps_r, params, rows):
    """The rates of band `rows` in one whole-band pass of fancy indexing over
    `_likelihood_tables`: (t_m * t_h) * t_v, then the no-match rate."""
    t_m, t_h, t_v, t_nm = model._likelihood_tables(params)
    x = np.arange(params.d_max, fmaps_l.width)[:, None]
    partners = x - np.arange(params.d_max + 1)  # right column at disparity d
    dm, dh, dv = (
        getattr(fmaps_l, n)[rows][:, x].astype(int)
        - getattr(fmaps_r, n)[rows][:, partners]
        + 255
        for n in FEATURE_NAMES
    )
    nomatch = t_nm[fmaps_l.grad_v[rows, params.d_max :] + 127]
    return np.dstack([(t_m[:, None] * t_h)[dm, dh] * t_v[dv], nomatch])


def random_fmaps(rng, height, width):
    """Feature maps drawn over their whole ranges, so every table end is read."""
    return FeatureMaps(
        rng.integers(0, 256, (height, width)),
        *(rng.integers(-127, 128, (height, width)) for _ in range(2)),
    )


class TestBandRatesBuilder:
    """`BandRates.builder` fills one band buffer sub-band by sub-band: whole
    rows where a row holds at most `_SUB_BAND` valid pixels, else runs of
    one row. Every rate is the one-shot band's, bit for bit."""

    @pytest.mark.parametrize("d_max", [16, 80])
    @pytest.mark.parametrize(
        "w_valid, height, band, sub_rows, runs",
        [(116, 21, 9, 5, 1), (616, 5, 2, 1, 2), (1316, 3, 1, 1, 3)],
        ids=["9-row-bands-of-5+4-rows", "2-runs-a-row", "3-runs-a-row"],
    )
    def test_every_band_equals_a_one_shot_build(
        self, d_max, w_valid, height, band, sub_rows, runs
    ):
        # the 9-row and the 2-row bands end on a short band of 3 rows and 1
        params = ModelParams(d_max=d_max)
        rng = np.random.default_rng(w_valid + d_max)
        fmaps_l, fmaps_r = (random_fmaps(rng, height, w_valid + d_max) for _ in range(2))
        assert model._rows_per_band(w_valid) == band
        assert -(-model._SUB_BAND // w_valid) == sub_rows
        assert -(-w_valid // model._SUB_BAND) == runs
        build = model.BandRates(fmaps_l, fmaps_r, params).builder(band)
        for y in range(0, height, band):
            rows = slice(y, min(y + band, height))
            got = build(rows)
            assert got.flags.c_contiguous
            np.testing.assert_array_equal(
                got, one_shot_band(fmaps_l, fmaps_r, params, rows), str(rows)
            )

    @pytest.mark.parametrize("image_width", [640, 2560])
    def test_scratch_is_sub_band_sized(self, image_width):
        # a band of VGA width is 2 rows of 556 valid pixels (730 kB of
        # rates), one of 2560 width 1 row of 2476; with band-sized index and
        # t_v buffers the builder held 3x the rates. numpy's iterator adds
        # transient buffers to a subtraction of strided codes (two of 64 kB
        # on numpy 2.4), so the peak has a bound of its own
        params = ModelParams(d_max=80)
        width = image_width - BORDER
        rng = np.random.default_rng(image_width)
        bands = model.BandRates(*(random_fmaps(rng, 2, width) for _ in range(2)), params)
        n_rows = model._rows_per_band(width - params.d_max)
        tracemalloc.start()
        try:
            build = bands.builder(n_rows)
            rates = build(slice(0, n_rows))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rates.shape == (n_rows, width - params.d_max, params.machine_width)
        assert held < 1.5 * rates.nbytes
        assert peak < 1.75 * rates.nbytes


class TestBuildPixelSpec:
    def test_structure(self):
        params = ModelParams(d_max=4)
        fmaps_l, fmaps_r = feature_pair(params, height=2, width=8)
        spec = build_pixel_spec(fmaps_l, fmaps_r, params, x=5, y=1)
        assert spec.cardinality == 6
        assert spec.n_terms == 3
        assert np.all(spec.prior == 1.0)
        assert spec.bus_constants.tolist() == [5.0, 1.0, 1.0, 1.0]
        for row, (name, sigma) in enumerate(zip(FEATURE_NAMES, sigmas(params))):
            costs = [matching_cost(fmaps_l, fmaps_r, 5, 1, d, name) for d in range(5)]
            np.testing.assert_array_equal(
                spec.term_table[row, :5], likelihood(np.array(costs), sigma, params.p0)
            )
        # no-match channel: rate on the first term, pass-through elsewhere
        assert spec.term_table[0, 5] == nomatch_probability(
            fmaps_l.grad_v[1, 5], params.p_nm0, params.sigma_nm
        )
        assert spec.term_table[1, 5] == spec.term_table[2, 5] == 1.0

    def test_machine_dimensions_at_default_d_max(self):
        params = ModelParams()
        fmaps = compute_features(np.full((5, 85), 128))
        spec = build_pixel_spec(fmaps, fmaps, params, x=80, y=0)
        assert spec.cardinality == 82
        assert spec.n_terms == 3

    def test_out_of_range_pixel_rejected(self):
        params = ModelParams(d_max=4)
        fmaps_l, fmaps_r = feature_pair(params, height=2, width=8)
        with pytest.raises(ValueError):
            build_pixel_spec(fmaps_l, fmaps_r, params, x=3, y=0)
        with pytest.raises(ValueError):
            build_pixel_spec(fmaps_l, fmaps_r, params, x=5, y=2)
        with pytest.raises(ValueError):
            build_pixel_spec(fmaps_l, fmaps_r, params, x=8, y=0)

    def test_unequal_feature_maps_rejected(self):
        params = ModelParams(d_max=4)
        fmaps_l, _ = feature_pair(params, height=2, width=8)
        _, fmaps_r = feature_pair(params, height=2, width=7)
        with pytest.raises(ValueError, match="equal shapes"):
            build_pixel_spec(fmaps_l, fmaps_r, params, x=6, y=0)
