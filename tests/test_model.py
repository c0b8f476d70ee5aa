"""Feature filters, likelihood mapping and fusion problem assembly."""

import math

import numpy as np
import pytest

from stochastic_disparity.model import (
    BORDER,
    GRAD_H_KERNEL,
    GRAD_V_KERNEL,
    MEAN_KERNEL,
    CameraGeometry,
    LikelihoodVolume,
    ModelParams,
    build_likelihood_volume,
    build_pixel_spec,
    compute_features,
    disparity_to_depth,
    likelihood,
    matching_cost,
    nomatch_probability,
)
from stochastic_disparity.synthetic import planted_shift_pair


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


class TestMatchingCost:
    def test_zero_for_identical_features(self):
        left, right = planted_shift_pair(40, 12, 3, seed=0)
        fl, fr = compute_features(left), compute_features(right)
        for feature in ("mean", "grad_h", "grad_v"):
            assert matching_cost(fl, fr, x=20, y=4, d=3, feature=feature) == 0.0

    def test_squared_difference(self):
        img_l = np.full((6, 10), 50, dtype=np.uint8)
        img_r = np.full((6, 10), 43, dtype=np.uint8)
        fl, fr = compute_features(img_l), compute_features(img_r)
        assert matching_cost(fl, fr, x=3, y=1, d=0, feature="mean") == 49.0

    def test_bounds_checks(self):
        fl = compute_features(np.zeros((6, 10)))
        with pytest.raises(ValueError):
            matching_cost(fl, fl, x=0, y=0, d=2, feature="mean")
        with pytest.raises(ValueError):
            matching_cost(fl, fl, x=1, y=9, d=0, feature="mean")
        with pytest.raises(ValueError):
            matching_cost(fl, fl, x=1, y=0, d=0, feature="bogus")


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


class TestLikelihoodVolume:
    def test_planted_shift_scores_peak_at_true_disparity(self):
        params = ModelParams(d_max=8)
        left, right = planted_shift_pair(40, 12, 5, seed=1)
        volume = build_likelihood_volume(
            compute_features(left), compute_features(right), params
        )
        rates = volume.channel_rates()
        assert rates.shape == (8, 28, 10)
        # exact match: all three likelihoods are 1 at d=5 for every pixel
        assert np.all(rates[:, :, 5] == pytest.approx(1.0))

    def test_channel_rates_layout(self):
        params = ModelParams(d_max=2)
        lik = np.full((1, 1, 3, 3), 0.5)
        lik[0, 0, 1] = 1.0
        volume = LikelihoodVolume(lik, np.full((1, 1), 0.25), params)
        rates = volume.channel_rates()
        assert rates[0, 0] == pytest.approx([0.125, 1.0, 0.125, 0.25])

    def test_too_narrow_image_rejected(self):
        params = ModelParams(d_max=80)
        fmaps = compute_features(np.zeros((10, 30)))
        with pytest.raises(ValueError):
            build_likelihood_volume(fmaps, fmaps, params)

    def test_occlusion_limit_dominated_by_nomatch_row(self):
        # all-feature likelihoods at the p0 floor: every disparity product is
        # p0^3 = 8e-6, strictly below the p_nm0 = 0.01 floor
        params = ModelParams(d_max=4)
        lik = np.full((2, 3, 5, 3), params.p0)
        volume = LikelihoodVolume(lik, np.full((2, 3), params.p_nm0), params)
        rates = volume.channel_rates()
        assert np.all(rates[..., :-1] == pytest.approx(params.p0**3))
        assert np.all(rates[..., -1] > rates[..., :-1].max())


    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5])
    @pytest.mark.parametrize("where", ["likelihoods", "nomatch"])
    def test_rejects_non_finite_or_out_of_range_rates(self, bad, where):
        params = ModelParams(d_max=2)
        lik = np.full((1, 2, 3, 3), 0.5)
        nomatch = np.full((1, 2), 0.5)
        (lik if where == "likelihoods" else nomatch).flat[1] = bad
        with pytest.raises(ValueError):
            LikelihoodVolume(lik, nomatch, params)


class TestBuildPixelSpec:
    def test_structure(self):
        params = ModelParams(d_max=4)
        lik = np.random.default_rng(0).uniform(0.02, 1.0, (2, 3, 5, 3))
        volume = LikelihoodVolume(lik, np.full((2, 3), 0.3), params)
        spec = build_pixel_spec(volume, x=5, y=1)
        assert spec.cardinality == 6
        assert spec.n_terms == 3
        assert np.all(spec.prior == 1.0)
        assert spec.bus_constants == pytest.approx([5.0, 1.0, 1.0, 1.0])
        assert spec.term_table[:, :5] == pytest.approx(lik[1, 1].T)
        # no-match channel: rate on the first term, pass-through elsewhere
        assert spec.term_table[0, 5] == pytest.approx(0.3)
        assert spec.term_table[1, 5] == spec.term_table[2, 5] == 1.0

    def test_machine_dimensions_at_default_d_max(self):
        params = ModelParams()
        lik = np.full((1, 1, 81, 3), 0.5)
        volume = LikelihoodVolume(lik, np.full((1, 1), 0.5), params)
        spec = build_pixel_spec(volume, x=80, y=0)
        assert spec.cardinality == 82
        assert spec.n_terms == 3

    def test_out_of_range_pixel_rejected(self):
        params = ModelParams(d_max=4)
        lik = np.full((2, 3, 5, 3), 0.5)
        volume = LikelihoodVolume(lik, np.full((2, 3), 0.5), params)
        with pytest.raises(ValueError):
            build_pixel_spec(volume, x=3, y=0)
        with pytest.raises(ValueError):
            build_pixel_spec(volume, x=5, y=2)


class TestDisparityToDepth:
    def test_calibrated_range(self):
        # 120 mm baseline, 2.5 mm focal length; pitch chosen so d_max=80 maps
        # to the 420 mm close range, then d=1 lands at 80x that distance
        geom = CameraGeometry(focal_length=2.5, baseline=120.0)
        pitch = 120.0 * 2.5 / (80 * 420.0)
        assert disparity_to_depth(80, geom, pitch) == pytest.approx(420.0)
        assert disparity_to_depth(1, geom, pitch) == pytest.approx(33600.0)

    def test_zero_disparity_is_infinitely_far(self):
        geom = CameraGeometry(focal_length=2.5, baseline=120.0)
        assert disparity_to_depth(0, geom, 0.01) == math.inf

    def test_validation(self):
        geom = CameraGeometry(focal_length=2.5, baseline=120.0)
        with pytest.raises(ValueError):
            disparity_to_depth(1, geom, 0.0)
        with pytest.raises(ValueError):
            disparity_to_depth(-1, geom, 0.01)
        with pytest.raises(ValueError):
            CameraGeometry(focal_length=0.0, baseline=1.0)
