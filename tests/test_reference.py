"""Exact floating-point inference oracle."""

import tracemalloc

import numpy as np
import pytest

from stochastic_disparity.model import LikelihoodVolume, ModelParams
from stochastic_disparity.pipeline import render_disparity
from stochastic_disparity.reference import reference_infer


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
        assert result.winning_score[0, 0] == pytest.approx(0.9)

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
        assert np.all(result.winning_score == result.rates[..., -1])

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
        # no score-sized copy or mask: the only grid is the int64 winner,
        # 1/82 of the rates here
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


class TestDisparityImages:
    """`render_disparity` draws every disparity image, over the full
    feature-map width."""

    def test_luminance_endpoints(self):
        img = render_disparity(np.array([[0, 80]]), 80, 82)
        assert list(img[0, 80:]) == [0, 255]
        assert not img[0, :80].any()  # the x < d_max border is black

    def test_luminance_rounding(self):
        assert render_disparity(np.array([[40]]), 80, 81)[0, 80] == 128

    def test_no_match_pixels_render_black(self):
        lik = np.full((1, 2, 3), 0.02 * 0.02 * 0.02)
        lik[0, 0, 2] = 1.0  # pixel 0 matched at d=2, pixel 1 occluded
        result = reference_infer(volume_from_rates(lik, [[0.01, 0.01]], 2))
        img = render_disparity(result.map_disparity, 2, 4)
        assert img.dtype == np.uint8
        assert list(img[0]) == [0, 0, 255, 0]
