"""Synthetic stereo pairs."""

import numpy as np
import pytest

from stochastic_disparity import synthetic
from stochastic_disparity.synthetic import natural_scene_pair


def brute_force_nearest_site(xx, yy, site_x, site_y, stroke_length, stroke_width):
    """Every pixel against every site in rotated, per-axis scaled coordinates;
    O(pixels x sites) memory, so only for small scenes."""
    u = (xx + yy) / np.sqrt(2.0)
    w = (xx - yy) / np.sqrt(2.0)
    site_u = (site_x + site_y) / np.sqrt(2.0)
    site_w = (site_x - site_y) / np.sqrt(2.0)
    d2 = ((u[..., None] - site_u) / stroke_length) ** 2
    d2 += ((w[..., None] - site_w) / stroke_width) ** 2
    return np.argmin(d2, axis=2)


class TestNaturalScenePair:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("stroke", [(5.0, 2.0), (3.0, 3.0)])
    def test_kd_tree_matches_brute_force(self, seed, stroke, monkeypatch):
        # content from x = 10 on, so the mosaic is not hidden by the shadow
        kwargs = dict(content_x=10, stroke_length=stroke[0], stroke_width=stroke[1])
        got = natural_scene_pair(60, 40, 8, seed, **kwargs)
        monkeypatch.setattr(synthetic, "_nearest_site", brute_force_nearest_site)
        want = natural_scene_pair(60, 40, 8, seed, **kwargs)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    def test_vga_pair(self):
        left, right = natural_scene_pair(640, 480, 12, seed=1)
        assert left.shape == right.shape == (480, 640)
        assert left.dtype == right.dtype == np.uint8
        # the textured band right of the shadow carries full contrast
        assert left[:, 100:].std() > 40
