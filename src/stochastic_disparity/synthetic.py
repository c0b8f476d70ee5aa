"""Synthetic rectified stereo pairs with known ground truth.

Used for validation in place of real captures: a textured base image is
shifted by a known disparity to form the right view, either as a plain dense
texture (`planted_shift_pair`) or as a scene with the mixed match statistics
of indoor captures (`natural_scene_pair`): oriented micro-texture, a deep
shadow flank, photometric mismatch bands and sensor noise.
"""

from typing import Tuple

import numpy as np
from scipy.ndimage import gaussian_filter
from scipy.spatial import cKDTree


def textured_base(
    width: int, height: int, seed: int, blur: float = 0.0
) -> np.ndarray:
    """Dense random texture, optionally low-pass filtered and re-stretched to
    full 8-bit contrast."""
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, size=(height, width)).astype(float)
    if blur > 0:
        img = gaussian_filter(img, blur, mode="nearest")
        lo, hi = img.min(), img.max()
        img = (img - lo) / max(hi - lo, 1e-9) * 255.0
    return np.rint(img).astype(np.uint8)


def planted_shift_pair(
    width: int,
    height: int,
    shift: int,
    seed: int,
    noise_sigma: float = 0.0,
    offset: float = 0.0,
    gain: float = 1.0,
    blur: float = 0.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Stereo pair with uniform true disparity `shift`.

    The right view is the base texture displaced so that the left pixel at x
    corresponds to the right pixel at x - shift; photometric degradations
    apply to the right view only.
    """
    if shift < 0:
        raise ValueError("shift must be nonnegative")
    base = textured_base(width + shift, height, seed, blur)
    left = base[:, :width].copy()
    right = base[:, shift : shift + width].astype(float)
    if gain != 1.0 or offset != 0.0:
        right = right * gain + offset
    if noise_sigma > 0:
        rng = np.random.default_rng(seed + 1)
        right = right + rng.normal(0.0, noise_sigma, right.shape)
    right = np.clip(np.rint(right), 0, 255).astype(np.uint8)
    return left, right


def _nearest_site(xx, yy, site_x, site_y, stroke_length, stroke_width):
    """Index of each pixel's nearest site, looked up in a KD-tree over the
    sites in diagonally rotated coordinates scaled per axis, (u / length,
    w / width), where Euclidean distance is the anisotropic stroke distance."""

    def coords(x, y):
        uw = np.stack([np.ravel(x + y), np.ravel(x - y)], axis=1) / np.sqrt(2.0)
        return uw / (stroke_length, stroke_width)

    _, index = cKDTree(coords(site_x, site_y)).query(coords(xx, yy))
    return index.reshape(xx.shape)


def natural_scene_pair(
    width: int,
    height: int,
    shift: int,
    seed: int,
    noise_sigma: float = 12.0,
    dark_level: int = 8,
    content_x: int = 78,
    stroke_length: float = 5.0,
    stroke_width: float = 2.0,
    band_width: int = 12,
    band_gap: int = 22,
    band_depth: float = 18.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """A pair with the mixed match statistics of indoor captures.

    A textured content band sits to the right of a deep flat shadow at level
    `dark_level` (columns below `content_x`). The texture is a mosaic of
    diagonally elongated strokes (anisotropic nearest-site cells of size
    roughly `stroke_length` by `stroke_width`), so every local window carries
    strong horizontal and vertical structure. Vertical bands of width
    `band_width` every `band_width + band_gap` columns darken the left view by
    `band_depth`, imitating calibration mismatch between the two cameras and
    yielding a population of weak but unambiguous matches. Per-view Gaussian
    sensor noise with `noise_sigma` sets the residual cost at the true
    disparity elsewhere.
    """
    if shift < 0:
        raise ValueError("shift must be nonnegative")
    rng = np.random.default_rng(seed)
    full_width = width + shift
    n_sites = max(4, int(full_width * height / (stroke_length * stroke_width)))
    site_y = rng.uniform(0, height, n_sites)
    site_x = rng.uniform(0, full_width, n_sites)
    levels = rng.uniform(0, 255, n_sites)
    yy, xx = np.mgrid[0:height, 0:full_width]
    base = levels[
        _nearest_site(xx, yy, site_x, site_y, stroke_length, stroke_width)
    ]
    base[:, :content_x] = dark_level

    mismatch = np.zeros(full_width)
    x = content_x + 4
    while x + band_width < full_width:
        mismatch[x : x + band_width] = band_depth
        x += band_width + band_gap

    noise_l = rng.normal(0.0, noise_sigma, (height, width))
    noise_r = rng.normal(0.0, noise_sigma, (height, width))
    textured = base[:, :width] > dark_level + 1
    left = base[:, :width] - mismatch[None, :width] * textured + noise_l
    right = base[:, shift : shift + width] + noise_r
    return (
        np.clip(np.rint(left), 0, 255).astype(np.uint8),
        np.clip(np.rint(right), 0, 255).astype(np.uint8),
    )
