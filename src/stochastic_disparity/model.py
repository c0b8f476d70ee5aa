"""Image preprocessing and the probabilistic matching model.

Rectified 8-bit stereo pairs are filtered into three feature maps (local
mean, horizontal gradient, vertical gradient), squared feature differences
give per-disparity matching costs, and costs map to likelihoods with a floor
probability. An extra no-match channel covers occlusions and low-contrast
pixels so the machine never stalls on near-zero rates.
"""

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
from scipy.signal import correlate2d

KERNEL_SIZE = 5
BORDER = KERNEL_SIZE - 1  # feature maps lose 4 pixels per dimension

# Filter kernels. The mean filter is a normalized 5x5 box. The gradients are
# separable: a flat 5-tap smoother across the differencing axis and a linear
# ramp along it (a least-squares slope estimate). Outputs are scaled so 8-bit
# inputs land exactly in [-127, 127]: the raw ramp response of a worst-case
# image is 255 * (2+1) * 5 = 3825.
_SMOOTH = np.ones(KERNEL_SIZE)
_RAMP = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
GRADIENT_SCALE = 127.0 / 3825.0

MEAN_KERNEL = np.ones((KERNEL_SIZE, KERNEL_SIZE)) / KERNEL_SIZE**2
GRAD_H_KERNEL = np.outer(_SMOOTH, _RAMP) * GRADIENT_SCALE  # d/dx, rows smooth
GRAD_V_KERNEL = np.outer(_RAMP, _SMOOTH) * GRADIENT_SCALE  # d/dy, cols smooth


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


@dataclass(frozen=True)
class ModelParams:
    """Matching-model parameters; defaults are the evaluated working point."""

    d_max: int = 80
    p0: float = 0.02
    sigma_m: float = 10.0
    sigma_gh: float = 10.0
    sigma_gv: float = 10.0
    p_nm0: float = 0.01
    sigma_nm: float = 8.0

    def __post_init__(self):
        if self.d_max <= 0:
            raise ValueError("d_max must be positive")
        if not 0.0 < self.p0 < 1.0:
            raise ValueError("p0 must be in (0, 1)")
        if not 0.0 < self.p_nm0 < 1.0:
            raise ValueError("p_nm0 must be in (0, 1)")
        if self.p_nm0 <= self.p0**3:
            # Otherwise an occluded pixel waits on the p0^3 channels instead of
            # the no-match channel and the machine crawls.
            raise ValueError("p_nm0 must exceed p0^3")
        for name in ("sigma_m", "sigma_gh", "sigma_gv", "sigma_nm"):
            if not 0 < getattr(self, name) < math.inf:  # also rejects NaN
                raise ValueError(f"{name} must be positive and finite")

    @property
    def n_disparities(self) -> int:
        return self.d_max + 1

    @property
    def machine_width(self) -> int:
        """Disparity channels plus the no-match channel."""
        return self.d_max + 2

    @property
    def nomatch_index(self) -> int:
        return self.d_max + 1


@dataclass(frozen=True)
class CameraGeometry:
    """Stereo rig intrinsics: focal length and baseline in the same units."""

    focal_length: float
    baseline: float

    def __post_init__(self):
        if self.focal_length <= 0 or self.baseline <= 0:
            raise ValueError("focal length and baseline must be positive")


def validate_gray_image(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img)
    if img.ndim != 2 or img.size == 0:
        raise ValueError("image must be a non-empty 2-D array")
    if np.any(img < 0) or np.any(img > 255):
        raise ValueError("pixel values must lie in [0, 255]")
    return img.astype(np.int64)


@dataclass(frozen=True)
class FeatureMaps:
    """Integer feature maps, 4 pixels smaller than the source image."""

    mean: np.ndarray
    grad_h: np.ndarray
    grad_v: np.ndarray

    @property
    def height(self) -> int:
        return self.mean.shape[0]

    @property
    def width(self) -> int:
        return self.mean.shape[1]

    def stacked(self) -> np.ndarray:
        """(H, W, 3) view ordered mean, grad_h, grad_v."""
        return np.stack([self.mean, self.grad_h, self.grad_v], axis=-1)


def compute_features(img: np.ndarray) -> FeatureMaps:
    """Apply the three 5x5 filters with valid-region support.

    Outputs are rounded to integers (ties away from zero): the mean map stays
    in [0, 255], gradients in [-127, 127].
    """
    pixels = validate_gray_image(img)
    if pixels.shape[0] < KERNEL_SIZE or pixels.shape[1] < KERNEL_SIZE:
        raise ValueError("image smaller than the 5x5 filter support")
    mean = _round_half_away(correlate2d(pixels, MEAN_KERNEL, mode="valid"))
    grad_h = _round_half_away(correlate2d(pixels, GRAD_H_KERNEL, mode="valid"))
    grad_v = _round_half_away(correlate2d(pixels, GRAD_V_KERNEL, mode="valid"))
    return FeatureMaps(
        mean=mean.astype(np.int64),
        grad_h=grad_h.astype(np.int64),
        grad_v=grad_v.astype(np.int64),
    )


FEATURE_NAMES = ("mean", "grad_h", "grad_v")


def matching_cost(
    fmaps_l: FeatureMaps,
    fmaps_r: FeatureMaps,
    x: int,
    y: int,
    d: int,
    feature: str,
) -> float:
    """Squared difference between the left feature at x and the right at x-d."""
    if feature not in FEATURE_NAMES:
        raise ValueError(f"unknown feature {feature!r}")
    if not 0 <= y < fmaps_l.height:
        raise ValueError("row out of range")
    if not 0 <= x < fmaps_l.width or not 0 <= x - d < fmaps_r.width:
        raise ValueError("column out of range for this disparity")
    left = getattr(fmaps_l, feature)[y, x]
    right = getattr(fmaps_r, feature)[y, x - d]
    return float((left - right) ** 2)


def likelihood(cost, sigma: float, p0: float):
    """Map a matching cost to a likelihood with floor p0.

    Zero cost gives exactly 1; the value decays toward p0 as the cost grows,
    with sigma setting how much feature disagreement is tolerated.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    cost = np.asarray(cost, dtype=float)
    if np.any(cost < 0):
        raise ValueError("costs must be nonnegative")
    out = p0 + (1.0 - p0) * np.exp(-cost / (2.0 * sigma**2))
    return float(out) if out.ndim == 0 else out


def nomatch_probability(gv_left, p_nm0: float, sigma_nm: float):
    """No-match channel rate from the left image's own vertical gradient.

    Uses the squared gradient value directly, not a left-right cost: weakly
    contrasted pixels (gradient near 0) get a rate near 1 and resolve to
    no-match almost immediately, while the p_nm0 floor bounds the wait on
    occluded but well-contrasted pixels.
    """
    if sigma_nm <= 0:
        raise ValueError("sigma_nm must be positive")
    gv = np.asarray(gv_left, dtype=float)
    out = p_nm0 + (1.0 - p_nm0) * np.exp(-(gv**2) / (2.0 * sigma_nm**2))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class LikelihoodVolume:
    """Per-pixel, per-disparity, per-feature likelihoods for the valid region.

    Valid pixels are those with x >= d_max in feature-map coordinates; the
    first axis pair is (row, x - d_max). `feature_likelihoods` has shape
    (H_f, W_valid, d_max + 1, 3) and `nomatch` shape (H_f, W_valid).
    """

    feature_likelihoods: np.ndarray
    nomatch: np.ndarray
    params: ModelParams

    def __post_init__(self):
        fl = self.feature_likelihoods
        if fl.ndim != 4 or fl.shape[2] != self.params.n_disparities or fl.shape[3] != 3:
            raise ValueError("likelihood array shape mismatch")
        if self.nomatch.shape != fl.shape[:2]:
            raise ValueError("no-match array shape mismatch")
        # min/max propagate NaN: no mask the size of the volume is needed.
        for arr in (fl, self.nomatch):
            if not (arr.min() >= 0.0 and arr.max() <= 1.0):
                raise ValueError("likelihoods must be finite and lie in [0, 1]")

    @property
    def height(self) -> int:
        return self.feature_likelihoods.shape[0]

    @property
    def valid_width(self) -> int:
        return self.feature_likelihoods.shape[1]

    def channel_rates(self) -> np.ndarray:
        """(H_f, W_valid, d_max + 2) per-channel product rates for the machine:
        feature products per disparity, then the no-match channel."""
        products = np.prod(self.feature_likelihoods, axis=3)
        return np.concatenate([products, self.nomatch[..., None]], axis=2)


def build_likelihood_volume(
    fmaps_l: FeatureMaps, fmaps_r: FeatureMaps, params: ModelParams
) -> LikelihoodVolume:
    """Evaluate all likelihoods for every valid pixel and disparity."""
    if fmaps_l.mean.shape != fmaps_r.mean.shape:
        raise ValueError("left and right feature maps must have equal shapes")
    h, w = fmaps_l.mean.shape
    d_max = params.d_max
    if w <= d_max:
        raise ValueError(
            f"feature maps of width {w} leave no valid pixels at d_max={d_max}"
        )
    w_valid = w - d_max
    left = fmaps_l.stacked()[:, d_max:, :].astype(float)  # (h, w_valid, 3)
    right = fmaps_r.stacked().astype(float)
    sigmas = np.array([params.sigma_m, params.sigma_gh, params.sigma_gv])

    lik = np.empty((h, w_valid, d_max + 1, 3))
    for d in range(d_max + 1):
        shifted = right[:, d_max - d : w - d, :]
        cost = (left - shifted) ** 2
        lik[:, :, d, :] = params.p0 + (1.0 - params.p0) * np.exp(
            -cost / (2.0 * sigmas**2)
        )

    nomatch = nomatch_probability(
        fmaps_l.grad_v[:, d_max:], params.p_nm0, params.sigma_nm
    )
    return LikelihoodVolume(lik, np.asarray(nomatch), params)


def build_pixel_spec(volume: LikelihoodVolume, x: int, y: int):
    """Assemble the fusion problem for one valid pixel.

    Rows 0..d_max carry the three feature likelihoods for each disparity; the
    last row is the no-match channel with its rate in the first column and
    pass-through 1s elsewhere. The uniform prior is wired as constant-1 lines
    with bus constant d_max + 1.
    """
    from .machine import FusionSpec

    params = volume.params
    d_max = params.d_max
    if not d_max <= x < d_max + volume.valid_width:
        raise ValueError("x outside the valid pixel range")
    if not 0 <= y < volume.height:
        raise ValueError("y outside the feature-map height")
    lik = volume.feature_likelihoods[y, x - d_max]  # (d_max + 1, 3)
    m = params.machine_width
    term_table = np.ones((3, m))
    term_table[:, : d_max + 1] = lik.T
    term_table[0, params.nomatch_index] = volume.nomatch[y, x - d_max]
    term_table[1:, params.nomatch_index] = 1.0
    prior = np.ones(m)
    bus_constants = np.array([float(d_max + 1), 1.0, 1.0, 1.0])
    return FusionSpec(prior=prior, term_table=term_table, bus_constants=bus_constants)


def disparity_to_depth(
    d: int, geom: CameraGeometry, pixel_pitch: float
) -> float:
    """Depth from disparity: Z = B * f / (d * pixel_pitch).

    Focal length, baseline and pixel pitch share one length unit; disparity is
    in pixels. Zero disparity means an object at infinity and returns inf.
    """
    if pixel_pitch <= 0:
        raise ValueError("pixel pitch must be positive")
    if d < 0:
        raise ValueError("disparity must be nonnegative")
    if d == 0:
        return math.inf
    return geom.baseline * geom.focal_length / (d * pixel_pitch)
