"""Image preprocessing and the probabilistic matching model.

Rectified 8-bit stereo pairs are filtered into three feature maps (local
mean, horizontal gradient, vertical gradient), squared feature differences
give per-disparity matching costs, and costs map to likelihoods with a floor
probability. An extra no-match channel covers occlusions and low-contrast
pixels so the machine never stalls on near-zero rates.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
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


FEATURE_NAMES = ("mean", "grad_h", "grad_v")
FEATURE_RANGES = ((0, 255), (-127, 127), (-127, 127))  # |left - right| <= 255


@dataclass(frozen=True)
class FeatureMaps:
    """Integer feature maps, 4 pixels smaller than the source image."""

    mean: np.ndarray
    grad_h: np.ndarray
    grad_v: np.ndarray

    def __post_init__(self):  # likelihoods are tabulated over |left - right|
        for name, (lo, hi) in zip(FEATURE_NAMES, FEATURE_RANGES):
            arr = getattr(self, name)
            if not (arr.min() >= lo and arr.max() <= hi):
                raise ValueError(f"{name} features must lie in [{lo}, {hi}]")

    @property
    def height(self) -> int:
        return self.mean.shape[0]

    @property
    def width(self) -> int:
        return self.mean.shape[1]


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
    return likelihood(np.asarray(gv_left, dtype=float) ** 2, sigma_nm, p_nm0)


@dataclass(frozen=True)
class LikelihoodVolume:
    """Channel rates of every valid pixel's machine.

    Valid pixels are those with x >= d_max in feature-map coordinates; the
    first axis pair is (row, x - d_max). `rates` has shape
    (H_f, W_valid, d_max + 2): the product of the three feature likelihoods
    for disparities 0..d_max, then the no-match channel.
    """

    rates: np.ndarray
    params: ModelParams

    def __post_init__(self):
        rates = self.rates
        if rates.ndim != 3 or rates.shape[2] != self.params.machine_width:
            raise ValueError("rate array shape mismatch")
        # min/max propagate NaN: no mask the size of the volume is needed.
        if not (rates.min() >= 0.0 and rates.max() <= 1.0):
            raise ValueError("rates must be finite and lie in [0, 1]")


_BAND_ROWS = 16  # rows per pass of the volume build; bounds its temporaries


def build_likelihood_volume(
    fmaps_l: FeatureMaps, fmaps_r: FeatureMaps, params: ModelParams
) -> LikelihoodVolume:
    """Channel rates for every valid pixel, built in bands of rows from
    per-feature likelihood tables over |left - right| = 0..255 (the features
    are integers), multiplied in the order mean, grad_h, grad_v."""
    if fmaps_l.mean.shape != fmaps_r.mean.shape:
        raise ValueError("left and right feature maps must have equal shapes")
    h, w = fmaps_l.mean.shape
    d_max = params.d_max
    if w <= d_max:
        raise ValueError(
            f"feature maps of width {w} leave no valid pixels at d_max={d_max}"
        )
    cost = np.arange(256.0) ** 2
    sigmas = np.array([[params.sigma_m], [params.sigma_gh], [params.sigma_gv]])
    tables = params.p0 + (1.0 - params.p0) * np.exp(-cost / (2.0 * sigmas**2))

    rates = np.empty((h, w - d_max, params.machine_width))
    for y0 in range(0, h, _BAND_ROWS):
        band = slice(y0, y0 + _BAND_ROWS)
        products = rates[band, :, : d_max + 1]
        products[...] = 1.0
        for table, name in zip(tables, FEATURE_NAMES):
            left = getattr(fmaps_l, name)[band, d_max:, None]
            # window column d_max - d of pixel x holds the right feature at x - d
            right = sliding_window_view(
                getattr(fmaps_r, name)[band], d_max + 1, axis=1
            )[:, :, ::-1]
            products *= table[np.abs(left - right)]
    rates[:, :, -1] = nomatch_probability(
        fmaps_l.grad_v[:, d_max:], params.p_nm0, params.sigma_nm
    )
    return LikelihoodVolume(rates, params)


def build_pixel_spec(
    fmaps_l: FeatureMaps, fmaps_r: FeatureMaps, params: ModelParams, x: int, y: int
):
    """Assemble the fusion problem for one valid pixel.

    Rows 0..d_max carry the three feature likelihoods for each disparity; the
    last row is the no-match channel with its rate in the first column and
    pass-through 1s elsewhere. The uniform prior is wired as constant-1 lines
    with bus constant d_max + 1.
    """
    from .machine import FusionSpec

    d_max = params.d_max
    if not d_max <= x < fmaps_l.width:
        raise ValueError("x outside the valid pixel range")
    if not 0 <= y < fmaps_l.height:
        raise ValueError("y outside the feature-map height")
    m = params.machine_width
    term_table = np.ones((3, m))
    sigmas = (params.sigma_m, params.sigma_gh, params.sigma_gv)
    for row, (name, sigma) in enumerate(zip(FEATURE_NAMES, sigmas)):
        costs = [
            matching_cost(fmaps_l, fmaps_r, x, y, d, name) for d in range(d_max + 1)
        ]
        term_table[row, : d_max + 1] = likelihood(costs, sigma, params.p0)
    term_table[0, params.nomatch_index] = nomatch_probability(
        fmaps_l.grad_v[y, x], params.p_nm0, params.sigma_nm
    )
    bus_constants = [float(d_max + 1), 1.0, 1.0, 1.0]
    return FusionSpec(np.ones(m), term_table, bus_constants)


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
