"""Image preprocessing and the probabilistic matching model.

Rectified 8-bit stereo pairs are filtered into three int16 feature maps
(local mean, horizontal gradient, vertical gradient), squared feature
differences give per-disparity matching costs, and costs map to likelihoods
with a floor probability. An extra no-match channel covers occlusions and
low-contrast pixels so the machine never stalls on near-zero rates.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import InitVar, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .machine import FusionSpec
from .pgm import check_gray_pixels

KERNEL_SIZE = 5
BORDER = KERNEL_SIZE - 1  # feature maps lose 4 pixels per dimension

# Filter kernels, which `compute_features` evaluates exactly in integers. The
# mean filter is a normalized 5x5 box. The gradients are separable: a flat
# 5-tap smoother across the differencing axis and a linear ramp along it (a
# least-squares slope estimate). Outputs are scaled so 8-bit inputs land
# exactly in [-127, 127]: the raw ramp response of a worst-case image is
# 255 * (2+1) * 5 = 3825.
_SMOOTH = np.ones(KERNEL_SIZE)
_RAMP = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
GRADIENT_SCALE = 127.0 / 3825.0

MEAN_KERNEL = np.ones((KERNEL_SIZE, KERNEL_SIZE)) / KERNEL_SIZE**2
GRAD_H_KERNEL = np.outer(_SMOOTH, _RAMP) * GRADIENT_SCALE  # d/dx, rows smooth
GRAD_V_KERNEL = np.outer(_RAMP, _SMOOTH) * GRADIENT_SCALE  # d/dy, cols smooth


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
class Outcome:
    """Which channel of each pixel's machine won, over the valid grid.

    `winner` in 0..d_max is the MAP disparity, d_max + 1 the no-match channel
    and -1 a timeout: no counter overflowed within the cycle budget.
    """

    winner: np.ndarray  # (H, W_valid) int
    d_max: int

    @property
    def no_match(self) -> np.ndarray:
        return self.winner == self.d_max + 1

    @property
    def timed_out(self) -> np.ndarray:
        return self.winner < 0

    @property
    def map_disparity(self) -> np.ndarray:
        """MAP disparity per pixel; -1 where no-match or timed out."""
        return np.where(self.winner <= self.d_max, self.winner, -1)


def validate_gray_image(img: np.ndarray) -> np.ndarray:
    """Pixels of a non-empty 2-D 8-bit image, as int32 for the filter sums."""
    img = np.asarray(img)
    if img.ndim != 2 or img.size == 0:
        raise ValueError("image must be a non-empty 2-D array")
    check_gray_pixels(img, ValueError)
    return img.astype(np.int32)


FEATURE_NAMES = ("mean", "grad_h", "grad_v")
FEATURE_RANGES = ((0, 255), (-127, 127), (-127, 127))  # |left - right| <= 255


@dataclass(frozen=True)
class FeatureMaps:
    """Integer feature maps, 4 pixels smaller than the source image, held as
    int16 whatever integer dtype they are given in; floats are rejected."""

    mean: np.ndarray
    grad_h: np.ndarray
    grad_v: np.ndarray

    def __post_init__(self):  # likelihoods are tabulated over left - right
        if not self.mean.shape == self.grad_h.shape == self.grad_v.shape:
            raise ValueError("feature maps must share one shape")
        for name, (lo, hi) in zip(FEATURE_NAMES, FEATURE_RANGES):
            arr = getattr(self, name)
            if not np.issubdtype(arr.dtype, np.integer):
                raise ValueError(f"{name} features must be integers")
            if not (arr.min() >= lo and arr.max() <= hi):
                raise ValueError(f"{name} features must lie in [{lo}, {hi}]")
            object.__setattr__(self, name, arr.astype(np.int16, copy=False))

    @property
    def height(self) -> int:
        return self.mean.shape[0]

    @property
    def width(self) -> int:
        return self.mean.shape[1]


def _window_sums(a: np.ndarray, axis: int) -> np.ndarray:
    """Sums of KERNEL_SIZE consecutive entries of `a` along `axis` (0 or 1)."""
    n = a.shape[axis] - BORDER
    out = np.take(a, range(n), axis)
    for k in range(1, KERNEL_SIZE):
        out += a[k : k + n] if axis == 0 else a[:, k : k + n]
    return out


def _rounded(num: np.ndarray, scale: int, den: int) -> np.ndarray:
    """num * scale / den rounded to the nearest integer (never a tie here)."""
    return (2 * scale * num + den) // (2 * den)


def compute_features(img: np.ndarray) -> FeatureMaps:
    """Apply the three 5x5 filters with valid-region support, exactly: int32
    5-pixel column and row sums give the correlations, rounded half away from
    zero into int16 maps. No response is near a tie (box/25 is a multiple of
    0.04, 127 * ramp / 3825 at least 1/7650 from a half-integer), so rounding
    the floats agrees."""
    pixels = validate_gray_image(img)
    if pixels.shape[0] < KERNEL_SIZE or pixels.shape[1] < KERNEL_SIZE:
        raise ValueError("image smaller than the 5x5 filter support")
    cols, rows = _window_sums(pixels, 0), _window_sums(pixels, 1)
    ramp_h = 2 * (cols[:, 4:] - cols[:, :-4]) + cols[:, 3:-1] - cols[:, 1:-3]
    ramp_v = 2 * (rows[4:] - rows[:-4]) + rows[3:-1] - rows[1:-3]
    mean = _rounded(_window_sums(cols, 1), 1, KERNEL_SIZE**2)
    return FeatureMaps(mean, _rounded(ramp_h, 127, 3825), _rounded(ramp_v, 127, 3825))


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
    _factors_checked: InitVar[bool] = False  # see `build_likelihood_volume`

    def __post_init__(self, _factors_checked):
        rates = self.rates
        if rates.ndim != 3 or rates.shape[2] != self.params.machine_width:
            raise ValueError("rate array shape mismatch")
        # min/max propagate NaN: no mask the size of the volume is needed.
        if not (_factors_checked or (rates.min() >= 0.0 and rates.max() <= 1.0)):
            raise ValueError("rates must be finite and lie in [0, 1]")


_BAND_ROWS = 4  # rows per band of `_rate_bands` and of its buffers
_SPAN = 2 * 255 + 1  # signed feature differences -255..255

# One pool of T - 1 threads per thread count T, kept for the process's life
# (a pool per call churns threads); a forked child drops its parent's pools.
_POOLS = {}
os.register_at_fork(after_in_child=lambda: _POOLS.clear())


def _run_shares(share, items: int, workers: int) -> None:
    """Run share(range(k, items, T)) for each k < T = min(workers, items): share
    0 on the caller, the rest on a pool, so workers=1 starts no thread. Shares
    write disjoint outputs and never nest; an error re-raises once all end."""
    threads = max(1, min(workers, items))
    if threads > 1 and threads not in _POOLS:  # racing callers: setdefault keeps one
        _POOLS.setdefault(threads, ThreadPoolExecutor(threads - 1))
    shares = [range(k, items, threads) for k in range(1, threads)]
    rest = [_POOLS[threads].submit(share, part) for part in shares]
    try:
        share(range(0, items, threads))
    finally:
        wait(rest)
    for future in rest:
        future.result()


def _likelihood_tables(params: ModelParams):
    """The mean, grad_h and grad_v likelihoods of every signed difference
    left - right in -255..255 (entry k is k - 255), then the no-match rate of
    every grad_v in -127..127 (entry k is k - 127)."""
    cost = np.arange(-255.0, 256.0) ** 2
    sigmas = (params.sigma_m, params.sigma_gh, params.sigma_gv)
    nomatch = nomatch_probability(np.arange(-127, 128), params.p_nm0, params.sigma_nm)
    return (*(likelihood(cost, s, params.p0) for s in sigmas), np.asarray(nomatch))


def _rate_bands(fmaps_l: FeatureMaps, fmaps_r: FeatureMaps, params, each,
                out=None, workers=1):
    """The one rate builder: calls each(rows, rates of disparities 0..d_max,
    no-match rates) for every band of `_BAND_ROWS` rows, as views of `out`
    if given, else of buffers the thread's next band reuses. The bands are
    shared over up to `workers` threads. A subtraction of each band's intp
    codes indexes `pair`, t_m * t_h at (dm + 255) * 511 + dh + 255, and t_v
    gives the third factor, multiplied in that order."""
    if fmaps_l.mean.shape != fmaps_r.mean.shape:
        raise ValueError("left and right feature maps must have equal shapes")
    h, w = fmaps_l.mean.shape
    d_max = params.d_max
    if w <= d_max:
        raise ValueError(
            f"feature maps of width {w} leave no valid pixels at d_max={d_max}"
        )
    t_m, t_h, t_v, t_nm = _likelihood_tables(params)
    pair = (t_m[:, None] * t_h).ravel()
    band = min(_BAND_ROWS, h)
    shape = (band, w - d_max, d_max + 1)

    def share(bands):
        codes = np.empty((2, 2, band, w), np.intp)  # [view][mean-grad_h, grad_v]
        # [code, y, x, d] is the right partner of valid pixel x at disparity d;
        # right codes are held reversed in x so d runs forward, a unit stride.
        right = sliding_window_view(codes[1], d_max + 1, axis=2)[:, :, ::-1]
        index, pm, pv = np.empty(shape, np.intp), np.empty(shape), np.empty(shape)
        for y0 in (k * _BAND_ROWS for k in bands):
            rows = slice(y0, min(y0 + _BAND_ROWS, h))
            n = rows.stop - y0
            i, m, v = index[:n], pm[:n], pv[:n]
            views = zip((fmaps_l, fmaps_r), codes[:, :, :n], (1, -1))
            for fmaps, (code, gv), dx in views:
                code[...], gv[...] = fmaps.mean[rows, ::dx], fmaps.grad_v[rows, ::dx]
                code *= _SPAN
                code += fmaps.grad_h[rows, ::dx]
            code_l, gv_l = codes[0, :, :n, d_max:, None]
            code_l += 255 * _SPAN + 255
            gv_l += 255
            # mode="clip" writes straight into `out` ("raise" would buffer a
            # copy); `FeatureMaps`' ranges keep every index inside its table
            np.subtract(code_l, right[0, :n], out=i)
            np.take(pair, i, out=m, mode="clip")
            np.subtract(gv_l, right[1, :n], out=i)
            np.take(t_v, i, out=v, mode="clip")
            rates = m if out is None else out[rows, :, : d_max + 1]
            np.multiply(m, v, out=rates)
            nomatch = None if out is None else out[rows, :, -1]
            gv = fmaps_l.grad_v[rows, d_max:] + 127
            each(rows, rates, np.take(t_nm, gv, out=nomatch, mode="clip"))

    _run_shares(share, -(-h // _BAND_ROWS), workers)


def build_likelihood_volume(
    fmaps_l: FeatureMaps, fmaps_r: FeatureMaps, params: ModelParams, workers: int = 1
) -> LikelihoodVolume:
    """Every band of `_rate_bands` on `workers` threads into one array."""
    grad_v = fmaps_l.grad_v[:, params.d_max :]  # `_rate_bands` checks the shapes
    rates = np.empty(grad_v.shape + (params.machine_width,))
    _rate_bands(fmaps_l, fmaps_r, params, lambda *band: None, rates, workers)
    # products of factors in [0, 1] stay in [0, 1]: no scan of the whole volume
    checked = all(0 <= f.min() <= f.max() <= 1 for f in _likelihood_tables(params))
    return LikelihoodVolume(rates, params, checked)


def build_pixel_spec(
    fmaps_l: FeatureMaps, fmaps_r: FeatureMaps, params: ModelParams, x: int, y: int
) -> FusionSpec:
    """Assemble the fusion problem for one valid pixel.

    Rows 0..d_max carry the three feature likelihoods for each disparity; the
    last row is the no-match channel with its rate in the first column and
    pass-through 1s elsewhere. The uniform prior is wired as constant-1 lines
    with bus constant d_max + 1. The likelihoods come from the volume's
    tables, so the products of its rows are the volume's rates bit for bit.
    """
    if fmaps_l.mean.shape != fmaps_r.mean.shape:
        raise ValueError("left and right feature maps must have equal shapes")
    d_max = params.d_max
    if not d_max <= x < fmaps_l.width:
        raise ValueError("x outside the valid pixel range")
    if not 0 <= y < fmaps_l.height:
        raise ValueError("y outside the feature-map height")
    m = params.machine_width
    term_table = np.ones((3, m))
    partners = x - np.arange(d_max + 1)  # right column at disparity d
    *tables, t_nm = _likelihood_tables(params)
    for row, (name, table) in enumerate(zip(FEATURE_NAMES, tables)):
        left, right = getattr(fmaps_l, name), getattr(fmaps_r, name)
        term_table[row, : d_max + 1] = table[left[y, x] - right[y, partners] + 255]
    term_table[0, params.nomatch_index] = t_nm[fmaps_l.grad_v[y, x] + 127]
    bus_constants = [float(d_max + 1), 1.0, 1.0, 1.0]
    return FusionSpec(np.ones(m), term_table, bus_constants)
