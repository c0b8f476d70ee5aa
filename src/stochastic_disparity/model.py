"""Image preprocessing and the probabilistic matching model.

Rectified 8-bit stereo pairs are filtered into three int16 feature maps
(local mean, horizontal gradient, vertical gradient), squared feature
differences give per-disparity matching costs, and costs map to likelihoods
with a floor probability. An extra no-match channel covers occlusions and
low-contrast pixels so the machine never stalls on near-zero rates.
"""

import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import InitVar, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .machine import FusionSpec, check_worker_count
from .pgm import check_gray_pixels

KERNEL_SIZE = 5
BORDER = KERNEL_SIZE - 1  # feature maps lose 4 pixels per dimension
# output pixels per band of `compute_features` and the render, and the fewest
# valid pixels of a group of race bands that `BandRates` computes features for
_IMAGE_BLOCK = 2**15
_SUB_BAND = 2**9  # about the valid pixels per sub-band of `BandRates.builder`
# numpy's smallest ufunc buffer, in elements, which the sub-band kernels run
# at: a subtraction of the broadcast left codes and the reversed window of
# right codes has dims numpy cannot merge, and at the default 8192 it copies
# both operands through buffers; at 16 it iterates their d_max + 2 wide rows
# in place. Kernels that cast run slower at 16, so only same-dtype ones do.
_SUB_BAND_BUFSIZE = 16

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
    and -1 a timeout: no counter overflowed within the cycle budget. Every
    engine, oracle and dump gives it in the dtype of `winner_dtype(d_max)`.
    """

    winner: np.ndarray  # (H, W_valid), int16 unless d_max + 1 > 32767
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


def winner_dtype(d_max: int) -> np.dtype:
    """The dtype of every winner grid: int16 unless d_max + 1 > 32767."""
    return np.dtype(np.int16 if d_max < np.iinfo(np.int16).max else np.int32)


def validate_gray_image(img: np.ndarray) -> np.ndarray:
    """The pixels of a non-empty 2-D 8-bit image, in their own dtype."""
    img = np.asarray(img)
    if img.ndim != 2 or img.size == 0:
        raise ValueError("image must be a non-empty 2-D array")
    check_gray_pixels(img, ValueError)
    return img


def check_pair_shapes(left, right) -> None:
    """Reject a stereo pair whose two images differ in shape."""
    if np.shape(left) != np.shape(right):
        shapes = f"{np.shape(left)} vs {np.shape(right)}"
        raise ValueError(f"image dimensions differ: {shapes}")


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


def _taps(a: np.ndarray, axis: int) -> list:
    """The KERNEL_SIZE views of `a` whose entry i along `axis` (0 or 1) is
    entry i + k of `a`, for k = 0..4."""
    n = a.shape[axis] - BORDER
    return [a[k : k + n] if axis == 0 else a[:, k : k + n] for k in range(KERNEL_SIZE)]


def _window_sums(a: np.ndarray, axis: int) -> np.ndarray:
    """Sums of KERNEL_SIZE consecutive entries of `a` along `axis` (0 or 1)."""
    first, *rest = _taps(a, axis)
    out = first.copy()
    for tap in rest:
        out += tap
    return out


def _ramps(a: np.ndarray, axis: int) -> np.ndarray:
    """Responses of the ramp (-2, -1, 0, 1, 2) to KERNEL_SIZE consecutive
    entries of `a` along `axis` (0 or 1), formed in place in one new array."""
    taps = _taps(a, axis)
    out = np.subtract(taps[4], taps[0])
    out *= 2
    out += taps[3]
    out -= taps[1]
    return out


def _rounded(num: np.ndarray, scale: int, den: int) -> np.ndarray:
    """num * scale / den rounded to the nearest integer (never a tie here),
    formed in place in `num`, which it returns."""
    num *= 2 * scale
    num += den
    num //= 2 * den
    return num


def _image_rows(width: int) -> int:
    """Rows of a band of `compute_features` or `render_disparity`; exact
    sums and a shade table make them no term of the determinism contract."""
    return -(-_IMAGE_BLOCK // width)


def _feature_shape(img: np.ndarray) -> tuple:
    """The (height, width) of the feature maps of a validated image."""
    if img.shape[0] < KERNEL_SIZE or img.shape[1] < KERNEL_SIZE:
        raise ValueError("image smaller than the 5x5 filter support")
    return img.shape[0] - BORDER, img.shape[1] - BORDER


def _feature_rows(img: np.ndarray, rows: slice, out: np.ndarray) -> None:
    """Feature rows `rows` of a validated image into `out`, a (3, n, W)
    int16 array of mean, grad_h and grad_v, read from image rows `rows` and
    their 4-row halo: int32 5-pixel column and row sums give the
    correlations, each formed and rounded half away from zero in place in
    its own int32 array. No response is near a tie (box/25 is a multiple of
    0.04, 127 * ramp / 3825 at least 1/7650 from a half-integer), so
    rounding the floats agrees, and any split of the rows gives the same
    features."""
    pixels = img[rows.start : rows.stop + BORDER].astype(np.int32)
    cols, sums = _window_sums(pixels, 0), _window_sums(pixels, 1)
    del pixels
    out[0] = _rounded(_window_sums(cols, 1), 1, KERNEL_SIZE**2)
    out[1] = _rounded(_ramps(cols, 1), 127, 3825)
    out[2] = _rounded(_ramps(sums, 0), 127, 3825)


def compute_features(img: np.ndarray) -> FeatureMaps:
    """Apply the three 5x5 filters with valid-region support, exactly, into
    int16 maps: the whole-frame adapter of `_feature_rows`, called band by
    band of `_image_rows`, so no full-frame sum is held. `BandRates` calls
    the same function for its groups of bands and holds no maps."""
    img = validate_gray_image(img)
    h, w = _feature_shape(img)
    maps = np.empty((len(FEATURE_NAMES), h, w), np.int16)
    band = _image_rows(w)
    for y in range(0, h, band):
        _feature_rows(img, slice(y, min(y + band, h)), maps[:, y : y + band])
    return FeatureMaps(*maps)


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


RACE_BLOCK = 1024  # the fewest valid pixels in a band, see `_rows_per_band`
_SPAN = 2 * 255 + 1  # signed feature differences -255..255


def _rows_per_band(width: int) -> int:
    """R, the fewest whole rows of a valid grid `width` pixels wide that hold
    `RACE_BLOCK` pixels, a term of the determinism contract and no parameter.
    Band k is rows R*k .. R*(k+1) - 1 (the last may be short), in `_walk_bands`."""
    return -(-RACE_BLOCK // width)


def _rows_per_group(width: int) -> int:
    """Rows of a group of G = ceil(`_IMAGE_BLOCK` / (R * `width`)) whole
    bands of `_rows_per_band`, whose features `BandRates` computes at once,
    so the front end pays its 4-row halo on at least `_IMAGE_BLOCK` valid
    pixels. Features are exact, so groups are no term of the determinism
    contract."""
    band = _rows_per_band(width)
    return band * -(-_IMAGE_BLOCK // (band * width))


def _thread_cap() -> int:
    """The most threads a stage starts: the usable cores, plus one."""
    usable = getattr(os, "sched_getaffinity", None)  # not on every platform
    return (len(usable(0)) if usable else os.cpu_count() or 1) + 1


def _run_shares(share, items: int, workers: int) -> None:
    """Run share(draws) on T = min(workers, items, `_thread_cap()`) threads,
    the caller's and T - 1 of a pool made for this call (none at T = 1). All
    draws take items below `items` from one `itertools.count()`, advanced
    under CPython's GIL, so a slow thread leaves the rest to the others.
    Shares write disjoint outputs and never nest. A share that ends, by an
    error or the caller's KeyboardInterrupt too, sets a stop flag that every
    draw checks before its next item, so the others finish the item in hand
    and stop; the first pool error re-raises once all end."""
    check_worker_count(workers)
    stop, count = threading.Event(), itertools.count()

    def draws():
        return itertools.takewhile(lambda k: k < items and not stop.is_set(), count)

    def run(drawn):
        try:
            share(drawn)
        finally:
            stop.set()  # a share ends before the items do only by an error

    threads = min(workers, items, _thread_cap())
    with ThreadPoolExecutor(max(1, threads - 1)) as pool:
        rest = [pool.submit(run, draws()) for _ in range(threads - 1)]
        run(draws())
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


class BandRates:
    """The one rate builder, and the rates of `build_likelihood_volume` with
    no volume: `_walk_bands` builds each band as one (n, W_valid, d_max + 2)
    array, bit for bit the volume's rows; `np.asarray` builds none. Its two
    views are two images or two `FeatureMaps`. Each builder computes an
    image's features inside the walk, a group of whole bands at a time
    (`_rows_per_group`), so rates built from images, a run's and a `both`
    run's rescoring, hold no full-frame feature map; a map's rows are
    sliced."""

    def __init__(self, left, right, params):
        d_max = params.d_max
        if isinstance(left, FeatureMaps) and isinstance(right, FeatureMaps):
            (h, w), views = left.mean.shape, (left, right)
            if right.mean.shape != (h, w):
                raise ValueError("left and right feature maps must have equal shapes")
        else:
            views = validate_gray_image(left), validate_gray_image(right)
            check_pair_shapes(*views)
            h, w = _feature_shape(views[0])
        if w <= d_max:
            raise ValueError(f"feature maps of width {w} leave no valid pixels "
                             f"at d_max={d_max}")
        self.views, self.d_max = views, d_max
        self.shape = (h, w - d_max, d_max + 2)
        tables = _likelihood_tables(params)  # products stay in [0, 1] if these do
        if not all(0 <= t.min() <= t.max() <= 1 for t in tables):
            raise ValueError("likelihood tables must lie in [0, 1]")
        t_m, t_h, *self.tables = tables  # t_v, t_nm
        self.pair = (t_m[:, None] * t_h).ravel()

    def _features(self):
        """features(rows): each view's (mean, grad_h, grad_v) rows `rows` of
        one band, stacked as (2, 3, n, W). `FeatureMaps` rows are sliced. An
        image's are read from int16 buffers made here that hold the group of
        whole bands holding `rows`, computed by `_feature_rows` when a band
        of another group is asked for."""
        views, (h, w_valid, _) = self.views, self.shape
        if isinstance(views[0], FeatureMaps):
            return lambda rows: [[getattr(v, n)[rows] for n in FEATURE_NAMES]
                                 for v in views]
        group = _rows_per_group(w_valid)
        held = np.empty((2, 3, min(group, h), w_valid + self.d_max), np.int16)
        start = None  # the first row of the group in `held`

        def features(rows):
            nonlocal start
            if start != rows.start - rows.start % group:
                start = rows.start - rows.start % group
                stop = min(start + group, h)
                for img, out in zip(views, held):
                    _feature_rows(img, slice(start, stop), out[:, : stop - start])
            return held[:, :, rows.start - start : rows.stop - start]

        return features

    def builder(self, n_rows: int):
        """build(rows): the rates of up to `n_rows` rows in one C-contiguous
        buffer its next call reuses, the only one the size of a band, from its
        own `_features`. It is filled sub-band by sub-band of about `_SUB_BAND`
        valid pixels (whole rows, or equal runs of one row where a row is
        wider), so the scratch and the 2 MB `pair` table share the cache. In
        each, a subtraction of intp codes indexes `pair`, t_m * t_h at (dm +
        255) * 511 + dh + 255, and t_v gives the third factor, multiplied in
        that order; then the no-match rate. A rate is the product of the same
        entries whatever the sub-band, so sub-bands are no term of the
        determinism contract, nor is the `_SUB_BAND_BUFSIZE` the sub-band
        kernels run at: the calling thread's ufunc buffer size is restored
        after them."""
        (t_v, t_nm), d_max, (_, w_valid, channels) = self.tables, self.d_max, self.shape
        w, features = w_valid + d_max, self._features()
        # [view][mean-grad_h, grad_v] and a pad column. [code, y, x, d] is the
        # right partner of valid pixel x at disparity d, the pad at d_max + 1;
        # right codes are held reversed in x so d runs forward, a unit stride.
        codes = np.zeros((2, 2, n_rows, w + 1), np.intp)
        right = sliding_window_view(codes[1], channels, axis=2)[:, :, ::-1]
        code_l, gv_l = codes[0, :, :, d_max:w, None]
        rates = np.empty((n_rows, w_valid, channels))
        runs = -(-w_valid // _SUB_BAND)  # of each row; 1 where whole rows fit
        sub_rows, sub_cols = -(-_SUB_BAND // w_valid), -(-w_valid // runs)
        # one sub-band's intp indices, which the t_v lookup overwrites with
        # its float factors
        index = np.empty(min(sub_rows, n_rows) * sub_cols * channels, np.intp)
        sub_bands = {}  # rows of a band -> the views of each of its sub-bands

        def sub_band_views(n):
            for y in range(0, n, sub_rows):
                for x in range(0, w_valid, sub_cols):
                    at = slice(y, min(y + sub_rows, n)), slice(x, x + sub_cols)
                    out = rates[at]
                    yield (out, index[: out.size].reshape(out.shape),
                           code_l[at], right[0][at], gv_l[at], right[1][at])

        def build(rows):
            n, maps = rows.stop - rows.start, features(rows)
            for (mean, grad_h, grad_v), (code, gv), dx in zip(
                maps, codes[:, :, :n, :w], (1, -1)
            ):
                code[...], gv[...] = mean[:, ::dx], grad_v[:, ::dx]
                code *= _SPAN
                code += grad_h[:, ::dx]
            code_l[:n] += 255 * _SPAN + 255
            gv_l[:n] += 255
            if n not in sub_bands:
                sub_bands[n] = list(sub_band_views(n))
            caller_bufsize = np.setbufsize(_SUB_BAND_BUFSIZE)
            try:
                for out, i, pair_l, pair_r, gv_left, gv_right in sub_bands[n]:
                    # mode="wrap" writes straight into `out` ("raise" would
                    # buffer a copy) and is faster than "clip"; every index,
                    # the pad's too, lies inside its table, so neither mode
                    # moves one
                    np.subtract(pair_l, pair_r, out=i)
                    self.pair.take(i, out=out, mode="wrap")
                    np.subtract(gv_left, gv_right, out=i)
                    # `take` reads each index before it writes its factor
                    factor = i.view(float)
                    t_v.take(i, out=factor, mode="wrap")
                    np.multiply(out, factor, out=out)
            finally:
                np.setbufsize(caller_bufsize)
            band = rates[:n]
            gv = maps[0][2][:, d_max:] + 127
            band[..., -1] = t_nm.take(gv, mode="wrap")
            return band

        return build

    def __array__(self, *args, **kwargs):
        raise TypeError("band rates hold no volume: walk their bands")


def _walk_bands(grids, each, workers=1):
    """each(k, rows, *bands) for band k of `_rows_per_band` rows of every
    (H, W_valid, ...) grid of `grids`, on up to `workers` threads: an array
    is sliced, and `BandRates` are built in buffers a thread makes on its
    first band. The only code that turns the band rule into rows."""
    h, band = grids[0].shape[0], _rows_per_band(grids[0].shape[1])

    def share(draws):
        readers = None
        for k in draws:
            rows = slice(k * band, min(k * band + band, h))
            readers = readers or [g.builder(min(band, h)) if isinstance(g, BandRates)
                                  else g.__getitem__ for g in grids]
            each(k, rows, *(read(rows) for read in readers))

    _run_shares(share, -(-h // band), workers)


def build_likelihood_volume(
    fmaps_l: FeatureMaps, fmaps_r: FeatureMaps, params: ModelParams, workers: int = 1
) -> LikelihoodVolume:
    """Every band of the rates on `workers` threads, stored in one array."""
    bands = BandRates(fmaps_l, fmaps_r, params)
    rates = np.empty(bands.shape)

    def store(k, rows, band):
        rates[rows] = band

    _walk_bands([bands], store, workers)
    return LikelihoodVolume(rates, params, True)  # `BandRates` checked the tables


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
