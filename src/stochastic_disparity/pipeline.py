"""End-to-end disparity runs: load, infer, write artifacts."""

import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from .bitstream import DEFAULT_MAX_CYCLES
from .dump import COUNT_MAX, D_MAX_LIMIT, write_dump
from .engine import MODES, StochasticResult, _band_pass
from .machine import check_race_args
from .model import BandRates, ModelParams, Outcome, _image_rows
from .model import check_pair_shapes, compute_features
from .pgm import load_image, save_image
from .reference import ReferenceResult


def check_output_dirs(*paths) -> None:
    """Raise FileNotFoundError if the directory of an output path is missing,
    and IsADirectoryError if the path is a directory, before any work."""
    for path in map(Path, filter(None, paths)):
        if not path.parent.is_dir():
            raise FileNotFoundError(f"no such directory: {path.parent}")
        if path.is_dir():
            raise IsADirectoryError(f"output is a directory: {path}")


@dataclass
class RunConfig:
    left_path: Path
    right_path: Path
    params: ModelParams = field(default_factory=ModelParams)
    n_max: int = 16
    seed: int = 0
    mode: str = "both"
    reference_image_out: Optional[Path] = None
    stochastic_image_out: Optional[Path] = None
    dump_out: Optional[Path] = None
    crop: Optional[Tuple[int, int, int, int]] = None  # x, y, w, h
    max_cycles: int = DEFAULT_MAX_CYCLES
    workers: int = 1
    timeout_warn_fraction: float = 0.01

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        check_race_args(self.n_max, self.max_cycles, self.workers, self.seed)
        stochastic_outs = (self.stochastic_image_out, self.dump_out)
        if self.mode == "reference" and any(p is not None for p in stochastic_outs):
            raise ValueError("reference mode writes no stochastic image or dump")
        if self.mode == "stochastic" and self.reference_image_out is not None:
            raise ValueError("stochastic mode writes no reference image")
        if self.dump_out is not None and self.n_max > COUNT_MAX:
            raise ValueError(f"n_max above {COUNT_MAX} does not fit a dump")
        if self.dump_out is not None and self.params.d_max > D_MAX_LIMIT:
            raise ValueError(f"d_max above {D_MAX_LIMIT} does not fit a dump")
        if self.crop is not None:
            x, y, w, h = self.crop
            if w <= 0 or h <= 0:
                raise ValueError("crop dimensions must be positive")
            if x < 0 or y < 0:
                raise ValueError("crop rectangle outside the image")
        if not 0.0 <= self.timeout_warn_fraction <= 1.0:
            raise ValueError("timeout_warn_fraction must lie in [0, 1]")
        check_output_dirs(self.reference_image_out, *stochastic_outs)


@dataclass
class PipelineSummary:
    """Each engine's result, or None, from one `engine._band_pass` over
    `BandRates`. The oracle's is its `Outcome` alone in `reference` mode and
    in `both` mode a `ReferenceResult` whose rates are the `BandRates`: no
    mode holds the volume."""

    reference: Optional[Outcome]
    stochastic: Optional[StochasticResult]

    @property
    def n_timeouts(self) -> int:
        """Timed-out pixels of the stochastic run; 0 in reference mode."""
        return 0 if self.stochastic is None else int(self.stochastic.timed_out.sum())

    @property
    def timeout_fraction(self) -> float:
        sto = self.stochastic
        return 0.0 if sto is None else self.n_timeouts / sto.winner.size


def _apply_crop(img: np.ndarray, crop: Tuple[int, int, int, int]) -> np.ndarray:
    x, y, w, h = crop
    if x + w > img.shape[1] or y + h > img.shape[0]:
        raise ValueError("crop rectangle outside the image")
    return img[y : y + h, x : x + w]


def render_disparity(
    map_disparity: np.ndarray, d_max: int, feature_width: int
) -> np.ndarray:
    """Grayscale image of a MAP disparity grid over the full feature-map
    width: disparity d renders round(255 * d / d_max); -1 (no-match or
    timeout) and the x < d_max border, which has no valid pixels, are black.
    One uint8 table holds the shade of every d, at entry d + 1; it is read
    band by band of `model._image_rows`, so indices are intp for one band."""
    shades = np.rint(255.0 * np.maximum(np.arange(-1, d_max + 1), 0) / d_max)
    shades = shades.astype(np.uint8)
    img = np.zeros((map_disparity.shape[0], feature_width), dtype=np.uint8)
    band = _image_rows(feature_width)
    for y in range(0, len(img), band):
        img[y : y + band, d_max:] = shades[map_disparity[y : y + band] + 1]
    return img


def run_pipeline(config: RunConfig, log=None) -> PipelineSummary:
    """Run the configured engines on one stereo pair and write artifacts.

    Progress and cycle statistics go to `log` (stderr by default); images,
    dumps and tables only ever go to the configured output paths.
    """
    if log is None:
        log = sys.stderr
    left = load_image(config.left_path)
    right = load_image(config.right_path)
    check_pair_shapes(left, right)
    if config.crop is not None:
        left = _apply_crop(left, config.crop)
        right = _apply_crop(right, config.crop)

    fmaps_l = compute_features(left)
    fmaps_r = compute_features(right)
    del left, right
    feature_width = fmaps_l.width
    d_max = config.params.d_max

    # each band is built, argmaxed and raced as the mode asks, then dropped
    rates = BandRates(fmaps_l, fmaps_r, config.params)
    del fmaps_l, fmaps_r
    reference, stochastic = _band_pass(
        rates, config.mode, config.n_max, config.seed, config.max_cycles, config.workers
    )
    if config.mode == "both":  # its `BandRates` keep the maps; no other mode does
        reference = ReferenceResult(reference.winner, d_max, rates)
    del rates
    if reference is not None and config.reference_image_out is not None:
        save_image(
            config.reference_image_out,
            render_disparity(reference.map_disparity, d_max, feature_width),
        )

    summary = PipelineSummary(reference=reference, stochastic=stochastic)
    if stochastic is not None:
        cycles = stochastic.cycles
        print(
            f"cycles/pixel: mean {cycles.mean():.4f} sd {cycles.std():.4f} "
            f"(n_max={config.n_max}, {cycles.size} pixels, "
            f"{summary.n_timeouts} timeouts)",
            file=log,
        )
        if config.stochastic_image_out is not None:
            save_image(
                config.stochastic_image_out,
                render_disparity(stochastic.map_disparity, d_max, feature_width),
            )
        if config.dump_out is not None:
            write_dump(config.dump_out, stochastic.counts, d_max, stochastic.n_max)
        if summary.timeout_fraction > config.timeout_warn_fraction:
            print(
                f"warning: {summary.n_timeouts} pixels "
                f"({summary.timeout_fraction:.2%}) timed out before overflow",
                file=log,
            )
    return summary
