"""End-to-end disparity runs: load, infer, write artifacts."""

import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from .dump import DistributionDump, write_dump
from .engine import StochasticResult, run_stochastic_grid
from .model import (
    BORDER,
    ModelParams,
    build_likelihood_volume,
    compute_features,
)
from .pgm import load_image, save_image
from .reference import ReferenceResult, reference_disparity_image, reference_infer

MODES = ("reference", "stochastic", "both")


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
    max_cycles: int = 10**7
    workers: int = 1
    timeout_warn_fraction: float = 0.01

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.n_max <= 0 or self.max_cycles <= 0:
            raise ValueError("n_max and max_cycles must be positive")
        if self.workers <= 0:
            raise ValueError("worker count must be positive")
        if not 0.0 <= self.timeout_warn_fraction <= 1.0:
            raise ValueError("timeout_warn_fraction must lie in [0, 1]")


@dataclass
class PipelineSummary:
    reference: Optional[ReferenceResult]
    stochastic: Optional[StochasticResult]
    timeout_fraction: float
    n_timeouts: int
    cycles_mean: float
    cycles_sd: float


def _apply_crop(img: np.ndarray, crop: Tuple[int, int, int, int]) -> np.ndarray:
    x, y, w, h = crop
    if w <= 0 or h <= 0:
        raise ValueError("crop dimensions must be positive")
    if x < 0 or y < 0 or x + w > img.shape[1] or y + h > img.shape[0]:
        raise ValueError("crop rectangle outside the image")
    return img[y : y + h, x : x + w]


def _embed_valid(image_valid: np.ndarray, full_width: int, d_max: int) -> np.ndarray:
    """Place a valid-region image into the full feature-map frame; the x <
    d_max border is zero-filled and flagged in the dump's invalid bitmap."""
    out = np.zeros((image_valid.shape[0], full_width), dtype=np.uint8)
    out[:, d_max:] = image_valid
    return out


def dump_from_result(
    result: StochasticResult, feature_width: int
) -> DistributionDump:
    """Pack a stochastic grid result into the dump layout."""
    h = result.counts.shape[0]
    d_max = result.d_max
    no_match = np.zeros((h, feature_width), dtype=bool)
    no_match[:, d_max:] = result.no_match
    invalid = np.zeros((h, feature_width), dtype=bool)
    invalid[:, :d_max] = True
    invalid[:, d_max:] |= result.timed_out
    return DistributionDump(
        width=feature_width,
        height=h,
        d_max=d_max,
        n_max=result.n_max,
        counts=result.counts.astype(np.uint16),
        no_match=no_match,
        invalid=invalid,
    )


def run_pipeline(config: RunConfig, log=None) -> PipelineSummary:
    """Run the configured engines on one stereo pair and write artifacts.

    Progress and cycle statistics go to `log` (stderr by default); images,
    dumps and tables only ever go to the configured output paths.
    """
    if log is None:
        log = sys.stderr
    left = load_image(config.left_path)
    right = load_image(config.right_path)
    if left.shape != right.shape:
        raise ValueError(
            f"image dimensions differ: {left.shape} vs {right.shape}"
        )
    if config.crop is not None:
        left = _apply_crop(left, config.crop)
        right = _apply_crop(right, config.crop)

    fmaps_l = compute_features(left)
    fmaps_r = compute_features(right)
    volume = build_likelihood_volume(fmaps_l, fmaps_r, config.params)
    feature_width = fmaps_l.width
    d_max = config.params.d_max

    reference = None
    if config.mode in ("reference", "both"):
        reference = reference_infer(volume)
        if config.reference_image_out is not None:
            img = reference_disparity_image(reference, d_max)
            save_image(
                config.reference_image_out, _embed_valid(img, feature_width, d_max)
            )

    stochastic = None
    timeout_fraction = 0.0
    n_timeouts = 0
    cycles_mean = cycles_sd = 0.0
    if config.mode in ("stochastic", "both"):
        stochastic = run_stochastic_grid(
            volume,
            config.n_max,
            config.seed,
            max_cycles=config.max_cycles,
            workers=config.workers,
        )
        n_timeouts = int(stochastic.timed_out.sum())
        timeout_fraction = n_timeouts / stochastic.timed_out.size
        cycles_mean = float(stochastic.cycles.mean())
        cycles_sd = float(stochastic.cycles.std())
        print(
            f"cycles/pixel: mean {cycles_mean:.4f} sd {cycles_sd:.4f} "
            f"(n_max={config.n_max}, {stochastic.cycles.size} pixels, "
            f"{n_timeouts} timeouts)",
            file=log,
        )
        if config.stochastic_image_out is not None:
            save_image(
                config.stochastic_image_out,
                _embed_valid(stochastic.disparity_image(), feature_width, d_max),
            )
        if config.dump_out is not None:
            write_dump(config.dump_out, dump_from_result(stochastic, feature_width))
        if timeout_fraction > config.timeout_warn_fraction:
            print(
                f"warning: {n_timeouts} pixels "
                f"({timeout_fraction:.2%}) timed out before overflow",
                file=log,
            )

    return PipelineSummary(
        reference=reference,
        stochastic=stochastic,
        timeout_fraction=timeout_fraction,
        n_timeouts=n_timeouts,
        cycles_mean=cycles_mean,
        cycles_sd=cycles_sd,
    )
