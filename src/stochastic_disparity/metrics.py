"""Accuracy metrics and the hardware throughput/power estimator."""

import io
import math
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .bitstream import DEFAULT_MAX_CYCLES
from .engine import StochasticResult, run_stochastic_grid
from .machine import check_race_args
from .model import BORDER, ModelParams, Outcome, _walk_bands
from .model import build_likelihood_volume, check_pair_shapes, compute_features
from .reference import ReferenceResult, reference_infer

SWEEP_CSV_HEADER = "n_max,rms,f1,cycles_mean,cycles_sd,timeouts"

# Prospective signal-generator device figures: 500 MHz bitstreams at 50 uW.
DEFAULT_CLOCK_HZ = 500e6
DEFAULT_GENERATOR_POWER_W = 50e-6


@dataclass(frozen=True)
class AccuracyReport:
    """Stochastic-vs-reference agreement for one configuration, scored by
    `score_readouts`."""

    n_max: int
    rms_error: float
    f1_nomatch: float
    n_matched: int
    n_timeout: int
    cycles_mean: float
    cycles_sd: float


class Readout(NamedTuple):
    """One run over the valid pixel grid as scoring reads it, band by band of
    `model._walk_bands`: counts or oracle rates (a volume's or `BandRates`,
    whose bands are the volume's bit for bit), the last channel no-match,
    and the `outcome` that gives each pixel's winner: a disparity, no-match
    or a timeout. A pixel whose winner is a disparity peaks there, so its
    max-normalized distribution is its disparity values over the value at
    its winner: counts over n_max, or rates over the winning score."""

    values: np.ndarray  # (H, W_valid, d_max + 2)
    outcome: Outcome


@dataclass(frozen=True)
class HardwareEstimate:
    n_generators: int
    power_watts: float
    valid_pixels: int
    cycles_per_pixel: float
    cycles_per_image: float
    frames_per_second: float
    clock_hz: float
    per_generator_power_watts: float


def rms_distribution_error(
    stochastic_readout: np.ndarray, reference_scores: np.ndarray
) -> float:
    """Root mean squared componentwise difference between distributions.

    Both inputs must be max-normalized with matching shapes (..., D+1).
    """
    a = np.asarray(stochastic_readout, dtype=float)
    b = np.asarray(reference_scores, dtype=float)
    if a.shape != b.shape:
        raise ValueError("distribution arrays must have identical shapes")
    if a.size == 0:
        raise ValueError("no pixels to compare")
    return float(np.sqrt(np.mean((a - b) ** 2)))


def f1_nomatch(reference_flags: np.ndarray, stochastic_flags: np.ndarray) -> float:
    """F1 score of no-match detection with the reference flags as truth.

    Both sets empty is perfect agreement (1.0); one empty set against a
    non-empty one scores 0.
    """
    ref = np.asarray(reference_flags, dtype=bool)
    sto = np.asarray(stochastic_flags, dtype=bool)
    if ref.shape != sto.shape:
        raise ValueError("flag arrays must have identical shapes")
    tp = int(np.sum(ref & sto))
    fp = int(np.sum(~ref & sto))
    fn = int(np.sum(ref & ~sto))
    if tp == 0:
        return 1.0 if fp == 0 and fn == 0 else 0.0
    return 2.0 * tp / (2.0 * tp + fp + fn)


def hardware_estimate(
    m: int,
    n: int,
    mean_cycles_per_pixel: float,
    image_width: int,
    image_height: int,
    d_max: int,
    clock_hz: float = DEFAULT_CLOCK_HZ,
    per_generator_power_watts: float = DEFAULT_GENERATOR_POWER_W,
) -> HardwareEstimate:
    """Closed-form speed and power projection for a hardware machine.

    One generator per term module (N x M); valid pixels lose `BORDER` per
    dimension to filtering and d_max more columns to the disparity search
    range.
    """
    if min(m, n, image_width, image_height, d_max) <= 0:
        raise ValueError("all dimensions must be positive")
    for value in (mean_cycles_per_pixel, clock_hz, per_generator_power_watts):
        if not (math.isfinite(value) and value > 0):
            raise ValueError("rates and powers must be finite and positive")
    columns, rows = image_width - BORDER - d_max, image_height - BORDER
    if columns <= 0 or rows <= 0:
        raise ValueError("image too small for this d_max")
    valid = columns * rows
    n_generators = n * m
    power = n_generators * per_generator_power_watts
    cycles_per_image = valid * mean_cycles_per_pixel
    fps = clock_hz / cycles_per_image
    return HardwareEstimate(
        n_generators=n_generators,
        power_watts=power,
        valid_pixels=valid,
        cycles_per_pixel=mean_cycles_per_pixel,
        cycles_per_image=cycles_per_image,
        frames_per_second=fps,
        clock_hz=clock_hz,
        per_generator_power_watts=per_generator_power_watts,
    )


def _distributions(values: np.ndarray, winner: np.ndarray, keep) -> np.ndarray:
    """The kept pixels' disparity values of one band, each pixel divided in
    place by its peak, the value at its winner."""
    dist = values[keep, :-1].astype(float, copy=False)
    dist /= np.take_along_axis(dist, winner[keep, None], axis=1)
    return dist


def score_readouts(
    run: Readout, reference: Readout, workers: int = 1
) -> Tuple[float, float, int]:
    """RMS distribution error, no-match F1 and the matched pixel count.

    F1 covers every pixel, with the reference outcome's no-match flags as
    truth; a timed-out pixel counts as not flagging no-match. RMS covers the
    pixels whose winner is a disparity on both sides, summed over the bands
    in which `_walk_bands` hands out both sides' values (`BandRates` built in
    one set of buffers a thread), on up to `workers` threads, and added in
    band order: no grid-sized distribution or volume is built.
    """
    if np.shape(run.values) != np.shape(reference.values):
        raise ValueError("distribution arrays must have identical shapes")
    matched = (run.outcome.map_disparity >= 0) & (reference.outcome.map_disparity >= 0)
    m, n_matched = np.shape(run.values)[-1], int(matched.sum())
    if n_matched == 0:
        raise ValueError("no pixels to compare")
    sums = {}

    def each(k, rows, run_values, reference_values):
        keep = matched[rows]
        diff = _distributions(run_values, run.outcome.winner[rows], keep)
        diff -= _distributions(reference_values, reference.outcome.winner[rows], keep)
        sums[k] = float(np.square(diff, out=diff).sum())

    _walk_bands([run.values, reference.values], each, workers)
    total = 0.0
    for k in sorted(sums):  # in band order, as one thread adds them
        total += sums[k]
    rms = math.sqrt(total / (n_matched * (m - 1)))
    return rms, f1_nomatch(reference.outcome.no_match, run.outcome.no_match), n_matched


def compare_results(
    stochastic: StochasticResult, reference: ReferenceResult, workers: int = 1
) -> AccuracyReport:
    """Score one stochastic run against the reference on the same volume."""
    rms, f1, n_matched = score_readouts(
        Readout(stochastic.counts, stochastic), Readout(reference.rates, reference),
        workers,
    )
    return AccuracyReport(
        n_max=stochastic.n_max,
        rms_error=rms,
        f1_nomatch=f1,
        n_matched=n_matched,
        n_timeout=int(stochastic.timed_out.sum()),
        cycles_mean=float(stochastic.cycles.mean()),
        cycles_sd=float(stochastic.cycles.std()),
    )


def check_sweep_args(n_max_values, seeds, max_cycles: int, workers: int) -> None:
    """Reject a sweep that cannot run before any of its work is done."""
    if not n_max_values:
        raise ValueError("need at least one counter size")
    if not seeds:
        raise ValueError("need at least one seed")
    for n_max in n_max_values:
        check_race_args(n_max, max_cycles, workers, min(seeds))


def sweep_counter_sizes(
    left: np.ndarray,
    right: np.ndarray,
    params: ModelParams,
    n_max_values: Sequence[int],
    seeds: Sequence[int],
    max_cycles: int = DEFAULT_MAX_CYCLES,
    workers: int = 1,
) -> List[AccuracyReport]:
    """Accuracy and runtime versus counter size on one stereo pair.

    Per n_max value, metrics are averaged over the given master seeds;
    timeouts are reported in the counts, never dropped.
    """
    check_sweep_args(n_max_values, seeds, max_cycles, workers)
    check_pair_shapes(left, right)
    fmaps_l = compute_features(left)
    fmaps_r = compute_features(right)
    volume = build_likelihood_volume(fmaps_l, fmaps_r, params, workers)
    reference = reference_infer(volume)

    reports = []
    for n_max in n_max_values:
        per_seed = [
            compare_results(
                run_stochastic_grid(volume, n_max, seed, max_cycles, workers),
                reference, workers,
            )
            for seed in seeds
        ]
        reports.append(
            AccuracyReport(
                n_max=n_max,
                rms_error=float(np.mean([r.rms_error for r in per_seed])),
                f1_nomatch=float(np.mean([r.f1_nomatch for r in per_seed])),
                n_matched=int(np.mean([r.n_matched for r in per_seed])),
                n_timeout=int(sum(r.n_timeout for r in per_seed)),
                cycles_mean=float(np.mean([r.cycles_mean for r in per_seed])),
                cycles_sd=float(np.mean([r.cycles_sd for r in per_seed])),
            )
        )
    return reports


def sweep_to_csv(reports: Sequence[AccuracyReport]) -> str:
    out = io.StringIO()
    out.write(SWEEP_CSV_HEADER + "\n")
    for r in reports:
        out.write(
            f"{r.n_max},{r.rms_error:.6f},{r.f1_nomatch:.6f},"
            f"{r.cycles_mean:.4f},{r.cycles_sd:.4f},{r.n_timeout}\n"
        )
    return out.getvalue()
