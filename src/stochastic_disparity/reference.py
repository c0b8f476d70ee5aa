"""Floating-point oracle for the fusion machine.

Reads each pixel's exact posterior scores, the products of its feature
likelihoods under a uniform prior, straight off the channel rates. The
winner is the first channel at the top score, the counter race's tie-break:
no-match wins only by strictly exceeding every disparity score. Reference
mode keeps that winner grid alone (`reference_outcome`), and no rates.
"""

from dataclasses import dataclass

import numpy as np

from .model import BandRates, FeatureMaps, LikelihoodVolume, Outcome, _rate_bands


@dataclass(frozen=True)
class ReferenceResult(Outcome):
    """The oracle's `Outcome` over the valid pixel grid and its (H, W_valid,
    d_max + 2) `rates`: a volume's own array, not copied, or a `both` run's
    `BandRates`. Reference mode returns the `Outcome` alone; no timeouts."""

    rates: np.ndarray  # (H, W_valid, d_max + 2), or BandRates

    @property
    def norm_scores(self) -> np.ndarray:
        """Disparity scores over each pixel's winning score (its largest
        rate), so matched pixels peak at exactly 1; built on each access."""
        rates = np.asarray(self.rates)  # `BandRates` refuse to build a volume
        top = np.take_along_axis(rates, self.winner[..., None], axis=2)
        return rates[:, :, :-1] / top


def reference_infer(volume: LikelihoodVolume) -> ReferenceResult:
    """Exact MAP indices and no-match flags of every pixel, one argmax.

    The uniform prior constant drops out of the argmax, and `argmax` takes
    the first channel at the top rate: tied disparities resolve to the
    lowest index, and an exact tie with no-match stays matched.
    """
    rates = volume.rates
    return ReferenceResult(rates.argmax(axis=2), volume.params.d_max, rates)


def reference_outcome(
    fmaps_l: FeatureMaps, fmaps_r: FeatureMaps, params, workers: int = 1
) -> Outcome:
    """The winners of `reference_infer(build_likelihood_volume(...))`, one
    band of rates at a time, on up to `workers` threads: no-match wins only
    above the top disparity rate."""
    bands = BandRates(fmaps_l, fmaps_r, params)
    winner = np.empty(bands.shape[:2], np.intp)

    def pick(rows, rates, nomatch):
        best = rates.argmax(axis=2, out=winner[rows])
        # flat positions in the C-ordered band: each pixel's disparity 0, + best
        starts = np.arange(best.size).reshape(best.shape) * (params.d_max + 1)
        top = rates.take(starts + best)
        best[nomatch > top] = params.nomatch_index

    _rate_bands(bands, pick, workers=workers)
    return Outcome(winner, params.d_max)
