"""Floating-point oracle for the fusion machine.

Reads each pixel's exact posterior scores, the products of its feature
likelihoods under a uniform prior, straight off the channel rates. The
winner is the first channel at the top score, the counter race's tie-break:
no-match wins only by strictly exceeding every disparity score. Reference
mode keeps that winner grid alone (`reference_outcome`), and no rates.
"""

from dataclasses import dataclass

import numpy as np

from .model import FeatureMaps, LikelihoodVolume, Outcome, _rate_bands, _run_shares


@dataclass(frozen=True)
class ReferenceResult(Outcome):
    """The oracle's `Outcome` over the valid pixel grid and the volume's own
    (H, W_valid, d_max + 2) `rates`, held without a copy; a reference-mode
    run returns the `Outcome` alone. The oracle never times out."""

    rates: np.ndarray  # (H, W_valid, d_max + 2)

    @property
    def norm_scores(self) -> np.ndarray:
        """Disparity scores over each pixel's winning score (its largest
        rate), so matched pixels peak at exactly 1; built on each access."""
        top = np.take_along_axis(self.rates, self.winner[..., None], axis=2)
        return self.rates[:, :, :-1] / top


def reference_infer(volume: LikelihoodVolume, workers: int = 1) -> ReferenceResult:
    """Exact MAP indices and no-match flags for all pixels.

    The uniform prior constant drops out of the argmax, and `argmax` takes
    the first channel at the top rate: tied disparities resolve to the
    lowest index, and an exact tie with no-match stays matched. With
    workers > 1 the rows are argmaxed on up to that many threads.
    """
    rates = volume.rates
    winner = np.empty(rates.shape[:2], np.intp)

    def share(ys):
        for y in ys:
            rates[y].argmax(axis=1, out=winner[y])

    _run_shares(share, len(rates), workers)
    return ReferenceResult(winner=winner, d_max=volume.params.d_max, rates=rates)


def reference_outcome(
    fmaps_l: FeatureMaps, fmaps_r: FeatureMaps, params, workers: int = 1
) -> Outcome:
    """The winners of `reference_infer(build_likelihood_volume(...))`, one
    band of rates at a time, on up to `workers` threads: no-match wins only
    above the top disparity rate."""
    grad_v = fmaps_l.grad_v[:, params.d_max :]  # `_rate_bands` checks the shapes
    winner = np.empty(grad_v.shape, np.intp)

    def pick(rows, rates, nomatch):
        best = rates.argmax(axis=2, out=winner[rows])
        # flat positions in the C-ordered band: each pixel's disparity 0, + best
        starts = np.arange(best.size).reshape(best.shape) * (params.d_max + 1)
        top = rates.take(starts + best)
        best[nomatch > top] = params.nomatch_index

    _rate_bands(fmaps_l, fmaps_r, params, pick, workers=workers)
    return Outcome(winner, params.d_max)
