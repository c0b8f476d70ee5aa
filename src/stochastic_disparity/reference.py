"""Floating-point oracle for the fusion machine.

Reads each pixel's exact posterior scores, the products of its feature
likelihoods under a uniform prior, straight off the channel rates. The
winner is `argmax(axis=2)`, the first channel at the top score, the counter
race's tie-break: no-match wins only by strictly exceeding every disparity
score. `engine._band_pass` takes it band by band, over a volume here and,
in `run_pipeline`, over each band of rates as it is built.
"""

from dataclasses import dataclass

import numpy as np

from .engine import _band_pass
from .model import LikelihoodVolume, Outcome


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
    """Exact MAP indices and no-match flags of every pixel, argmaxed band by
    band in `engine._band_pass` on the calling thread.

    The uniform prior constant drops out of the argmax, and `argmax` takes
    the first channel at the top rate: tied disparities resolve to the
    lowest index, and an exact tie with no-match stays matched.
    """
    oracle, _ = _band_pass(volume.rates, "reference")
    return ReferenceResult(oracle.winner, oracle.d_max, volume.rates)

