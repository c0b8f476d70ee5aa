"""Floating-point oracle for the fusion machine.

Reads each pixel's exact posterior scores, the products of its feature
likelihoods under a uniform prior, straight off the likelihood volume. The
winner is the first channel at the top score, the counter race's tie-break:
no-match wins only by strictly exceeding every disparity score. Normalized
scores compare directly against counter readouts.
"""

from dataclasses import dataclass

import numpy as np

from .model import LikelihoodVolume, Outcome


@dataclass(frozen=True)
class ReferenceResult(Outcome):
    """Exact inference output over the valid pixel grid: the `Outcome` of
    the oracle, and the volume's own (H, W_valid, d_max + 2) `rates`, held
    without a copy. The oracle never times out."""

    rates: np.ndarray  # (H, W_valid, d_max + 2)

    @property
    def winning_score(self) -> np.ndarray:
        """Each pixel's largest channel rate, the rate at its winner."""
        return np.take_along_axis(self.rates, self.winner[..., None], axis=2)[..., 0]

    @property
    def norm_scores(self) -> np.ndarray:
        """Disparity scores divided by each pixel's winning score, so matched
        pixels peak at exactly 1; built on each access."""
        return self.rates[:, :, :-1] / self.winning_score[..., None]


def reference_infer(volume: LikelihoodVolume) -> ReferenceResult:
    """Exact MAP indices and no-match flags for all pixels.

    The uniform prior constant drops out of the argmax, and `argmax` takes
    the first channel at the top rate: tied disparities resolve to the
    lowest index, and an exact tie with no-match stays matched.
    """
    return ReferenceResult(
        winner=volume.rates.argmax(axis=2),
        d_max=volume.params.d_max,
        rates=volume.rates,
    )
