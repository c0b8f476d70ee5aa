"""Floating-point oracle for the fusion machine.

Computes exact per-pixel posterior scores as products of feature likelihoods
under a uniform prior, flags no-match pixels by strict dominance of the
no-match channel, and emits max-normalized distributions so results compare
directly against counter readouts.
"""

from dataclasses import dataclass

import numpy as np

from .model import LikelihoodVolume


@dataclass(frozen=True)
class ReferenceResult:
    """Exact inference output over the valid pixel grid.

    `rates` is the volume's own (H, W_valid, d_max + 2) channel array, held
    without a copy, and `winning_score` each pixel's largest channel rate.
    `map_disparity` is -1 where the pixel is flagged no-match.
    """

    rates: np.ndarray  # (H, W_valid, d_max + 2)
    winning_score: np.ndarray  # (H, W_valid)
    no_match: np.ndarray  # (H, W_valid) bool
    map_disparity: np.ndarray  # (H, W_valid) int, -1 on no-match

    @property
    def norm_scores(self) -> np.ndarray:
        """Disparity scores divided by each pixel's winning score, so matched
        pixels peak at exactly 1; built on each access."""
        return self.rates[:, :, :-1] / self.winning_score[..., None]


def reference_infer(volume: LikelihoodVolume) -> ReferenceResult:
    """Exact posterior scores, MAP indices and no-match flags for all pixels.

    The uniform prior constant drops out of the argmax. A pixel is no-match
    iff the no-match score strictly exceeds every disparity score; exact ties
    stay matched, and tied disparities resolve to the lowest index, mirroring
    the counter tie-break. The MAP is the first index equal to the maximum:
    `argmax` on the strided disparity view would copy it whole.
    """
    scores = volume.rates[:, :, :-1]
    nomatch = volume.rates[:, :, -1]
    best = scores.max(axis=2)
    map_d = (scores == best[..., None]).argmax(axis=2)
    no_match = nomatch > best
    return ReferenceResult(
        rates=volume.rates,
        winning_score=np.maximum(best, nomatch),
        no_match=no_match,
        map_disparity=np.where(no_match, -1, map_d),
    )
