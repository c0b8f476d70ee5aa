"""Floating-point oracle for the fusion machine.

Computes exact per-pixel posterior scores as products of feature likelihoods
under a uniform prior, flags no-match pixels by strict dominance of the
no-match channel, and emits max-normalized distributions so results compare
directly against counter readouts.
"""

from dataclasses import dataclass

import numpy as np

from .model import LikelihoodVolume, ModelParams


@dataclass(frozen=True)
class ReferenceResult:
    """Exact inference output over the valid pixel grid.

    `norm_scores` holds the disparity score vectors divided by each pixel's
    overall winning score (so matched pixels peak at exactly 1);
    `nomatch_score` is the no-match channel on the same scale. `map_disparity`
    is -1 where the pixel is flagged no-match.
    """

    norm_scores: np.ndarray  # (H, W_valid, d_max + 1)
    nomatch_score: np.ndarray  # (H, W_valid)
    no_match: np.ndarray  # (H, W_valid) bool
    map_disparity: np.ndarray  # (H, W_valid) int, -1 on no-match
    params: ModelParams

    def sum_normalized(self) -> np.ndarray:
        """Disparity scores renormalized to sum to 1 per pixel (no-match
        channel included in the normalizer), for probabilistic consumers."""
        total = self.norm_scores.sum(axis=2) + self.nomatch_score
        return self.norm_scores / total[..., None]


def reference_infer(volume: LikelihoodVolume) -> ReferenceResult:
    """Exact posterior scores, MAP indices and no-match flags for all pixels.

    The uniform prior constant drops out of the argmax. A pixel is no-match
    iff the no-match score strictly exceeds every disparity score; exact ties
    stay matched, and tied disparities resolve to the lowest index, mirroring
    the counter tie-break.
    """
    scores = volume.rates[:, :, :-1]
    nomatch = volume.rates[:, :, -1]
    best = scores.max(axis=2)
    map_d = scores.argmax(axis=2)
    no_match = nomatch > best
    winner = np.maximum(best, nomatch)
    return ReferenceResult(
        norm_scores=scores / winner[..., None],
        nomatch_score=nomatch / winner,
        no_match=no_match,
        map_disparity=np.where(no_match, -1, map_d),
        params=volume.params,
    )


def disparity_to_luminance(d: np.ndarray, d_max: int) -> np.ndarray:
    return np.rint(255.0 * np.asarray(d, dtype=float) / d_max).astype(np.uint8)


def reference_disparity_image(result: ReferenceResult, d_max: int) -> np.ndarray:
    """Render MAP disparities over the valid region: no-match pixels are
    black, disparity d maps to round(255 * d / d_max). Border pixels with
    x < d_max are not part of this grid; callers keep their own validity mask.
    """
    img = disparity_to_luminance(np.maximum(result.map_disparity, 0), d_max)
    img[result.no_match] = 0
    return img
