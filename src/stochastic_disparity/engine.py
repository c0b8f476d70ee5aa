"""Grid execution of the fusion machine over all valid pixels of an image.

Each feature-map row is raced as one block by `race_arrivals`, with its own
generator stream keyed by the master seed and the row index, so results are
independent of scan order and of how rows are split across workers.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bitstream import DEFAULT_MAX_CYCLES, stream_seed
from .machine import race_arrivals
from .model import LikelihoodVolume
from .reference import disparity_to_luminance


@dataclass(frozen=True)
class StochasticResult:
    """Per-pixel machine outcomes over the valid grid.

    `winner` holds the overflowing channel index (d_max + 1 is the no-match
    channel, -1 marks a timeout); `counts` are the counter values at the stop
    cycle, so readouts are counts / n_max.
    """

    counts: np.ndarray  # (H, W_valid, d_max + 2)
    winner: np.ndarray  # (H, W_valid) int
    cycles: np.ndarray  # (H, W_valid) int
    timed_out: np.ndarray  # (H, W_valid) bool
    n_max: int
    d_max: int

    @property
    def nomatch_index(self) -> int:
        return self.d_max + 1

    @property
    def no_match(self) -> np.ndarray:
        return self.winner == self.nomatch_index

    @property
    def map_disparity(self) -> np.ndarray:
        """MAP disparity per pixel; -1 where no-match or timed out."""
        return np.where(
            (self.winner >= 0) & (self.winner <= self.d_max), self.winner, -1
        )

    def readout(self) -> np.ndarray:
        """Max-normalized distributions: counter values over n_max."""
        return self.counts / self.n_max

    def disparity_image(self) -> np.ndarray:
        """Grayscale rendering over the valid region: black for no-match and
        timeouts, round(255 * d / d_max) otherwise."""
        img = disparity_to_luminance(np.maximum(self.map_disparity, 0), self.d_max)
        img[self.map_disparity < 0] = 0
        return img


def _run_rows(args):
    rates, y0, master_seed, n_max, max_cycles = args
    rows = [
        race_arrivals(
            np.random.default_rng(stream_seed(master_seed, y)), r, n_max, max_cycles
        )
        for y, r in enumerate(rates, start=y0)
    ]
    return [np.stack(field) for field in zip(*rows)]


def run_stochastic_grid(
    volume: LikelihoodVolume,
    n_max: int,
    master_seed: int,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    workers: int = 1,
) -> StochasticResult:
    """Run one machine per valid pixel and collect counts, winners and cycles.

    With workers > 1 rows are distributed over a process pool; per-row
    seeding keeps the output bit-identical to a serial run.
    """
    rates = volume.rates
    if workers <= 1:
        counts, winner, cycles, timed_out = _run_rows(
            (rates, 0, master_seed, n_max, max_cycles)
        )
    else:
        rows_per_chunk = max(1, rates.shape[0] // (workers * 4))
        jobs = [
            (rates[y0 : y0 + rows_per_chunk], y0, master_seed, n_max, max_cycles)
            for y0 in range(0, rates.shape[0], rows_per_chunk)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_rows, jobs))
        counts, winner, cycles, timed_out = (np.concatenate(f) for f in zip(*chunks))

    return StochasticResult(
        counts=counts,
        winner=winner,
        cycles=cycles,
        timed_out=timed_out,
        n_max=n_max,
        d_max=volume.params.d_max,
    )
