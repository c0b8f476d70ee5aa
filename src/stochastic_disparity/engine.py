"""Grid execution of the fusion machine over all valid pixels of an image.

Each feature-map row is raced as one block by `race_arrivals`, with its own
generator stream keyed by the master seed and the row index, so results are
independent of scan order and of which thread races a row. Rows are written
in place into result arrays allocated once per grid.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bitstream import DEFAULT_MAX_CYCLES, stream_seed
from .machine import race_arrivals
from .model import LikelihoodVolume


@dataclass(frozen=True)
class StochasticResult:
    """Per-pixel machine outcomes over the valid grid.

    `winner` holds the overflowing channel index (d_max + 1 is the no-match
    channel, -1 marks a timeout); `counts` are the counter values at the stop
    cycle, so readouts are counts / n_max.
    """

    counts: np.ndarray  # (H, W_valid, d_max + 2), smallest dtype for n_max
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


def run_stochastic_grid(
    volume: LikelihoodVolume,
    n_max: int,
    master_seed: int,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    workers: int = 1,
) -> StochasticResult:
    """Run one machine per valid pixel and collect counts, winners and cycles.

    The outputs are allocated once and each row is written into them; counts
    take the smallest unsigned dtype that holds n_max. With workers > 1 rows
    are raced on up to that many threads, never more than there are rows;
    per-row seeding keeps the output bit-identical to a serial run.
    """
    if workers < 1:
        raise ValueError("worker count must be positive")
    rates = volume.rates
    rows, grid = rates.shape[0], rates.shape[:2]
    out = (  # counts, winner, cycles, timed_out: StochasticResult's order
        np.empty(rates.shape, dtype=np.min_scalar_type(n_max)),
        np.empty(grid, dtype=np.int64),
        np.empty(grid, dtype=np.int64),
        np.empty(grid, dtype=bool),
    )
    threads = max(1, min(workers, rows))

    def race_rows(first):
        # Thread `first` races rows first, first + threads, ...: rows share
        # no generator and write disjoint slices, so threads need no lock,
        # and numpy's draws and array kernels release the GIL. One task per
        # thread, not per row, spares the waiting caller a wake-up per row.
        for y in range(first, rows, threads):
            rng = np.random.default_rng(stream_seed(master_seed, y))
            drawn = race_arrivals(rng, rates[y], n_max, max_cycles)
            for field, value in zip(out, drawn):
                field[y] = value

    if threads == 1:
        race_rows(0)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            # reading every result re-raises any thread's exception
            list(pool.map(race_rows, range(threads)))
    return StochasticResult(*out, n_max=n_max, d_max=volume.params.d_max)
