"""Grid execution of the fusion machine over all valid pixels of an image.

Each feature-map row is raced as one block by `race_arrivals`, with its own
generator stream keyed by the master seed and the row index, so results are
independent of scan order and of which thread races a row. Rows are written
in place into the counts, winner and cycles arrays, allocated once per grid;
no-match, timeouts and the MAP are read from the winner (`Outcome`).
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bitstream import DEFAULT_MAX_CYCLES, stream_seed
from .machine import check_race_args, race_arrivals
from .model import LikelihoodVolume, Outcome


@dataclass(frozen=True)
class StochasticResult(Outcome):
    """Per-pixel machine outcomes over the valid grid.

    `counts` are the counter values at the stop cycle, so readouts are
    counts / n_max, and `cycles` the stop cycles (max_cycles on a timeout).
    """

    counts: np.ndarray  # (H, W_valid, d_max + 2), smallest dtype for n_max
    cycles: np.ndarray  # (H, W_valid) int
    n_max: int

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
    check_race_args(n_max, max_cycles, workers)
    rates = volume.rates
    rows, grid = rates.shape[0], rates.shape[:2]
    counts = np.empty(rates.shape, dtype=np.min_scalar_type(n_max))
    winner = np.empty(grid, dtype=np.int64)
    cycles = np.empty(grid, dtype=np.int64)
    threads = max(1, min(workers, rows))

    def race_rows(first):
        # Thread `first` races rows first, first + threads, ...: rows share
        # no generator and write disjoint slices, so threads need no lock,
        # and numpy's draws and array kernels release the GIL. One task per
        # thread, not per row, spares the waiting caller a wake-up per row.
        for y in range(first, rows, threads):
            rng = np.random.default_rng(stream_seed(master_seed, y))
            counts[y], winner[y], cycles[y] = race_arrivals(
                rng, rates[y], n_max, max_cycles
            )

    if threads == 1:
        race_rows(0)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            # reading every result re-raises any thread's exception
            list(pool.map(race_rows, range(threads)))
    return StochasticResult(
        winner=winner, d_max=volume.params.d_max, counts=counts, cycles=cycles,
        n_max=n_max,
    )
