"""Grid execution of the fusion machine over all valid pixels of an image.

Each feature-map row is raced as one block by `race_arrivals`, with its own
generator stream keyed by the master seed and the row index, so results are
independent of scan order and of how rows are split across workers. Rows are
written into result arrays allocated once per grid.
"""

from concurrent.futures import ProcessPoolExecutor
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


def _run_rows(args, out=None):
    """Race rows y0, y0 + 1, ... of `rates`, each on its own stream, into
    `out` (counts, winner, cycles, timed_out), allocated here if not given."""
    rates, y0, master_seed, n_max, max_cycles = args
    if out is None:
        out = _allocate(rates.shape, n_max)
    for i, row in enumerate(rates):
        rng = np.random.default_rng(stream_seed(master_seed, y0 + i))
        for field, value in zip(out, race_arrivals(rng, row, n_max, max_cycles)):
            field[i] = value
    return out


def _allocate(shape, n_max: int):
    grid = shape[:2]
    return (
        np.empty(shape, dtype=np.min_scalar_type(n_max)),
        np.empty(grid, dtype=np.int64),
        np.empty(grid, dtype=np.int64),
        np.empty(grid, dtype=bool),
    )


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
    are distributed over a process pool; per-row seeding keeps the output
    bit-identical to a serial run.
    """
    rates = volume.rates
    out = _allocate(rates.shape, n_max)
    if workers <= 1:
        _run_rows((rates, 0, master_seed, n_max, max_cycles), out)
    else:
        rows_per_chunk = max(1, rates.shape[0] // (workers * 4))
        starts = range(0, rates.shape[0], rows_per_chunk)
        jobs = [
            (rates[y0 : y0 + rows_per_chunk], y0, master_seed, n_max, max_cycles)
            for y0 in starts
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for y0, chunk in zip(starts, pool.map(_run_rows, jobs)):
                for field, part in zip(out, chunk):
                    field[y0 : y0 + len(part)] = part
    counts, winner, cycles, timed_out = out
    return StochasticResult(
        counts=counts,
        winner=winner,
        cycles=cycles,
        timed_out=timed_out,
        n_max=n_max,
        d_max=volume.params.d_max,
    )
