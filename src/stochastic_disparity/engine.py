"""Grid execution of the fusion machine over all valid pixels of an image.

The valid grid is raced band by band, in the whole-row bands that
`model._walk_bands` hands out, one `race_arrivals` call per band in the one
race body of `_grid_racer`, over a volume (`run_stochastic_grid`) or, in a
`stochastic` or `both` run, on each band of `run_pipeline`'s one pass as it
is built, with no volume. Band k draws from its own generator stream keyed
by the master seed and k, so results are independent of scan order and of
which thread races a band. The bands are a term of the determinism
contract: the same seed gives the same bytes for every worker count, and
other bands would give other bytes with the same law. Bands are written in
place into the counts, winner and cycles arrays, allocated once per grid;
no-match, timeouts and the MAP are read from the winner (`Outcome`).
"""

from dataclasses import dataclass

import numpy as np

from .bitstream import DEFAULT_MAX_CYCLES, stream_seed
from .machine import check_race_args, race_arrivals
from .model import LikelihoodVolume, Outcome, _walk_bands, winner_dtype


@dataclass(frozen=True)
class CountGrid(Outcome):
    """Counter values over the valid grid and the outcome they carry: each
    pixel's winner is its first channel at n_max, and a pixel with no channel
    at n_max timed out. The engine's result and a read dump are both one."""

    counts: np.ndarray  # (H, W_valid, d_max + 2), no value above n_max
    n_max: int

    def readout(self) -> np.ndarray:
        """Max-normalized distributions: counter values over n_max."""
        return self.counts / self.n_max


@dataclass(frozen=True)
class StochasticResult(CountGrid):
    """Per-pixel machine outcomes over the valid grid: the counter values at
    the stop cycle, in the smallest dtype that holds n_max, and the stop
    cycles (max_cycles on a timeout)."""

    cycles: np.ndarray  # (H, W_valid) int


def _grid_racer(shape, n_max: int, master_seed: int, max_cycles: int):
    """A race's result over a (H, W_valid, d_max + 2) grid, allocated once
    (counts in the smallest unsigned dtype that holds n_max, the winner in
    `winner_dtype`), and the race body that fills it: race(k, rows, rates),
    a callback of `_walk_bands`, races band k on `stream_seed(master_seed, k)`
    in place. Bands write disjoint rows, so threads need no lock; numpy's
    draws and kernels release the GIL."""
    counts = np.empty(shape, dtype=np.min_scalar_type(n_max))
    winner = np.empty(shape[:2], winner_dtype(shape[2] - 2))
    cycles = np.empty(shape[:2], np.int64)

    def race(k, rows, rates):
        rng = np.random.default_rng(stream_seed(master_seed, k))
        # (pixels, M) rates: only a band that is not C-contiguous is copied
        out = race_arrivals(rng, rates.reshape(-1, shape[2]), n_max, max_cycles)
        for grid, part in zip((counts, winner, cycles), out):
            grid[rows] = part.reshape(grid[rows].shape)

    return StochasticResult(winner, shape[2] - 2, counts, n_max, cycles), race


def run_stochastic_grid(
    volume: LikelihoodVolume,
    n_max: int,
    master_seed: int,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    workers: int = 1,
) -> StochasticResult:
    """Run one machine per valid pixel and collect counts, winners and cycles.

    Band k of `_walk_bands`, valid rows R*k .. R*(k+1) - 1 (the last may be
    short), races in `_grid_racer` on `stream_seed(master_seed, k)`, so any
    `workers` count gives the serial run's bits.
    """
    check_race_args(n_max, max_cycles, workers, master_seed)
    result, race = _grid_racer(volume.rates.shape, n_max, master_seed, max_cycles)
    _walk_bands([volume.rates], race, workers)
    return result
