"""Grid execution of the fusion machine over all valid pixels of an image.

`_band_pass` is the one walk of a grid of rates: a volume's array
(`run_stochastic_grid`, `reference.reference_infer`) or, in `run_pipeline`,
`BandRates` built band by band with no volume. Each whole-row band of
`model._walk_bands` is argmaxed once, into the oracle's winner, and raced
from that argmax in one `machine._race` call, as the mode asks. Band k draws
from its own generator stream keyed by the master seed and k, so results are
independent of scan order and of which thread races a band. The bands are a
term of the determinism contract: the same seed gives the same bytes for
every worker count, and other bands would give other bytes with the same
law. Bands are written in place into the counts, winner and cycles arrays,
allocated once per grid; no-match, timeouts and the MAP are read from the
winner (`Outcome`).
"""

import threading
from dataclasses import dataclass

import numpy as np

from .bitstream import DEFAULT_MAX_CYCLES, stream_seed
from .machine import _race, _work_arrays, check_race_args
from .model import LikelihoodVolume, Outcome, _rows_per_band, _walk_bands, winner_dtype

MODES = ("reference", "stochastic", "both")  # the oracle, the race, or both


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


def _band_pass(
    rates, mode: str, n_max=1, master_seed=0, max_cycles=DEFAULT_MAX_CYCLES, workers=1
):
    """The oracle's `Outcome` and the race's `StochasticResult` of one walk of
    `rates`, an (H, W_valid, d_max + 2) array or `BandRates`, on `workers`
    threads; a result is None when `mode` (one of `MODES`) skips its engine.
    Band k is argmaxed once, into the oracle's winner (not in `stochastic`
    mode), and raced from that argmax on `stream_seed(master_seed, k)` (not in
    `reference` mode) in work arrays a share makes on its first band; its
    rates were checked where they were built. Bands write disjoint rows of
    grids allocated once, so threads need no lock; numpy's draws and kernels
    release the GIL."""
    shape, d_max = rates.shape, rates.shape[2] - 2
    oracle = None if mode == "stochastic" else np.empty(shape[:2], winner_dtype(d_max))
    run = None if mode == "reference" else StochasticResult(
        np.empty(shape[:2], winner_dtype(d_max)), d_max,
        np.empty(shape, np.min_scalar_type(n_max)), n_max, np.empty(shape[:2], np.int64)
    )
    band_size = min(_rows_per_band(shape[1]), shape[0]) * shape[1] * shape[2]
    share = threading.local()  # one share per thread in each walk

    def each(k, rows, band):
        top = band.argmax(axis=2)
        if oracle is not None:
            oracle[rows] = top
        if run is not None:
            rng = np.random.default_rng(stream_seed(master_seed, k))
            if not hasattr(share, "work"):  # the share's first band
                share.work = _work_arrays(band_size)
            # (pixels, M) rates: only a band that is not C-contiguous float is copied
            pixels = np.ascontiguousarray(band.reshape(-1, shape[2]), float)
            out = _race(rng, pixels, top, n_max, max_cycles, share.work)
            for grid, part in zip((run.counts, run.winner, run.cycles), out):
                grid[rows] = part.reshape(grid[rows].shape)

    _walk_bands([rates], each, workers)
    return (None if oracle is None else Outcome(oracle, d_max)), run


def run_stochastic_grid(
    volume: LikelihoodVolume,
    n_max: int,
    master_seed: int,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    workers: int = 1,
) -> StochasticResult:
    """Run one machine per valid pixel and collect counts, winners and cycles:
    the race of `_band_pass` over the volume, so any `workers` count gives
    the serial run's bits."""
    check_race_args(n_max, max_cycles, workers, master_seed)
    return _band_pass(
        volume.rates, "stochastic", n_max, master_seed, max_cycles, workers
    )[1]
