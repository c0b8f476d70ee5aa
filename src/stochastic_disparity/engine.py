"""Grid execution of the fusion machine over all valid pixels of an image.

The valid pixels are taken in row-major order and raced in fixed blocks of
`RACE_BLOCK` pixels, one `race_arrivals` call per block. Block k draws from
its own generator stream keyed by the master seed and k, so results are
independent of scan order and of which thread races a block. `RACE_BLOCK`
is part of the determinism contract: the same seed gives the same bytes for
every worker count, and another block size would give other bytes with the
same law. Blocks are written in place into the counts, winner and cycles
arrays, allocated once per grid; no-match, timeouts and the MAP are read
from the winner (`Outcome`).
"""

from dataclasses import dataclass

import numpy as np

from .bitstream import DEFAULT_MAX_CYCLES, stream_seed
from .machine import check_race_args, race_arrivals
from .model import LikelihoodVolume, Outcome, _run_shares

# Valid pixels per race call and per generator stream, a term of the
# determinism contract and so not a parameter. Large enough that numpy's
# fixed per-call cost is a small share of a block's race, small enough that
# a block's working arrays stay about 2 MB at any image width.
RACE_BLOCK = 1024


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


def run_stochastic_grid(
    volume: LikelihoodVolume,
    n_max: int,
    master_seed: int,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    workers: int = 1,
) -> StochasticResult:
    """Run one machine per valid pixel and collect counts, winners and cycles.

    Block k holds the row-major valid pixels k * RACE_BLOCK ..
    (k + 1) * RACE_BLOCK - 1, so a block may straddle rows and the last may
    be short; it races on `stream_seed(master_seed, k)`. The outputs are
    allocated once and each block is written into them; counts take the
    smallest unsigned dtype that holds n_max. With workers > 1 blocks are
    raced on up to that many threads, never more than there are blocks;
    per-block seeding keeps the output bit-identical to a serial run.
    """
    check_race_args(n_max, max_cycles, workers)
    rates = volume.rates
    counts = np.empty(rates.shape, dtype=np.min_scalar_type(n_max))
    winner = np.empty(rates.shape[:2], dtype=np.int64)
    cycles = np.empty(rates.shape[:2], dtype=np.int64)
    # row-major (pixels, M) and (pixels,) views of the grid arrays; only a
    # rate array that is not C-contiguous is copied
    m = rates.shape[2]
    pixels, counts_px = rates.reshape(-1, m), counts.reshape(-1, m)
    winner_px, cycles_px = winner.reshape(-1), cycles.reshape(-1)
    blocks = -(-winner.size // RACE_BLOCK)

    def race_blocks(share):
        # Blocks share no generator and write disjoint slices, so threads
        # need no lock, and numpy's draws and array kernels release the GIL.
        for k in share:
            part = slice(k * RACE_BLOCK, (k + 1) * RACE_BLOCK)
            rng = np.random.default_rng(stream_seed(master_seed, k))
            counts_px[part], winner_px[part], cycles_px[part] = race_arrivals(
                rng, pixels[part], n_max, max_cycles
            )

    _run_shares(race_blocks, blocks, workers)
    return StochasticResult(
        winner=winner, d_max=volume.params.d_max, counts=counts, n_max=n_max,
        cycles=cycles,
    )
