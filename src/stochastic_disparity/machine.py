"""Naive Bayesian fusion on stochastic buses.

A stochastic bus is M parallel bit channels jointly encoding an unnormalized
distribution: channel j emits 1s at rate p_j = C * P(V = V_j) for a bus
constant C. The machine is an M x N matrix of product modules: row j carries
channel j of the prior bus, column i multiplies in data term i via an AND
gate fed by an independent bit source. The output bus encodes the posterior
up to the product of the bus constants. M saturating counters read it out:
the run stops on the cycle the first counter reaches n_max, which yields the
max-normalized distribution n_j / n_max and the argmax index (lowest index on
ties) in one pass. A lone distribution bus is the zero-term machine, a spec
whose `term_table` has shape (0, M).

`run_machine` simulates this cycle by cycle and is the reference;
`race_arrivals` draws the same race in closed form for many pixels at once.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import gammaln

from .bitstream import DEFAULT_MAX_CYCLES, stream_seed

# Source index namespaces inside one machine's seed space: prior sources use
# (PRIOR_LANE, j), the term source at column i, row j uses (i + 1, j).
PRIOR_LANE = 0


@dataclass(frozen=True)
class FusionSpec:
    """Immutable description of one fusion problem.

    `prior` holds the M prior channel rates (bus constant C_0), `term_table`
    is the N x M matrix of data-term rates p[i, j] = C_i * P(K_i | S = S_j),
    and `bus_constants` collects C_0 .. C_N.
    """

    prior: np.ndarray
    term_table: np.ndarray
    bus_constants: np.ndarray

    def __post_init__(self):
        prior = np.asarray(self.prior, dtype=float)
        table = np.asarray(self.term_table, dtype=float)
        consts = np.asarray(self.bus_constants, dtype=float)
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "term_table", table)
        object.__setattr__(self, "bus_constants", consts)
        if prior.ndim != 1 or prior.size == 0:
            raise ValueError("prior must be a non-empty vector")
        if table.ndim != 2 or table.shape[1] != prior.size:
            raise ValueError("term table must be N x M with M matching the prior")
        if consts.shape != (table.shape[0] + 1,):
            raise ValueError("need one bus constant per term plus the prior")
        for name, arr in (("prior", prior), ("term table", table)):
            if np.any(arr < 0) or np.any(arr > 1):
                raise ValueError(f"{name} rates must lie in [0, 1]")
        if np.any(consts <= 0):
            raise ValueError("bus constants must be positive")

    @property
    def cardinality(self) -> int:
        return self.prior.size

    @property
    def n_terms(self) -> int:
        return self.term_table.shape[0]

    def channel_products(self) -> np.ndarray:
        """Analytic output-channel rates: prior times the column products."""
        if self.n_terms == 0:
            return self.prior.copy()
        return self.prior * np.prod(self.term_table, axis=0)

    def output_constant(self) -> float:
        """Bus constant of the output bus: the exact product of C_0 .. C_N."""
        return float(np.prod(self.bus_constants))


@dataclass(frozen=True)
class MachineResult:
    winner: Optional[int]
    counts: np.ndarray
    cycles: int
    readout: np.ndarray
    n_max: int
    timed_out: bool


class Machine:
    """A runnable fusion machine with one independent bit source per module.

    Prior channels at rate exactly 1 are wired as constant-1 lines and consume
    no randomness; every other prior channel and every term module gets its
    own generator stream, so no bitstream is ever reused across AND gates.
    """

    def __init__(self, spec: FusionSpec, seed: int):
        self.spec = spec
        self.seed = seed
        m = spec.cardinality
        self._prior_rngs = [
            None
            if spec.prior[j] == 1.0
            else np.random.default_rng(stream_seed(seed, PRIOR_LANE, j))
            for j in range(m)
        ]
        self._term_rngs = [
            [
                np.random.default_rng(stream_seed(seed, i + 1, j))
                for j in range(m)
            ]
            for i in range(spec.n_terms)
        ]

    @property
    def n_random_sources(self) -> int:
        """Random generators actually instantiated (term modules + non-constant
        prior channels)."""
        n_prior = sum(1 for r in self._prior_rngs if r is not None)
        return self.spec.n_terms * self.spec.cardinality + n_prior

    @property
    def n_term_sources(self) -> int:
        return self.spec.n_terms * self.spec.cardinality

    def emit_output_bits(self, n: int) -> np.ndarray:
        """Emit `n` cycles of the output bus as an (M, n) bit matrix."""
        if n <= 0:
            raise ValueError("cycle count must be positive")
        spec = self.spec
        m = spec.cardinality
        bits = np.ones((m, n), dtype=bool)
        for j, rng in enumerate(self._prior_rngs):
            if rng is not None:
                bits[j] &= rng.random(n) < spec.prior[j]
        for i in range(spec.n_terms):
            row_rates = spec.term_table[i]
            for j in range(m):
                bits[j] &= self._term_rngs[i][j].random(n) < row_rates[j]
        return bits


def build_machine(spec: FusionSpec, seed: int) -> Machine:
    return Machine(spec, seed)


def run_machine(
    machine: Machine,
    n_max: int,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    block: int = 256,
) -> MachineResult:
    """Run the machine until the first output counter saturates.

    Ties on the stop cycle resolve to the lowest index. A run that exhausts
    `max_cycles` is flagged timed out, never silently truncated.
    """
    if n_max <= 0:
        raise ValueError("counter maximum must be positive")
    if max_cycles <= 0:
        raise ValueError("max_cycles must be positive")
    m = machine.spec.cardinality
    counts = np.zeros(m, dtype=np.int64)
    cycles_done = 0
    while cycles_done < max_cycles:
        k = min(block, max_cycles - cycles_done)
        bits = machine.emit_output_bits(k)
        totals = counts[:, None] + np.cumsum(bits, axis=1, dtype=np.int64)
        hit_cycles = (totals >= n_max).any(axis=0)
        if hit_cycles.any():
            stop = int(np.argmax(hit_cycles))
            final = totals[:, stop]
            winner = int(np.argmax(final >= n_max))
            return MachineResult(
                winner=winner,
                counts=final.copy(),
                cycles=cycles_done + stop + 1,
                readout=final / n_max,
                n_max=n_max,
                timed_out=False,
            )
        counts = totals[:, -1]
        cycles_done += k
    return MachineResult(
        winner=None,
        counts=counts.copy(),
        cycles=cycles_done,
        readout=counts / n_max,
        n_max=n_max,
        timed_out=True,
    )


def map_estimate(result: MachineResult) -> int:
    """The argmax of the max-normalized posterior: the first counter to fill."""
    if result.timed_out or result.winner is None:
        raise ValueError("no MAP estimate from a timed-out run")
    return result.winner


# numpy's negative_binomial rejects n * (1 - p) / p near 2**63; in shares of
# at most this many successes it accepts every p >= 2**-53.
ARRIVAL_SHARE = 512


def race_arrivals(
    rng: np.random.Generator,
    rates: np.ndarray,
    n_max: int,
    max_cycles: int = DEFAULT_MAX_CYCLES,
):
    """Race each row of a (pixels, M) rate array in closed form.

    A row has the law of `run_machine` on a spec with those channel products:
    channel j's counter fills at cycle A_j = n_max + NegBin(n_max, p_j),
    clipped at max_cycles + 1. The stop cycle is T = min A_j, the winner the
    lowest index with A_j = T, and tied channels read n_max. Every other
    channel reads Binomial(S, p_j) conditioned on being below n_max, with
    S = T, or S = max_cycles on a timeout (T > max_cycles; winner -1).

    Rates are quantised to ceil(p * 2**53) / 2**53, the probability of
    `random() < p`, so p = 0 never arrives and any other rate is >= 2**-53.
    NegBin(n_max, p) is summed over shares of at most ARRIVAL_SHARE
    successes, so every valid rate and counter size can be drawn.

    Returns per-pixel (counts, winner, cycles, timed_out).
    """
    if n_max <= 0:
        raise ValueError("counter maximum must be positive")
    if max_cycles <= 0:
        raise ValueError("max_cycles must be positive")
    p = np.ceil(np.asarray(rates, dtype=float) * 2.0**53) / 2.0**53
    cap = max_cycles + 1
    arrival = np.full(p.shape, min(n_max, cap), dtype=np.int64)
    for done in range(0, n_max, ARRIVAL_SHARE):
        share = min(ARRIVAL_SHARE, n_max - done)
        failures = rng.negative_binomial(share, np.where(p > 0, p, 1.0))
        arrival += np.minimum(failures, cap - arrival)
    arrival[p == 0] = cap
    stop = arrival.min(axis=1)
    timed_out = stop > max_cycles
    cycles = np.minimum(stop, max_cycles)
    winner = np.where(timed_out, -1, arrival.argmin(axis=1))
    losers = arrival > cycles[:, None]
    counts = np.full(p.shape, n_max, dtype=np.int64)
    spans = np.broadcast_to(cycles[:, None], p.shape)[losers]
    counts[losers] = _binomial_below(rng, spans, p[losers], n_max)
    return counts, winner, cycles, timed_out


def _binomial_below(rng, n: np.ndarray, p: np.ndarray, limit: int) -> np.ndarray:
    """Binomial(n, p) draws conditioned on being below `limit`.

    A plain draw below the limit already has the conditional law; the others
    are redrawn by inverting the conditional CDF over 0 .. limit - 1, where
    n >= limit and 0 < p < 1.
    """
    k = rng.binomial(n, p)
    over = np.flatnonzero(k >= limit)
    n_o, p_o, i = n[over, None], p[over, None], np.arange(limit)
    log_pmf = i * (np.log(p_o) - np.log1p(-p_o))
    log_pmf -= gammaln(i + 1) + gammaln(n_o - i + 1)
    cdf = np.cumsum(np.exp(log_pmf - log_pmf.max(axis=1, keepdims=True)), axis=1)
    k[over] = (cdf <= rng.random((over.size, 1)) * cdf[:, -1:]).sum(axis=1)
    return k
