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
`race_arrivals` draws the same race in closed form for many pixels at once,
drawing fill cycles only for the channels that can plausibly win, or at
n_max 1 every channel's first firing.
"""

from dataclasses import dataclass

import numpy as np

from .bitstream import DEFAULT_MAX_CYCLES, BitSource, and_product, stream_seed

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
        return self.prior * np.prod(self.term_table, axis=0)


@dataclass(frozen=True)
class MachineResult:
    """One run of `run_machine`. `winner` is the first channel at n_max, or
    -1 on a timeout, as in `race_arrivals`; `cycles` is the stop cycle."""

    winner: int
    counts: np.ndarray
    cycles: int
    n_max: int

    @property
    def timed_out(self) -> bool:
        return self.winner < 0

    @property
    def readout(self) -> np.ndarray:
        """Max-normalized distribution: counter values over n_max."""
        return self.counts / self.n_max


class Machine:
    """A runnable fusion machine with one independent bit source per module.

    Prior channels at rate exactly 1 are wired as constant-1 lines and consume
    no randomness; every other prior channel and every term module gets its
    own `BitSource`, so no bitstream is ever reused across AND gates.
    """

    def __init__(self, spec: FusionSpec, seed: int):
        self.spec = spec
        self.seed = seed
        # (output row, source): the prior on lane PRIOR_LANE, term i on i + 1
        self._sources = [
            (j, BitSource(p, np.random.default_rng(stream_seed(seed, lane, j))))
            for lane, rates in enumerate([spec.prior, *spec.term_table])
            for j, p in enumerate(rates)
            if lane != PRIOR_LANE or p != 1.0
        ]

    @property
    def n_random_sources(self) -> int:
        """Random generators actually instantiated (term modules + non-constant
        prior channels)."""
        return len(self._sources)

    @property
    def n_term_sources(self) -> int:
        return self.spec.n_terms * self.spec.cardinality

    def emit_output_bits(self, n: int) -> np.ndarray:
        """Emit `n` cycles of the output bus as an (M, n) bit matrix: each row
        is the AND product of its channel's sources."""
        if n <= 0:
            raise ValueError("cycle count must be positive")
        bits = np.ones((self.spec.cardinality, n), dtype=np.uint8)
        for j, source in self._sources:
            bits[j] = and_product(bits[j], source.emit(n))
        return bits


def build_machine(spec: FusionSpec, seed: int) -> Machine:
    return Machine(spec, seed)


def check_race_args(n_max: int, max_cycles: int, workers: int = 1, seed: int = 0):
    """Reject a race that cannot run before any of its work is done."""
    if n_max < 1:
        raise ValueError("counter maximum n_max must be positive")
    if not 0 < max_cycles < 2**63 - 1:  # arrivals clip at max_cycles + 1 in int64
        raise ValueError("max_cycles must lie in [1, 2**63 - 2]")
    if n_max > max_cycles:  # no counter reaches n_max: every pixel times out
        raise ValueError("counter maximum n_max must not exceed max_cycles")
    if seed < 0:  # a `SeedSequence` entropy
        raise ValueError("seed must be nonnegative")
    check_worker_count(workers)


def check_worker_count(workers: int) -> None:  # of every stage on threads
    if workers < 1:
        raise ValueError("worker count must be positive")


def run_machine(
    machine: Machine,
    n_max: int,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    block: int = 256,
) -> MachineResult:
    """Run the machine until the first output counter saturates.

    Ties on the stop cycle resolve to the lowest index. A run that exhausts
    `max_cycles` is flagged timed out (winner -1), never silently truncated.
    """
    check_race_args(n_max, max_cycles)
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
            return MachineResult(
                winner=int(np.argmax(final >= n_max)),
                counts=final.copy(),
                cycles=cycles_done + stop + 1,
                n_max=n_max,
            )
        counts = totals[:, -1]
        cycles_done += k
    return MachineResult(
        winner=-1, counts=counts.copy(), cycles=cycles_done, n_max=n_max
    )


# numpy's negative_binomial rejects n * (1 - p) / p near 2**63; in shares of
# at most this many successes it accepts every p >= 2**-53.
ARRIVAL_SHARE = 512
# Outsiders, the channels below this fraction of the top rate, draw no arrival;
# 0.3 raced within noise of the quickest of cuts 0.1-0.5 at n_max 2 to 64.
_CONTENDER_CUT = 0.3
# numpy's hypergeometric takes populations below 10**9. Losing contenders
# draw from ones below min(max_cycles + 1, this); with a larger budget every
# channel contends, as an outsider that fills draws from up to max_cycles.
_HYPERGEOMETRIC_LIMIT = 10**9


def race_arrivals(
    rng: np.random.Generator,
    rates: np.ndarray,
    n_max: int,
    max_cycles: int = DEFAULT_MAX_CYCLES,
):
    """Race each row of a (pixels, M) rate array in closed form.

    A row has the law of `run_machine` on a spec with those channel products:
    channel j's counter fills at cycle A_j, the n_max-th success of its
    Bernoulli(p_j) stream. The stop cycle is T = min A_j, the winner the
    lowest index with A_j = T, tied channels read n_max and every other
    channel reads its count at T. If T > max_cycles the pixel times out at
    max_cycles (winner -1), every channel reading its count there.

    Only contenders, the channels with p_j >= _CONTENDER_CUT * max p, draw
    arrivals, A_j = n_max + NegBin(n_max, p_j). Let the span be the first of
    them, capped at max_cycles. A contender that loses at A_j = a below L =
    min(max_cycles + 1, 10**9) reads Hypergeometric(n_max - 1, a - n_max,
    span), its first n_max - 1 successes being uniform in 1..a - 1; one
    clipped at L thins its count by max(L - 1, span) to the span (`_thinned`).
    Each outsider reads Binomial(span, p_j) (`_counts_by_span`); if none
    reaches n_max the race stops at the span, else `_settle_outsiders` places
    the arrivals inside it. At n_max 1 the earliest first firing stops it.

    Rates are quantised to q(p) = ceil(p * 2**53) / 2**53, the probability
    of `random() < p`, so p = 0 never arrives and any other rate is >= 2**-53.
    NegBin(n_max, p) is summed over shares of at most ARRIVAL_SHARE
    successes, so every valid rate and counter size can be drawn; no share is
    drawn once every arrival of the block is past max_cycles.

    Only gathered rates are quantised: q is monotone, so the top rate is q of
    the raw maximum, and contenders are read off the raw rates exactly
    (`_raw_threshold`). Full-width work is the uniforms' draw, one bound
    (`_below_bound`) and the masks of two compares, in `_work_arrays`. This
    entry checks and argmaxes the rates; the band pass calls `_race` itself.

    Returns per-pixel (counts, winner, cycles); counts have the smallest
    unsigned dtype that holds n_max.
    """
    check_race_args(n_max, max_cycles)
    rates = np.ascontiguousarray(rates, dtype=float)
    top_col = rates.argmax(axis=1)
    top = rates[np.arange(len(rates)), top_col]
    # q(min) >= 0 and q(max) <= 1, where a NaN fails as it does in the max
    if not (np.ceil(rates.min() * 2.0**53) >= 0 and top.max() <= 1):
        raise ValueError("rates must lie in [0, 1]")
    return _race(rng, rates, top_col, n_max, max_cycles, _work_arrays(rates.size))


def _work_arrays(size: int):
    """The uniforms, the bound and two masks of `_race` for up to `size`
    rates; a race overwrites what it reads, so they serve band after band."""
    return [np.empty(size, t) for t in (float, float, bool, bool)]


def _race(rng, rates, top_col, n_max, max_cycles, work):
    """The race of `race_arrivals`, each losing contender read off its own
    arrival, over C-contiguous (pixels, M) rates in [0, 1], given each row's
    first top channel `top_col` and `_work_arrays` of at least rates.size."""
    (n, m), flat = rates.shape, rates.ravel()
    top_at = np.arange(0, n * m, m) + top_col.ravel()  # flat offsets
    top = _quantised(flat[top_at])
    v, bound, contends, near = (a[: rates.size].reshape(rates.shape) for a in work)
    if n_max == 1:
        return _race_first_firing(rng, rates, top_at, top, max_cycles, v, bound, near)
    cut = _CONTENDER_CUT if max_cycles < _HYPERGEOMETRIC_LIMIT else 0.0
    np.greater(rates, _raw_threshold(cut * top)[:, None], out=contends)
    # row-major, so each pixel's contenders are adjacent; its top one is there
    at = np.flatnonzero(contends)
    rows, cols = _rows_cols(at, m)
    p_c = _quantised(flat[at])
    cap = max_cycles + 1
    arrival = np.full(p_c.shape, min(n_max, cap), dtype=np.int64)
    arrival[p_c == 0] = cap
    for done in range(0, n_max, ARRIVAL_SHARE):
        share = min(ARRIVAL_SHARE, n_max - done)
        failures = rng.negative_binomial(share, np.where(p_c > 0, p_c, 1.0))
        arrival += np.minimum(failures, cap - arrival)
        if arrival.min(initial=cap) == cap:  # later shares would be discarded
            break
    starts = np.searchsorted(rows, np.arange(n))
    stop = np.minimum.reduceat(arrival, starts)
    cycles = np.minimum(stop, max_cycles)

    counts = np.zeros(rates.shape, dtype=np.min_scalar_type(n_max))
    out = counts.ravel()
    out[at] = n_max
    fills = arrival <= cycles[rows]
    lost = np.flatnonzero(~fills)  # gathers by index beat three by mask
    a, t, limit = arrival[lost], cycles[rows[lost]], min(cap, _HYPERGEOMETRIC_LIMIT)
    span = np.maximum(np.minimum(a, limit) - 1, t)  # a - 1, or S if clipped
    k, clipped = np.full(a.shape, n_max - 1), np.flatnonzero(a >= limit)
    k[clipped] = _binomial_below(rng, span[clipped], p_c[lost[clipped]], n_max)
    out[at[lost]] = _thinned(rng, k, span, t)
    lead = np.minimum.reduceat(np.where(fills, cols, m), starts)
    winner = np.where(lead < m, lead, -1)

    # An outsider counts by the span with probability at most span * q, so
    # only uniforms below that bound are inverted; q = 0 never passes. The
    # bound on the raw rates holds every such outsider, and the gathered
    # ones are held to v < q * span exactly.
    span = cycles.astype(float)  # as a product of the cycles and a float casts
    v = rng.random(out=v).ravel()
    near = _below_bound(v, rates, span, bound, near)
    at = np.flatnonzero(np.greater(near, contends, out=near))  # no contender
    rows, p, v = at // m, _quantised(flat[at]), v[at]
    inside = v < p * span[rows]
    if not inside.all():
        at, rows, p, v = at[inside], rows[inside], p[inside], v[inside]
    hit, k = _counts_by_span(rng, v, p, cycles[rows])
    at = at[hit]
    short = k < n_max
    if short.all():  # as a rule no outsider fills by the span
        out[at] = k
    else:
        out[at[short]] = k[short]
        _settle_outsiders(
            rng, (counts, winner, cycles), *_rows_cols(at[~short], m), k[~short],
            n_max,
        )
    return counts, winner, cycles


def _rows_cols(at: np.ndarray, m: int):
    """Rows and columns of flat offsets into a C-contiguous (pixels, m)
    array; two passes, where np.divmod takes about four times as long."""
    rows = at // m
    return rows, at - rows * m


def _below_bound(v, rates, scale, bound, mask) -> np.ndarray:
    """The mask of v < fl(fl(r + 2**-48) * s), s the row's `scale`, formed in
    `bound` and `mask`. It holds wherever v < q(r) * s does in floats: q(r)
    <= r + 2**-53 < fl(r + 2**-48) for r <= 1, and rounding is monotone."""
    np.add(rates, 2.0**-48, out=bound)
    np.multiply(bound, scale[:, None], out=bound)
    return np.less(v.reshape(bound.shape), bound, out=mask)


def _raw_threshold(t: np.ndarray) -> np.ndarray:
    """q(t) - 2**-53, exact in floats: q(r) >= t exactly where r exceeds it,
    as q(r) >= t means the integer ceil(r * 2**53) is at least ceil(t *
    2**53), that is r * 2**53 > ceil(t * 2**53) - 1."""
    return _quantised(t) - 2.0**-53


def _quantised(rates: np.ndarray) -> np.ndarray:
    """ceil(rates * 2**53) / 2**53, the probability of `random() < rate`."""
    p = rates * 2.0**53
    np.ceil(p, out=p)
    p /= 2.0**53
    return p


def _counts_by_span(rng, v: np.ndarray, p: np.ndarray, span: np.ndarray):
    """Binomial(span, p) draws for 0 < p < 1 from uniforms v, as (indices,
    counts) of the nonzero ones: 1 + Binomial(span - G, p) where the first
    success G, drawn from v by `_first_firing`, is at most span."""
    first = _first_firing(v, p)
    hit = np.flatnonzero(first <= span)
    gap = span[hit] - first[hit].astype(np.int64)
    return hit, 1 + rng.binomial(gap, p[hit])


def _settle_outsiders(rng, result, rows, cols, k, n_max):
    """Finish, in place, the pixels where an outsider's count k reached n_max
    by the span.

    Given k successes by the span, their cycles are a uniform k-subset of
    1..span (Devroye 1986), so the outsider's arrival is its n_max-th
    smallest (`_nth_position`). T is the earliest arrival of the pixel and
    the winner the lowest index arriving at T. Every other channel thins to
    T (`_thinned`) by the rule of `_race`'s losing contenders: one that
    fills at a > T reads Hypergeometric(n_max - 1, a - n_max, T), and one
    with K < n_max successes by the span Hypergeometric(K, span - K, T).
    """
    counts, winner, cycles = result
    pixels, at = np.unique(rows, return_inverse=True)
    span = cycles[pixels, None]
    held = counts[pixels].astype(np.int64)
    # a contender that read n_max filled exactly at the span
    arrival = np.where(held == n_max, span, np.iinfo(np.int64).max)
    held[at, cols] = k
    arrival[at, cols] = _nth_position(rng, k, n_max, span[at, 0])
    stop = arrival.min(axis=1, keepdims=True)
    k = np.where(arrival <= span, n_max - 1, held)
    lose, t = (arrival > stop) & (held > 0), np.broadcast_to(stop, held.shape)
    held[lose] = _thinned(rng, k[lose], np.minimum(arrival - 1, span)[lose], t[lose])
    held[arrival == stop] = n_max
    counts[pixels] = held
    winner[pixels] = arrival.argmin(axis=1)
    cycles[pixels] = stop[:, 0]


def _thinned(rng, k: np.ndarray, span: np.ndarray, t: np.ndarray) -> np.ndarray:
    """How many of k cycles drawn uniformly from 1..span lie in 1..t:
    Hypergeometric(k, span - k, t), written into k, and k where t = span."""
    thin = np.flatnonzero(t < span)
    if thin.size:  # numpy's hypergeometric costs ~40 us even when empty
        k[thin] = rng.hypergeometric(k[thin], span[thin] - k[thin], t[thin])
    return k


def _nth_position(rng, k: np.ndarray, n: int, span: np.ndarray) -> np.ndarray:
    """The n-th smallest of a uniform k-subset of 1..span, for k >= n.

    The interval (lo, hi] holds k of the points and the sought one is the
    n-th among them. Its lower half holds Hypergeometric(k, hi - lo - k,
    mid - lo) points, which says which half to keep, until one cycle is left.
    """
    lo, hi = np.zeros_like(span), span.copy()
    k, n = k.copy(), np.full_like(k, n)
    wide = np.flatnonzero(hi > lo + 1)
    while wide.size:
        a, b, kk, nn = lo[wide], hi[wide], k[wide], n[wide]
        mid = (a + b) // 2
        low = rng.hypergeometric(kk, b - a - kk, mid - a)
        down = low >= nn
        lo[wide], hi[wide] = np.where(down, a, mid), np.where(down, mid, b)
        k[wide], n[wide] = np.where(down, low, kk - low), np.where(down, nn, nn - low)
        wide = wide[hi[wide] > lo[wide] + 1]
    return hi


def _race_first_firing(rng, rates, top_at, top, max_cycles, v, bound, mask):
    """The n_max = 1 race: channel j first fires at an independent
    Geometric(p_j) cycle. The stop T is the earliest, the winner the lowest
    index firing at T, and each channel firing at T reads 1. If T exceeds
    max_cycles the pixel times out, every channel reading 0. Only the
    channels of `_firing_candidates` are inverted."""
    n, m = rates.shape
    v = rng.random(out=v).ravel()
    at = _firing_candidates(v, rates, top_at, top, max_cycles, bound, mask)
    rows, cols = _rows_cols(at, m)
    first = _first_firing(v[at], _quantised(rates.ravel()[at]))
    starts = np.searchsorted(rows, np.arange(n))
    stop = np.minimum.reduceat(first, starts)
    # exact in int64: a finite stop is below 2**59, and inf never wins
    t = np.minimum(stop, 2.0**62).astype(np.int64)
    won = np.isfinite(stop) & (t <= max_cycles)
    hit = (first == stop[rows]) & won[rows]
    counts = np.zeros(rates.shape, np.uint8)
    counts.ravel()[at[hit]] = 1
    lead = np.minimum.reduceat(np.where(hit, cols, m), starts)
    return counts, np.where(won, lead, -1), np.where(won, t, max_cycles)


def _firing_candidates(v, rates, top_at, top, max_cycles, bound, mask):
    """Flat offsets of the channels that can fire first within max_cycles:
    the top one, at `top_at` with quantised rate `top`, and those that
    `_below_bound` finds with v_j < S * q_j * (1 + 2**-40), a superset,
    where S = min(F_top, max_cycles) and F_top is the top channel's first
    firing. F_j <= S means 1 - v_j > (1 - q_j)**S, so v_j < S * q_j by the
    union bound (Devroye 1986); the margin covers the roundings of log1p
    and the division. The earliest firing is F_top or one of these
    channels', unless the pixel times out."""
    span = np.minimum(_first_firing(v[top_at], top), max_cycles)
    mask = _below_bound(v, rates, span * (1 + 2.0**-40), bound, mask)
    mask.ravel()[top_at] = True
    return np.flatnonzero(mask)


def _first_firing(v: np.ndarray, p: np.ndarray) -> np.ndarray:
    """First-success cycles of Bernoulli(p) streams by inversion of uniforms
    v, floor(log(1 - v) / log1p(-p)) + 1 (Devroye 1986), or inf where p = 0.
    Quantised rates are >= 2**-53, so log1p(-p) is 0 only there and a finite
    cycle is an integer < 2**59. The cycles are computed in v's buffer, which
    is overwritten."""
    with np.errstate(divide="ignore", invalid="ignore"):  # log_q is 0 at p = 0
        log_q = np.log1p(-p)  # and log1p(-1) is -inf
        first = np.log1p(np.negative(v, out=v), out=v)
        first /= log_q
    np.floor(first, out=first)
    first += 1
    first[log_q == 0] = np.inf
    return first


def _binomial_below(rng, n: np.ndarray, p: np.ndarray, limit: int) -> np.ndarray:
    """Binomial(n, p) draws conditioned on being below `limit`.

    A plain draw below the limit already has the conditional law; the others
    are redrawn by inverting the conditional CDF over 0 .. limit - 1, where
    n >= limit and 0 < p < 1. Its log pmf is the cumulative sum of the steps
    log pmf(i) - log pmf(i - 1) = log((n - i + 1) / i) + log(p / (1 - p)).
    Each step is correct to a few roundings whatever n is, so the law is
    exact at every span up to 2**63 - 2; a log-gamma difference of n - i + 1
    instead loses the step to float spacing once n passes about 1e12.
    """
    k = rng.binomial(n, p)
    over = np.flatnonzero(k >= limit)
    if not over.size:
        return k
    n_o, p_o, i = n[over, None], p[over, None], np.arange(1, limit)
    log_pmf = np.zeros((over.size, limit))
    steps = np.log((n_o - i + 1) / i) + (np.log(p_o) - np.log1p(-p_o))
    np.cumsum(steps, axis=1, out=log_pmf[:, 1:])
    cdf = np.cumsum(np.exp(log_pmf - log_pmf.max(axis=1, keepdims=True)), axis=1)
    k[over] = (cdf <= rng.random((over.size, 1)) * cdf[:, -1:]).sum(axis=1)
    return k
