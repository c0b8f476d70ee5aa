"""Bit-level primitives: stream seeds, Bernoulli sources, AND products, and a
distribution bus raced to overflow (a fusion machine with no data terms)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochastic_disparity.bitstream import BitSource, and_product, stream_seed
from stochastic_disparity.machine import (
    FusionSpec,
    MachineResult,
    build_machine,
    run_machine,
)


def binomial_3sigma(p: float, n: int) -> float:
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


def run_bus(rates, seed: int, n_max: int, **kwargs) -> MachineResult:
    """Race one counter per channel of the bus `rates` until one overflows."""
    rates = np.asarray(rates, dtype=float)
    spec = FusionSpec(
        prior=rates,
        term_table=np.empty((0, rates.size)),
        bus_constants=np.ones(1),
    )
    return run_machine(build_machine(spec, seed), n_max, **kwargs)


class TestStreamSeed:
    def test_same_key_same_stream(self):
        a = np.random.default_rng(stream_seed(7, 1, 2)).random(64)
        b = np.random.default_rng(stream_seed(7, 1, 2)).random(64)
        assert np.array_equal(a, b)

    def test_distinct_keys_distinct_streams(self):
        a = np.random.default_rng(stream_seed(7, 1, 2)).random(64)
        b = np.random.default_rng(stream_seed(7, 2, 1)).random(64)
        assert not np.array_equal(a, b)


class TestBitSource:
    @pytest.mark.parametrize("p", [-0.1, 1.5])
    def test_rejects_out_of_range_probability(self, p):
        with pytest.raises(ValueError):
            BitSource.from_seed(p, 0)

    def test_rejects_nonpositive_count(self):
        src = BitSource.from_seed(0.5, 0)
        with pytest.raises(ValueError):
            src.emit(0)

    def test_degenerate_rates(self):
        assert not BitSource.from_seed(0.0, 3).emit(1000).any()
        assert BitSource.from_seed(1.0, 3).emit(1000).all()

    def test_empirical_rate_within_3_sigma(self):
        # p=3/8 over 1e6 bits: analytic binomial concentration bound.
        p, n = 3.0 / 8.0, 10**6
        ones = int(BitSource.from_seed(p, 42).emit(n).sum())
        half_width = 3.0 * math.sqrt(n * p * (1.0 - p))
        assert abs(ones - n * p) <= half_width

    def test_seeded_emission_is_reproducible(self):
        a = BitSource.from_seed(0.3, 5).emit(256)
        b = BitSource.from_seed(0.3, 5).emit(256)
        assert np.array_equal(a, b)


class TestAndProduct:
    def test_truth_table(self):
        a = np.array([0, 0, 1, 1], dtype=np.uint8)
        b = np.array([0, 1, 0, 1], dtype=np.uint8)
        assert np.array_equal(and_product(a, b), [0, 0, 0, 1])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            and_product(np.zeros(3, dtype=np.uint8), np.zeros(4, dtype=np.uint8))

    def test_conjunction_rate_is_product(self):
        # independent p1=p2=0.5 streams over 1e6 bits: rate 0.25 +- 3 sigma
        n = 10**6
        a = BitSource.from_seed(0.5, 11).emit(n)
        b = BitSource.from_seed(0.5, 12).emit(n)
        rate = and_product(a, b).mean()
        assert abs(rate - 0.25) <= binomial_3sigma(0.25, n)


class TestRunUntilOverflow:
    def test_certain_channel_wins_in_exactly_n_max_cycles(self):
        out = run_bus([1.0, 0.0], seed=0, n_max=4)
        assert out.winner == 0
        assert out.cycles == 4
        assert list(out.counts) == [4, 0]

    def test_tie_breaks_to_lowest_index(self):
        out = run_bus([1.0, 1.0], seed=0, n_max=8)
        assert out.winner == 0
        assert list(out.counts) == [8, 8]

    def test_block_size_does_not_change_the_outcome(self):
        # exact within-block stop resolution: cycle counts and counter values
        # must be invariant to the generation block size
        results = []
        for block in (1, 7, 1024):
            out = run_bus([0.6, 0.3, 0.1], seed=9, n_max=32, block=block)
            results.append((out.winner, out.cycles, tuple(out.counts)))
        assert results[0] == results[1] == results[2]

    def test_dominant_channel_wins_almost_always(self):
        # p=(0.8, 0.2), n_max=64: Monte-Carlo win-rate oracle says >= 99%
        wins = sum(
            run_bus([0.8, 0.2], seed=seed, n_max=64).winner == 0
            for seed in range(1000)
        )
        assert wins >= 990

    def test_timeout_flagged(self):
        out = run_bus([1e-9, 1e-9], seed=0, n_max=4, max_cycles=100)
        assert out.timed_out
        assert out.winner == -1
        assert out.cycles == 100


class TestReadout:
    def test_winner_reads_exactly_one(self):
        out = run_bus([0.7, 0.35, 0.1], seed=4, n_max=64)
        assert out.readout[out.winner] == pytest.approx(1.0)
        assert np.all(out.readout <= 1.0)

    def test_readout_ratio_tracks_rate_ratio(self):
        # (0.9, 0.45) at n_max=4096: loser/winner readout concentrates at 0.5
        ratios = []
        for seed in range(100):
            readout = run_bus([0.9, 0.45], seed=seed, n_max=4096).readout
            ratios.append(readout[1] / readout[0])
        assert abs(np.mean(ratios) - 0.5) <= 0.02

    def test_coarse_readout_is_less_accurate(self):
        # the bus (1.0, 0.6, 0.3) read at n_max=1 and n_max=256: the 1-bit
        # readout has the larger mean error over 100 seeds
        rates = np.array([1.0, 0.6, 0.3])
        error = {
            n_max: np.mean([
                np.abs(run_bus(rates, seed=s, n_max=n_max).readout - rates)
                for s in range(100)
            ])
            for n_max in (1, 256)
        }
        assert error[1] > error[256]


@settings(max_examples=25, deadline=None)
@given(
    rates=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=6),
    n_max=st.integers(1, 64),
    seed=st.integers(0, 2**31),
)
def test_overflow_run_invariants(rates, n_max, seed):
    """Any overflow-terminated run fills the winner to exactly n_max, reads
    it out as 1, caps all counters at n_max, and needs at least n_max cycles."""
    out = run_bus(rates, seed=seed, n_max=n_max)
    assert not out.timed_out
    assert out.counts[out.winner] == n_max
    assert out.readout[out.winner] == 1.0
    assert out.counts.max() == n_max
    assert out.cycles >= n_max
