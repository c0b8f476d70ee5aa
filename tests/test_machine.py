"""Fusion machine: spec validation, product statistics, counter races."""

import numpy as np
import pytest
from scipy import stats

from stochastic_disparity.machine import (
    FusionSpec,
    Machine,
    build_machine,
    map_estimate,
    race_arrivals,
    run_machine,
)


def simple_spec(prior, table, constants=None):
    table = np.asarray(table, dtype=float)
    if constants is None:
        constants = np.ones(table.shape[0] + 1)
    return FusionSpec(
        prior=np.asarray(prior, dtype=float),
        term_table=table,
        bus_constants=np.asarray(constants, dtype=float),
    )


class TestFusionSpec:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            simple_spec([], np.ones((1, 0)))
        with pytest.raises(ValueError):
            simple_spec([1.0, 1.0], np.ones((2, 3)))
        with pytest.raises(ValueError):
            FusionSpec(
                prior=np.ones(2),
                term_table=np.ones((2, 2)),
                bus_constants=np.ones(2),  # needs N + 1 = 3
            )

    def test_rate_range_validation(self):
        with pytest.raises(ValueError):
            simple_spec([1.2], np.ones((1, 1)))
        with pytest.raises(ValueError):
            simple_spec([1.0], np.array([[-0.1]]))
        with pytest.raises(ValueError):
            simple_spec([1.0], np.ones((1, 1)), constants=[1.0, 0.0])

    def test_channel_products(self):
        spec = simple_spec(
            [1.0, 0.5],
            [[0.9, 0.2], [0.5, 1.0]],
        )
        assert spec.channel_products() == pytest.approx([0.45, 0.1])

    def test_no_terms_passes_prior_through(self):
        spec = FusionSpec(
            prior=np.array([0.3, 0.7]),
            term_table=np.empty((0, 2)),
            bus_constants=np.array([2.0]),
        )
        assert spec.channel_products() == pytest.approx([0.3, 0.7])
        assert spec.output_constant() == pytest.approx(2.0)

    def test_output_constant_is_product(self):
        spec = simple_spec(
            [1.0], np.ones((2, 1)), constants=[3.0, 2.0, 0.5]
        )
        assert spec.output_constant() == pytest.approx(3.0)


class TestMachine:
    def test_term_source_count(self):
        # M=82, N=3 term modules: 246 generators
        spec = simple_spec(np.ones(82), np.full((3, 82), 0.5))
        machine = build_machine(spec, seed=0)
        assert machine.n_term_sources == 246

    def test_constant_prior_lines_consume_no_randomness(self):
        spec = simple_spec(np.ones(4), np.full((2, 4), 0.5))
        machine = build_machine(spec, seed=0)
        assert machine.n_random_sources == 8
        mixed = simple_spec(np.array([1.0, 0.5, 1.0, 0.25]), np.full((2, 4), 0.5))
        assert build_machine(mixed, seed=0).n_random_sources == 10

    def test_output_bit_rates_match_products(self):
        spec = simple_spec(
            [1.0, 1.0, 1.0],
            [[0.9, 0.5, 0.1], [0.8, 0.6, 1.0]],
        )
        machine = build_machine(spec, seed=13)
        n = 200_000
        bits = machine.emit_output_bits(n)
        expected = spec.channel_products()
        for j in range(3):
            p = expected[j]
            sigma = np.sqrt(p * (1 - p) / n)
            assert abs(bits[j].mean() - p) <= 4 * sigma

    def test_all_ones_machine_ties_to_index_zero(self):
        spec = simple_spec(np.ones(3), np.ones((2, 3)))
        result = run_machine(build_machine(spec, seed=0), n_max=16)
        assert result.winner == 0
        assert result.cycles == 16
        assert list(result.counts) == [16, 16, 16]

    def test_single_channel_always_maps_to_zero(self):
        spec = simple_spec([1.0], np.full((1, 1), 0.7))
        result = run_machine(build_machine(spec, seed=5), n_max=8)
        assert map_estimate(result) == 0


class TestRunMachine:
    def test_seeded_run_is_reproducible(self):
        spec = simple_spec([1.0, 1.0], [[0.8, 0.3]])
        a = run_machine(build_machine(spec, seed=3), n_max=32)
        b = run_machine(build_machine(spec, seed=3), n_max=32)
        assert a.winner == b.winner
        assert a.cycles == b.cycles
        assert np.array_equal(a.counts, b.counts)

    def test_block_size_invariance(self):
        spec = simple_spec([1.0, 1.0, 1.0], [[0.7, 0.4, 0.1]])
        outcomes = set()
        for block in (1, 5, 256):
            r = run_machine(build_machine(spec, seed=8), n_max=24, block=block)
            outcomes.add((r.winner, r.cycles, tuple(r.counts)))
        assert len(outcomes) == 1

    def test_fast_channel_beats_slow_channel(self):
        # p=(0.02, 0.9), n_max=16: race oracle puts channel 1 at >= 99%
        spec = simple_spec([1.0, 1.0], [[0.02, 0.9]])
        wins = sum(
            run_machine(build_machine(spec, seed=s), n_max=16).winner == 1
            for s in range(1000)
        )
        assert wins >= 990

    def test_loser_readout_tracks_product_ratio(self):
        # column products (0.81, 0.09): loser mean readout = 0.111 +- 0.02
        spec = simple_spec([1.0, 1.0], [[0.9, 0.3], [0.9, 0.3]])
        readouts = [
            run_machine(build_machine(spec, seed=s), n_max=255).readout[1]
            for s in range(100)
        ]
        assert abs(np.mean(readouts) - 0.09 / 0.81) <= 0.02

    def test_timeout_and_map_estimate_rejection(self):
        spec = simple_spec([1.0], np.full((1, 1), 1e-9))
        result = run_machine(build_machine(spec, seed=0), n_max=4, max_cycles=50)
        assert result.timed_out
        assert result.winner is None
        assert result.cycles == 50
        with pytest.raises(ValueError):
            map_estimate(result)

    def test_argument_validation(self):
        spec = simple_spec([1.0], np.ones((1, 1)))
        machine = build_machine(spec, seed=0)
        with pytest.raises(ValueError):
            run_machine(machine, n_max=0)
        with pytest.raises(ValueError):
            run_machine(machine, n_max=4, max_cycles=0)


# Significance level of each equivalence test below: the seeds are fixed, so
# the outcome is deterministic, and a correct kernel fails a given test with
# probability ALPHA over the choice of seeds.
ALPHA = 1e-3
EQUIVALENCE_RUNS = 4000

EQUIVALENCE_CASES = {
    # name: (channel rates, n_max, max_cycles)
    "equal_rates_tie_to_lowest": ([0.5, 0.5, 0.5], 4, 10**7),
    "zero_rate": ([0.0, 0.4, 0.3], 4, 10**7),
    "unit_rate": ([0.9, 1.0, 0.5], 3, 10**7),
    "n_max_1": ([0.2, 0.1, 0.3], 1, 10**7),
    "timeout_heavy": ([0.05, 0.04, 0.02], 8, 100),  # mean arrival 160-400
}


class TestRaceArrivals:
    def test_invariants(self):
        rates = np.array([[0.6, 0.3, 0.05], [0.0, 0.2, 0.2]])
        counts, winner, cycles, timed_out = race_arrivals(
            np.random.default_rng(0), rates, n_max=32
        )
        assert counts.shape == (2, 3)
        assert not timed_out.any()
        assert np.all(counts[[0, 1], winner] == 32)
        assert np.all(counts <= 32)
        assert np.all(cycles >= 32)
        assert np.all(counts[:, 0][winner != 0] < 32)
        assert counts[1, 0] == 0

    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    def test_matches_bit_level_machine(self, case):
        """Winners (chi-square), stop cycles and every channel's counts (KS)
        have the same law as `run_machine` on a spec with these products."""
        rates, n_max, max_cycles = EQUIVALENCE_CASES[case]
        spec = simple_spec(np.ones(len(rates)), [rates])
        runs = [
            run_machine(build_machine(spec, seed=s), n_max, max_cycles)
            for s in range(EQUIVALENCE_RUNS)
        ]
        ref_winner = np.array([-1 if r.timed_out else r.winner for r in runs])
        ref_cycles = np.array([r.cycles for r in runs])
        ref_counts = np.array([r.counts for r in runs])
        counts, winner, cycles, _ = race_arrivals(
            np.random.default_rng(7),
            np.tile(rates, (EQUIVALENCE_RUNS, 1)),
            n_max,
            max_cycles,
        )

        table = np.array([
            np.bincount(w + 1, minlength=len(rates) + 1)
            for w in (ref_winner, winner)
        ])
        table = table[:, table.sum(axis=0) > 0]
        if table.shape[1] > 1:
            assert stats.chi2_contingency(table).pvalue > ALPHA
        assert stats.ks_2samp(ref_cycles, cycles, method="asymp").pvalue > ALPHA
        for ref, new in zip(ref_counts.T, counts.T):
            assert stats.ks_2samp(ref, new, method="asymp").pvalue > ALPHA

    def test_ties_resolve_to_lowest_index(self):
        counts, winner, cycles, _ = race_arrivals(
            np.random.default_rng(0), np.ones((1, 3)), n_max=16
        )
        assert winner[0] == 0
        assert cycles[0] == 16
        assert list(counts[0]) == [16, 16, 16]

    def test_timeout_path(self):
        counts, winner, cycles, timed_out = race_arrivals(
            np.random.default_rng(0), np.zeros((1, 2)), 4, max_cycles=64
        )
        assert timed_out[0]
        assert winner[0] == -1
        assert cycles[0] == 64
        assert list(counts[0]) == [0, 0]

    def test_rates_numpy_cannot_draw_in_one_share_stay_valid(self):
        # The 1e-18 rate quantises to 2**-53; NegBin(4096, 2**-53) is beyond
        # numpy's negative_binomial in one draw.
        counts, winner, _, timed_out = race_arrivals(
            np.random.default_rng(0), np.array([[1e-18, 0.01]]), n_max=4096
        )
        assert not timed_out[0]
        assert winner[0] == 1
        assert list(counts[0]) == [0, 4096]

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            race_arrivals(np.random.default_rng(0), np.ones((1, 2)), n_max=0)
        with pytest.raises(ValueError):
            race_arrivals(np.random.default_rng(0), np.ones((1, 2)), 4, max_cycles=0)

    def test_max_cycles_must_fit_int64(self):
        # the largest accepted budget still clips arrivals at 2**63 - 1
        big = 2**63 - 2
        _, winner, cycles, timed_out = race_arrivals(
            np.random.default_rng(0), np.zeros((1, 2)), 4, max_cycles=big
        )
        assert timed_out[0] and winner[0] == -1 and cycles[0] == big
        for max_cycles in (2**63 - 1, 2**63, 2**64):
            with pytest.raises(ValueError, match="max_cycles"):
                race_arrivals(
                    np.random.default_rng(0), np.ones((1, 2)), 4, max_cycles
                )
