"""Fusion machine: spec validation, product statistics, counter races."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import bdtr, comb, gammaln

from stochastic_disparity.bitstream import BitSource, and_product, stream_seed
from stochastic_disparity.machine import (
    _CONTENDER_CUT,
    PRIOR_LANE,
    FusionSpec,
    Machine,
    _below_bound,
    _binomial_below,
    _firing_candidates,
    _first_firing,
    _nth_position,
    _quantised,
    _raw_threshold,
    _settle_outsiders,
    build_machine,
    race_arrivals,
    run_machine,
)
from stochastic_disparity.model import (
    ModelParams,
    build_likelihood_volume,
    compute_features,
)
from stochastic_disparity.synthetic import natural_scene_pair


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

    def test_output_bus_is_the_and_of_seeded_bit_sources(self):
        # prior lanes at 1.0 (rows 0 and 2) are wires and draw no bits
        spec = simple_spec(
            [1.0, 0.5, 1.0, 0.25], [[0.9, 0.5, 0.1, 0.7], [0.8, 0.6, 1.0, 0.3]]
        )
        n, seed = 300, 11

        def bits(p, lane, j):
            rng = np.random.default_rng(stream_seed(seed, lane, j))
            return BitSource(p, rng).emit(n)

        want = np.ones((4, n), dtype=np.uint8)
        for j in range(4):
            if spec.prior[j] != 1.0:
                want[j] = and_product(want[j], bits(spec.prior[j], PRIOR_LANE, j))
            for i, rates in enumerate(spec.term_table):
                want[j] = and_product(want[j], bits(rates[j], i + 1, j))
        got = build_machine(spec, seed).emit_output_bits(n)
        assert np.array_equal(got, want)
        assert 0 < want.sum() < want.size

    def test_all_ones_machine_ties_to_index_zero(self):
        spec = simple_spec(np.ones(3), np.ones((2, 3)))
        result = run_machine(build_machine(spec, seed=0), n_max=16)
        assert result.winner == 0
        assert result.cycles == 16
        assert list(result.counts) == [16, 16, 16]

    def test_single_channel_always_maps_to_zero(self):
        spec = simple_spec([1.0], np.full((1, 1), 0.7))
        result = run_machine(build_machine(spec, seed=5), n_max=8)
        assert result.winner == 0


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

    def test_timeout_has_no_winner(self):
        spec = simple_spec([1.0], np.full((1, 1), 1e-9))
        result = run_machine(build_machine(spec, seed=0), n_max=4, max_cycles=50)
        assert result.timed_out
        assert result.winner == -1
        assert result.cycles == 50

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
    # Rates just under three tenths of the pixel's top rate draw no arrival
    # time unless they fill first: at n_max 2 one of them does in about half
    # of the runs, at n_max 4 in about a fifth.
    "outsiders_n_max_2": ([0.149] * 8 + [0.5], 2, 10**7),
    "outsiders_n_max_4": ([0.1499] * 8 + [0.5], 4, 10**7),
    "outsiders_and_timeout": ([0.0059] * 6 + [0.02], 2, 100),
    "n_max_1_unit_rate": ([0.3, 0.5, 1.0, 0.2], 1, 10**7),
    "n_max_1_all_zero": ([0.0, 0.0, 0.0], 1, 50),
    "n_max_1_timeout": ([0.01, 0.02, 0.005], 1, 20),  # about half time out
    "n_max_1_near_equal_small": ([0.049] * 8 + [0.5], 1, 10**7),
}


def assert_same_law_as_machine(rates, n_max, max_cycles, counts, winner, cycles):
    """Check race outcomes of one pixel's rates against EQUIVALENCE_RUNS
    seeded `run_machine` runs: winners by chi-square, stop cycles and each
    channel's counts by two-sample KS, each at level ALPHA."""
    spec = simple_spec(np.ones(len(rates)), [rates])
    runs = [
        run_machine(build_machine(spec, seed=s), n_max, max_cycles)
        for s in range(EQUIVALENCE_RUNS)
    ]
    ref_winner = np.array([r.winner for r in runs])
    ref_cycles = np.array([r.cycles for r in runs])
    ref_counts = np.array([r.counts for r in runs])
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


class TestRaceArrivals:
    def test_invariants(self):
        rates = np.array([[0.6, 0.3, 0.05], [0.0, 0.2, 0.2]])
        counts, winner, cycles = race_arrivals(
            np.random.default_rng(0), rates, n_max=32
        )
        assert counts.shape == (2, 3)
        assert np.all(winner >= 0)
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
        counts, winner, cycles = race_arrivals(
            np.random.default_rng(7),
            np.tile(rates, (EQUIVALENCE_RUNS, 1)),
            n_max,
            max_cycles,
        )
        assert_same_law_as_machine(rates, n_max, max_cycles, counts, winner, cycles)

    def test_case_keeps_its_law_among_other_pixels(self):
        """One case's rows, interleaved in a single call with pixels that
        settle outsiders, time out or race fast, have the law they have
        alone: a block of the grid holds such a mix of pixels."""
        rates, n_max, max_cycles = EQUIVALENCE_CASES["outsiders_and_timeout"]
        neighbours = [
            [0.149] * 6 + [0.5],  # an outsider fills first in about 44%
            [0.001] * 7,  # mean arrival 2000 cycles: times out
            [0.9, 0.0, 0.3, 1.0, 0.5, 0.2, 0.8],  # ends on cycle 2
        ]
        mixed = np.array([rates, *neighbours] * EQUIVALENCE_RUNS)
        stride = len(neighbours) + 1
        counts, winner, cycles = race_arrivals(
            np.random.default_rng(11), mixed, n_max, max_cycles
        )
        # the neighbours do what they are there for
        assert 0.35 < (winner[1::stride] < 6).mean() < 0.55
        assert (winner[2::stride] < 0).mean() > 0.9
        assert not (winner[3::stride] < 0).any()
        assert_same_law_as_machine(
            rates, n_max, max_cycles,
            counts[::stride], winner[::stride], cycles[::stride],
        )

    @pytest.mark.parametrize("max_cycles", [30, 10**7, 2**40])
    @pytest.mark.parametrize("n_max", [1, 2, 16])
    def test_winner_encodes_the_timeout(self, n_max, max_cycles):
        """The winner alone tells a timeout: it is the lowest channel that
        reached n_max, and -1, at the full budget, where none did."""
        rng = np.random.default_rng(n_max)
        m = 12
        rates = rng.random((420, m)) ** 6 * rng.choice([1.0, 0.1, 0.01], (420, 1))
        rates[::7] = 0.0  # never fires
        rates[1::7] = [0.149] * (m - 1) + [0.5]  # outsiders just under the cut
        counts, winner, cycles = race_arrivals(rng, rates, n_max, max_cycles)
        full, won = counts == n_max, winner >= 0
        assert np.array_equal(won, full.any(axis=1))
        assert np.array_equal(winner[won], full[won].argmax(axis=1))
        assert np.all(cycles[~won] == max_cycles)
        assert not won[::7].any()

    def test_ties_resolve_to_lowest_index(self):
        counts, winner, cycles = race_arrivals(
            np.random.default_rng(0), np.ones((1, 3)), n_max=16
        )
        assert winner[0] == 0
        assert cycles[0] == 16
        assert list(counts[0]) == [16, 16, 16]

    def test_timeout_path(self):
        counts, winner, cycles = race_arrivals(
            np.random.default_rng(0), np.zeros((1, 2)), 4, max_cycles=64
        )
        assert winner[0] == -1
        assert cycles[0] == 64
        assert list(counts[0]) == [0, 0]

    def test_rates_numpy_cannot_draw_in_one_share_stay_valid(self):
        # The 1e-18 rate quantises to 2**-53; NegBin(4096, 2**-53) is beyond
        # numpy's negative_binomial in one draw.
        counts, winner, _ = race_arrivals(
            np.random.default_rng(0), np.array([[1e-18, 0.01]]), n_max=4096
        )
        assert winner[0] == 1
        assert list(counts[0]) == [0, 4096]

    def test_spans_beyond_numpy_hypergeometric_populations(self):
        # Spans of billions of cycles: an outsider that fills first would
        # need populations numpy's hypergeometric rejects, so every channel
        # draws its own arrival once max_cycles reaches 10**9.
        runs = 2000
        rates = np.tile([4.9e-11] * 8 + [5e-10], (runs, 1))
        counts, winner, _ = race_arrivals(
            np.random.default_rng(0), rates, 2, max_cycles=2**40
        )
        assert np.all(winner >= 0)
        assert (winner < 8).sum() > runs / 20  # about 12% of the races
        assert np.all(counts[np.arange(runs), winner] == 2)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            race_arrivals(np.random.default_rng(0), np.ones((1, 2)), n_max=0)
        with pytest.raises(ValueError):
            race_arrivals(np.random.default_rng(0), np.ones((1, 2)), 4, max_cycles=0)
        # no counter could reach n_max within the budget
        with pytest.raises(ValueError, match="must not exceed max_cycles"):
            race_arrivals(np.random.default_rng(0), np.ones((1, 2)), 4, max_cycles=3)
        race_arrivals(np.random.default_rng(0), np.ones((1, 2)), 4, max_cycles=4)

    @pytest.mark.parametrize(
        "rate, n_max, max_cycles, calls",
        [(1e-6, 2**17, 2**17, 1), (0.5, 2048, 10**7, 4)],
        ids=["every_arrival_capped", "arrivals_below_the_cap"],
    )
    def test_arrival_shares_stop_once_every_arrival_is_capped(
        self, rate, n_max, max_cycles, calls
    ):
        # one 1024-pixel block of 82 channels: at 1e-6 the first share of 512
        # successes puts every arrival past max_cycles, so the other 255
        # would be discarded; at 0.5 every one of n_max / 512 shares counts
        class CountingRng:
            def __init__(self, rng):
                self.rng, self.calls = rng, 0

            def negative_binomial(self, *args):
                self.calls += 1
                return self.rng.negative_binomial(*args)

            def __getattr__(self, name):
                return getattr(self.rng, name)

        rng = CountingRng(np.random.default_rng(0))
        counts, winner, cycles = race_arrivals(
            rng, np.full((1024, 82), rate), n_max, max_cycles
        )
        assert rng.calls == calls
        if calls == 1:
            assert (winner == -1).all() and (cycles == max_cycles).all()
            assert counts.max() < n_max
        else:
            assert (winner >= 0).all() and (cycles < max_cycles).all()

    @pytest.mark.parametrize("bad", [np.nan, 1.5, -0.1])
    @pytest.mark.parametrize("n_max", [1, 4])
    def test_rates_outside_the_unit_interval_are_rejected(self, bad, n_max):
        with pytest.raises(ValueError, match="rates"):
            race_arrivals(np.random.default_rng(0), np.array([[0.5, bad]]), n_max)

    @pytest.mark.parametrize("n_max", [1, 4])
    def test_max_cycles_must_fit_int64(self, n_max):
        # the largest accepted budget still clips arrivals at 2**63 - 1
        big = 2**63 - 2
        _, winner, cycles = race_arrivals(
            np.random.default_rng(0), np.zeros((1, 2)), n_max, max_cycles=big
        )
        assert winner[0] == -1 and cycles[0] == big
        for max_cycles in (2**63 - 1, 2**63, 2**64):
            with pytest.raises(ValueError, match="max_cycles"):
                race_arrivals(
                    np.random.default_rng(0), np.ones((1, 2)), n_max, max_cycles
                )


def q(x: float) -> float:
    """The quantised rate of one float."""
    return float(_quantised(np.array([x]))[0])


_GRID = st.integers(0, 2**53).map(lambda k: k / 2**53)  # exact multiples of 2**-53
# floats in [0, 1]: the ends, subnormals, and the grid of quantised rates with
# each point's neighbours
UNIT = st.one_of(
    st.floats(0, 1),
    st.floats(0, 2.0**-1000),
    _GRID,
    _GRID.map(lambda x: float(np.nextafter(x, 0.0))),
    _GRID.map(lambda x: float(np.nextafter(x, 1.0))),
    st.sampled_from([0.0, 1.0, 5e-324, 2.0**-1022, 2.0**-53, 2.0**-52, 1 - 2.0**-53]),
)
# the values of `random()`: multiples of 2**-53 below 1, with both ends
UNIFORM = st.one_of(
    _GRID.filter(lambda x: x < 1), st.sampled_from([0.0, 1 - 2.0**-53])
)
# rows that race_arrivals must bound exactly: adversarial ones (all zero, one
# nonzero channel, p = 1, p = 2**-53, tied tops) and rows of unit floats
ROWS = st.one_of(
    st.lists(UNIT, min_size=1, max_size=12),
    st.integers(1, 12).map(lambda m: [0.0] * m),
    st.tuples(st.integers(1, 12), UNIT).map(lambda a: [0.0] * (a[0] - 1) + [a[1]]),
    st.tuples(st.integers(1, 12), st.sampled_from([1.0, 2.0**-53])).map(
        lambda a: [a[1]] * a[0]
    ),
    st.tuples(st.lists(UNIT, min_size=1, max_size=8), UNIT).map(
        lambda a: [*a[0], max(a[0]), a[1], max(a[0])]
    ),
)


def first_firing_race(v, p, max_cycles):
    """The n_max = 1 race over every channel at full width, for reference."""
    first = _first_firing(v.copy(), p)
    stop = first.min(axis=1)
    t = np.minimum(stop, 2.0**62).astype(np.int64)
    won = np.isfinite(stop) & (t <= max_cycles)
    counts = ((first == stop[:, None]) & won[:, None]).view(np.uint8)
    winner = np.where(won, counts.argmax(axis=1), -1)
    return counts, winner, np.where(won, t, max_cycles)


class TestBoundsOnRawRates:
    """The float identities by which the race reads contenders, outsider
    candidates and first-firing candidates off raw rates, so that it only
    quantises the rates it gathers."""

    @settings(max_examples=300, deadline=None)
    @given(r=UNIT, t=UNIT)
    def test_contender_threshold_is_exact(self, r, t):
        threshold = float(_raw_threshold(np.array([t]))[0])
        assert threshold == q(t) - 2.0**-53
        assert (q(r) >= t) == (r > threshold)

    @settings(max_examples=300, deadline=None)
    @given(r=UNIT, v=UNIFORM, s=st.integers(1, 2**63 - 2))
    def test_outsider_bound_holds_every_exact_candidate(self, r, v, s):
        s = float(s)  # as the race casts its int64 spans
        assert q(r) * s <= (r + 2.0**-48) * s
        bound, mask = np.empty((1, 1)), np.empty((1, 1), bool)
        below = _below_bound(np.array([v]), np.array([[r]]), np.array([s]), bound, mask)
        assert below[0, 0] or not v < q(r) * s

    @settings(max_examples=200, deadline=None)
    @given(
        row=ROWS,
        data=st.data(),
        max_cycles=st.sampled_from([1, 4, 10**7, 2**63 - 2]),
    )
    def test_first_firing_candidates_hold_every_channel_up_to_the_top(
        self, row, data, max_cycles
    ):
        rates = np.array([row])
        m = rates.shape[1]
        v = np.array(data.draw(st.lists(UNIFORM, min_size=m, max_size=m)))
        p = _quantised(rates)
        first = _first_firing(v.copy(), p.ravel())
        top_at = np.array([rates.argmax()])
        top = p.ravel()[top_at]
        span = min(first[top_at[0]], max_cycles)
        bound, mask = np.empty_like(rates), np.empty(rates.shape, bool)
        at = _firing_candidates(v, rates, top_at, top, max_cycles, bound, mask)
        assert top_at[0] in at
        assert set(np.flatnonzero(first <= span)) <= set(at)

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(ROWS.map(lambda r: (r * 6)[:6]), min_size=1, max_size=20),
        seed=st.integers(0, 2**32 - 1),
        max_cycles=st.sampled_from([1, 4, 10**7]),
    )
    def test_first_firing_race_equals_the_full_width_race(self, rows, seed, max_cycles):
        rates = np.array(rows)
        v = np.random.default_rng(seed).random(rates.shape)
        want = first_firing_race(v, _quantised(rates), max_cycles)
        got = race_arrivals(np.random.default_rng(seed), rates, 1, max_cycles)
        for part, expected in zip(got, want):
            assert part.dtype == expected.dtype
            assert np.array_equal(part, expected)


class TestOutsiderFallback:
    """The exact fallback for an outsider whose count reached n_max by the
    span, against closed-form laws: the equivalence tests see its steps only
    through whole races."""

    def test_arrival_is_an_order_statistic_of_uniform_positions(self):
        # the 2nd smallest of a uniform 3-subset of 1..10
        span, k, n_max = 10, 3, 2
        arrivals = _nth_position(
            np.random.default_rng(0),
            np.full(EQUIVALENCE_RUNS, k),
            n_max,
            np.full(EQUIVALENCE_RUNS, span),
        )
        a = np.arange(n_max, span - k + n_max + 1)
        pmf = comb(a - 1, n_max - 1) * comb(span - a, k - n_max) / comb(span, k)
        observed = np.bincount(arrivals, minlength=span + 1)
        assert observed.sum() == observed[a].sum() == EQUIVALENCE_RUNS
        assert stats.chisquare(observed[a], pmf * EQUIVALENCE_RUNS).pvalue > ALPHA

    def test_counts_thin_to_the_earlier_stop(self):
        # At the span of 10 cycles, channel 0 lost with one success, channel
        # 1 filled on cycle 10 and outsider 2 succeeded on every cycle, so it
        # filled on cycle 2 and stops the race there.
        runs, span, n_max = EQUIVALENCE_RUNS, 10, 2
        counts = np.tile(np.array([1, n_max, 0], dtype=np.uint8), (runs, 1))
        result = (counts, np.ones(runs, dtype=np.int64), np.full(runs, span))
        _settle_outsiders(
            np.random.default_rng(0),
            result,
            np.arange(runs),
            np.full(runs, 2),
            np.full(runs, span),
            n_max,
        )
        _, winner, cycles = result
        assert np.all(winner == 2) and np.all(cycles == 2)
        assert np.all(counts[:, 2] == n_max)
        # channel 0's success is uniform in 1..10, channel 1's first in 1..9
        for j, early in ((0, 2 / 10), (1, 2 / 9)):
            assert np.all(counts[:, j] <= 1)
            hits = int(counts[:, j].sum())
            assert stats.binomtest(hits, runs, early).pvalue > ALPHA


# A two-channel race in which both channels contend, the top one at rate q0:
# the loser's count law is closed-form, and small budgets clip its arrival
# in races that do not time out.
LOSER_CASES = {
    # name: (q0, q1, n_max, max_cycles)
    "in_range_n_max_2": (0.5, 0.4, 2, 10**7),
    "in_range_n_max_16": (0.5, 0.4, 16, 10**7),
    "in_range_n_max_64": (0.5, 0.45, 64, 10**7),
    "clipped_n_max_2": (0.9, 0.6, 2, 3),
    "clipped_n_max_16": (0.95, 0.7, 16, 20),
    "clipped_n_max_64": (0.95, 0.9, 64, 70),
}
LOSER_RUNS = 20_000


class TestLoserRule:
    """A losing contender's count, read off its own arrival a as the count by
    the stop of a uniform (n_max - 1)-subset of 1..a - 1, or, where a is
    clipped at max_cycles + 1, off its count by max_cycles thinned to the
    stop, against the exact law of channel 1 when channel 0 stops the race:
    P(c_1 = k) = sum_t P(A_0 = t) P(Binomial(t, q_1) = k) for k < n_max over
    the stops t <= max_cycles, and P(A_0 > max_cycles) P(Binomial(max_cycles,
    q_1) = k) on a timeout."""

    @staticmethod
    def loser_law(q0, q1, n_max, max_cycles):
        """Probabilities of channel 1's count 0..n_max - 1 in races that stop,
        then in races that time out, then of its filling."""
        end = min(max_cycles, n_max + int(stats.nbinom.isf(LAW_TOL, n_max, q0)))
        t = np.arange(n_max, end + 1)
        stops = stats.nbinom.pmf(t - n_max, n_max, q0)
        k = np.arange(n_max)
        stopped = stops @ stats.binom.pmf(k, t[:, None], q1)
        late = stats.nbinom.sf(max_cycles - n_max, n_max, q0)
        timed_out = late * stats.binom.pmf(k, max_cycles, q1)
        return np.r_[stopped, timed_out, 1 - stopped.sum() - timed_out.sum()]

    @pytest.mark.parametrize("case", sorted(LOSER_CASES))
    def test_count_has_the_exact_law(self, case):
        q0, q1, n_max, max_cycles = LOSER_CASES[case]
        assert q1 >= _CONTENDER_CUT * q0  # both channels draw arrivals
        counts, winner, _ = race_arrivals(
            np.random.default_rng(3), np.tile([q0, q1], (LOSER_RUNS, 1)), n_max,
            max_cycles,
        )
        c1 = counts[:, 1].astype(np.int64)
        cell = np.where(c1 == n_max, 2 * n_max, c1 + n_max * (winner < 0))
        observed = np.bincount(cell, minlength=2 * n_max + 1)
        q0, q1 = _quantised(np.array([q0, q1]))
        expected = self.loser_law(q0, q1, n_max, max_cycles) * LOSER_RUNS
        if case.startswith("clipped"):
            # most stops leave channel 1 short of n_max by max_cycles
            clipped = stats.nbinom.cdf(max_cycles - n_max, n_max, q0) * stats.binom.cdf(
                n_max - 1, max_cycles, q1
            )
            assert clipped > 0.3
        main = expected >= 5
        observed = np.r_[observed[main], observed[~main].sum()]
        expected = np.r_[expected[main], expected[~main].sum()]
        keep = expected > 0
        assert observed[~keep].sum() == 0
        stat = ((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum()
        assert stats.chi2.sf(stat, keep.sum() - 1) > ALPHA


class TestBinomialBelow:
    """The redraw of a clipped losing contender's count, Binomial(span, p)
    below n_max, against the exact truncated law at spans up to the race's
    reach."""

    @pytest.mark.parametrize("span", [200, 10**7, 10**14, 10**16])
    def test_law_is_exact_at_large_spans(self, span):
        # Binomial(span, 12 / span) is about Poisson(12), so about 16% of the
        # draws land at or above the limit 16 and take the redraw path.
        runs, limit, p = 20_000, 16, 12 / span
        k = _binomial_below(
            np.random.default_rng(span),
            np.full(runs, span, dtype=np.int64),
            np.full(runs, p),
            limit,
        )
        pmf = [1.0]  # pmf(i + 1) / pmf(i) = (span - i) / (i + 1) * p / (1 - p)
        for i in range(limit - 1):
            pmf.append(pmf[-1] * (span - i) / (i + 1) * p / (1 - p))
        expected = np.array(pmf) / sum(pmf) * runs
        observed = np.bincount(k, minlength=limit)
        assert observed.size == limit
        # pool the low bins until the pooled expectation reaches 5
        low = np.searchsorted(np.cumsum(expected), 5.0) + 1
        observed = np.r_[observed[:low].sum(), observed[low:]]
        expected = np.r_[expected[:low].sum(), expected[low:]]
        assert stats.chisquare(observed, expected).pvalue > ALPHA


# The race's exact law. With S_j(t) = P(Binomial(t, q_j) < n_max) = P(A_j >
# t) on the quantised rates and f_j(t) = S_j(t - 1) - S_j(t):
#   P(T > t) = prod_j S_j(t);
#   P(winner = j) = sum_t f_j(t) prod_{i<j} S_i(t) prod_{i>j} S_i(t - 1);
#   P(timeout) = prod_j S_j(max_cycles).
# A channel below n_max at a stop on cycle t reads Binomial(t, q_j)
# conditioned below n_max; its expected count there is G_j(t) = E[B; B <
# n_max] = t q_j P(Binomial(t - 1, q_j) < n_max - 1). A pixel leaves the
# recurrence once P(T > t) < LAW_TOL, and a channel whose chance of reaching
# n_max by then, at most C(t, n_max) q^n_max, is below LAW_TOL is taken never
# to fill: it reads Binomial(cycles, q_j), of mean q_j E[cycles].
LAW_TOL = 1e-15
LAW_RUNS = 300  # races of each sampled pixel
LAW_CASES = {
    # name: (n_max, max_cycles, channels raised to just under the cut)
    "n_max_1": (1, 10**7, 0),
    "n_max_2": (2, 10**7, 0),  # outsiders fill first in about 7% of the races
    "n_max_16": (16, 10**7, 0),
    "n_max_64": (64, 10**7, 0),
    "timeout_heavy": (16, 24, 0),  # a third of the races time out
    "outsiders_n_max_2": (2, 10**7, 8),  # outsiders fill first in about half
}


def race_law(q, n_max, max_cycles):
    """The exact law of one pixel's race on quantised rates `q`, not all
    zero: the pmf of its cycles over 0..t_end, the winner probabilities (the
    last entry a timeout's) and the expected sum of the counts of the
    channels that end below n_max."""
    t_end = min(max_cycles, n_max + int(stats.nbinom.isf(LAW_TOL, n_max, q.max())) + 1)
    t = np.arange(t_end + 1)
    log_comb = gammaln(t_end + 1) - gammaln(n_max + 1) - gammaln(t_end - n_max + 1)
    with np.errstate(divide="ignore"):
        reach = log_comb + n_max * np.log(q)
    kept = np.union1d(np.flatnonzero(reach >= np.log(LAW_TOL)), q.argmax())
    qk = q[kept, None]
    s = bdtr(np.minimum(n_max - 1, t), t, qk)
    ones = np.ones((1, t.size))
    before = np.cumprod(np.vstack([ones, s[:-1]]), axis=0)  # prod_{i<j} S_i
    after = np.cumprod(np.vstack([ones, s[:0:-1]]), axis=0)[::-1]  # prod_{i>j}
    alive = before[-1] * s[-1]  # P(T > t)
    timeout = t_end == max_cycles
    winner = np.zeros(q.size + 1)
    f = s[:, :-1] - s[:, 1:]
    winner[kept] = (f * before[:, 1:] * after[:, :-1]).sum(axis=1)
    winner[-1] = alive[-1] if timeout else 0.0
    cycles = np.r_[0.0, alive[:-1] - alive[1:]]
    # a channel's count at the stop, where min_{i != j} A_i is t or, at the
    # budget, at least t: then the pixel stops there or times out
    others = before * after
    stop_by_others = np.c_[np.zeros(len(kept)), others[:, :-1] - others[:, 1:]]
    if timeout:
        cycles[-1] = alive[-2]
        stop_by_others[:, -1] = others[:, -2]
    losers = 0.0
    if n_max > 1:  # at n_max 1 a channel below it reads 0
        below = np.maximum(t - 1, 0)
        g = t * qk * bdtr(np.minimum(n_max - 2, below), below, qk)
        never = np.ones(q.size, bool)
        never[kept] = False
        losers = (stop_by_others * g).sum() + q[never].sum() * (t * cycles).sum()
    return cycles, winner, losers


def discrete_ks_pvalue(sample, pmf):
    """The KS p-value of integer samples against a law on 0..len(pmf) - 1,
    the distance taken at the law's support points; for a discrete law the
    continuous p-value is conservative."""
    size = max(len(pmf), sample.max() + 1)
    ecdf = np.cumsum(np.bincount(sample, minlength=size)) / sample.size
    cdf = np.cumsum(np.r_[pmf, np.zeros(size - len(pmf))])
    return stats.kstwo.sf(np.abs(ecdf - cdf).max(), sample.size)


@pytest.fixture(scope="module")
def natural_pixels():
    """256 pixels of the natural 200x150 frame at d_max 80, drawn without
    replacement: flat shadow, texture and occlusion, 82 channels each."""
    left, right = natural_scene_pair(200, 150, 12, 1)
    volume = build_likelihood_volume(
        compute_features(left), compute_features(right), ModelParams(d_max=80)
    )
    rates = volume.rates.reshape(-1, volume.rates.shape[2])
    return rates[np.random.default_rng(0).choice(len(rates), 256, replace=False)]


class TestExactLaw:
    """`race_arrivals` on sampled pixels of a natural frame against the
    race's closed-form law: the mean cycles by z-score, the winners by a
    chi-square pooled over pixels, the cycles by KS against the exact
    mixture and the mean count of the channels that end below n_max by
    z-score, each at level ALPHA."""

    @pytest.mark.parametrize("case", sorted(LAW_CASES))
    def test_race_has_the_exact_law(self, natural_pixels, case):
        n_max, max_cycles, raised = LAW_CASES[case]
        rates = natural_pixels.copy()
        low = np.argsort(rates, axis=1)[:, :raised]  # never a top channel
        under = 0.99 * _CONTENDER_CUT * rates.max(axis=1, keepdims=True)
        np.put_along_axis(rates, low, under, axis=1)
        pixels, m = rates.shape
        rng = np.random.default_rng(5)
        draws = [  # in blocks of 32 pixels, each raced LAW_RUNS times
            race_arrivals(rng, np.repeat(block, LAW_RUNS, axis=0), n_max, max_cycles)
            for block in np.split(rates, range(32, pixels, 32))
        ]
        counts, winner, cycles = (np.concatenate(part) for part in zip(*draws))
        laws = [race_law(q, n_max, max_cycles) for q in _quantised(rates)]
        size = max(len(law[0]) for law in laws)
        pmf = np.array([np.r_[c, np.zeros(size - len(c))] for c, _, _ in laws])
        # what the cut-offs leave out: LAW_TOL of each channel and the tail
        slack = (m + 1) * LAW_TOL * size
        z = stats.norm.isf(ALPHA / 2)

        t = np.arange(size)
        mean = pmf @ t
        se = np.sqrt((pmf @ t**2 - mean**2).sum() / LAW_RUNS) / pixels
        assert abs(cycles.mean() - mean.mean()) <= z * se + slack

        expected = np.mean([w for _, w, _ in laws], axis=0) * cycles.size
        observed = np.bincount(np.where(winner < 0, m, winner), minlength=m + 1)
        main = expected >= 5
        observed = np.r_[observed[main], observed[~main].sum()]
        expected = np.r_[expected[main], expected[~main].sum()]
        stat = ((observed - expected) ** 2 / np.maximum(expected, 1e-300)).sum()
        assert stats.chi2.sf(stat, main.sum()) > ALPHA

        assert discrete_ks_pvalue(cycles, pmf.mean(axis=0)) > ALPHA

        losers = np.where(counts < n_max, counts, 0).sum(axis=1, dtype=np.int64)
        losers = losers.reshape(pixels, LAW_RUNS)
        want = np.mean([lost for _, _, lost in laws])
        se = np.sqrt(losers.var(axis=1, ddof=1).sum() / LAW_RUNS) / pixels
        assert abs(losers.mean() - want) <= z * se + slack * n_max
