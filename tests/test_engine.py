"""Grid execution: determinism, worker invariance, result semantics."""

import numpy as np
import pytest

from stochastic_disparity.bitstream import stream_seed
from stochastic_disparity.engine import _run_rows, run_stochastic_grid
from stochastic_disparity.machine import race_arrivals
from stochastic_disparity.model import (
    LikelihoodVolume,
    ModelParams,
    build_likelihood_volume,
    compute_features,
)
from stochastic_disparity.reference import reference_infer
from stochastic_disparity.synthetic import planted_shift_pair


@pytest.fixture(scope="module")
def small_volume():
    params = ModelParams(d_max=8)
    left, right = planted_shift_pair(40, 14, 5, seed=2, noise_sigma=10.0)
    return build_likelihood_volume(
        compute_features(left), compute_features(right), params
    )


class TestDeterminism:
    def test_same_seed_is_bit_identical(self, small_volume):
        a = run_stochastic_grid(small_volume, 16, master_seed=4)
        b = run_stochastic_grid(small_volume, 16, master_seed=4)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.winner, b.winner)
        assert np.array_equal(a.cycles, b.cycles)

    def test_different_seeds_differ(self, small_volume):
        a = run_stochastic_grid(small_volume, 16, master_seed=4)
        b = run_stochastic_grid(small_volume, 16, master_seed=5)
        assert not np.array_equal(a.counts, b.counts)

    def test_worker_count_does_not_change_results(self, small_volume):
        serial = run_stochastic_grid(small_volume, 8, master_seed=1, workers=1)
        parallel = run_stochastic_grid(small_volume, 8, master_seed=1, workers=2)
        assert np.array_equal(serial.counts, parallel.counts)
        assert np.array_equal(serial.winner, parallel.winner)
        assert np.array_equal(serial.cycles, parallel.cycles)

    def test_row_boundaries_do_not_change_results(self, small_volume):
        rates = small_volume.rates
        whole = _run_rows((rates, 0, 3, 8, 10**7))
        for cuts in ([3], [1, 2, 7]):
            bounds = [0, *cuts, rates.shape[0]]
            parts = [
                _run_rows((rates[a:b], a, 3, 8, 10**7))
                for a, b in zip(bounds, bounds[1:])
            ]
            for field, pieces in zip(whole, zip(*parts)):
                assert np.array_equal(field, np.concatenate(pieces))

    def test_row_is_kernel_on_its_own_stream(self, small_volume):
        result = run_stochastic_grid(small_volume, 8, master_seed=6)
        y = 4
        counts, winner, cycles, timed_out = race_arrivals(
            np.random.default_rng(stream_seed(6, y)),
            small_volume.rates[y],
            8,
        )
        assert np.array_equal(result.counts[y], counts)
        assert np.array_equal(result.winner[y], winner)
        assert np.array_equal(result.cycles[y], cycles)
        assert np.array_equal(result.timed_out[y], timed_out)


class TestResultSemantics:
    def test_shapes_and_winner_counts(self, small_volume):
        result = run_stochastic_grid(small_volume, 16, master_seed=0)
        h, w = small_volume.rates.shape[:2]
        assert result.counts.shape == (h, w, 10)
        assert result.winner.shape == (h, w)
        picked = np.take_along_axis(
            result.counts, result.winner[..., None], axis=2
        )[..., 0]
        assert np.all(picked[~result.timed_out] == 16)

    def test_map_disparity_recovers_planted_shift(self, small_volume):
        result = run_stochastic_grid(small_volume, 16, master_seed=0)
        agreement = (result.map_disparity == 5).mean()
        assert agreement >= 0.8

    def test_no_match_uses_last_channel(self):
        params = ModelParams(d_max=4)
        rates = np.full((3, 4, 6), params.p0 * params.p0 * params.p0)
        rates[..., -1] = 0.9
        volume = LikelihoodVolume(rates, params)
        result = run_stochastic_grid(volume, 4, master_seed=0)
        assert np.all(result.no_match)
        assert np.all(result.map_disparity == -1)

    def test_agreement_with_reference_improves_with_n_max(self, small_volume):
        ref = reference_infer(small_volume)
        agree = []
        for n_max in (1, 64):
            res = run_stochastic_grid(small_volume, n_max, master_seed=9)
            agree.append((res.map_disparity == ref.map_disparity).mean())
        assert agree[1] >= agree[0]

    def test_timeout_flagged_not_silently_dropped(self):
        params = ModelParams(d_max=2)
        rates = np.full((1, 2, 4), 0.02 * 0.02 * 0.02)
        rates[..., -1] = 0.01
        volume = LikelihoodVolume(rates, params)
        result = run_stochastic_grid(volume, 64, master_seed=0, max_cycles=100)
        assert np.all(result.timed_out)
        assert np.all(result.winner == -1)
        assert np.all(result.cycles == 100)

    def test_rejects_bad_n_max(self, small_volume):
        with pytest.raises(ValueError):
            run_stochastic_grid(small_volume, 0, master_seed=0)
