"""Grid execution: determinism, worker invariance, result semantics."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from stochastic_disparity import engine, model
from stochastic_disparity.bitstream import stream_seed
from stochastic_disparity.engine import run_stochastic_grid
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


# Blocks of 37 pixels straddle the fixture's 28-pixel rows, and its 280
# pixels leave a short last block of 21, so 8 blocks in all.
SMALL_BLOCK = 37


@pytest.fixture
def small_blocks(small_volume, monkeypatch):
    """Race blocks of SMALL_BLOCK pixels; the value is their number."""
    monkeypatch.setattr(engine, "RACE_BLOCK", SMALL_BLOCK)
    return -(-small_volume.rates[..., 0].size // SMALL_BLOCK)


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

    def test_worker_count_does_not_change_results(self, small_volume, small_blocks):
        serial = run_stochastic_grid(small_volume, 8, master_seed=1, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads interleave as often as they can
        try:
            results = [
                run_stochastic_grid(small_volume, 8, master_seed=1, workers=w)
                for w in (2, small_blocks + 3)
            ]
        finally:
            sys.setswitchinterval(interval)
        for threaded in results:
            assert np.array_equal(serial.counts, threaded.counts)
            assert np.array_equal(serial.winner, threaded.winner)
            assert np.array_equal(serial.cycles, threaded.cycles)

    def test_threads_never_outnumber_blocks(
        self, small_volume, small_blocks, monkeypatch
    ):
        sizes, pools = [], []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                pools.append(self)
                super().__init__(max_workers)

        # the pools live in `model` for the process; start from none
        monkeypatch.setattr(model, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(model, "_POOLS", {})
        try:
            run_stochastic_grid(
                small_volume, 8, master_seed=1, workers=small_blocks + 3
            )
            run_stochastic_grid(small_volume, 8, master_seed=1, workers=2)
        finally:
            for pool in pools:
                pool.shutdown()
        # the calling thread races one share of the blocks itself
        assert sizes == [small_blocks - 1, 1]

    def test_block_is_kernel_on_its_own_stream(self, small_volume, small_blocks):
        m = small_volume.rates.shape[2]
        pixels = small_volume.rates.reshape(-1, m)
        assert (small_blocks, len(pixels) % SMALL_BLOCK) == (8, 21)
        for workers in (1, 2, small_blocks + 3):
            result = run_stochastic_grid(
                small_volume, 8, master_seed=6, workers=workers
            )
            flat = (result.counts.reshape(-1, m), result.winner.reshape(-1),
                    result.cycles.reshape(-1))
            for k in range(small_blocks):
                part = slice(k * SMALL_BLOCK, (k + 1) * SMALL_BLOCK)
                expected = race_arrivals(
                    np.random.default_rng(stream_seed(6, k)), pixels[part], 8
                )
                for got, want in zip(flat, expected):
                    assert np.array_equal(got[part], want)


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

    @pytest.mark.parametrize(
        "n_max, dtype", [(16, np.uint8), (300, np.uint16), (65535, np.uint16)]
    )
    def test_counts_take_the_smallest_dtype_for_n_max(self, n_max, dtype):
        params = ModelParams(d_max=2)
        rates = np.random.default_rng(0).uniform(0.2, 1.0, (2, 3, 4))
        result = run_stochastic_grid(LikelihoodVolume(rates, params), n_max, 0)
        assert result.counts.dtype == dtype
        assert np.all(result.counts.max(axis=2) == n_max)

    def test_rejects_bad_n_max(self, small_volume):
        for workers in (1, 2):
            with pytest.raises(ValueError, match="must be positive"):
                run_stochastic_grid(small_volume, 0, master_seed=0, workers=workers)

    def test_a_row_error_reaches_the_caller_from_a_thread(
        self, small_volume, small_blocks, monkeypatch
    ):
        def fail_on_row_3(rng, rates, n_max, max_cycles):
            pooled = threading.current_thread() is not threading.main_thread()
            if pooled and np.shares_memory(rates, small_volume.rates[3]):
                raise RuntimeError("row 3 failed")
            return race_arrivals(rng, rates, n_max, max_cycles)

        monkeypatch.setattr(engine, "race_arrivals", fail_on_row_3)
        with pytest.raises(RuntimeError, match="row 3"):
            run_stochastic_grid(small_volume, 8, master_seed=0, workers=2)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_nonpositive_worker_count(self, small_volume, workers):
        with pytest.raises(ValueError, match="worker count"):
            run_stochastic_grid(small_volume, 8, master_seed=0, workers=workers)
