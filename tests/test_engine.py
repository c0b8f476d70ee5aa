"""Grid execution: determinism, worker invariance, result semantics."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from stochastic_disparity import engine, machine, model
from stochastic_disparity.bitstream import DEFAULT_MAX_CYCLES, stream_seed
from stochastic_disparity.engine import run_stochastic_grid
from stochastic_disparity.machine import race_arrivals
from stochastic_disparity.model import (
    LikelihoodVolume,
    ModelParams,
    build_likelihood_volume,
    compute_features,
)
from stochastic_disparity.reference import reference_infer
from stochastic_disparity.synthetic import natural_scene_pair, planted_shift_pair


@pytest.fixture(scope="module")
def small_volume():
    params = ModelParams(d_max=8)
    left, right = planted_shift_pair(40, 14, 5, seed=2, noise_sigma=10.0)
    return build_likelihood_volume(
        compute_features(left), compute_features(right), params
    )


# Bands of at least 60 pixels are 3 of the fixture's 28-pixel rows (84
# pixels), and its 10 rows leave a short last band of one row, so 4 bands.
SMALL_BLOCK = 60
SMALL_BAND = 84


@pytest.fixture
def small_blocks(small_volume, monkeypatch):
    """Race bands of at least SMALL_BLOCK pixels; the value is their number."""
    monkeypatch.setattr(model, "RACE_BLOCK", SMALL_BLOCK)
    return -(-small_volume.rates[..., 0].size // SMALL_BAND)


# (pair, d_max, rows of the last band): the natural pair has 17 bands of 9
# rows, the planted one 4 bands of 11
BAND_CASES = {
    "natural-200x150": (lambda: natural_scene_pair(200, 150, 12, 1), 80, 2),
    "planted-120x40": (
        lambda: planted_shift_pair(120, 40, 5, 3, noise_sigma=20), 16, 3
    ),
}


def tied_and_zero_case():
    """Hand-built volume rates, twice, and the 5 rows of the last of their 2
    bands of 18 rows: exactly tied top rates, among disparities and between
    a disparity and no-match, all-zero pixels and an all-zero row."""
    rates = np.random.default_rng(7).uniform(0.0, 0.5, (23, 60, 10))
    rates[::3, :, [2, 5]] = 0.75
    rates[1::3, :, [4, 9]] = 0.75
    rates[7, ::4] = 0.0
    rates[20] = 0.0
    volume = LikelihoodVolume(rates, ModelParams(d_max=8))
    return volume.rates, volume.rates, 5


@pytest.fixture(scope="module", params=[*sorted(BAND_CASES), "tied-and-zero"])
def band_case(request):
    """A case's rates to walk (`BandRates` of a pair, or a hand-built
    volume's array), its volume's rates and its last band's rows."""
    if request.param == "tied-and-zero":
        return tied_and_zero_case()
    make_pair, d_max, last = BAND_CASES[request.param]
    fmaps = [compute_features(img) for img in make_pair()]
    params = ModelParams(d_max=d_max)
    volume = build_likelihood_volume(*fmaps, params)
    return model.BandRates(*fmaps, params), volume.rates, last


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
        sizes = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(model, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(model, "_thread_cap", lambda: 64)  # any host: 4 threads
        run_stochastic_grid(small_volume, 8, master_seed=1, workers=small_blocks + 3)
        run_stochastic_grid(small_volume, 8, master_seed=1, workers=2)
        # the calling thread races one share of the bands itself
        assert sizes == [small_blocks - 1, 1]

    def test_block_is_kernel_on_its_own_stream(self, small_volume, small_blocks):
        m = small_volume.rates.shape[2]
        pixels = small_volume.rates.reshape(-1, m)
        assert (small_blocks, len(pixels) % SMALL_BAND) == (4, 28)
        for workers in (1, 2, small_blocks + 3):
            result = run_stochastic_grid(
                small_volume, 8, master_seed=6, workers=workers
            )
            flat = (result.counts.reshape(-1, m), result.winner.reshape(-1),
                    result.cycles.reshape(-1))
            for k in range(small_blocks):
                part = slice(k * SMALL_BAND, (k + 1) * SMALL_BAND)
                expected = race_arrivals(
                    np.random.default_rng(stream_seed(6, k)), pixels[part], 8
                )
                for got, want in zip(flat, expected):
                    assert np.array_equal(got[part], want)

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize(
        "n_max, max_cycles",
        [(1, None), (1, 4), (1, 1), (16, None), (16, 64), (64, None), (64, 256)],
    )
    def test_buffers_never_carry_one_band_into_the_next(
        self, band_case, n_max, max_cycles, workers
    ):
        # each share races its bands in one set of work arrays, from the
        # rates in its builder's buffer and the pass's argmax; every band
        # equals a checked race of its rows in fresh arrays, also at budgets
        # where pixels time out
        bands, rates, last = band_case
        max_cycles = max_cycles or DEFAULT_MAX_CYCLES
        oracle, run = engine._band_pass(bands, "both", n_max, 2, max_cycles, workers)
        assert np.array_equal(oracle.winner, rates.argmax(axis=2))
        h, w, m = rates.shape
        band = model._rows_per_band(w)
        assert h % band == last
        for k in range(-(-h // band)):
            rows = slice(k * band, (k + 1) * band)
            want = race_arrivals(
                np.random.default_rng(stream_seed(2, k)),
                rates[rows].reshape(-1, m), n_max, max_cycles,
            )
            got = run.counts[rows].reshape(-1, m), run.winner[rows], run.cycles[rows]
            for part, expected in zip(got, want):
                assert np.array_equal(part.reshape(expected.shape), expected)
        if max_cycles < DEFAULT_MAX_CYCLES:
            assert (run.winner < 0).any()


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
        failed = threading.Event()

        def fail_the_first_pooled_block(*args):
            if threading.current_thread() is threading.main_thread():
                failed.wait(timeout=60)  # a pool thread draws a block first
            elif not failed.is_set():
                failed.set()
                raise RuntimeError("pooled block failed")
            return machine._race(*args)

        monkeypatch.setattr(engine, "_race", fail_the_first_pooled_block)
        with pytest.raises(RuntimeError, match="pooled block"):
            run_stochastic_grid(small_volume, 8, master_seed=0, workers=2)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_nonpositive_worker_count(self, small_volume, workers):
        with pytest.raises(ValueError, match="worker count"):
            run_stochastic_grid(small_volume, 8, master_seed=0, workers=workers)
