"""Every frame stage on `workers` threads: the serial run's bytes and floats,
no thread at workers=1, errors from pool threads and forked children."""

import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest

from stochastic_disparity import engine, metrics, model
from stochastic_disparity.engine import run_stochastic_grid
from stochastic_disparity.metrics import (
    Readout,
    compare_results,
    score_readouts,
    sweep_counter_sizes,
    sweep_to_csv,
)
from stochastic_disparity.model import (
    BORDER,
    ModelParams,
    build_likelihood_volume,
    compute_features,
)
from stochastic_disparity.reference import reference_infer, reference_outcome
from stochastic_disparity.synthetic import natural_scene_pair

PARAMS = ModelParams(d_max=16)
THREADED = (2, 3)


@pytest.fixture
def interleaved():
    """Threads switch as often as they can."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def pair(height, width=60):
    """A natural pair whose feature maps are `height` rows by `width`."""
    return natural_scene_pair(
        width + BORDER, height + BORDER, PARAMS.d_max // 2, 3, content_x=10
    )


def feature_pair(height):
    return tuple(compute_features(img) for img in pair(height))


class TestStagesEqualTheSerialRun:
    @pytest.mark.parametrize("height", [1, 5, 37])
    def test_rates_and_winners(self, monkeypatch, interleaved, height):
        # 2-row bands: one band at height 1, three at 5 (the last short)
        monkeypatch.setattr(model, "_BAND_ROWS", 2)
        fmaps_l, fmaps_r = feature_pair(height)
        volume = build_likelihood_volume(fmaps_l, fmaps_r, PARAMS)
        infer = reference_infer(volume).winner
        outcome = reference_outcome(fmaps_l, fmaps_r, PARAMS).winner
        for workers in THREADED:
            rates = build_likelihood_volume(fmaps_l, fmaps_r, PARAMS, workers).rates
            assert rates.tobytes() == volume.rates.tobytes()
            for got, want in (
                (reference_infer(volume, workers).winner, infer),
                (reference_outcome(fmaps_l, fmaps_r, PARAMS, workers).winner, outcome),
            ):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

    def test_scores(self, monkeypatch, interleaved):
        fmaps_l, fmaps_r = feature_pair(37)
        volume = build_likelihood_volume(fmaps_l, fmaps_r, PARAMS)
        reference = reference_infer(volume)
        runs = [run_stochastic_grid(volume, 16, seed) for seed in (1, 2)]
        # 1776 pixels in blocks of 97: 19 blocks, the last one of 30
        monkeypatch.setattr(metrics, "RACE_BLOCK", 97)
        assert -(-volume.rates[..., 0].size // 97) % 2 == 1
        readouts = [Readout(r.counts, r) for r in runs]
        report = compare_results(runs[0], reference)
        scores = score_readouts(*readouts)
        for workers in THREADED:
            assert compare_results(runs[0], reference, workers) == report
            assert score_readouts(*readouts, workers) == scores

    def test_sweep_csv(self, monkeypatch, interleaved):
        for module in (engine, metrics):
            monkeypatch.setattr(module, "RACE_BLOCK", 97)
        left, right = pair(37)
        csv = [
            sweep_to_csv(
                sweep_counter_sizes(left, right, PARAMS, [1, 16], [0, 1], workers=w)
            )
            for w in (1, *THREADED)
        ]
        assert csv[1:] == [csv[0]] * len(THREADED)


class TestThreads:
    def test_one_worker_starts_no_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        left, right = pair(37)
        sweep_counter_sizes(left, right, PARAMS, [1, 16], [0], workers=1)
        reference_outcome(*feature_pair(37), PARAMS, workers=1)

    def test_a_pool_thread_error_reaches_the_caller_after_every_share(self):
        ended = []

        def share(items):
            if items.start == 1:
                raise RuntimeError("share 1 failed")
            time.sleep(0.05 * items.start)
            ended.append(items.start)

        with pytest.raises(RuntimeError, match="share 1"):
            model._run_shares(share, 3, workers=3)
        assert sorted(ended) == [0, 2]

    def test_a_scoring_error_on_a_pool_thread_reaches_the_caller(
        self, monkeypatch
    ):
        fmaps_l, fmaps_r = feature_pair(37)
        volume = build_likelihood_volume(fmaps_l, fmaps_r, PARAMS)
        reference, run = reference_infer(volume), run_stochastic_grid(volume, 8, 0)
        distributions = metrics._distributions

        def fail_off_the_main_thread(*args):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("pooled block failed")
            return distributions(*args)

        monkeypatch.setattr(metrics, "RACE_BLOCK", 97)
        monkeypatch.setattr(metrics, "_distributions", fail_off_the_main_thread)
        with pytest.raises(RuntimeError, match="pooled block"):
            compare_results(run, reference, workers=2)

    # a forked child is what is under test; Python 3.12 warns on any fork of
    # a process with threads
    @pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")
    def test_a_forked_child_runs_threaded_stages(self):
        fmaps_l, fmaps_r = feature_pair(37)
        # the parent's pool of this thread count now has a live thread
        volume = build_likelihood_volume(fmaps_l, fmaps_r, PARAMS, workers=2)

        def child():
            again = build_likelihood_volume(fmaps_l, fmaps_r, PARAMS, workers=2)
            sys.exit(0 if again.rates.tobytes() == volume.rates.tobytes() else 1)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=60)
        hung = proc.is_alive()
        if hung:
            proc.kill()
            proc.join()
        assert not hung
        assert proc.exitcode == 0
