"""Every frame stage on `workers` threads: the serial run's bytes and floats,
items drawn once from one counter, no thread at workers=1, one worker-count
rule, errors from pool threads, stalled pool threads and forked children."""

import io
import multiprocessing
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from stochastic_disparity import engine, machine, metrics, model
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
from stochastic_disparity.pgm import save_image
from stochastic_disparity.pipeline import RunConfig, run_pipeline
from stochastic_disparity.reference import reference_infer
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


def write_pair(tmp_path, images):
    paths = tmp_path / "left.pgm", tmp_path / "right.pgm"
    for path, img in zip(paths, images):
        save_image(path, img)
    return paths


def stalling_pool(done):
    """A pool whose shares wait, before their first draw, for `done`."""

    class StallingPool(ThreadPoolExecutor):
        def submit(self, share, draws):
            return super().submit(lambda: done.wait(60) and share(draws))

    return StallingPool


class TestStagesEqualTheSerialRun:
    @pytest.mark.parametrize("height", [1, 5, 37])
    def test_rates_and_winners(self, monkeypatch, interleaved, tmp_path, height):
        # 2-row bands of the 44-pixel rows: one band at height 1, three at 5
        # (the last short)
        monkeypatch.setattr(model, "RACE_BLOCK", 80)
        images = pair(height)
        fmaps_l, fmaps_r = (compute_features(img) for img in images)
        volume = build_likelihood_volume(fmaps_l, fmaps_r, PARAMS)
        outcome = reference_infer(volume).winner
        paths = write_pair(tmp_path, images)
        for workers in (1, *THREADED):
            rates = build_likelihood_volume(fmaps_l, fmaps_r, PARAMS, workers).rates
            assert rates.tobytes() == volume.rates.tobytes()
            config = RunConfig(*paths, params=PARAMS, mode="reference", workers=workers)
            got = run_pipeline(config, log=io.StringIO()).reference.winner
            assert got.dtype == outcome.dtype
            assert got.tobytes() == outcome.tobytes()

    def test_scores(self, monkeypatch, interleaved):
        fmaps_l, fmaps_r = feature_pair(37)
        volume = build_likelihood_volume(fmaps_l, fmaps_r, PARAMS)
        reference = reference_infer(volume)
        runs = [run_stochastic_grid(volume, 16, seed) for seed in (1, 2)]
        # 37 rows of 44 pixels in 2-row bands: 19 bands, the last one row
        monkeypatch.setattr(model, "RACE_BLOCK", 80)
        assert -(-len(volume.rates) // model._rows_per_band(44)) == 19
        readouts = [Readout(r.counts, r) for r in runs]
        report = compare_results(runs[0], reference)
        scores = score_readouts(*readouts)
        for workers in THREADED:
            assert compare_results(runs[0], reference, workers) == report
            assert score_readouts(*readouts, workers) == scores

    def test_band_pass(self, monkeypatch, interleaved, tmp_path):
        # a `both` run builds, argmaxes and races 19 2-row bands on threads
        # that write one set of grids
        monkeypatch.setattr(model, "RACE_BLOCK", 80)
        paths = write_pair(tmp_path, pair(37))
        runs = [
            run_pipeline(
                RunConfig(*paths, params=PARAMS, n_max=16, seed=4, workers=w),
                log=io.StringIO(),
            )
            for w in (1, *THREADED)
        ]
        for run in runs[1:]:
            assert run.reference.winner.tobytes() == runs[0].reference.winner.tobytes()
            for name in ("counts", "winner", "cycles"):
                got, want = (getattr(r.stochastic, name) for r in (run, runs[0]))
                assert got.tobytes() == want.tobytes(), name

    def test_sweep_csv(self, monkeypatch, interleaved):
        monkeypatch.setattr(model, "RACE_BLOCK", 80)  # 2-row bands
        left, right = pair(37)
        csv = [
            sweep_to_csv(
                sweep_counter_sizes(left, right, PARAMS, [1, 16], [0, 1], workers=w)
            )
            for w in (1, *THREADED)
        ]
        assert csv[1:] == [csv[0]] * len(THREADED)


def small_groups(monkeypatch):
    """2-row bands of the 44-pixel rows in 6-row feature groups: 7 groups
    over 37 rows, the last of one row."""
    monkeypatch.setattr(model, "RACE_BLOCK", 80)
    monkeypatch.setattr(model, "_IMAGE_BLOCK", 3 * 88)
    assert model._rows_per_group(44) == 6
    return [(y, min(y + 6, 37)) for y in range(0, 37, 6)]


class TestFrontEndInThePass:
    """`run_pipeline` computes each image's features inside the band pass, a
    group of bands at a time, on the threads that build the rates."""

    def test_one_worker_computes_each_group_once(self, monkeypatch, tmp_path):
        groups = small_groups(monkeypatch)
        paths = write_pair(tmp_path, pair(37))
        computed, feature_rows = [], model._feature_rows

        def counted(img, rows, out):
            computed.append((rows.start, rows.stop))
            return feature_rows(img, rows, out)

        monkeypatch.setattr(model, "_feature_rows", counted)
        want = [group for group in groups for _ in "lr"]  # left, then right
        for mode in ("reference", "stochastic", "both"):
            computed.clear()
            config = RunConfig(*paths, params=PARAMS, mode=mode, workers=1)
            summary = run_pipeline(config, log=io.StringIO())
            assert computed == want, mode
        # scoring a `both` run builds its oracle's bands again, group by group
        computed.clear()
        compare_results(summary.stochastic, summary.reference)
        assert computed == want

    def test_two_workers_run_it_on_a_pool_thread(self, monkeypatch, tmp_path):
        small_groups(monkeypatch)
        paths = write_pair(tmp_path, pair(37))
        config = RunConfig(*paths, params=PARAMS, mode="reference", workers=1)
        serial = run_pipeline(config, log=io.StringIO()).reference.winner
        on_pool, pooled, feature_rows = [], threading.Event(), model._feature_rows

        def spy(img, rows, out):
            on_pool.append(threading.current_thread() is not threading.main_thread())
            if on_pool[-1]:
                pooled.set()
            else:
                pooled.wait(timeout=60)  # a pool thread computes a group first
            return feature_rows(img, rows, out)

        monkeypatch.setattr(model, "_feature_rows", spy)
        config = RunConfig(*paths, params=PARAMS, mode="reference", workers=2)
        got = run_pipeline(config, log=io.StringIO()).reference.winner
        assert True in on_pool
        assert got.tobytes() == serial.tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_scores_of_a_both_run_equal_the_volume_paths(
        self, monkeypatch, interleaved, tmp_path, workers
    ):
        # the volume is built from `compute_features` maps, which a run held
        # before its front end moved into the pass
        small_groups(monkeypatch)
        images = pair(37)
        volume = build_likelihood_volume(*map(compute_features, images), PARAMS)
        run, reference = run_stochastic_grid(volume, 16, 4), reference_infer(volume)
        want = compare_results(run, reference)
        config = RunConfig(
            *write_pair(tmp_path, images), params=PARAMS, n_max=16, seed=4,
            workers=workers,
        )
        summary = run_pipeline(config, log=io.StringIO())
        assert compare_results(summary.stochastic, summary.reference, workers) == want


class TestThreads:
    def test_one_worker_starts_no_thread(self, monkeypatch, tmp_path):
        def refuse(thread):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        left, right = pair(37)
        sweep_counter_sizes(left, right, PARAMS, [1, 16], [0], workers=1)
        paths = write_pair(tmp_path, (left, right))
        for mode in ("reference", "both"):
            config = RunConfig(*paths, params=PARAMS, mode=mode, workers=1)
            run_pipeline(config, log=io.StringIO())

    def test_every_item_is_drawn_once(self, monkeypatch, interleaved):
        drawn = []  # one list per share

        def share(items):
            mine = []
            drawn.append(mine)
            for k in items:
                mine.append(k)
                time.sleep(0)  # let another thread draw next

        monkeypatch.setattr(model, "_thread_cap", lambda: 8)  # 8 shares on any host
        model._run_shares(share, 5000, workers=8)
        assert len(drawn) == 8
        assert sorted(k for mine in drawn for k in mine) == list(range(5000))

    def test_threads_never_outnumber_the_usable_cores_plus_one(self):
        threads = set()

        def share(items):
            for _ in items:
                threads.add(threading.get_ident())
                time.sleep(1e-4)  # leave items to every started thread

        model._run_shares(share, 64, workers=64)
        assert model._thread_cap() == len(os.sched_getaffinity(0)) + 1
        assert len(threads) <= model._thread_cap()

    def test_a_pool_thread_error_reaches_the_caller_after_every_share(self):
        ran, failed = [], threading.Event()

        def share(items):
            if threading.current_thread() is threading.main_thread():
                failed.wait(timeout=60)  # the pool thread draws first
                ran.extend(items)
            else:
                for k in items:
                    failed.set()
                    raise RuntimeError(f"item {k} failed")

        with pytest.raises(RuntimeError, match="item 0 failed"):
            model._run_shares(share, 5, workers=2)
        # the failed share stopped the caller: at most the item in hand ran
        assert ran in ([], [1])

    @pytest.mark.parametrize("failing", ["pool", "caller"])
    def test_a_failing_share_stops_the_others(self, failing):
        # a pool share's error, or the caller's KeyboardInterrupt, on its
        # first item: each other thread runs at most one more item, not the
        # rest of the 1000 at 10 ms each
        error = RuntimeError if failing == "pool" else KeyboardInterrupt
        started, raised, after = threading.Event(), threading.Event(), []

        def share(items):
            on_caller = threading.current_thread() is threading.main_thread()
            for k in items:
                if on_caller == (failing == "caller"):
                    started.wait(timeout=60)  # the other share draws first
                    raised.set()
                    raise error(f"item {k} failed")
                started.set()
                if raised.is_set():
                    after.append(k)
                time.sleep(0.01)

        with pytest.raises(error, match="failed"):
            model._run_shares(share, 1000, workers=2)
        assert len(after) <= 1

    def test_a_stalled_pool_share_leaves_its_items_to_the_caller(self, monkeypatch):
        volume = build_likelihood_volume(*feature_pair(37), PARAMS)
        # 10-row bands of the 37 rows: 4 bands, the last of 7 rows
        blocks, raced, done = 4, [], threading.Event()
        monkeypatch.setattr(model, "RACE_BLOCK", 10 * volume.rates.shape[1])
        serial = run_stochastic_grid(volume, 16, 5)

        def race_on_the_caller(*args):
            raced.append(threading.current_thread() is threading.main_thread())
            if len(raced) == blocks:
                done.set()
            return machine._race(*args)

        monkeypatch.setattr(engine, "_race", race_on_the_caller)
        # the pool share waits for the caller to race every block
        monkeypatch.setattr(model, "ThreadPoolExecutor", stalling_pool(done))
        stalled = run_stochastic_grid(volume, 16, 5, workers=2)
        assert raced == [True] * blocks
        for name in ("counts", "winner", "cycles"):
            assert getattr(stalled, name).tobytes() == getattr(serial, name).tobytes()

    def test_a_share_that_draws_no_band_allocates_no_buffers(self, monkeypatch):
        rates = model.BandRates(*feature_pair(37), PARAMS)
        # 10-row bands of the 37 rows: 4 bands, all drawn by the caller while
        # the pool share waits
        monkeypatch.setattr(model, "RACE_BLOCK", 10 * rates.shape[1])
        seen, built, done = [], [], threading.Event()
        builder = model.BandRates.builder

        def counted_builder(self, n_rows):
            built.append(n_rows)
            return builder(self, n_rows)

        def each(k, rows, band):
            seen.append((k, rows.start))
            if len(seen) == 4:
                done.set()

        monkeypatch.setattr(model.BandRates, "builder", counted_builder)
        monkeypatch.setattr(model, "ThreadPoolExecutor", stalling_pool(done))
        model._walk_bands([rates], each, workers=2)
        assert seen == [(0, 0), (1, 10), (2, 20), (3, 30)]
        assert built == [10]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_scoring_builds_buffers_once_per_thread(
        self, monkeypatch, tmp_path, workers
    ):
        # a `both` run's oracle rates are `BandRates`: scoring builds each
        # band in one thread's buffers, not in a new set per band
        monkeypatch.setattr(model, "RACE_BLOCK", 80)  # 19 bands
        paths = write_pair(tmp_path, pair(37))
        config = RunConfig(*paths, params=PARAMS, n_max=16, seed=4, workers=workers)
        summary = run_pipeline(config, log=io.StringIO())
        built, builder = [], model.BandRates.builder

        def counted_builder(self, n_rows):
            built.append(n_rows)
            return builder(self, n_rows)

        monkeypatch.setattr(model.BandRates, "builder", counted_builder)
        compare_results(summary.stochastic, summary.reference, workers)
        assert 1 <= len(built) <= workers
        assert built == [2] * len(built)

    def test_a_scoring_error_on_a_pool_thread_reaches_the_caller(
        self, monkeypatch
    ):
        fmaps_l, fmaps_r = feature_pair(37)
        volume = build_likelihood_volume(fmaps_l, fmaps_r, PARAMS)
        reference, run = reference_infer(volume), run_stochastic_grid(volume, 8, 0)
        distributions = metrics._distributions
        failed = threading.Event()

        def fail_off_the_main_thread(*args):
            if threading.current_thread() is threading.main_thread():
                failed.wait(timeout=60)  # a pool thread draws a block first
            else:
                failed.set()
                raise RuntimeError("pooled block failed")
            return distributions(*args)

        monkeypatch.setattr(model, "RACE_BLOCK", 80)  # 19 bands
        monkeypatch.setattr(metrics, "_distributions", fail_off_the_main_thread)
        with pytest.raises(RuntimeError, match="pooled block"):
            compare_results(run, reference, workers=2)

    @pytest.mark.parametrize("workers", [0, -3])
    @pytest.mark.parametrize(
        "stage", ["volume", "band_pass", "engine", "compare"]
    )
    def test_every_stage_rejects_a_nonpositive_worker_count(self, stage, workers):
        fmaps = feature_pair(5)
        volume = build_likelihood_volume(*fmaps, PARAMS)
        reference, run = reference_infer(volume), run_stochastic_grid(volume, 8, 0)
        calls = {
            "volume": lambda: build_likelihood_volume(*fmaps, PARAMS, workers),
            "band_pass": lambda: model._walk_bands(
                [model.BandRates(*fmaps, PARAMS)], lambda k, rows, band: None, workers
            ),
            "engine": lambda: run_stochastic_grid(volume, 8, 0, workers=workers),
            "compare": lambda: compare_results(run, reference, workers),
        }
        with pytest.raises(ValueError, match="worker count must be positive"):
            calls[stage]()

    # a forked child is what is under test; Python 3.12 warns on any fork of
    # a process with threads
    @pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")
    def test_a_forked_child_runs_threaded_stages(self):
        fmaps_l, fmaps_r = feature_pair(37)
        # the parent has run a pool before it forks
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


@pytest.fixture
def caller_bufsize():
    """The calling thread at a ufunc buffer of 4096 elements, neither numpy's
    default (8192) nor the rate builder's; restored afterwards."""
    previous = np.setbufsize(4096)
    try:
        yield 4096
    finally:
        np.setbufsize(previous)


def fresh_thread_bufsize():
    seen = []
    thread = threading.Thread(target=lambda: seen.append(np.getbufsize()))
    thread.start()
    thread.join()
    return seen[0]


class TestUfuncBufferSize:
    """The rate builder runs its sub-band kernels at numpy's smallest ufunc
    buffer; the size never leaks to its caller or to any other kernel."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("mode", ["reference", "stochastic", "both"])
    def test_band_pass_restores_the_callers_size(
        self, monkeypatch, caller_bufsize, mode, workers
    ):
        monkeypatch.setattr(model, "RACE_BLOCK", 80)  # 19 2-row bands
        bands = model.BandRates(*feature_pair(37), PARAMS)
        engine._band_pass(bands, mode, 8, 1, workers=workers)
        assert np.getbufsize() == caller_bufsize

    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_race_runs_at_its_threads_size(
        self, monkeypatch, caller_bufsize, workers
    ):
        monkeypatch.setattr(model, "RACE_BLOCK", 80)
        seen, race = [], engine._race

        def spy(*args):
            seen.append((threading.current_thread() is threading.main_thread(),
                         np.getbufsize()))
            return race(*args)

        monkeypatch.setattr(engine, "_race", spy)
        bands = model.BandRates(*feature_pair(37), PARAMS)
        engine._band_pass(bands, "both", 8, 1, workers=workers)
        pool_thread_size = fresh_thread_bufsize()
        assert len(seen) == 19
        assert pool_thread_size != model._SUB_BAND_BUFSIZE
        for on_caller, size in seen:
            assert size == (caller_bufsize if on_caller else pool_thread_size)

    def test_an_interrupt_in_a_sub_band_restores_the_callers_size(
        self, caller_bufsize
    ):
        seen = []

        class InterruptedTable:
            def take(self, *args, **kwargs):
                seen.append(np.getbufsize())
                raise KeyboardInterrupt

        rates = model.BandRates(*feature_pair(5), PARAMS)
        rates.pair = InterruptedTable()
        build = rates.builder(2)
        with pytest.raises(KeyboardInterrupt):
            build(slice(0, 2))
        assert seen == [model._SUB_BAND_BUFSIZE]
        assert np.getbufsize() == caller_bufsize

    def test_rates_do_not_depend_on_the_callers_size(self):
        fmaps = feature_pair(37)
        want = build_likelihood_volume(*fmaps, PARAMS).rates.view(np.uint64)
        for size in (16, 8192, 2**20):
            previous = np.setbufsize(size)
            try:
                got = build_likelihood_volume(*fmaps, PARAMS).rates
            finally:
                np.setbufsize(previous)
            assert np.array_equal(got.view(np.uint64), want), size
