"""Accuracy metrics, counter-size sweeps and hardware projections."""

import tracemalloc

import numpy as np
import pytest

from stochastic_disparity import metrics
from stochastic_disparity.engine import run_stochastic_grid
from stochastic_disparity.metrics import (
    SWEEP_CSV_HEADER,
    Readout,
    compare_results,
    f1_nomatch,
    hardware_estimate,
    rms_distribution_error,
    score_readouts,
    sweep_counter_sizes,
    sweep_to_csv,
)
from stochastic_disparity.model import (
    LikelihoodVolume,
    ModelParams,
    Outcome,
    _rows_per_band,
    build_likelihood_volume,
    compute_features,
)
from stochastic_disparity.reference import reference_infer
from stochastic_disparity.synthetic import natural_scene_pair, planted_shift_pair


class TestRmsDistributionError:
    def test_identical_inputs_give_zero(self):
        a = np.random.default_rng(0).random((3, 4, 5))
        assert rms_distribution_error(a, a.copy()) == 0.0

    def test_hand_computed_value(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        assert rms_distribution_error(a, b) == pytest.approx(1.0)

    def test_mask_restricts_pixels(self):
        # score_readouts differences only pixels that both sides matched and
        # neither timed out: 0 agrees, 1 is run no-match, 2 reference no-match,
        # 3 a run timeout, 4 a reference timeout. Pixel 0 reads (1, 0.5) on
        # both sides, each over its own peak; no-match channels differ.
        run = Readout(
            values=np.array([[[2, 1, 0], [0, 2, 2], [0, 2, 0], [0, 0, 0], [0, 2, 0]]]),
            outcome=Outcome(np.array([[0, 2, 1, -1, 1]]), d_max=1),
        )
        reference = Readout(
            values=np.tile([0.5, 0.25, 0.4], (1, 5, 1)),
            outcome=Outcome(np.array([[0, 0, 2, 0, -1]]), d_max=1),
        )
        rms, _, n_matched = score_readouts(run, reference)
        assert rms == 0.0
        assert n_matched == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            rms_distribution_error(np.zeros((2, 2)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            rms_distribution_error(np.zeros((0, 2)), np.zeros((0, 2)))


def grid_readouts(seed):
    """A counter run and an oracle over 30 x 100 pixels, three bands,
    d_max 8, with random outcomes: about one pixel in eleven a timeout of
    the run and one in eleven no-match. Each counter peaks at n_max 16 on
    its winner, and each oracle pixel at its winner's rate."""
    rng = np.random.default_rng(seed)
    shape, d_max = (30, 100), 8
    counts = rng.integers(0, 17, (*shape, d_max + 2)).astype(np.uint8)
    winner = rng.integers(-1, d_max + 2, shape)
    np.put_along_axis(counts, np.maximum(winner, 0)[..., None], 16, axis=2)
    run = Readout(counts, Outcome(winner, d_max))
    rates = rng.random((*shape, d_max + 2))
    rates[rng.random(shape) < 0.1, -1] = 1.0
    return run, Readout(rates, Outcome(rates.argmax(axis=2), d_max))


def whole_grid_rms(run, reference):
    """The RMS over the masked whole-grid distributions of both sides, each
    pixel over its own peak."""
    mask = (run.outcome.map_disparity >= 0) & (reference.outcome.map_disparity >= 0)
    dists = [r.values[..., :-1][mask] for r in (run, reference)]
    return rms_distribution_error(*(d / d.max(axis=1, keepdims=True) for d in dists))


class TestBlockwiseScore:
    @pytest.mark.parametrize(
        "sides",
        ["run_vs_oracle", "oracle_vs_run", "run_vs_run", "oracle_vs_oracle"],
    )
    def test_equals_the_whole_grid_rms(self, sides):
        (run, oracle), (run2, oracle2) = grid_readouts(0), grid_readouts(1)
        a, b = {
            "run_vs_oracle": (run, oracle),
            "oracle_vs_run": (oracle, run),
            "run_vs_run": (run, run2),
            "oracle_vs_oracle": (oracle, oracle2),
        }[sides]
        assert len(a.outcome.winner) > 2 * _rows_per_band(100)  # three bands
        rms, _, n_matched = score_readouts(a, b)
        assert rms == pytest.approx(whole_grid_rms(a, b), rel=1e-12, abs=0)
        assert 0 < n_matched < a.outcome.winner.size

    def test_no_matched_pixel_raises(self):
        run, oracle = grid_readouts(0)
        timed_out = run._replace(outcome=Outcome(np.full((30, 100), -1), 8))
        with pytest.raises(ValueError, match="no pixels to compare"):
            score_readouts(timed_out, oracle)

    def test_shape_mismatch_raises(self):
        run, oracle = grid_readouts(0)
        narrow = oracle._replace(values=oracle.values[..., 1:])
        with pytest.raises(ValueError, match="identical shapes"):
            score_readouts(run, narrow)

    def test_compare_holds_no_grid_sized_copy(self):
        # 38,400 valid pixels, 37.5 race blocks: one block's pair of float
        # distributions is about 5% of the rates
        rng = np.random.default_rng(0)
        volume = LikelihoodVolume(rng.random((160, 240, 82)), ModelParams(d_max=80))
        reference = reference_infer(volume)
        stochastic = run_stochastic_grid(volume, 1, master_seed=0)
        tracemalloc.start()
        try:
            report = compare_results(stochastic, reference)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.n_matched > 0
        assert peak < volume.rates.nbytes / 10


@pytest.fixture(scope="module")
def natural_volume():
    """5600 valid pixels of a natural pair at d_max 16, six race blocks."""
    left, right = natural_scene_pair(120, 60, 8, seed=1)
    return build_likelihood_volume(
        compute_features(left), compute_features(right), ModelParams(d_max=16)
    )


class TestPeakNormalisation:
    @pytest.mark.parametrize("n_max", [1, 16, 64])
    def test_equals_the_n_max_and_winning_score_division(self, natural_volume, n_max):
        # a pixel both sides match peaks at n_max on its counts and at the
        # winning score on its rates, so over its own peak it reads the same
        # bits as divided by those: already divided values score identically
        oracle = reference_infer(natural_volume)
        timed, free = (
            run_stochastic_grid(natural_volume, n_max, seed, max_cycles=cap)
            for seed, cap in ((0, 4 * n_max), (1, 10**7))
        )
        assert 0 < timed.timed_out.sum() < timed.winner.size / 10
        runs = {"timed": timed, "free": free}
        raw = {k: Readout(r.counts, r) for k, r in runs.items()}
        divided = {k: Readout(r.readout(), r) for k, r in runs.items()}
        raw["oracle"] = Readout(oracle.rates, oracle)
        divided["oracle"] = Readout(
            oracle.rates / oracle.rates.max(axis=2)[..., None], oracle
        )
        for run, reference in (("timed", "oracle"), ("timed", "free")):
            assert score_readouts(raw[run], raw[reference]) == score_readouts(
                divided[run], divided[reference]
            )


class TestCompareResults:
    def test_timeouts_count_as_missed_no_match(self, timeout_volume):
        reference = reference_infer(timeout_volume)
        stochastic = run_stochastic_grid(
            timeout_volume, 16, master_seed=0, max_cycles=50
        )
        assert list(reference.no_match[0]) == [False, True, True]
        assert list(stochastic.timed_out[0]) == [False, True, True]
        report = compare_results(stochastic, reference)
        assert report.f1_nomatch == 0.0
        assert (report.n_matched, report.n_timeout) == (1, 2)


class TestF1Nomatch:
    def test_identical_sets_score_one(self):
        flags = np.array([True, False, True])
        assert f1_nomatch(flags, flags.copy()) == 1.0

    def test_disjoint_sets_score_zero(self):
        assert f1_nomatch(np.array([True, False]), np.array([False, True])) == 0.0

    def test_both_empty_is_perfect(self):
        assert f1_nomatch(np.zeros(4, bool), np.zeros(4, bool)) == 1.0

    def test_partial_overlap(self):
        ref = np.array([True, True, False, False])
        sto = np.array([True, False, True, False])
        # tp=1, fp=1, fn=1 -> F1 = 2/(2+1+1)
        assert f1_nomatch(ref, sto) == pytest.approx(0.5)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            f1_nomatch(np.zeros(3, bool), np.zeros(4, bool))


class TestHardwareEstimate:
    def test_evaluated_working_point(self):
        # M=82, N=3, 50 uW/generator, 500 MHz, VGA frames, d_max 80 and the
        # measured 27.97 cycles/pixel
        est = hardware_estimate(
            m=82,
            n=3,
            mean_cycles_per_pixel=27.97,
            image_width=640,
            image_height=480,
            d_max=80,
        )
        assert est.n_generators == 246
        assert est.power_watts * 1e3 == pytest.approx(12.3)
        assert est.valid_pixels == 264_656
        assert est.cycles_per_image == pytest.approx(7_402_428.32)
        assert est.frames_per_second == pytest.approx(67.5, abs=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            hardware_estimate(0, 3, 1.0, 640, 480, 80)
        with pytest.raises(ValueError):
            hardware_estimate(82, 3, 0.0, 640, 480, 80)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                hardware_estimate(82, 3, bad, 640, 480, 80)
            with pytest.raises(ValueError):
                hardware_estimate(82, 3, 27.97, 640, 480, 80, clock_hz=bad)
            with pytest.raises(ValueError):
                hardware_estimate(
                    82, 3, 27.97, 640, 480, 80, per_generator_power_watts=bad
                )
        with pytest.raises(ValueError):
            # too narrow for the disparity range: no valid pixels
            hardware_estimate(82, 3, 1.0, 60, 480, 80)
        with pytest.raises(ValueError, match="too small"):
            # -74 columns by -2 rows: a positive product of impossible sides
            hardware_estimate(82, 3, 27.97, 10, 2, 80)


@pytest.fixture(scope="module")
def sweep_reports():
    left, right = planted_shift_pair(36, 12, 4, seed=6, noise_sigma=20.0)
    return sweep_counter_sizes(
        left, right, ModelParams(d_max=8), [1, 16], seeds=[0, 1]
    )


class TestSweep:
    def test_report_rows(self, sweep_reports):
        assert [r.n_max for r in sweep_reports] == [1, 16]
        assert all(r.cycles_mean > 0 for r in sweep_reports)
        assert sweep_reports[1].rms_error < sweep_reports[0].rms_error

    def test_csv_layout(self, sweep_reports):
        text = sweep_to_csv(sweep_reports)
        lines = text.strip().split("\n")
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "1"
        assert len(first) == 6
        float(first[1]), float(first[2])  # parseable metric columns

    def test_validation(self):
        left, right = planted_shift_pair(36, 12, 4, seed=6)
        with pytest.raises(ValueError):
            sweep_counter_sizes(left, right, ModelParams(d_max=8), [], [0])
        with pytest.raises(ValueError):
            sweep_counter_sizes(left, right, ModelParams(d_max=8), [1], [])

    @pytest.mark.parametrize(
        "n_max_values, seeds, workers, max_cycles, message",
        [
            ([4, 0], [0], 1, 100, "must be positive"),
            ([4, -2], [0], 1, 100, "must be positive"),
            ([4], [0], 0, 100, "worker count"),
            ([4], [0], -3, 100, "worker count"),
            ([4], [0], 1, 0, "max_cycles"),
            ([4], [0], 1, 2**63 - 1, "max_cycles"),
            ([4], [-1], 1, 100, "seed"),
        ],
        ids=[
            "n_max_0", "n_max_negative", "workers_0", "workers_negative",
            "max_cycles_0", "max_cycles_beyond_int64", "seed_negative",
        ],
    )
    def test_bad_arguments_fail_before_any_work(
        self, n_max_values, seeds, workers, max_cycles, message, monkeypatch
    ):
        def no_work(image):
            raise AssertionError("features computed before validation")

        monkeypatch.setattr(metrics, "compute_features", no_work)
        left, right = planted_shift_pair(36, 12, 4, seed=6)
        with pytest.raises(ValueError, match=message):
            sweep_counter_sizes(
                left, right, ModelParams(d_max=8), n_max_values, seeds,
                max_cycles=max_cycles, workers=workers,
            )
