"""Accuracy metrics, counter-size sweeps and hardware projections."""

import numpy as np
import pytest

from stochastic_disparity.metrics import (
    SWEEP_CSV_HEADER,
    f1_nomatch,
    hardware_estimate,
    rms_distribution_error,
    sweep_counter_sizes,
    sweep_to_csv,
)
from stochastic_disparity.model import ModelParams
from stochastic_disparity.synthetic import planted_shift_pair


class TestRmsDistributionError:
    def test_identical_inputs_give_zero(self):
        a = np.random.default_rng(0).random((3, 4, 5))
        assert rms_distribution_error(a, a.copy()) == 0.0

    def test_hand_computed_value(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        assert rms_distribution_error(a, b) == pytest.approx(1.0)

    def test_mask_restricts_pixels(self):
        a = np.zeros((2, 1, 2))
        b = np.zeros((2, 1, 2))
        b[1] = 1.0
        mask = np.array([[True], [False]])
        assert rms_distribution_error(a, b, mask) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            rms_distribution_error(np.zeros((2, 2)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            rms_distribution_error(
                np.zeros((2, 1, 2)), np.zeros((2, 1, 2)), np.zeros((2, 1), bool)
            )


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
