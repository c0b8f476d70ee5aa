"""End-to-end acceptance gate.

Each test pins one externally meaningful behavior of the simulator at a
stated tolerance: hardware-projection arithmetic, gate-level encoding
accuracy, MAP convergence, counter-size accuracy/latency scaling, cycle
statistics on natural-texture scenes, occlusion handling, agreement with
the exact inference oracle, and bit-level reproducibility of artifacts.
"""

import numpy as np
import pytest
from scipy import stats

import stochastic_disparity as sd
from stochastic_disparity.bitstream import BitSource, and_product, stream_seed
from stochastic_disparity.machine import FusionSpec, build_machine, run_machine
from stochastic_disparity.cli import EXIT_OK, main
from stochastic_disparity.model import LikelihoodVolume, ModelParams


class TestCriterion1HardwareProjection:
    def test_working_point_arithmetic(self):
        est = sd.hardware_estimate(
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


class TestCriterion2GateAccuracy:
    def test_and_rate_matches_product_on_probability_grid(self):
        # 11x11 grid of operand probabilities, one million bits per point,
        # observed 1-rate within 3 binomial standard deviations of p1*p2.
        # At 3 sigma roughly 0.3% of points fail by chance; allow 2 of 121.
        n = 1_000_000
        grid = np.linspace(0.0, 1.0, 11)
        failures = 0
        for i, p1 in enumerate(grid):
            for j, p2 in enumerate(grid):
                a = BitSource.from_seed(p1, master_seed=1000 + i, index=0).emit(n)
                b = BitSource.from_seed(p2, master_seed=2000 + j, index=1).emit(n)
                ones = int(and_product(a, b).sum())
                expect = p1 * p2
                sigma = np.sqrt(n * expect * (1 - expect))
                if abs(ones - n * expect) > 3.0 * sigma:
                    failures += 1
        assert failures <= 2

    def test_degenerate_operands_are_exact(self):
        ones = BitSource.from_seed(1.0, 0).emit(1000)
        zeros = BitSource.from_seed(0.0, 0).emit(1000)
        assert and_product(ones, zeros).sum() == 0
        assert and_product(ones, ones).sum() == 1000


def race_z(products: np.ndarray, n_max: int) -> float:
    """Normal approximation of the winner margin at the expected stop cycle."""
    order = np.argsort(products)[::-1]
    p1, p2 = products[order[0]], products[order[1]]
    t = n_max / p1
    mean = t * (p1 - p2)
    var = t * (p1 * (1 - p1) + p2 * (1 - p2))
    return float(mean / np.sqrt(var)) if var > 0 else np.inf


def sample_separated_specs(count: int, n_max: int, seed: int):
    """Random fusion problems whose top channel is statistically separable.

    Keeps specs whose best product beats the runner-up by at least 5%
    relative margin and whose race margin at the expected stop cycle is at
    least 3.5 standard deviations; below that, finite-counter ties are
    expected physics, not a defect.
    """
    rng = np.random.default_rng(seed)
    kept = []
    while len(kept) < count:
        m = int(rng.integers(2, 6))
        n = int(rng.integers(1, 4))
        table = rng.uniform(0.05, 1.0, size=(n, m))
        products = table.prod(axis=0)
        order = np.argsort(products)[::-1]
        gap = 1 - products[order[1]] / products[order[0]]
        if gap < 0.05 or race_z(products, n_max) < 3.5:
            continue
        spec = FusionSpec(
            prior=np.ones(m), term_table=table, bus_constants=np.ones(n + 1)
        )
        kept.append((spec, int(np.argmax(products))))
    return kept


class TestCriterion3MapConvergence:
    def test_separable_specs_pick_the_true_argmax(self):
        n_max = 256
        for spec, truth in sample_separated_specs(50, n_max, seed=7):
            wins = 0
            for run_seed in range(100):
                result = run_machine(build_machine(spec, run_seed), n_max)
                assert not result.timed_out
                wins += result.winner == truth
            assert wins >= 98


@pytest.fixture(scope="module")
def counter_sweep():
    """One scene with genuine occlusions, swept across counter sizes."""
    params = ModelParams(d_max=16)
    left, right = sd.planted_shift_pair(64, 64, 5, seed=9, noise_sigma=35.0)
    patch = sd.textured_base(18, 18, seed=100)
    left = left.copy()
    left[20:38, 36:54] = patch  # left-only content with no right counterpart
    volume = sd.build_likelihood_volume(
        sd.compute_features(left), sd.compute_features(right), params
    )
    ref = sd.reference_infer(volume)
    n_values = [1, 4, 16, 64, 256]
    rms, f1, cycles = [], [], []
    for n_max in n_values:
        res = sd.run_stochastic_grid(volume, n_max, master_seed=5)
        both = ~ref.no_match & ~res.no_match & ~res.timed_out
        rms.append(
            sd.rms_distribution_error(
                res.readout()[..., : params.d_max + 1],
                ref.norm_scores[..., : params.d_max + 1],
                both,
            )
        )
        f1.append(sd.f1_nomatch(ref.no_match, res.no_match))
        cycles.append(res.cycles.mean())
    return n_values, rms, f1, cycles, ref


class TestCriterion4AccuracyVsCounterSize:
    def test_distribution_error_decreases_monotonically(self, counter_sweep):
        n_values, rms, _, _, _ = counter_sweep
        rho = stats.spearmanr(n_values, rms).statistic
        assert rho <= -0.9

    def test_occlusion_detection_improves_monotonically(self, counter_sweep):
        n_values, _, f1, _, ref = counter_sweep
        assert ref.no_match.any() and not ref.no_match.all()
        rho = stats.spearmanr(n_values, f1).statistic
        assert rho >= 0.9
        assert f1[-1] >= 0.9


class TestCriterion5LatencyScaling:
    def test_mean_cycles_linear_in_counter_size(self, counter_sweep):
        n_values, _, _, cycles, _ = counter_sweep
        fit = stats.linregress(n_values[:4], cycles[:4])
        assert fit.rvalue**2 >= 0.99
        assert fit.slope > 0


class TestCriterion6NaturalSceneCycleBudget:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cycle_means_sit_in_the_expected_bands(self, seed):
        params = ModelParams()  # full 0..80 range, default noise model
        left, right = sd.natural_scene_pair(100, 150, 12, seed)
        volume = sd.build_likelihood_volume(
            sd.compute_features(left), sd.compute_features(right), params
        )
        res1 = sd.run_stochastic_grid(volume, 1, master_seed=seed)
        res16 = sd.run_stochastic_grid(volume, 16, master_seed=seed)
        assert not res1.timed_out.any() and not res16.timed_out.any()
        n1 = res1.cycles.mean()
        n16 = res16.cycles.mean()
        assert 1.5 <= n1 <= 4.0
        assert 18.0 <= n16 <= 45.0


class TestCriterion7OcclusionLimit:
    def test_featureless_volume_resolves_to_no_match(self):
        params = ModelParams(d_max=8)
        rates = np.full((3, 4, 10), params.p0 * params.p0 * params.p0)
        rates[..., -1] = params.p_nm0
        volume = LikelihoodVolume(rates, params)

        ref = sd.reference_infer(volume)
        assert ref.no_match.all()
        assert np.all(ref.map_disparity == -1)

        n_max = 16
        res = sd.run_stochastic_grid(volume, n_max, master_seed=0)
        assert not res.timed_out.any()
        assert res.no_match.all()
        assert np.all(res.map_disparity == -1)
        # dominant channel rate is p_nm0, so the mean stop time must stay
        # within a factor of two of n_max / p_nm0
        assert res.cycles.mean() <= 2.0 * n_max / params.p_nm0


class TestCriterion8AgreementWithExactInference:
    def test_stochastic_map_tracks_the_oracle(self):
        params = ModelParams()
        left, right = sd.planted_shift_pair(150, 30, 12, seed=21, noise_sigma=0.0)
        volume = sd.build_likelihood_volume(
            sd.compute_features(left), sd.compute_features(right), params
        )
        ref = sd.reference_infer(volume)
        assert (ref.map_disparity == 12).mean() >= 0.99
        res = sd.run_stochastic_grid(volume, 16, master_seed=7)
        agreement = (res.map_disparity == ref.map_disparity).mean()
        assert agreement >= 0.9


class TestCriterion9Reproducibility:
    def test_identical_runs_emit_byte_identical_artifacts(self, tmp_path):
        left, right = sd.planted_shift_pair(40, 14, 4, seed=3, noise_sigma=18.0)
        lp, rp = tmp_path / "l.pgm", tmp_path / "r.pgm"
        sd.save_image(lp, left)
        sd.save_image(rp, right)

        def run(tag):
            args = [
                "disparity",
                "--left",
                str(lp),
                "--right",
                str(rp),
                "--d-max",
                "8",
                "--n-max",
                "16",
                "--seed",
                "11",
                "--ref-out",
                str(tmp_path / f"ref{tag}.pgm"),
                "--stoch-out",
                str(tmp_path / f"sto{tag}.pgm"),
                "--dump-out",
                str(tmp_path / f"dump{tag}.bin"),
            ]
            assert main(args) == EXIT_OK

        run("a")
        run("b")
        for stem, ext in (("ref", "pgm"), ("sto", "pgm"), ("dump", "bin")):
            a = (tmp_path / f"{stem}a.{ext}").read_bytes()
            b = (tmp_path / f"{stem}b.{ext}").read_bytes()
            assert a == b, f"{stem} artifact differs between identical runs"

    def test_sweep_csv_is_deterministic(self):
        left, right = sd.planted_shift_pair(36, 12, 4, seed=6, noise_sigma=20.0)
        params = ModelParams(d_max=8)
        a = sd.sweep_to_csv(
            sd.sweep_counter_sizes(left, right, params, [1, 16], seeds=[0, 1])
        )
        b = sd.sweep_to_csv(
            sd.sweep_counter_sizes(left, right, params, [1, 16], seeds=[0, 1])
        )
        assert a == b

    def test_seed_derivation_is_stable_across_processes(self):
        # the seed tree is pure arithmetic on (master, key), so the first
        # bits of a few fixed streams are frozen here as a regression pin
        src = BitSource(0.5, np.random.default_rng(stream_seed(0, 1, 2)))
        assert src.emit(8).tolist() == self._expected_first_bits()

    @staticmethod
    def _expected_first_bits():
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=0, spawn_key=(1, 2))
        )
        return (rng.random(8) < 0.5).astype(int).tolist()
