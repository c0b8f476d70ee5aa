"""Bit-exact simulator of a stochastic-bitstream Bayesian machine applied to
binocular disparity, with a floating-point reference oracle and hardware
speed/power estimation."""

from .bitstream import BitSource, and_product
from .dump import read_dump, write_dump
from .engine import CountGrid, StochasticResult, run_stochastic_grid
from .machine import (
    FusionSpec,
    Machine,
    MachineResult,
    build_machine,
    run_machine,
)
from .metrics import (
    AccuracyReport,
    HardwareEstimate,
    f1_nomatch,
    hardware_estimate,
    rms_distribution_error,
    sweep_counter_sizes,
    sweep_to_csv,
)
from .pgm import load_image, save_image
from .model import (
    FeatureMaps,
    LikelihoodVolume,
    ModelParams,
    build_likelihood_volume,
    build_pixel_spec,
    compute_features,
    likelihood,
    nomatch_probability,
)
from .pipeline import PipelineSummary, RunConfig, render_disparity, run_pipeline
from .reference import ReferenceResult, reference_infer
from .synthetic import natural_scene_pair, planted_shift_pair, textured_base

__version__ = "0.1.0"
