"""Command-line front end.

Subcommands:
  disparity  run the reference and/or stochastic engine on a stereo pair
  sweep      accuracy/runtime table over a list of counter sizes
  estimate   closed-form hardware speed and power projection
  compare    metrics between two distribution dump files

Machine-readable tables go to stdout or files; progress and cycle statistics
go to stderr. Exit codes: 0 success, 2 validation/usage error, 3 I/O error,
4 timeout fraction above the configured threshold.
"""

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .bitstream import DEFAULT_MAX_CYCLES
from .dump import DumpFormatError, read_dump
from .metrics import (
    DEFAULT_CLOCK_HZ,
    DEFAULT_GENERATOR_POWER_W,
    Readout,
    hardware_estimate,
    score_readouts,
    sweep_counter_sizes,
    sweep_to_csv,
)
from .model import ModelParams
from .pgm import ImageIOError, load_image
from .pipeline import MODES, RunConfig, run_pipeline

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_TIMEOUT = 4


def _add_param_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("model parameters")
    for f in fields(ModelParams):  # --d-max, --p0, --sigma-m, ...
        group.add_argument(
            "--" + f.name.replace("_", "-"), type=f.type, default=f.default
        )


def _params_from_args(args) -> ModelParams:
    return ModelParams(**{f.name: getattr(args, f.name) for f in fields(ModelParams)})


def _parse_crop(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("crop must be X,Y,W,H")
    return tuple(int(p) for p in parts)


def _cmd_disparity(args) -> int:
    config = RunConfig(
        left_path=Path(args.left),
        right_path=Path(args.right),
        params=_params_from_args(args),
        n_max=args.n_max,
        seed=args.seed,
        mode=args.mode,
        reference_image_out=Path(args.ref_out) if args.ref_out else None,
        stochastic_image_out=Path(args.stoch_out) if args.stoch_out else None,
        dump_out=Path(args.dump_out) if args.dump_out else None,
        crop=args.crop,
        max_cycles=args.max_cycles,
        workers=args.workers,
        timeout_warn_fraction=args.timeout_warn_fraction,
    )
    summary = run_pipeline(config)
    if summary.timeout_fraction > config.timeout_warn_fraction:
        return EXIT_TIMEOUT
    return EXIT_OK


def _cmd_sweep(args) -> int:
    left = load_image(args.left)
    right = load_image(args.right)
    n_max_values = [int(v) for v in args.n_max_list.split(",")]
    seeds = [args.seed + i for i in range(args.seeds)]
    reports = sweep_counter_sizes(
        left,
        right,
        _params_from_args(args),
        n_max_values,
        seeds,
        max_cycles=args.max_cycles,
        workers=args.workers,
    )
    csv_text = sweep_to_csv(reports)
    if args.out:
        Path(args.out).write_text(csv_text)
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


def _cmd_estimate(args) -> int:
    m = args.m if args.m is not None else args.d_max + 2
    est = hardware_estimate(
        m=m,
        n=args.n,
        mean_cycles_per_pixel=args.cycles_per_pixel,
        image_width=args.width,
        image_height=args.height,
        d_max=args.d_max,
        clock_hz=args.clock_hz,
        per_generator_power_watts=args.generator_power_uw * 1e-6,
    )
    print(f"n_generators={est.n_generators}")
    print(f"power_mw={est.power_watts * 1e3:.6g}")
    print(f"valid_pixels={est.valid_pixels}")
    print(f"cycles_per_pixel={est.cycles_per_pixel}")
    print(f"cycles_per_image={est.cycles_per_image:.2f}")
    print(f"frames_per_second={est.frames_per_second:.4f}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    ref = read_dump(args.reference_dump)
    sto = read_dump(args.stochastic_dump)
    if (ref.width, ref.height, ref.d_max) != (sto.width, sto.height, sto.d_max):
        raise ValueError("dumps cover different grids or disparity ranges")
    rms, f1, n_matched = score_readouts(
        *(Readout(d.counts, d.n_max, d.outcome) for d in (sto, ref))
    )
    print("rms,f1,n_matched")
    print(f"{rms:.6f},{f1:.6f},{n_matched}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochdisp",
        description="Stochastic-bitstream Bayesian disparity simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_disp = sub.add_parser("disparity", help="run the disparity pipeline")
    p_disp.add_argument("--left", required=True)
    p_disp.add_argument("--right", required=True)
    p_disp.add_argument("--mode", choices=MODES, default="both")
    p_disp.add_argument("--n-max", type=int, default=16)
    p_disp.add_argument("--seed", type=int, default=0)
    p_disp.add_argument("--ref-out", help="reference disparity image (PGM)")
    p_disp.add_argument("--stoch-out", help="stochastic disparity image (PGM)")
    p_disp.add_argument("--dump-out", help="per-pixel count distribution dump")
    p_disp.add_argument("--crop", type=_parse_crop, help="X,Y,W,H input crop")
    p_disp.add_argument("--max-cycles", type=int, default=DEFAULT_MAX_CYCLES)
    p_disp.add_argument("--workers", type=int, default=1)
    p_disp.add_argument("--timeout-warn-fraction", type=float, default=0.01)
    _add_param_args(p_disp)
    p_disp.set_defaults(func=_cmd_disparity)

    p_sweep = sub.add_parser("sweep", help="accuracy vs counter size table")
    p_sweep.add_argument("--left", required=True)
    p_sweep.add_argument("--right", required=True)
    p_sweep.add_argument(
        "--n-max-list", default="1,4,16,64,256", help="comma-separated counter sizes"
    )
    p_sweep.add_argument("--seeds", type=int, default=1, help="number of seeds")
    p_sweep.add_argument("--seed", type=int, default=0, help="first master seed")
    p_sweep.add_argument("--max-cycles", type=int, default=DEFAULT_MAX_CYCLES)
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--out", help="CSV output path (default stdout)")
    _add_param_args(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_est = sub.add_parser("estimate", help="hardware speed/power projection")
    p_est.add_argument("--n", type=int, default=3, help="data terms per pixel")
    p_est.add_argument(
        "--m", type=int, help="machine rows (default d_max + 2)"
    )
    p_est.add_argument("--d-max", type=int, default=80)
    p_est.add_argument("--cycles-per-pixel", type=float, required=True)
    p_est.add_argument("--width", type=int, default=640)
    p_est.add_argument("--height", type=int, default=480)
    p_est.add_argument("--clock-hz", type=float, default=DEFAULT_CLOCK_HZ)
    p_est.add_argument(
        "--generator-power-uw",
        type=float,
        default=DEFAULT_GENERATOR_POWER_W * 1e6,
        help="per-generator power in microwatts",
    )
    p_est.set_defaults(func=_cmd_estimate)

    p_cmp = sub.add_parser("compare", help="metrics between two dumps")
    p_cmp.add_argument("reference_dump")
    p_cmp.add_argument("stochastic_dump")
    p_cmp.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ImageIOError, DumpFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
