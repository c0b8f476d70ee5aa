"""Host-cost benchmark of the stochastic disparity simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process through the package's public API
(`run_pipeline`, `sweep_counter_sizes`) on inputs generated from `--seed` in a
separate process. One untimed warm-up frame is followed by timed frames until
`--seconds` have passed; every frame's outputs are checked and released
before the next frame starts. The last stdout line is the result object; the
line before it records the machine, versions, commit and inputs.

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json;
with `--trace 1` untraced and traced frames alternate and the metrics are the
per-layer ones, taken from spans around the calls into each layer.
"""

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from gen_inputs import PLANTED_SHIFT

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "stochastic_disparity"
OUT = HERE / "out"

SETUP_SAMPLES = 3
MIN_FRAMES = 3  # per kind of frame: untraced, and traced with --trace 1
D_MAX = 80
VGA = (640, 480)  # frame size for the hardware projection
CALIBRATION_STEPS = 2000
CALIBRATION_REF_S = 0.100  # median calibration on a quiet 2-vCPU x86_64 host

# Agreement floors, set below the lowest value seen over seeds 1-10 at the
# commit that introduced the benchmark. Natural and sweep floors apply to the
# stochastic MAP outcome against the oracle's; the planted floor to the
# oracle's MAP against the planted shift.
AGREEMENT_FLOOR = {
    "natural-200x150-n16": 0.86,  # lowest seen 0.892
    "planted-vga-oracle": 0.82,  # lowest seen 0.848
    "natural-200x150-sweep-w2": 0.92,  # lowest seen 0.946
}

# Simulated and accuracy metrics, which planted-vga-oracle (no engine) lacks;
# it reports them as this neutral constant so every workload has every metric.
NOT_APPLICABLE = 1.0


def sha256_files(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def outcome_stats(stochastic, reference) -> dict:
    """Simulated and accuracy statistics of one stochastic run."""
    from stochastic_disparity.metrics import compare_results

    cycles = stochastic.cycles
    acc = compare_results(stochastic, reference)
    return {
        "cycles_mean": float(cycles.mean()),
        "cycles_p50": float(np.percentile(cycles, 50)),
        "cycles_p99": float(np.percentile(cycles, 99)),
        "map_agreement": float(
            np.mean(stochastic.map_disparity == reference.map_disparity)
        ),
        "nomatch_f1": acc.f1_nomatch,
        "rms_error": acc.rms_error,
    }


class NaturalN16:
    """The paper's working point: both engines, all three artifacts."""

    scene = "natural-200x150"
    workers = 1

    def prepare(self, sd, inputs: Path, work: Path, seed: int) -> None:
        self.sd = sd
        self.artifacts = [work / "ref.pgm", work / "stoch.pgm", work / "dump.sdsp"]
        self.config = sd.RunConfig(
            inputs / "left.pgm", inputs / "right.pgm",
            params=sd.ModelParams(d_max=D_MAX), n_max=16, seed=seed, mode="both",
            workers=self.workers,
            reference_image_out=self.artifacts[0],
            stochastic_image_out=self.artifacts[1],
            dump_out=self.artifacts[2],
        )
        self.devnull = open(os.devnull, "w")

    def frame(self):
        for p in self.artifacts:
            p.unlink(missing_ok=True)
        return self.sd.run_pipeline(self.config, log=self.devnull)

    def inspect(self, summary) -> dict:
        sto = summary.stochastic
        stats = outcome_stats(sto, summary.reference)
        stats.update(
            pixels=int(sto.cycles.size),
            timeouts=int(summary.n_timeouts),
            cycles=int(sto.cycles.sum()),
            agreement=stats["map_agreement"],
            digest=sha256_files(*self.artifacts),
        )
        return stats

    def read_back(self, summary, tracer) -> list:
        """Read the dump just written, in a span of its own."""
        with tracer.span("dump.read"):
            dump = self.sd.read_dump(self.artifacts[2])
        if not (dump.counts == summary.stochastic.counts).all():
            return ["dump read back differs from the run's counts"]
        return []


class PlantedVgaOracle:
    """VGA frame through features, volume and the oracle; no engine."""

    scene = "planted-640x480"
    workers = 1

    def prepare(self, sd, inputs: Path, work: Path, seed: int) -> None:
        self.sd = sd
        self.artifact = work / "ref.pgm"
        self.config = sd.RunConfig(
            inputs / "left.pgm", inputs / "right.pgm",
            params=sd.ModelParams(d_max=D_MAX), seed=seed, mode="reference",
            reference_image_out=self.artifact,
        )
        self.devnull = open(os.devnull, "w")

    def frame(self):
        self.artifact.unlink(missing_ok=True)
        return self.sd.run_pipeline(self.config, log=self.devnull)

    def inspect(self, summary) -> dict:
        ref = summary.reference
        return {
            "pixels": int(ref.map_disparity.size),
            "timeouts": 0,
            "agreement": float((ref.map_disparity == PLANTED_SHIFT).mean()),
            "digest": sha256_files(self.artifact),
        }


class SweepW2:
    """Counter-size sweep n_max 1 and 64 over a two-process pool."""

    scene = "natural-200x150"
    n_max_values = (1, 64)
    workers = 2

    def prepare(self, sd, inputs: Path, work: Path, seed: int) -> None:
        self.sd = sd
        self.seed = seed
        self.params = sd.ModelParams(d_max=D_MAX)
        self.left = sd.load_image(inputs / "left.pgm")
        self.right = sd.load_image(inputs / "right.pgm")
        # One direct run at the largest counter size gives the per-pixel
        # statistics that the sweep's report does not carry.
        volume = sd.build_likelihood_volume(
            sd.compute_features(self.left), sd.compute_features(self.right),
            self.params,
        )
        sto = sd.run_stochastic_grid(
            volume, self.n_max_values[-1], seed, workers=self.workers
        )
        self.direct = outcome_stats(sto, sd.reference_infer(volume))
        self.pixels = int(sto.cycles.size)

    def frame(self, workers=None):
        return self.sd.sweep_counter_sizes(
            self.left, self.right, self.params, list(self.n_max_values),
            [self.seed], workers=workers or self.workers,
        )

    def inspect(self, reports) -> dict:
        last = reports[-1]
        stats = dict(self.direct)
        stats.update(
            pixels=self.pixels * len(reports),
            timeouts=sum(r.n_timeout for r in reports),
            cycles=sum(r.cycles_mean * self.pixels for r in reports),
            agreement=self.direct["map_agreement"],
            digest=hashlib.sha256(self.sd.sweep_to_csv(reports).encode()).hexdigest(),
        )
        # The sweep and the direct run share seed and volume, so they match.
        same = (last.rms_error, last.f1_nomatch, last.cycles_mean) == (
            self.direct["rms_error"], self.direct["nomatch_f1"],
            self.direct["cycles_mean"],
        )
        stats["problems"] = [] if same else ["sweep report differs from a direct run"]
        return stats


WORKLOADS = {
    "natural-200x150-n16": NaturalN16,
    "planted-vga-oracle": PlantedVgaOracle,
    "natural-200x150-sweep-w2": SweepW2,
}


def _calibration_kernel(rates) -> float:
    t0 = time.perf_counter()
    for i in range(CALIBRATION_STEPS):
        rng = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(i,)))
        np.cumsum(rng.random((D_MAX + 2, 64)) < rates, axis=1).argmax()
    return time.perf_counter() - t0


def _calibration_worker(conn) -> None:
    rates = np.linspace(0.01, 0.9, D_MAX + 2)[:, None]
    while conn.recv():
        conn.send(_calibration_kernel(rates))


class HostSpeed:
    """Scales wall times to a reference host speed.

    Other tenants of a shared host slow it in bursts of seconds to minutes,
    by up to half. A fixed piece of work shaped like the engine's per-pixel
    step (seed a generator, draw a block, take a cumulative sum) is timed
    after each measurement, on as many cores as the workload uses at once;
    the measurement is multiplied by CALIBRATION_REF_S over the mean of the
    calibrations on either side of it.
    """

    def __init__(self, cores: int):
        self._rates = np.linspace(0.01, 0.9, D_MAX + 2)[:, None]
        self._workers = []
        if cores > 1:
            # Forked, not spawned: a spawned child makes multiprocessing start
            # a resource-tracker process that outlives this one.
            ctx = multiprocessing.get_context("fork")
            for _ in range(cores):
                conn, child = ctx.Pipe()
                proc = ctx.Process(target=_calibration_worker, args=(child,))
                proc.start()
                self._workers.append((proc, conn))
        self.samples = []
        self.restart()

    def restart(self) -> None:
        """Take a fresh calibration before the next measurement."""
        self._last = self.calibrate()

    def calibrate(self) -> float:
        if self._workers:
            for _, conn in self._workers:
                conn.send(True)
            seconds = statistics.mean(conn.recv() for _, conn in self._workers)
        else:
            seconds = _calibration_kernel(self._rates)
        self.samples.append(seconds)
        return seconds

    def scale(self, seconds: float) -> float:
        """Scale a measurement that has just ended."""
        cal = self.calibrate()
        scaled = seconds * CALIBRATION_REF_S / ((self._last + cal) / 2)
        self._last = cal
        return scaled

    def close(self) -> None:
        for proc, conn in self._workers:
            try:
                conn.send(False)
            except OSError:
                pass
            proc.join(timeout=30)
            if proc.is_alive():
                proc.kill()
                proc.join()
            conn.close()
        self._workers = []


def child_pids() -> list:
    pids = []
    for task in Path("/proc/self/task").iterdir():
        try:
            pids += [int(p) for p in (task / "children").read_text().split()]
        except OSError:  # the thread has ended, or the kernel lacks the file
            pass
    return pids


def reap_children() -> None:
    """Kill and wait for any child process still running, so that none
    outlives the run whatever path it took out."""
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def measure_setup(host: HostSpeed) -> float:
    """Median time from interpreter start until the package is imported."""
    code = (
        f"import sys, time; sys.path.insert(0, {str(SRC)!r}); "
        "import stochastic_disparity; print(time.time())"
    )
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.time()
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, timeout=120,
        )
        samples.append(host.scale(float(done.stdout) - t0))
    return statistics.median(samples)


def generate_inputs(scene: str, seed: int, out: Path) -> None:
    subprocess.run(
        [sys.executable, str(HERE / "gen_inputs.py"), scene, str(seed), str(out)],
        check=True, timeout=170,
    )


def check_frame(name: str, stats: dict, first: dict) -> list:
    problems = list(stats.get("problems", []))
    if stats["digest"] != first["digest"]:
        problems.append("outputs differ from the warm-up frame with the same seed")
    if stats["timeouts"]:
        problems.append(f"{stats['timeouts']} timeouts")
    if stats["agreement"] < AGREEMENT_FLOOR[name]:
        problems.append(
            f"agreement {stats['agreement']:.4f} below {AGREEMENT_FLOOR[name]}"
        )
    return problems


class Run:
    """Frame loop, checks and tallies for one workload run."""

    def __init__(self, name, workload, host: HostSpeed):
        self.name = name
        self.host = host
        self.workload = workload
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.times = {False: [], True: []}  # keyed by traced; host-speed scaled
        self.raw = {False: [], True: []}  # the same frames' wall times

    def record(self, stats, seconds, traced) -> None:
        problems = check_frame(self.name, stats, self.first)
        self.attempted += stats["pixels"]
        self.failed += stats["pixels"] if problems else stats["timeouts"]
        self.problems += problems
        self.times[traced].append(seconds)

    def timed_frame(self, tracer=None, sd=None):
        """Run, time, check and release one frame; return traced spans."""
        mark = len(tracer.spans) if tracer else 0
        read_back = []
        try:
            if tracer is None:
                t0 = time.perf_counter()
                out = self.workload.frame()
                seconds = time.perf_counter() - t0
            else:
                with tracer.installed(sd), tracer.span("frame") as span:
                    out = self.workload.frame()
                seconds = span.duration
            scaled = self.host.scale(seconds)
            if tracer is not None and hasattr(self.workload, "read_back"):
                read_back = self.workload.read_back(out, tracer)
            stats = self.workload.inspect(out)
            del out
        except Exception:
            traceback.print_exc()
            self.attempted += self.first["pixels"]
            self.failed += self.first["pixels"]
            self.problems.append("frame raised")
            return None
        stats.setdefault("problems", []).extend(read_back)
        self.record(stats, scaled, tracer is not None)
        self.raw[tracer is not None].append(seconds)
        self.last = stats
        return tracer.spans[mark:] if tracer else None


def layer_values(spans) -> dict:
    """Per-layer numbers of one traced frame; spans[0] is the frame."""
    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def self_s(name):
        return sum(s.self_s for s in by.get(name, []))

    def attr(name, key):
        return sum(s.attrs.get(key, 0) for s in by.get(name, []))

    grid = by.get("engine.grid", [])
    grid_s = sum(s.duration for s in grid)
    pixels = attr("engine.grid", "pixels")
    # Per-pixel counters exist only where the engine ran in this process.
    counted = [s for s in grid if s.attrs.get("race_calls")]
    counted_px = sum(s.attrs["pixels"] for s in counted)
    race_calls = attr("engine.grid", "race_calls")
    draws = attr("engine.grid", "draws")

    def per(value, count, scale=1.0):
        return value / count * scale if count else 0.0

    values = {
        "pgm.load_s": self_s("pgm.load"),
        "pgm.save_s": self_s("pgm.save"),
        "dump.write_s": self_s("dump.write"),
        "dump.read_s": self_s("dump.read"),
        "dump.mb": attr("dump.write", "bytes") / 1e6,
        "model.features_s": self_s("model.features"),
        "model.volume_s": self_s("model.volume"),
        "model.volume_mb": attr("model.volume", "bytes") / 1e6,
        "model.volume_rss_delta_mb": (
            attr("model.volume", "rss_after") - attr("model.volume", "rss_before")
        ) / 1e6,
        "model.channel_rates_s": self_s("model.channel_rates"),
        "model.channel_rates_calls": len(by.get("model.channel_rates", [])),
        "reference.infer_s": self_s("reference.infer"),
        "engine.grid_s": grid_s,
        "engine.us_per_px": per(grid_s, pixels, 1e6),
        "engine.self_us_per_px": per(sum(s.self_s for s in counted), counted_px, 1e6),
        "bitstream.seed_us_per_px": per(
            sum(s.attrs.get("seed_s", 0.0) for s in counted), counted_px, 1e6
        ),
        "machine.race_us_per_call": per(attr("engine.grid", "race_s"), race_calls, 1e6),
        "machine.race_calls": race_calls,
        "machine.draw_efficiency": per(attr("engine.grid", "channel_cycles"), draws),
        "metrics.compare_s": self_s("metrics.compare"),
        "pipeline.self_s": spans[0].self_s,
        "trace.frame_s": spans[0].duration,
    }
    for s in grid:
        values[f"engine.nmax{s.attrs['n_max']}_us_per_px"] = per(
            s.duration, s.attrs["pixels"], 1e6
        )
    return values


def median_values(records) -> dict:
    keys = {k for r in records for k in r}
    return {k: statistics.median(r.get(k, 0.0) for r in records) for k in keys}


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted(PACKAGE.rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def environment(sd, args, inputs: Path) -> dict:
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "package": sd.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "inputs_sha256": sha256_files(inputs / "left.pgm", inputs / "right.pgm"),
    }


def end_to_end(run: Run, setup_s: float) -> dict:
    stats = run.last
    frame_s = statistics.median(run.times[False])
    values = {
        "setup_s": setup_s,
        "frame_s": frame_s,
        "pixels_per_s": stats["pixels"] / frame_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "pass_fraction": 1.0 - run.failed / run.attempted,
    }
    if "cycles" in stats:
        values["sim_cycles_per_host_s"] = stats["cycles"] / frame_s
        for key in ("cycles_mean", "cycles_p50", "cycles_p99",
                    "map_agreement", "nomatch_f1", "rms_error"):
            values[key] = stats[key]
        for key in ("cycles_mean", "cycles_p50", "cycles_p99"):
            values[key + ".floor"] = stats[key]
    return values


def per_layer(sd, run: Run, records: list, extra: dict) -> dict:
    values = median_values(records)
    values.update(extra)
    values["trace.overhead_s"] = (
        statistics.median(run.times[True]) - statistics.median(run.times[False])
    )
    cycles_mean = run.last.get("cycles_mean")
    values["metrics.projected_fps"] = (
        sd.hardware_estimate(D_MAX + 2, 3, cycles_mean, *VGA, D_MAX).frames_per_second
        if cycles_mean else 0.0
    )
    return values


def sweep_serial_trace(sd, run: Run, tracer, records) -> dict:
    """Trace the sweep once with one worker: the per-pixel layer counters
    (lost inside pool workers), the parallel speed-up and the check that the
    CSV does not depend on the worker count."""
    with tracer.installed(sd), tracer.span("frame"):
        mark = len(tracer.spans) - 1
        reports = run.workload.frame(workers=1)
    serial = layer_values(tracer.spans[mark:])
    if hashlib.sha256(sd.sweep_to_csv(reports).encode()).hexdigest() != run.first["digest"]:
        run.problems.append("sweep CSV differs between workers=1 and workers=2")
        run.failed = run.attempted
    pooled_grid_s = statistics.median(r["engine.grid_s"] for r in records)
    extra = {k: v for k, v in serial.items()
             if k.startswith(("engine.nmax", "engine.self", "bitstream.", "machine."))}
    extra["engine.parallel_speedup"] = serial["engine.grid_s"] / pooled_grid_s
    return extra


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    import stochastic_disparity as sd

    workload = WORKLOADS[args.workload]()
    host = None
    work = OUT / f"work-{os.getpid()}"
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    try:
        host = HostSpeed(workload.workers)
        setup_s = measure_setup(host)
        generate_inputs(workload.scene, args.seed, inputs)
        workload.prepare(sd, inputs, work, args.seed)
        run = Run(args.workload, workload, host)
        warm = workload.frame()
        run.first = workload.inspect(warm)
        del warm

        tracer = None
        records = []
        extra = {}
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        host.restart()
        start = time.perf_counter()
        while (
            time.perf_counter() - start < args.seconds
            or len(run.times[False]) < MIN_FRAMES
            or (tracer and len(run.times[True]) < MIN_FRAMES)
        ):
            run.timed_frame()
            if tracer:
                spans = run.timed_frame(tracer, sd)
                if spans:
                    records.append(layer_values(spans))
        if not run.times[False] or (tracer and not records):
            raise RuntimeError("every timed frame raised")
        if tracer and isinstance(workload, SweepW2):
            extra = sweep_serial_trace(sd, run, tracer, records)

        if tracer:
            values = per_layer(sd, run, records, extra)
            declared = spec["per_layer"]
            (OUT / f"trace-{args.workload}-{args.seed}.json").write_text(
                json.dumps([s.as_dict() for s in tracer.spans])
            )
        else:
            values = end_to_end(run, setup_s)
            declared = spec["end_to_end"]
        meta = environment(sd, args, inputs)
    finally:
        if host is not None:
            host.close()
        reap_children()
        shutil.rmtree(work, ignore_errors=True)

    times = run.times[bool(args.trace)]
    meta.update(
        frames=len(times),
        wall_frame_s_quartiles=statistics.quantiles(run.raw[bool(args.trace)], n=4),
        calibration_s_quartiles=statistics.quantiles(host.samples, n=4),
        frame_s_quartiles=statistics.quantiles(times, n=4),
        agreement=run.last["agreement"],
        problems=sorted(set(run.problems)),
        not_applicable=sorted(m["name"] for m in declared if m["name"] not in values),
    )
    metrics = {
        m["name"]: {"value": values.get(m["name"], NOT_APPLICABLE if not args.trace else 0.0),
                    "unit": m["unit"]}
        for m in declared
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
