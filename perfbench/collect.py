"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py [--workloads A,B] [--seeds 1-10] [--trace 0|1]
                                 [--out perfbench/results/BENCH_<tag>.json]

Each run is `run.py --workload W --seed S --seconds <run_seconds> --trace T`,
one at a time. For every metric the summary gives the median and quartiles
over the seeds (`statistics.quantiles(n=4)`) and the spread, the distance
between the quartiles as a share of the median. An end-to-end metric other
than setup_s is `steady` when its spread is below a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}")
    meta_line, result_line = done.stdout.strip().splitlines()[-2:]
    return {"meta": json.loads(meta_line)["meta"], **json.loads(result_line)}


def summarise(runs, declared) -> dict:
    out = {}
    for m in declared:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / abs(median) if median else 0.0
        entry = {"unit": m["unit"], "median": median, "q1": q1, "q3": q3,
                 "spread": spread}
        if "bound" in m:
            entry["bound"] = m["bound"]
            entry["steady"] = m["name"] == "setup_s" or spread < m["bound"] / 3
        out[m["name"]] = entry
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)
    workloads = args.workloads.split(",")
    declared = spec["per_layer" if args.trace else "end_to_end"]

    runs = {w: [] for w in workloads}
    for seed in parse_seeds(args.seeds):
        for w in workloads:
            r = run_once(w, seed, spec["run_seconds"], args.trace)
            runs[w].append(r)
            print(f"{w} seed {seed}: correct={r['correct']} "
                  f"frames={r['meta']['frames']}", file=sys.stderr, flush=True)

    report = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for w, rs in runs.items():
        summary = summarise(rs, declared)
        report["workloads"][w] = {
            "correct": all(r["correct"] for r in rs),
            "summary": summary,
            "runs": rs,
        }
        print(f"\n{w}  (all correct: {report['workloads'][w]['correct']})")
        for name, e in summary.items():
            flag = "" if e.get("steady", True) else "  NOT STEADY"
            bound = f" bound {e['bound']}" if "bound" in e else ""
            print(f"  {name:28s} {e['median']:14.6g} {e['unit']:9s} "
                  f"spread {e['spread']:.4f}{bound}{flag}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
