"""The determinism contract: the same inputs and seed give the same artifact
bytes, at any worker count.

numpy promises no `Generator` stream across versions (NEP 19), so the bytes
are pinned for the numpy major.minor that recorded
`data/artifact_digests.json`. The file holds the sha256 of every artifact of
each case below: the reference and stochastic images, the dump, the stderr
cycles line and the sweep CSV. It is keyed by that numpy version and by
`RACE_BLOCK`, a term of the contract. On another numpy minor the digest check
skips; the check that every worker count gives the serial run's bytes runs on
every version. A regeneration is a reviewed change, recorded in CHANGES.md:

    PYTHONPATH=src python tests/test_artifact_digests.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from stochastic_disparity import model
from stochastic_disparity.cli import EXIT_OK, EXIT_TIMEOUT, main
from stochastic_disparity.pgm import save_image
from stochastic_disparity.synthetic import natural_scene_pair, planted_shift_pair

RECORD = Path(__file__).parent / "data" / "artifact_digests.json"
WORKERS = (1, 2, 3)
SEED = 3
N_MAX = (1, 16, 64)
SWEEP_N_MAX = "1,16"
TIMEOUT_N_MAX = 16  # raced at --max-cycles 4 * n_max, where many pixels time out

# name: (pair, d_max); the 120x40 pair has 4 bands of 11 rows (the last of
# 3), the natural one 17 bands of 9 rows (the last of 2). The 700x24 pair has
# 10 bands of 2 rows 616 valid pixels wide: wider than one sub-band of the
# rate builder (`model._SUB_BAND`) and no multiple of it, so each row is built
# in two runs
PAIRS = {
    "natural-200x150": (lambda: natural_scene_pair(200, 150, 12, 1), 80),
    "planted-120x40": (
        lambda: planted_shift_pair(120, 40, 5, 3, noise_sigma=20), 16
    ),
    "planted-700x24": (
        lambda: planted_shift_pair(700, 24, 20, 3, noise_sigma=20), 80
    ),
}


def numpy_minor() -> str:
    return ".".join(np.__version__.split(".")[:2])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv) -> tuple:
    """`main(argv)` in this process: its exit code and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = main(argv)
    return status, err.getvalue()


def artifact_digests(work: Path, workers: int) -> dict:
    """Case name -> artifact name -> sha256, every case run at `workers`."""
    digests = {}
    for name, (make_pair, d_max) in PAIRS.items():
        left, right = work / f"{name}-left.pgm", work / f"{name}-right.pgm"
        for path, img in zip((left, right), make_pair()):
            save_image(path, img)
        common = ["--left", str(left), "--right", str(right), "--d-max", str(d_max),
                  "--seed", str(SEED), "--workers", str(workers)]
        runs = [(f"n{n}", n, []) for n in N_MAX]
        budget = 4 * TIMEOUT_N_MAX
        runs.append((f"n{TIMEOUT_N_MAX}-max-cycles-{budget}", TIMEOUT_N_MAX,
                     ["--max-cycles", str(budget)]))
        for case, n_max, extra in runs:
            outs = {
                a: work / f"{name}-{case}-{a}"
                for a in ("ref.pgm", "stoch.pgm", "dump.sdsp")
            }
            status, err = run(["disparity", *common, "--n-max", str(n_max), *extra,
                               "--ref-out", str(outs["ref.pgm"]),
                               "--stoch-out", str(outs["stoch.pgm"]),
                               "--dump-out", str(outs["dump.sdsp"])])
            assert status in (EXIT_OK, EXIT_TIMEOUT), err
            (cycles,) = [ln for ln in err.splitlines() if ln.startswith("cycles/")]
            digests[f"{name}/{case}"] = {
                **{a: sha256(path.read_bytes()) for a, path in outs.items()},
                "cycles": sha256(cycles.encode()),
            }
        csv = work / f"{name}-sweep.csv"
        status, err = run(
            ["sweep", *common, "--n-max-list", SWEEP_N_MAX, "--out", str(csv)]
        )
        assert status == EXIT_OK, err
        digests[f"{name}/sweep"] = {"sweep.csv": sha256(csv.read_bytes())}
    return digests


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    """Workers -> the digests of every case run at that worker count."""
    return {
        w: artifact_digests(tmp_path_factory.mktemp(f"w{w}"), w) for w in WORKERS
    }


def test_every_worker_count_writes_the_serial_bytes(digests):
    for workers in WORKERS[1:]:
        assert digests[workers] == digests[1], f"--workers {workers}"


def test_artifacts_match_the_recorded_digests(digests):
    record = json.loads(RECORD.read_text())
    # the bands' RACE_BLOCK is part of the contract on every numpy
    assert record["race_block"] == model.RACE_BLOCK, "RACE_BLOCK differs"
    if record["numpy"] != numpy_minor():
        pytest.skip(f"digests recorded on numpy {record['numpy']}, "
                    f"this is numpy {numpy_minor()}")
    moved = [
        f"{case} {artifact}"
        for case, want in record["digests"].items()
        for artifact, digest in want.items()
        if digests[1].get(case, {}).get(artifact) != digest
    ]
    assert not moved, "artifact bytes moved: " + ", ".join(moved)
    assert digests[1].keys() == record["digests"].keys()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        record = {
            "numpy": numpy_minor(),
            "race_block": model.RACE_BLOCK,
            "digests": artifact_digests(Path(work), 1),
        }
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {RECORD}", file=sys.stderr)
