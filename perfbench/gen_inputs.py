"""Write a workload's stereo pair as left.pgm / right.pgm.

Runs in its own process so that the generator's transient memory (about
1.6 GB for the natural scene) stays out of the measured process's peak RSS.

    python3 perfbench/gen_inputs.py {natural-200x150|planted-640x480} SEED OUT_DIR
"""

import sys
from pathlib import Path

PLANTED_SHIFT = 20


def make_pair(sd, scene: str, seed: int):
    if scene == "natural-200x150":
        return sd.natural_scene_pair(200, 150, 12, seed)
    if scene == "planted-640x480":
        return sd.planted_shift_pair(640, 480, PLANTED_SHIFT, seed, noise_sigma=8)
    raise ValueError(f"unknown scene {scene!r}")


def main(argv) -> int:
    scene, seed, out = argv
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import stochastic_disparity as sd

    left, right = make_pair(sd, scene, int(seed))
    sd.save_image(Path(out) / "left.pgm", left)
    sd.save_image(Path(out) / "right.pgm", right)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
