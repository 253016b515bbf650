"""Mars-Rover-style stereo vision at 10 f/s.

Generates a rectified synthetic stereo pair, runs Tomasi-Kanade
feature extraction and Pilu SVD correspondence, reports the recovered
disparity field, and prices the pipeline at its Table 4 operating
points.

    python examples/stereo_vision.py
"""

import numpy as np

from repro.apps.stereo.pipeline import (
    StereoVisionPipeline,
    synthetic_stereo_pair,
)
from repro.power.model import PowerModel, savings_percent
from repro.workloads.configs import application


def main() -> None:
    true_disparity = 7
    left, right = synthetic_stereo_pair(disparity=true_disparity,
                                        seed=11)
    pipeline = StereoVisionPipeline(max_features=64)
    matches = pipeline.process(left, right)
    disparities = np.array([m.disparity for m in matches])
    correct = np.sum(np.abs(disparities - true_disparity) <= 1)
    print(f"256x256 stereo pair, true disparity {true_disparity} px")
    print(f"  features matched: {len(matches)}")
    print(f"  median recovered disparity: "
          f"{np.median(disparities):.0f} px")
    print(f"  within 1 px of truth: {correct}/{len(matches)}")

    histogram, _ = np.histogram(disparities,
                                bins=range(true_disparity - 3,
                                           true_disparity + 5))
    bars = "  ".join(
        f"{d:+d}:{'#' * count}" for d, count in zip(
            range(-3, 5), histogram
        ) if count
    )
    print(f"  disparity histogram (offset from truth): {bars}")

    config = application("stereo")
    model = PowerModel()
    multi = model.application_power(config.name, config.specs)
    single = model.application_power(config.name, config.specs,
                                     single_voltage=True)
    print(f"\nPower at 10 f/s (Table 4): {multi.total_mw:.1f} mW")
    for component in multi.components:
        print(f"  {component.name:4s} {component.n_tiles:2d} tiles @ "
              f"{component.frequency_mhz:3.0f} MHz / "
              f"{component.voltage_v} V -> "
              f"{component.total_mw:6.1f} mW")
    saved = savings_percent(multi.total_mw, single.total_mw)
    print(f"Multiple voltage domains save {saved:.0f}% here "
          f"(paper: 32%) - the single-tile 500 MHz SVD pins the "
          f"single-voltage rail at 1.5 V.")


if __name__ == "__main__":
    main()
