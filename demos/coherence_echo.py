"""Flipping the coherence sign: a unitary that rewrites history.

U = 1 - 2|0><0| negates every coherence of state 0 without touching
populations. Because the transfer rate of rho_00 is proportional to the
summed imaginary coherence, the flip instantly reverses the transfer
direction; the dynamics then retraces its own past, like an echo.

Two placements show the two faces of the effect:

* flipped mid-rise (t = 2.5), the system walks its transfer back and
  the time-averaged survival goes up;
* flipped exactly at the half-transfer instant the coherence is purely
  real, Im rho_01 = 0, so reversing its sign leaves the rate alone but
  reverses the phase, and the system continues into full transfer
  instead of turning around.

Run: python3 demos/coherence_echo.py [--out-dir DIR]
"""

import argparse
import os

import numpy as np

from zenosim.csvio import write_trajectory_csv
from zenosim.interventions import Intervention, InterventionKind, InterventionSchedule
from zenosim.models import ModelSpec
from zenosim.scenario import ScenarioSpec, classify_effect, run

OMEGA = 0.2 * np.sqrt(2.0)
T_HALF = float(np.pi / (2.0 * OMEGA))


def scenario(schedule=()):
    return ScenarioSpec(
        model=ModelSpec.two_level(),
        t_final=12.0,
        sample_dt=0.01,
        schedule=InterventionSchedule(tuple(schedule)),
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="demo_out")
    args = parser.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)

    free = run(scenario())
    echo = run(scenario([Intervention(2.5, InterventionKind.SIGN_FLIP)]))
    onward = run(scenario([Intervention(T_HALF, InterventionKind.SIGN_FLIP)]))

    m = echo.markers[0]
    print(f"flip at t=2.5:  sigma {echo.sigma[m.pre]:+.6f} -> {echo.sigma[m.post]:+.6f} (reversed)")
    m = onward.markers[0]
    print(
        f"flip at t={T_HALF:.4f}: sigma {onward.sigma[m.pre]:+.6f} -> {onward.sigma[m.post]:+.6f} "
        f"(nothing to reverse: the coherence is purely real there)"
    )
    print()

    grid = free.grid_times()
    pop_on = onward.grid_population(0)
    after = grid > T_HALF
    print(f"free minimum of rho_00:            {np.min(free.grid_population(0)):.6f}")
    print(f"after the half-transfer flip, min: {np.min(pop_on[after]):.6e}  (transfer completes)")

    verdict = classify_effect(free, echo, window=(2.5, 8.0))
    print(f"mid-rise flip verdict on (2.5, 8): {verdict.effect.value}, score {verdict.score:+.4f}")
    verdict = classify_effect(free, onward, window=(6.0, 12.0))
    print(f"half-transfer flip verdict on (6, 12): {verdict.effect.value}, score {verdict.score:+.4f}")

    for name, traj in (("free", free), ("flip_mid_rise", echo), ("flip_half", onward)):
        path = os.path.join(args.out_dir, f"echo_{name}.csv")
        write_trajectory_csv(traj, path)
        print(f"wrote {path}")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt

        fig, axes = plt.subplots(2, 1, figsize=(7, 6), sharex=True)
        axes[0].plot(grid, free.grid_population(0), label="free")
        axes[0].plot(grid, echo.grid_population(0), label="flip at 2.5")
        axes[0].plot(grid, pop_on, label=f"flip at {T_HALF:.3f}")
        axes[0].set_ylabel("rho_00")
        axes[0].legend()
        axes[0].grid(True, alpha=0.3)
        axes[1].plot(grid, free.grid_sigma(), label="free")
        axes[1].plot(grid, echo.grid_sigma(), label="flip at 2.5")
        axes[1].set_ylabel("sigma")
        axes[1].set_xlabel("t (a.u.)")
        axes[1].legend()
        axes[1].grid(True, alpha=0.3)
        path = os.path.join(args.out_dir, "coherence_echo.png")
        fig.savefig(path, dpi=120, bbox_inches="tight")
        print(f"wrote {path}")
    except ImportError:
        print("matplotlib not installed; skipped the plot")


if __name__ == "__main__":
    main()
