"""Dephasing a two-level oscillation: freeze it or speed it up.

The default two-level system oscillates between its levels with period
2 pi / Omega, Omega = 0.2 sqrt(2). A dephasing measurement erases the
coherence that carries the transfer, so the survival probability
restarts with zero slope. Where the measurement lands decides what it
does to the later dynamics:

* measured early (t = 1), the system is still close to its start and
  the restart retards the transfer;
* measured at the half-transfer instant t = pi / (2 Omega), the state
  is pinned at the 50/50 point forever, which cuts the late-time
  average survival well below the free oscillation.

Run: python3 demos/two_level_dephasing.py [--out-dir DIR]
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
    early = run(scenario([Intervention(1.0, InterventionKind.MEASURE)]))
    pinned = run(scenario([Intervention(T_HALF, InterventionKind.MEASURE)]))

    print(f"two-level defaults, Omega = {OMEGA:.6f}, half transfer at t = {T_HALF:.4f}")
    print()
    print("t      free rho_00   measured@1    measured@half")
    grid = free.grid_times()
    for t in (1.0, 2.0, 4.0, 6.0, 8.0, 12.0):
        i = int(round(t / 0.01))
        print(
            f"{grid[i]:5.2f}  {free.grid_population(0)[i]:12.6f}"
            f"  {early.grid_population(0)[i]:12.6f}"
            f"  {pinned.grid_population(0)[i]:12.6f}"
        )
    print()
    pre, post = early.markers[0].pre, early.markers[0].post
    print(
        f"measurement at t=1: sigma {early.sigma[pre]:+.6f} -> {early.sigma[post]:+.6f}, "
        f"purity {early.purity[pre]:.6f} -> {early.purity[post]:.6f}"
    )
    verdict = classify_effect(free, early, window=(1.0, 8.0))
    print(f"early measurement verdict on (1, 8): {verdict.effect.value}, score {verdict.score:+.4f}")
    verdict = classify_effect(free, pinned, window=(6.0, 12.0))
    print(f"half-transfer measurement verdict on (6, 12): {verdict.effect.value}, score {verdict.score:+.4f}")

    for name, traj in (("free", free), ("measured_t1", early), ("measured_half", pinned)):
        path = os.path.join(args.out_dir, f"two_level_{name}.csv")
        write_trajectory_csv(traj, path)
        print(f"wrote {path}")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt

        fig, ax = plt.subplots(figsize=(7, 4))
        ax.plot(grid, free.grid_population(0), label="free")
        ax.plot(grid, early.grid_population(0), label="measured at 1")
        ax.plot(grid, pinned.grid_population(0), label=f"measured at {T_HALF:.3f}")
        ax.set_xlabel("t (a.u.)")
        ax.set_ylabel("rho_00")
        ax.legend()
        ax.grid(True, alpha=0.3)
        path = os.path.join(args.out_dir, "two_level_dephasing.png")
        fig.savefig(path, dpi=120, bbox_inches="tight")
        print(f"wrote {path}")
    except ImportError:
        print("matplotlib not installed; skipped the plot")


if __name__ == "__main__":
    main()
