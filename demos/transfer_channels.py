"""Taking the transfer apart into channels, and predicting the dip.

Short-time population transfer out of state 0 decomposes into two
channels: a first-order one fed by whatever level-band coherence
already exists, and a second-order one fed by population imbalance
alone. Erasing coherences (a dephasing measurement) removes the first
channel, which is why each restart begins quadratically. The same
machinery gives a closed-form estimate of when the summed outflow
peaks; the estimate is good for a lone partner level but lands short
for a wide flat band, where the true dip sits later by a factor near
pi / sqrt(6).

Run: python3 demos/transfer_channels.py [--out-dir DIR]
"""

import argparse
import os

import numpy as np

from zenosim.csvio import write_table_csv
from zenosim.models import ModelSpec, build
from zenosim.perturbation import (
    ChannelInputs,
    channel_inputs,
    coupling_integral,
    pop_from_coherence_1st,
    pop_from_pop_2nd,
    rho00_perturbative,
    sigma_first_order,
    sigma_min_predictor,
)
from zenosim.propagator import eigendecompose, evolve

TWO = ModelSpec.two_level()
LIC = ModelSpec.level_in_continuum()


def fresh_inputs(spec, t=None):
    pops = np.zeros(spec.dim)
    pops[0] = 1.0
    return channel_inputs(spec, pops, t)


def numeric_minimum(spec, t_hi):
    # brute-force the first-order outflow sum on a fine grid
    base = fresh_inputs(spec)
    ts = np.arange(1e-3, t_hi, 1e-3)
    vals = np.array(
        [
            sigma_first_order(ChannelInputs(base.delta_rho, base.delta_eps, base.v, t))
            for t in ts
        ]
    )
    i = int(np.argmin(vals))
    return float(ts[i]), float(vals[i])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="demo_out")
    args = parser.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)

    print("-- the coupling integral --")
    print("resonant channel grows linearly, detuned ones saturate:")
    for deps in (0.0, 0.4, 2.0):
        mags = [abs(coupling_integral(deps, 0.01, t)) for t in (10.0, 50.0)]
        print(f"  delta_eps {deps:+.1f}: |I(10)| = {mags[0]:.4f}, |I(50)| = {mags[1]:.4f}")
    print()

    print("-- two channels compose across a segment (two-level, t = 1 to 2) --")
    h, rho0 = build(TWO)
    spectral = eigendecompose(h)
    state = evolve(rho0, spectral, 1.0)
    m = np.asarray(state)
    pops = np.real(np.diagonal(m))
    p1 = pop_from_coherence_1st(m[1, 0], -0.4, 0.2, 1.0)
    p2 = pop_from_pop_2nd(pops[1] - pops[0], -0.4, 0.2, 1.0)
    exact = np.asarray(evolve(state, spectral, 1.0))[0, 0].real - pops[0]
    print(f"  coherence-fed first order:  {p1:+.6f}")
    print(f"  population-fed second order: {p2:+.6f}")
    print(f"  sum {p1 + p2:+.6f} vs exact increment {exact:+.6f}"
          f" (gap {abs(p1 + p2 - exact):.1e})")
    print(f"  after a measurement the first channel dies:"
          f" {pop_from_coherence_1st(0.0, -0.4, 0.2, 1.0):+.1f},"
          " so the restart slope is zero")
    print()

    print("-- second-order survival vs exact (fresh start) --")
    exact_p = np.asarray(evolve(rho0, spectral, 1.0))[0, 0].real
    pert_p = rho00_perturbative(TWO, 1.0)
    print(f"  t = 1: exact {exact_p:.10f}, perturbative {pert_p:.10f}"
          f" (gap {abs(exact_p - pert_p):.2e})")
    print()

    print("-- predicting the outflow dip --")
    for name, spec, t_hi in (("two-level", TWO, 6.0), ("in-band", LIC, 3.0)):
        t_pred, s_pred = sigma_min_predictor(fresh_inputs(spec))
        t_num, s_num = numeric_minimum(spec, t_hi)
        rel = abs(t_pred - t_num) / t_num
        print(f"  {name}: predicted (t, depth) = ({t_pred:.4f}, {s_pred:.4f}),"
              f" numeric ({t_num:.4f}, {s_num:.4f}), time off by {rel:.0%}")
    print("  the flat band pulls the true dip out to about pi/sqrt(6) times"
          " the cubic estimate")

    ts = np.arange(0.005, 6.0, 0.005)
    curves = []
    for spec in (TWO, LIC):
        base = fresh_inputs(spec)
        curves.append(
            [sigma_first_order(ChannelInputs(base.delta_rho, base.delta_eps, base.v, t))
             for t in ts]
        )
    path = os.path.join(args.out_dir, "outflow_first_order.csv")
    write_table_csv(path, ["t", "two_level", "in_band"], [ts, curves[0], curves[1]])
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
