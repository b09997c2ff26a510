"""Acceptance gates for the package, one numbered criterion per test.

Every test prints exactly one "criterion N: PASS/FAIL (...)" line before
asserting, so a single run yields the complete scorecard even when some
gate fails. Optional "note:" lines carry diagnostics that are reported
but not gated. The backing trajectories are built once per module.
"""

import numpy as np
import pytest

from zenosim.core import HermitianMatrix
from zenosim.diagnostics import coherence_rate, population_rate_residual, record_observables
from zenosim.interventions import (
    Intervention,
    InterventionKind,
    InterventionSchedule,
    apply_intervention,
    measure_dephase,
    sign_flip,
)
from zenosim.models import ModelSpec, build, hub
from zenosim.perturbation import (
    ChannelInputs,
    channel_inputs,
    rho00_perturbative,
    sigma_first_order,
    sigma_min_predictor,
)
from zenosim.propagator import eigendecompose, evolve
from zenosim.scenario import Effect, ScenarioSpec, classify_effect, run

OMEGA = 0.2 * np.sqrt(2.0)
T_HALF = float(np.pi / (2.0 * OMEGA))  # 5.5536..., first half-transfer instant
GAMMA = 2.0 * np.pi * 0.01**2 / 0.05  # golden-rule decay rate of the band model


class Report:
    """Collects gate results for one criterion and prints the scorecard line."""

    def __init__(self, n: int, summary: str):
        self.n = n
        self.summary = summary
        self.failures: list = []
        self.notes: list = []

    def check(self, ok, detail: str) -> bool:
        if not ok:
            self.failures.append(detail)
        return bool(ok)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def conclude(self) -> None:
        if self.failures:
            line = f"criterion {self.n}: FAIL ({'; '.join(self.failures)})"
        else:
            line = f"criterion {self.n}: PASS ({self.summary})"
        print(line)
        for text in self.notes:
            print(f"  note: {text}")
        assert not self.failures, f"criterion {self.n}: " + "; ".join(self.failures)


def measures(times):
    return InterventionSchedule(
        tuple(Intervention(t, InterventionKind.MEASURE) for t in times)
    )


def flips(times, target=0):
    return InterventionSchedule(
        tuple(Intervention(t, InterventionKind.SIGN_FLIP, target=target) for t in times)
    )


def bundle_for(model, t_final, sample_dt, schedules):
    h, _ = build(model)
    specs = {
        name: ScenarioSpec(
            model=model, t_final=t_final, sample_dt=sample_dt, schedule=sched
        )
        for name, sched in schedules.items()
    }
    return dict(
        model=model,
        h=h,
        hub=hub(model),
        spectral=eigendecompose(h),
        specs=specs,
        trajs={name: run(spec) for name, spec in specs.items()},
    )


@pytest.fixture(scope="module")
def two():
    return bundle_for(
        ModelSpec.two_level(),
        t_final=12.0,
        sample_dt=0.01,
        schedules={
            "free": InterventionSchedule(),
            "measure_1": measures([1.0]),
            "measure_half": measures([T_HALF]),
            "flip_half": flips([T_HALF]),
            "flip_early": flips([2.5]),
        },
    )


@pytest.fixture(scope="module")
def lic():
    return bundle_for(
        ModelSpec.level_in_continuum(),
        t_final=120.0,
        sample_dt=0.05,
        schedules={
            "free": InterventionSchedule(),
            "measured": measures([10.0, 30.0, 55.0, 80.0]),
        },
    )


@pytest.fixture(scope="module")
def loc():
    return bundle_for(
        ModelSpec.level_outside_continuum(),
        t_final=225.0,
        sample_dt=0.1,
        schedules={
            "free": InterventionSchedule(),
            "measured": measures([30.0, 55.0, 80.0]),
            "flipped": flips([30.0, 55.0, 80.0]),
        },
    )


def state_at(spectral, spec, t):
    """Reconstruct the trajectory state at time t from segment boundaries.

    Returns (state, segment_start_state); the second is the state right
    after the last intervention at or before t (or the initial state).
    """
    dim = spec.model.dim
    rho = HermitianMatrix.basis_state(dim, 0)
    t0 = 0.0
    for item in spec.schedule:
        if item.time > t:
            break
        rho = apply_intervention(evolve(rho, spectral, item.time - t0), item)
        t0 = item.time
    return evolve(rho, spectral, t - t0), rho


def fd_matrix(state, spectral, step=1e-6):
    ahead = np.asarray(evolve(state, spectral, step))
    behind = np.asarray(evolve(state, spectral, -step))
    return (ahead - behind) / (2.0 * step)


def test_criterion_01_free_oscillation_oracle(two):
    rep = Report(
        1, "free survival matches the sin^2 closed form; grid minimum 1/2 at the half-transfer instant"
    )
    rho0 = HermitianMatrix.basis_state(2, 0)
    rng = np.random.default_rng(314159)
    worst = 0.0
    for t in rng.uniform(0.0, 12.0, size=1000):
        got = np.asarray(evolve(rho0, two["spectral"], t))[0, 0].real
        want = 1.0 - 0.5 * np.sin(OMEGA * t) ** 2
        worst = max(worst, abs(got - want))
    rep.check(worst <= 1e-8, f"max |rho_00 - closed form| = {worst:.3e} exceeds 1e-8")
    pop = two["trajs"]["free"].grid_population(0)
    tg = two["trajs"]["free"].grid_times()
    i = int(np.argmin(pop))
    rep.check(abs(pop[i] - 0.5) <= 1e-4, f"grid minimum {pop[i]!r} differs from 0.5000")
    rep.check(
        abs(tg[i] - T_HALF) <= 0.01,
        f"minimum sits at t = {tg[i]!r}, expected {T_HALF:.4f}",
    )
    rep.conclude()


def test_criterion_02_single_measurement_lifts_survival(two):
    rep = Report(
        2, "dephasing at t=1 raises rho_00(2) and restarts the decay with zero slope"
    )
    free = two["trajs"]["free"].grid_population(0)
    measured = two["trajs"]["measure_1"].grid_population(0)
    rep.check(
        measured[200] > free[200],
        f"measured rho_00(2) = {measured[200]!r} not above free {free[200]!r}",
    )
    spectral = two["spectral"]
    post = measure_dephase(evolve(HermitianMatrix.basis_state(2, 0), spectral, 1.0))
    delta = 1e-5
    after = np.asarray(evolve(post, spectral, delta))
    slope = (after[0, 0].real - np.asarray(post)[0, 0].real) / delta
    rep.check(abs(slope) <= 1e-6, f"restart slope {slope!r} exceeds 1e-6")
    # the rate identity gives exactly zero: every coherence was erased
    measured_traj = two["trajs"]["measure_1"]
    rep.check(
        -2.0 * 0.2 * measured_traj.sigma[measured_traj.markers[0].post] == 0.0,
        "post-measurement rate identity is not exactly zero",
    )
    free_slope = -2.0 * 0.2 * two["trajs"]["free"].grid_sigma()[100]
    rep.check(
        abs(free_slope) > 0.01,
        f"free slope at t=1 is {free_slope!r}, too flat to contrast",
    )
    rep.conclude()


def test_criterion_03_measurement_at_half_transfer_freezes(two):
    rep = Report(
        3, "dephasing at the half-transfer instant pins rho_00 at 1/2 and lowers the late average"
    )
    traj = two["trajs"]["measure_half"]
    tg = traj.grid_times()
    pop = traj.grid_population(0)
    after = tg > T_HALF
    worst = float(np.max(np.abs(pop[after] - 0.5)))
    rep.check(worst <= 1e-10, f"|rho_00 - 1/2| reaches {worst:.3e} after the freeze")
    out = classify_effect(two["trajs"]["free"], traj, window=(6.0, 12.0))
    rep.check(out.score < -0.2, f"late average shift {out.score!r} not below -0.2")
    rep.conclude()


def test_criterion_04_flip_direction_depends_on_timing(two):
    rep = Report(
        4, "flip at the half-transfer instant drives transfer onward; flip at 2.5 retards it"
    )
    traj = two["trajs"]["flip_half"]
    tg = traj.grid_times()
    pop = traj.grid_population(0)
    m = float(np.min(pop[tg > T_HALF]))
    rep.check(m < 0.5 - 0.01, f"min rho_00 after the flip is {m!r}, not below 0.49")
    out = classify_effect(
        two["trajs"]["free"], two["trajs"]["flip_early"], window=(2.5, 8.0)
    )
    rep.check(
        out.effect is Effect.QZE and out.score > 0.005,
        f"flip at 2.5 classified {out.effect.value} with score {out.score!r}",
    )
    rep.conclude()


def test_criterion_05_perturbative_survival_error(two):
    rep = Report(
        5, "second-order survival is 1e-3 accurate at t=1 and its error shrinks faster than t^2.5"
    )
    rho0 = HermitianMatrix.basis_state(2, 0)
    spectral = two["spectral"]
    exact1 = np.asarray(evolve(rho0, spectral, 1.0))[0, 0].real
    gap1 = abs(rho00_perturbative(two["model"], 1.0) - exact1)
    rep.check(gap1 <= 1e-3, f"|perturbative - exact| at t=1 is {gap1:.3e}")
    ts = np.geomspace(0.1, 2.0, 25)
    errs = np.array(
        [
            abs(
                rho00_perturbative(two["model"], t)
                - np.asarray(evolve(rho0, spectral, t))[0, 0].real
            )
            for t in ts
        ]
    )
    slope = float(np.polyfit(np.log(ts), np.log(errs), 1)[0])
    rep.check(slope >= 2.5, f"log-log error slope {slope:.2f} below 2.5")
    rep.note(f"error at t=1: {gap1:.3e}; log-log slope over [0.1, 2]: {slope:.2f}")
    rep.conclude()


def test_criterion_06_band_decay_rate_and_monotonicity(lic):
    rep = Report(
        6, "free band decay follows the golden-rule exponential and never rises"
    )
    traj = lic["trajs"]["free"]
    tg = traj.grid_times()
    pop = traj.grid_population(0)
    mask = (tg >= 10.0) & (tg <= 80.0)
    rate = -float(np.polyfit(tg[mask], np.log(pop[mask]), 1)[0])
    rel = abs(rate - GAMMA) / GAMMA
    rep.check(
        rel <= 0.10,
        f"fitted rate {rate:.4e} off the golden-rule {GAMMA:.4e} by {rel:.1%}",
    )
    jumps = np.diff(pop[tg <= 100.0])
    rep.check(
        float(np.max(jumps)) <= 1e-3,
        f"rho_00 rises by {np.max(jumps):.2e} somewhere in [0, 100]",
    )
    rep.note(f"fitted rate {rate:.4e} vs 2 pi v^2 / spacing = {GAMMA:.4e} (rel {rel:.3f})")
    rep.conclude()


def test_criterion_07_repeated_measurement_retards_band_decay(lic):
    rep = Report(
        7, "measurements at 10/30/55/80 retard the decay; each restart dip matches the predictor within 15%"
    )
    ref, meas = lic["trajs"]["free"], lic["trajs"]["measured"]
    out = classify_effect(ref, meas, window=(80.0, 120.0))
    rep.check(
        out.effect is Effect.QZE and out.score > 0.005,
        f"classified {out.effect.value} with score {out.score!r}",
    )
    # dips live in the band-to-level direction, the negative of the sigma column
    s = -meas.grid_sigma()
    tg = meas.grid_times()
    for marker in meas.markers:
        rep.check(
            meas.sigma[marker.post] == 0.0,
            f"sigma after the measurement at t={marker.time:g} is {meas.sigma[marker.post]!r}",
        )
        k = int(round(marker.time / meas.spec.sample_dt))
        while k + 1 < s.size and s[k + 1] <= s[k]:
            k += 1
        dip = float(s[k])
        t_pred, s_pred = sigma_min_predictor(
            channel_inputs(lic["model"], meas.populations[marker.post])
        )
        rel = abs(dip - s_pred) / abs(s_pred)
        rep.check(
            rel <= 0.15,
            f"dip {dip:.4f} after t={marker.time:g} vs predicted {s_pred:.4f} (rel {rel:.3f})",
        )
        rep.note(
            f"restart at t={marker.time:g}: dip depth {dip:.4f} vs predicted {s_pred:.4f} "
            f"(rel {rel:.3f}); dip delay {tg[k] - marker.time:.2f} vs predicted {t_pred:.2f}"
        )
    rep.conclude()


def test_criterion_08_detuned_band_acceleration(loc):
    rep = Report(
        8, "detuned level barely decays alone; measurements accelerate it and flips accelerate it more"
    )
    ref = loc["trajs"]["free"]
    m = float(np.min(ref.grid_population(0)))
    rep.check(0.81 <= m <= 0.85, f"free minimum {m!r} outside [0.81, 0.85]")
    meas = classify_effect(ref, loc["trajs"]["measured"], window=(80.0, 120.0))
    rep.check(
        meas.effect is Effect.AZE,
        f"measurements classified {meas.effect.value} with score {meas.score!r}",
    )
    flip = classify_effect(ref, loc["trajs"]["flipped"], window=(80.0, 120.0))
    rep.check(
        flip.effect is Effect.AZE,
        f"flips classified {flip.effect.value} with score {flip.score!r}",
    )
    rep.check(
        flip.score < meas.score,
        f"flip score {flip.score!r} not strictly stronger than {meas.score!r}",
    )
    rep.note(f"scores on (80, 120): measured {meas.score:.4f}, flipped {flip.score:.4f}")
    rep.conclude()


def test_criterion_09_invariants_at_random_trajectory_points(two, lic, loc):
    rep = Report(
        9, "trace, Hermiticity, purity, rate identities and map laws hold at 200 sampled points"
    )
    rng = np.random.default_rng(20260819)
    worst = dict(trace=0.0, herm=0.0, purity=0.0, pop_rate=0.0, pair_rate=0.0)
    hub_gap = 0.0
    maps_ok = True
    count = 0
    for bundle, per in ((two, 16), (lic, 30), (loc, 20)):
        h, eps_c, spectral = bundle["h"], bundle["hub"], bundle["spectral"]
        dim = bundle["model"].dim
        for spec in bundle["specs"].values():
            for t in rng.uniform(0.0, spec.t_final, size=per):
                state, seg = state_at(spectral, spec, float(t))
                m = np.asarray(state)
                pops, _, _, trace, purity, _ = record_observables(state, *eps_c)
                worst["trace"] = max(worst["trace"], abs(trace - 1.0))
                worst["herm"] = max(worst["herm"], float(np.max(np.abs(m - m.conj().T))))
                worst["purity"] = max(
                    worst["purity"], abs(purity - record_observables(seg, *eps_c)[4])
                )
                worst["pop_rate"] = max(
                    worst["pop_rate"],
                    population_rate_residual(state, h, 0, spectral),
                    population_rate_residual(
                        state, h, int(rng.integers(dim)), spectral
                    ),
                )
                fd = fd_matrix(state, spectral)
                if dim == 2:
                    d_re, d_im = coherence_rate(state, *eps_c, 1, 0)
                    worst["pair_rate"] = max(
                        worst["pair_rate"],
                        abs(d_re - fd[1, 0].real),
                        abs(d_im - fd[1, 0].imag),
                    )
                else:
                    for k in rng.integers(1, dim, size=3):
                        d_re, d_im = coherence_rate(state, *eps_c, 0, int(k))
                        hub_gap = max(
                            hub_gap,
                            abs(d_re - fd[0, k].real),
                            abs(d_im - fd[0, k].imag),
                        )
                dephased = measure_dephase(state)
                target = int(rng.integers(dim))
                flipped = sign_flip(state, target)
                maps_ok = (
                    maps_ok
                    and np.array_equal(
                        np.asarray(measure_dephase(dephased)), np.asarray(dephased)
                    )
                    and np.array_equal(
                        np.asarray(sign_flip(flipped, target)), np.asarray(state)
                    )
                    and np.array_equal(record_observables(dephased, *eps_c)[0], pops)
                    and np.array_equal(record_observables(flipped, *eps_c)[0], pops)
                )
                count += 1
    rep.check(count == 200, f"sampled {count} points instead of 200")
    rep.check(worst["trace"] <= 1e-10, f"worst |trace - 1| = {worst['trace']:.2e}")
    rep.check(worst["herm"] <= 1e-12, f"worst Hermiticity residual = {worst['herm']:.2e}")
    rep.check(
        worst["purity"] <= 1e-10,
        f"worst purity drift within a segment = {worst['purity']:.2e}",
    )
    rep.check(
        worst["pop_rate"] <= 1e-5,
        f"worst population rate residual = {worst['pop_rate']:.2e}",
    )
    rep.check(
        worst["pair_rate"] <= 1e-5,
        f"worst tracked-pair coherence rate residual = {worst['pair_rate']:.2e}",
    )
    rep.check(maps_ok, "a dephasing or flip map law broke at a sampled point")
    rep.note(
        f"hub coherence-rate closure gap at band points: max {hub_gap:.2e} "
        "(untracked pairs; the formula omits the summed band feed)"
    )
    state, _ = state_at(lic["spectral"], lic["specs"]["free"], 30.0)
    partial = np.asarray(state).copy()
    partial[0, 1:] = 0.0
    partial[1:, 0] = 0.0
    full = measure_dephase(state)
    gap = 0.0
    for span in np.linspace(2.5, 20.0, 8):
        a = np.asarray(evolve(full, lic["spectral"], float(span)))[0, 0].real
        b = np.asarray(evolve(HermitianMatrix(partial), lic["spectral"], float(span)))[0, 0].real
        gap = max(gap, abs(a - b))
    rep.note(
        f"full vs hub-only dephasing: rho_00 differs by up to {gap:.2e} over 20 a.u. "
        "(band-band coherences are second order in the coupling)"
    )
    rep.conclude()


def test_criterion_10_dip_predictor(lic):
    rep = Report(
        10, "dip predictor reproduces the two-level constants and the band numeric minimum"
    )
    pops2 = np.array([1.0, 0.0])
    t2, s2 = sigma_min_predictor(channel_inputs(ModelSpec.two_level(), pops2))
    rep.check(abs(t2 - 3.5355) <= 1e-4, f"two-level dip time {t2!r} vs 3.5355")
    rep.check(abs(s2 - (-0.47140)) <= 1e-4, f"two-level dip depth {s2!r} vs -0.47140")
    pops_band = np.zeros(201)
    pops_band[0] = 1.0
    inputs = channel_inputs(lic["model"], pops_band)
    ts = np.arange(1e-3, 3.0, 1e-3)
    vals = np.array(
        [
            sigma_first_order(
                ChannelInputs(inputs.delta_rho, inputs.delta_eps, inputs.v, float(t))
            )
            for t in ts
        ]
    )
    i = int(np.argmin(vals))
    t_num = float(ts[i])
    tb, _ = sigma_min_predictor(inputs)
    rel = abs(tb - t_num) / t_num
    rep.check(
        rel <= 0.10,
        f"band dip time {tb:.4f} vs numeric minimum {t_num:.4f}: rel gap {rel:.3f} exceeds 0.10",
    )
    rep.note(
        "the cubic small-time model places its minimum at sqrt(6)/pi ~ 0.78 of the "
        "flat-band quarter period, a structural offset independent of parameters"
    )
    rep.conclude()
