"""End-to-end runs: sampling, tie handling, determinism, classification."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zenosim import scenario
from zenosim.core import HermitianMatrix, ParameterError, ValidationError, ZenosimError
from zenosim.diagnostics import dephased_observables, record_observables
from zenosim.interventions import (
    Intervention,
    InterventionKind,
    InterventionSchedule,
    apply_intervention,
)
from zenosim.models import ModelKind, ModelSpec, build, hub
from zenosim.propagator import (
    band_gaps,
    eigendecompose,
    evolve,
    rk4_evolve,
    row0_and_diagonal,
)
from zenosim.scenario import (
    Effect,
    ScenarioSpec,
    classify_effect,
    run,
    run_batch,
)

OMEGA = 0.2 * np.sqrt(2.0)


def two_level_scenario(t_final=3.0, dt=0.25, schedule=(), model=None):
    return ScenarioSpec(
        model=model or ModelSpec.two_level(),
        t_final=t_final,
        sample_dt=dt,
        schedule=InterventionSchedule(tuple(schedule)),
    )


def test_free_run_matches_closed_form():
    traj = run(two_level_scenario(t_final=12.0, dt=0.01))
    t = traj.grid_times()
    assert t.size == 1201
    want = 1.0 - 0.5 * np.sin(OMEGA * t) ** 2
    np.testing.assert_allclose(traj.grid_population(0), want, atol=1e-12)
    want_sigma = np.sin(OMEGA * t) * np.cos(OMEGA * t) / np.sqrt(2.0)
    np.testing.assert_allclose(traj.grid_sigma(), want_sigma, atol=1e-12)


def test_record_count_without_interventions():
    traj = run(two_level_scenario())
    assert traj.t.size == 13  # floor(3 / 0.25) + 1
    assert traj.events == ["none"] * 13
    np.testing.assert_array_equal(traj.grid, np.arange(13))
    assert traj.markers == []


def test_intervention_on_grid_point_adds_one_record():
    traj = run(
        two_level_scenario(
            schedule=[Intervention(1.0, InterventionKind.MEASURE)]
        )
    )
    assert traj.t.size == 14
    assert traj.events[4] == "pre_measure" and traj.events[5] == "post_measure"
    assert traj.t[4] == traj.t[5] == 1.0
    # the grid view keeps the post state, the one carried forward
    assert traj.grid.size == 13
    assert traj.events[traj.grid[4]] == "post_measure"
    assert traj.grid_sigma()[4] == 0.0


def test_intervention_off_grid_adds_two_records():
    traj = run(
        two_level_scenario(
            schedule=[Intervention(1.1, InterventionKind.MEASURE)]
        )
    )
    assert traj.t.size == 15
    assert np.count_nonzero(traj.t == 1.1) == 2
    assert traj.grid.size == 13  # grid view unaffected
    np.testing.assert_array_equal(traj.grid_times(), np.arange(13) * 0.25)


def test_marker_populations_and_coherences():
    traj = run(
        two_level_scenario(
            schedule=[Intervention(1.0, InterventionKind.MEASURE)]
        )
    )
    (marker,) = traj.markers
    assert marker.kind is InterventionKind.MEASURE
    assert (marker.pre, marker.post) == (4, 5)
    np.testing.assert_array_equal(
        traj.populations[marker.pre], traj.populations[marker.post]
    )
    assert traj.sigma[marker.pre] != 0.0
    assert traj.sigma[marker.post] == 0.0
    assert traj.purity[marker.post] < traj.purity[marker.pre]


def test_flip_marker_negates_sigma_exactly():
    traj = run(
        two_level_scenario(
            schedule=[Intervention(1.0, InterventionKind.SIGN_FLIP)]
        )
    )
    (marker,) = traj.markers
    assert traj.sigma[marker.post] == -traj.sigma[marker.pre]
    assert traj.purity[marker.post] == traj.purity[marker.pre]


@st.composite
def band_models(draw):
    """Small bands, coupled strongly enough that every level moves, with two
    corners: a tight gap (spacing 1e-6 of the span), which is too
    ill-conditioned for the dephased row-0 route, and a strong coupling."""
    n = draw(st.integers(2, 12))
    d = draw(st.floats(0.5, 2.0))
    factory = draw(
        st.sampled_from([ModelSpec.level_in_continuum, ModelSpec.level_outside_continuum])
    )
    return factory(
        eps0=draw(st.floats(-2.0, 2.0)),
        d=d,
        n_levels=n,
        spacing=draw(st.floats(0.1, 1.0) | st.just(1e-6)) * 2 * d / (n - 1),
        v=draw(st.floats(0.05, 0.5) | st.just(2.0)),
    )


@st.composite
def grids_and_schedules(draw, models=st.just(ModelSpec.two_level())):
    """A scenario whose interventions land on grid points or clearly
    between them."""
    model = draw(models)
    dt = draw(st.floats(min_value=0.05, max_value=0.7))
    t_final = draw(st.floats(min_value=dt, max_value=3.0))
    n = int(np.floor(t_final / dt + 1e-9))
    on_grid = {k * dt for k in draw(st.sets(st.integers(1, n), max_size=4))}
    off_grid = draw(
        st.lists(st.floats(min_value=1e-3, max_value=t_final, exclude_max=True), max_size=4)
    )
    off_grid = {x for x in off_grid if abs(x - round(x / dt) * dt) > 1e-6}
    times = sorted(t for t in on_grid | off_grid if t < t_final)
    kinds = st.sampled_from(list(InterventionKind))
    targets = st.integers(0, model.dim - 1)
    return two_level_scenario(
        t_final, dt, [Intervention(t, draw(kinds), draw(targets)) for t in times], model
    )


@settings(max_examples=40, deadline=None)
@given(grids_and_schedules())
def test_row_plan_places_grid_and_intervention_rows(spec):
    traj = run(spec)
    dt = spec.sample_dt
    n = int(np.floor(spec.t_final / dt + 1e-9))
    np.testing.assert_array_equal(traj.grid_times(), np.arange(n + 1) * dt)
    assert np.all(np.diff(traj.grid) > 0)
    assert len(traj.markers) == len(spec.schedule)
    for marker, item in zip(traj.markers, spec.schedule):
        assert marker.post == marker.pre + 1
        assert traj.t[marker.pre] == traj.t[marker.post] == item.time
        assert traj.events[marker.pre].startswith("pre_")
        assert traj.events[marker.post].startswith("post_")
        np.testing.assert_array_equal(
            traj.populations[marker.pre], traj.populations[marker.post]
        )
        k = round(item.time / dt)
        if item.time == k * dt:
            assert traj.grid[k] == marker.post
    marker_rows = {r for m in traj.markers for r in (m.pre, m.post)}
    assert set(traj.grid.tolist()) | marker_rows == set(range(traj.t.size))
    np.testing.assert_array_equal(traj.grid_population(0), traj.populations[traj.grid, 0])


def reference_columns(traj):
    """The run's rows the slow way: `evolve` of the segment start
    matrix for every row, then `record_observables`."""
    spec = traj.spec
    h, seg = build(spec.model)
    spectral, eps_c = eigendecompose(h), hub(spec.model)
    posts = {m.post: item for m, item in zip(traj.markers, spec.schedule)}
    seg_t, state, rows = 0.0, seg, []
    for r, t in enumerate(traj.t):
        if r in posts:
            state = seg = apply_intervention(state, posts[r])
            seg_t = t
        else:
            state = evolve(seg, spectral, t - seg_t)
        rows.append(record_observables(state, *eps_c, spec.resolved_pairs()))
    return [np.array(column) for column in zip(*rows)]


def assert_matches_reference(traj):
    """Every column of ``traj`` within 1e-12 of `reference_columns`."""
    names = ["populations", "sigma", "coherences", "trace", "purity", "energy"]
    for name, want in zip(names, reference_columns(traj)):
        got = getattr(traj, name)
        np.testing.assert_allclose(got, want.reshape(got.shape), rtol=0, atol=1e-12, err_msg=name)


def rk4_final_state(spec, t_end):
    _, rho = build(spec.model)
    eps, c = hub(spec.model)
    seg_t = 0.0
    for item in spec.schedule:
        rho = apply_intervention(rk4_evolve(rho, eps, c, item.time - seg_t), item)
        seg_t = item.time
    return rk4_evolve(rho, eps, c, t_end - seg_t)


M, F = InterventionKind.MEASURE, InterventionKind.SIGN_FLIP


@settings(max_examples=40, deadline=None, derandomize=True)
@given(grids_and_schedules(st.one_of(st.just(ModelSpec.two_level()), band_models())))
@example(two_level_scenario(3.0, 0.25, [Intervention(1.0, M), Intervention(1.5, F, 1)]))
@example(
    two_level_scenario(
        2.0,
        0.1,
        [Intervention(0.33, M), Intervention(0.7, F, 4), Intervention(1.2, F, 0)],
        ModelSpec.level_in_continuum(eps0=0.1, d=1.0, n_levels=8, spacing=0.25, v=0.3),
    )
)
@example(  # a tight gap: the measured state stays on the column route
    two_level_scenario(
        2.0,
        0.1,
        [Intervention(0.33, M), Intervention(0.7, F, 4), Intervention(1.2, F, 0)],
        ModelSpec.level_in_continuum(eps0=0.1, d=1.0, n_levels=8, spacing=2e-6, v=0.3),
    )
)
@example(  # a hub condition of 90, just inside the row-0 route's limit
    two_level_scenario(
        2.0,
        0.1,
        [Intervention(0.33, M), Intervention(0.7, F, 11), Intervention(1.2, F, 0)],
        ModelSpec.level_outside_continuum(eps0=2.0, d=0.5, n_levels=12, spacing=0.034, v=0.5),
    )
)
@example(  # six flips after a measurement: past n = 5 the flip columns are merged
    two_level_scenario(
        1.0,
        0.1,
        [Intervention(0.12, M), *(Intervention(0.2 + 0.1 * k, F, k % 5) for k in range(6))],
        ModelSpec.level_in_continuum(eps0=0.1, d=1.0, n_levels=4, spacing=0.5, v=0.3),
    )
)
@example(  # thirty alternating flips of a pure state on the check chain
    two_level_scenario(
        1.0, 0.1, [*(Intervention(0.03 + 0.03 * k, F, k % 2) for k in range(30))]
    )
)
def test_run_matches_per_row_evolve_and_rk4(spec):
    """A flip after a measurement leaves a mixed state with coherences: the
    dephased route carries them as two signed columns per flip (merged into
    at most n), and an ill-conditioned hub carries the whole state as a full
    factor X. The pre and post rows come from the check chain."""
    traj = run(spec)
    assert_matches_reference(traj)
    final = record_observables(
        rk4_final_state(spec, traj.t[-1]), *hub(spec.model), spec.resolved_pairs()
    )
    tol = 1e-12 if spec.model.kind is ModelKind.TWO_LEVEL else 1e-8
    np.testing.assert_allclose(traj.populations[-1], final[0], rtol=0, atol=tol)
    np.testing.assert_allclose(traj.sigma[-1], final[1], rtol=0, atol=tol)


def test_cross_check_names_the_row_that_drifts(monkeypatch):
    """`run` compares its routes' populations with the check chain's at
    every pre row; a 1e-9 drift there must stop the run."""
    exact = scenario._readout

    def drifting(rho, vec, pairs):
        p, row0, coherences = exact(rho, vec, pairs)
        return p + np.array([1e-9, -1e-9]), row0, coherences

    monkeypatch.setattr(scenario, "_readout", drifting)
    spec = two_level_scenario(schedule=[Intervention(1.1, M), Intervention(2.0, F, 1)])
    with pytest.raises(ValidationError, match=r"by 1\.0\d*e-09 in row 5$"):
        run(spec)


def test_sampling_density_does_not_change_states():
    coarse = run(two_level_scenario(t_final=3.0, dt=0.5))
    fine = run(two_level_scenario(t_final=3.0, dt=0.25))
    np.testing.assert_array_equal(
        coarse.grid_population(0), fine.grid_population(0)[::2]
    )


def test_runs_are_bit_identical():
    spec = two_level_scenario(
        schedule=[
            Intervention(0.7, InterventionKind.MEASURE),
            Intervention(1.9, InterventionKind.SIGN_FLIP),
        ]
    )
    a, b = run(spec), run(spec)
    np.testing.assert_array_equal(a.t, b.t)
    np.testing.assert_array_equal(a.populations, b.populations)
    np.testing.assert_array_equal(a.sigma, b.sigma)
    np.testing.assert_array_equal(a.purity, b.purity)


def test_band_runs_are_bit_identical():
    spec = two_level_scenario(
        3.0, 0.1, [Intervention(0.7, M), Intervention(1.9, F, 3)],
        ModelSpec.level_in_continuum(eps0=0.1, d=1.0, n_levels=8, spacing=0.25, v=0.3),
    )
    a, b = run(spec), run(spec)
    for name in ("t", "populations", "sigma", "coherences", "trace", "purity", "energy"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)


ROUTE_MODELS = [
    ModelSpec.two_level(),
    ModelSpec.level_in_continuum(),
    ModelSpec.level_outside_continuum(),
    ModelSpec.custom_continuum(eps0=0.0, d=5.0, n_levels=1000, spacing=0.01, v=0.05),
]


@pytest.mark.parametrize("model", ROUTE_MODELS, ids=lambda m: f"{m.kind.value}-{m.dim}")
def test_dephased_route_matches_evolve(model):
    """Row 0 and the diagonal of U rebuild every observable of U diag(p) U^H."""
    h, _ = build(model)
    spectral, (eps, c) = eigendecompose(h), hub(model)
    n = model.dim
    p = np.random.default_rng(n).dirichlet(np.ones(n))
    pairs = ((1, 0), (0, 1), *(((n - 1, 1), (1, n - 1)) if n > 2 else ()))
    times = np.array([0.0, 0.7, 13.0, 120.0])
    u, d = row0_and_diagonal(spectral, spectral.eigenvectors**2, times)
    got = dephased_observables(u, d, p, band_gaps(eps, c), eps, c, pairs)
    rho = HermitianMatrix(np.diag(p).astype(np.complex128))
    for r, t in enumerate(times):
        want = record_observables(evolve(rho, spectral, t), eps, c, pairs)
        for column, value in zip(got, want):
            np.testing.assert_allclose(column[r], value, rtol=0, atol=1e-12)


@pytest.mark.parametrize("model", ROUTE_MODELS, ids=lambda m: f"{m.kind.value}-{m.dim}")
def test_measure_flip_flip_matches_per_row_evolve(model):
    """Two flips after a measurement add four signed columns to the route."""
    pairs = ((1, 0), *(((model.dim - 1, 1),) if model.dim > 2 else ()))
    spec = ScenarioSpec(
        model, 1.0, 0.25,
        InterventionSchedule((Intervention(0.3, M), Intervention(0.45, F, 1),
                              Intervention(0.6, F, 0))),
        coherence_pairs=pairs,
    )
    assert_matches_reference(run(spec))


def test_dephased_segments_never_carry_a_full_factor(monkeypatch):
    """After a measurement only the flips' columns go through `evolve_factor`;
    a full factor (`_diagonal_factor`) is left to ill-conditioned hubs."""
    widths, full = [], []
    exact_evolve, exact_full = scenario.evolve_factor, scenario._diagonal_factor

    def counting(x, spectral, times):
        widths.append(x.shape[1])
        return exact_evolve(x, spectral, times)

    def counting_full(p):
        full.append(p.size)
        return exact_full(p)

    monkeypatch.setattr(scenario, "evolve_factor", counting)
    monkeypatch.setattr(scenario, "_diagonal_factor", counting_full)
    model = ModelSpec.level_in_continuum(eps0=0.1, d=1.0, n_levels=8, spacing=0.25, v=0.3)
    measures = [Intervention(0.4 * k, M) for k in (1, 2, 3)]
    run(two_level_scenario(2.0, 0.1, measures, model))
    assert widths == [1] and full == []  # only the pure segment before the first measurement
    widths.clear()
    run(two_level_scenario(2.0, 0.1, [*measures, Intervention(1.5, F, 2),
                                      Intervention(1.7, F, 0)], model))
    assert widths == [1, 2, 4] and full == []
    tight = ModelSpec.level_in_continuum(eps0=0.1, d=1.0, n_levels=8, spacing=2e-6, v=0.3)
    assert band_gaps(*hub(tight)) is None
    run(two_level_scenario(2.0, 0.1, measures, tight))
    assert full == [9, 9, 9]


BAND9 = ModelSpec.level_in_continuum(eps0=0.1, d=1.0, n_levels=8, spacing=0.25, v=0.3)


def test_flip_columns_stay_bounded(monkeypatch):
    """Twelve flips after a measurement would give 24 flip columns; past n
    they are merged into at most n = 9, and the rows stay exact."""
    widths = []
    exact = scenario.evolve_factor

    def counting(x, spectral, times):
        widths.append(x.shape[1])
        return exact(x, spectral, times)

    monkeypatch.setattr(scenario, "evolve_factor", counting)
    flips = [Intervention(0.3 + 0.1 * k, F, (0, 3, 8)[k % 3]) for k in range(12)]
    spec = ScenarioSpec(BAND9, 2.0, 0.1, InterventionSchedule((Intervention(0.2, M), *flips)),
                        coherence_pairs=((1, 0), (8, 3)))
    traj = run(spec)
    assert widths[:5] == [1, 2, 4, 6, 8] and max(widths) == 9 and len(widths) == 13
    assert_matches_reference(traj)


@pytest.mark.parametrize("model", [ModelSpec.two_level(), BAND9], ids=lambda m: f"dim-{m.dim}")
@pytest.mark.parametrize("measured", [False, True], ids=["pure", "measured"])
def test_long_flip_trains_stay_exact(model, measured):
    """200 flips with alternating targets: the check chain's rank-two update
    and the routes must not drift from per-row `evolve`."""
    targets = (0, model.dim - 1)
    flips = [Intervention(0.05 * (k + 1), F, targets[k % 2]) for k in range(200)]
    first = [Intervention(0.02, M)] if measured else []
    spec = ScenarioSpec(model, 10.5, 0.5, InterventionSchedule((*first, *flips)),
                        coherence_pairs=((1, 0), (model.dim - 1, 0)) if model.dim > 2 else None)
    assert_matches_reference(run(spec))


def _failed_gates(m) -> list:
    try:
        HermitianMatrix._wrap(m).validate_density()
    except ValidationError as exc:
        return [gate for gate in ("trace", "eigenvalue", "purity") if gate in str(exc)]
    return []


@pytest.mark.parametrize(
    "spectrum, failed",
    [
        ([-2e-10, 0.5, 0.5 + 2e-10], ["eigenvalue"]),
        ([-5e-11, 0.5, 0.5 + 5e-11], []),
        ([0.2, 0.3, 0.5 + 2e-10], ["trace"]),
        ([0.2, 0.3, 0.5 - 2e-10], ["trace"]),
        ([0.2, 0.3, 0.5 + 5e-11], []),
        ([0.2, 0.3, 0.5 - 5e-11], []),
        ([1.0 + 6e-11, -6e-11], ["purity"]),  # purity 1 + 1.2e-10
        ([1.0 + 4e-11, -4e-11], []),  # purity 1 + 8e-11
        ([(1.0 - 5e-11) / 9] * 9, []),  # purity 1/9 - 1.1e-11
        ([(1.0 - 1e-9) / 9] * 9, ["trace", "purity"]),  # purity 1/9 - 2.2e-10
    ],
)
def test_gates_agree_in_the_eigenbasis(spectrum, failed):
    """The check chain validates V^T rho V in place of rho: every gate of
    `validate_density` must give the same verdict on both, on either side of
    its tolerance."""
    rng = np.random.default_rng(len(spectrum))
    z = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    q = np.linalg.qr(z)[0][:, : len(spectrum)]
    rho = (q * spectrum) @ q.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    vec = eigendecompose(build(BAND9)[0]).eigenvectors
    assert _failed_gates(rho) == failed
    assert _failed_gates(vec.T @ rho @ vec) == failed


def test_run_batch_matches_sequential():
    specs = [
        two_level_scenario(),
        two_level_scenario(schedule=[Intervention(1.0, InterventionKind.MEASURE)]),
        two_level_scenario(schedule=[Intervention(1.0, InterventionKind.SIGN_FLIP)]),
    ]
    batch = run_batch(specs, max_workers=3)
    assert len(batch) == 3
    for spec, traj in zip(specs, batch):
        solo = run(spec)
        assert traj.events == solo.events
        np.testing.assert_array_equal(traj.populations, solo.populations)
    assert run_batch([]) == []


def test_classify_neutral_against_itself():
    ref = run(two_level_scenario(t_final=12.0, dt=0.01))
    out = classify_effect(ref, ref, window=(6.0, 12.0))
    assert out.effect is Effect.NEUTRAL
    assert out.score == 0.0


def test_classify_flip_retards_transfer():
    """A sign flip at 2.5 raises the later average survival: QZE."""
    ref = run(two_level_scenario(t_final=12.0, dt=0.01))
    flipped = run(
        two_level_scenario(
            t_final=12.0,
            dt=0.01,
            schedule=[Intervention(2.5, InterventionKind.SIGN_FLIP)],
        )
    )
    out = classify_effect(ref, flipped, window=(2.5, 8.0))
    assert out.effect is Effect.QZE
    np.testing.assert_allclose(out.score, 0.10788224111229117, atol=1e-12)


def test_classify_freeze_at_half_transfer_accelerates():
    """Dephasing at the half-transfer point pins rho_00 at 1/2: AZE."""
    t_half = np.pi / (2.0 * OMEGA)
    ref = run(two_level_scenario(t_final=12.0, dt=0.01))
    frozen = run(
        two_level_scenario(
            t_final=12.0,
            dt=0.01,
            schedule=[Intervention(t_half, InterventionKind.MEASURE)],
        )
    )
    out = classify_effect(ref, frozen, window=(6.0, 12.0))
    assert out.effect is Effect.AZE
    assert out.score < -0.2


def test_classify_rejects_mismatched_grids():
    a = run(two_level_scenario(t_final=3.0, dt=0.25))
    b = run(two_level_scenario(t_final=3.0, dt=0.5))
    with pytest.raises(ValidationError):
        classify_effect(a, b, window=(1.0, 3.0))


def test_classify_window_gates():
    ref = run(two_level_scenario())
    with pytest.raises(ValidationError):
        classify_effect(ref, ref, window=(2.0, 2.0))
    with pytest.raises(ValidationError):
        classify_effect(ref, ref, window=(3.5, 9.0))  # beyond the horizon


def test_scenario_validation_collects_problems():
    with pytest.raises(ValidationError) as err:
        spec = ScenarioSpec(
            model=ModelSpec.two_level(),
            t_final=-1.0,
            sample_dt=0.0,
            schedule=InterventionSchedule((Intervention(0.0, InterventionKind.MEASURE),)),
            coherence_pairs=((0, 0),),
        )
        spec.validate()
    msg = str(err.value)
    assert "t_final" in msg and "sample_dt" in msg and "pair" in msg
    assert "schedule[0].time" in msg


def test_scenario_rejects_intervention_at_horizon():
    with pytest.raises(ValidationError):
        spec = two_level_scenario(
            schedule=[Intervention(3.0, InterventionKind.MEASURE)]
        )
        spec.validate()


def test_default_pairs_by_kind():
    assert two_level_scenario().resolved_pairs() == ((1, 0),)
    band = ScenarioSpec(
        model=ModelSpec.level_in_continuum(), t_final=1.0, sample_dt=0.5
    )
    assert band.resolved_pairs() == ()
    explicit = ScenarioSpec(
        model=ModelSpec.level_in_continuum(),
        t_final=1.0,
        sample_dt=0.5,
        coherence_pairs=((0, 100),),
    )
    assert explicit.resolved_pairs() == ((0, 100),)


@pytest.mark.parametrize(
    "pairs",
    [((1.5, 0),), (("a", "b"),), ((1,),), ((True, 0),), ((0, 1, 2),), ((np.float64(1.0), 0),)],
)
def test_coherence_pairs_must_be_integer_pairs(pairs):
    with pytest.raises(ValidationError) as err:
        ScenarioSpec(ModelSpec.two_level(), 1.0, 0.5, coherence_pairs=pairs)
    assert [field for field, _ in err.value.problems] == ["coherence_pairs"]


def test_coherence_pairs_accept_numpy_integers():
    spec = ScenarioSpec(ModelSpec.two_level(), 1.0, 0.5, coherence_pairs=((np.int64(1), 0),))
    assert spec.resolved_pairs() == ((1, 0),)


HUGE = 10**5000  # more digits than Python will print


def _evolve_huge():
    h, rho0 = build(ModelSpec.two_level())
    evolve(rho0, eigendecompose(h), HUGE)


def _rk4_huge():
    rk4_evolve(build(ModelSpec.two_level())[1], *hub(ModelSpec.two_level()), HUGE)


@pytest.mark.parametrize(
    "call, error, field",
    [
        (_evolve_huge, ParameterError, "t"),
        (_rk4_huge, ParameterError, "t"),
        (lambda: ModelSpec.two_level(v=HUGE), ParameterError, "model.v"),
        (lambda: ScenarioSpec(ModelSpec.two_level(), HUGE, 0.1), ValidationError, "t_final"),
    ],
    ids=["evolve", "rk4_evolve", "model.v", "t_final"],
)
def test_huge_integers_raise_library_errors(call, error, field):
    """Python refuses to print such an int; the message names it by size."""
    with pytest.raises(error) as err:
        call()
    assert f"{field} " in str(err.value) and "<int of 16610 bits>" in str(err.value)


# the fuzz pool: non-finite, huge, negative and non-integer values, and wrong
# types; kinds and pair entries add wrong values of their own
_BAD = [math.nan, math.inf, -math.inf, HUGE, -1, 1.5, None, True, "1", [], 1j]
_BAD_KINDS = [*_BAD, "measure", "sign_flip", "bogus"]
_BAD_PAIR_ENTRIES = [*_BAD, "a", np.float64(1.0)]
# a whole argument replaced: a string, an int, or its content as a plain list
_SWAPPED = [None, "model", "schedule", "coherence_pairs"]


@st.composite
def spoiled_spec_arguments(draw):
    """A small valid run (two-level or 4-level band) with up to three fields
    replaced by a bad value, and perhaps one whole argument by a wrong type."""
    band = draw(st.booleans())
    if band:
        model = {"eps0": 0.0, "d": 1.0, "n_levels": 4, "spacing": 0.5, "v": 0.1}
    else:
        model = {"eps0": -0.2, "eps1": 0.2, "v": 0.2}
    timing = {"t_final": 2.0, "sample_dt": 0.5}
    events = [
        {"time": 0.5 * (i + 1), "kind": draw(st.sampled_from(list(InterventionKind))),
         "target": draw(st.sampled_from([0, 1]))}
        for i in range(draw(st.integers(0, 2)))
    ]
    pairs = [[1, 0], [0, 1]][: draw(st.integers(0, 2))]
    swap = (draw(st.sampled_from(_SWAPPED)), draw(st.sampled_from(["x", 5, "list"])))
    fields = [(obj, key) for obj in (model, timing, *events) for key in obj]
    fields += [(pair, i) for pair in pairs for i in (0, 1)]
    for _ in range(draw(st.integers(0 if swap[0] else 1, 3))):
        obj, key = draw(st.sampled_from(fields))
        pool = _BAD_KINDS if key == "kind" else _BAD_PAIR_ENTRIES if isinstance(obj, list) else _BAD
        obj[key] = draw(st.sampled_from(pool))
    return band, model, timing, events, pairs, swap


@settings(max_examples=200, deadline=None, derandomize=True)
@given(args=spoiled_spec_arguments())
def test_fuzzed_specs_raise_only_library_errors(args):
    """The library counterpart of the CLI's fuzzed-config test: a spec built
    from bad values either runs or raises a ZenosimError, nothing else."""
    band, model, timing, events, pairs, (swapped, wrong) = args
    factory = ModelSpec.level_in_continuum if band else ModelSpec.two_level
    try:
        arguments = {
            "model": factory(**model),
            "schedule": InterventionSchedule(tuple(Intervention(**e) for e in events)),
            "coherence_pairs": tuple(tuple(p) for p in pairs),
        }
        if swapped is not None:
            value = arguments[swapped]
            plain = [value] if swapped == "model" else list(value)
            arguments[swapped] = plain if wrong == "list" else wrong
        run(ScenarioSpec(t_final=timing["t_final"], sample_dt=timing["sample_dt"], **arguments))
    except ZenosimError:
        pass


@pytest.mark.parametrize(
    "call, error, field",
    [
        (lambda: ScenarioSpec(ModelSpec.two_level(), "1.0", 0.5), ValidationError, "t_final"),
        (
            lambda: ScenarioSpec(
                ModelSpec.two_level(), 1.0, 0.5,
                InterventionSchedule((Intervention("0.5", InterventionKind.MEASURE),)),
            ),
            ValidationError,
            "schedule[0].time",
        ),
        (
            lambda: ScenarioSpec(ModelSpec.two_level(), 1.0, 0.5, coherence_pairs=5),
            ValidationError,
            "coherence_pairs",
        ),
        (
            lambda: ModelSpec(kind="two_level", v=0.2, eps0=-0.2, eps1=0.2),
            ParameterError,
            "model.kind",
        ),
        (lambda: ModelSpec.two_level(v=True), ParameterError, "model.v"),
        (
            lambda: ModelSpec(kind=ModelKind.TWO_LEVEL, v=0.2, eps0=-0.2, eps1=0.2, d=5.0),
            ParameterError,
            "model.d",
        ),
        (lambda: ScenarioSpec("x", 1.0, 0.5), ValidationError, "model"),
        (
            lambda: ScenarioSpec(
                ModelSpec.two_level(), 1.0, 0.5,
                schedule=[Intervention(0.5, InterventionKind.MEASURE)],
            ),
            ValidationError,
            "schedule",
        ),
        (lambda: InterventionSchedule(5), ValidationError, "schedule"),
    ],
    ids=[
        "str-t_final", "str-time", "int-pairs", "str-kind", "bool-v", "d-on-two-level",
        "str-model", "list-schedule", "int-schedule-items",
    ],
)
def test_wrong_types_name_their_field(call, error, field):
    """A wrong type in a library argument is a library error naming its field."""
    with pytest.raises(error) as err:
        call()
    assert [name for name, _ in err.value.problems] == [field]
