"""End-to-end runs: sampling, tie handling, determinism, classification."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zenosim import scenario
from zenosim.core import HermitianMatrix, ParameterError, ValidationError, ZenosimError
from zenosim.diagnostics import record_observables
from zenosim.interventions import (
    Intervention,
    InterventionKind,
    InterventionSchedule,
    apply_intervention,
)
from zenosim.models import ModelKind, ModelSpec, build, hub
from zenosim.propagator import eigendecompose, evolve, rk4_evolve
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
    """Small bands, coupled strongly enough that every level moves."""
    n = draw(st.integers(2, 12))
    d = draw(st.floats(0.5, 2.0))
    factory = draw(
        st.sampled_from([ModelSpec.level_in_continuum, ModelSpec.level_outside_continuum])
    )
    return factory(
        eps0=draw(st.floats(-2.0, 2.0)),
        d=d,
        n_levels=n,
        spacing=draw(st.floats(0.1, 1.0)) * 2 * d / (n - 1),
        v=draw(st.floats(0.05, 0.5)),
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
def test_run_matches_per_row_evolve_and_rk4(spec):
    """A flip after a measurement leaves a mixed state with coherences,
    which only a full factor X (not a diagonal shortcut) carries."""
    traj = run(spec)
    names = ["populations", "sigma", "coherences", "trace", "purity", "energy"]
    for name, want in zip(names, reference_columns(traj)):
        got = getattr(traj, name)
        np.testing.assert_allclose(got, want.reshape(got.shape), rtol=0, atol=1e-12, err_msg=name)
    final = record_observables(
        rk4_final_state(spec, traj.t[-1]), *hub(spec.model), spec.resolved_pairs()
    )
    tol = 1e-12 if spec.model.kind is ModelKind.TWO_LEVEL else 1e-8
    np.testing.assert_allclose(traj.populations[-1], final[0], rtol=0, atol=tol)
    np.testing.assert_allclose(traj.sigma[-1], final[1], rtol=0, atol=tol)


def test_cross_check_names_the_row_that_drifts(monkeypatch):
    """`run` compares its factored populations with `evolve` at every
    pre row; a 1e-9 drift there must stop the run."""
    exact = scenario.evolve

    def drifting(rho, spectral, t):
        m = np.asarray(exact(rho, spectral, t))
        m[0, 0] += 1e-9
        m[1, 1] -= 1e-9
        return HermitianMatrix(m)

    monkeypatch.setattr(scenario, "evolve", drifting)
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


# the fuzz pool: non-finite, huge, negative and non-integer values; kinds and
# pair entries add wrong types of their own
_BAD = [math.nan, math.inf, -math.inf, HUGE, -1, 1.5]
_BAD_KINDS = [*_BAD, "measure", "sign_flip", "bogus", None]
_BAD_PAIR_ENTRIES = [*_BAD, "a", None, True, np.float64(1.0)]


@st.composite
def spoiled_spec_arguments(draw):
    """A small valid run (two-level or 4-level band) with one to three fields
    replaced by a bad value."""
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
    fields = [(obj, key) for obj in (model, timing, *events) for key in obj]
    fields += [(pair, i) for pair in pairs for i in (0, 1)]
    for _ in range(draw(st.integers(1, 3))):
        obj, key = draw(st.sampled_from(fields))
        pool = _BAD_KINDS if key == "kind" else _BAD_PAIR_ENTRIES if isinstance(obj, list) else _BAD
        obj[key] = draw(st.sampled_from(pool))
    return band, model, timing, events, pairs


@settings(max_examples=200, deadline=None, derandomize=True)
@given(args=spoiled_spec_arguments())
def test_fuzzed_specs_raise_only_library_errors(args):
    """The library counterpart of the CLI's fuzzed-config test: a spec built
    from bad values either runs or raises a ZenosimError, nothing else."""
    band, model, timing, events, pairs = args
    factory = ModelSpec.level_in_continuum if band else ModelSpec.two_level
    try:
        schedule = InterventionSchedule(tuple(Intervention(**e) for e in events))
        pairs = tuple(tuple(p) for p in pairs)
        run(ScenarioSpec(factory(**model), timing["t_final"], timing["sample_dt"], schedule, pairs))
    except ZenosimError:
        pass
