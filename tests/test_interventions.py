"""Dephasing and sign-flip maps, plus schedule validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenosim.core import HermitianMatrix, ParameterError, ValidationError
from zenosim.interventions import (
    Intervention,
    InterventionKind,
    InterventionSchedule,
    apply_intervention,
    measure_dephase,
    sign_flip,
)


def random_density(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = a @ a.conj().T
    return HermitianMatrix(m / np.real(np.trace(m)))


def populations(rho):
    return np.real(np.diagonal(np.asarray(rho)))


def purity(rho):
    return np.sum(np.abs(np.asarray(rho)) ** 2)


def test_dephase_zeroes_every_coherence():
    rho = random_density(np.random.default_rng(0), 4)
    out = np.asarray(measure_dephase(rho))
    off = out - np.diag(np.diagonal(out))
    np.testing.assert_array_equal(off, 0.0)  # exactly zero, not merely small
    np.testing.assert_array_equal(np.diagonal(out), populations(rho))


def test_dephase_idempotent_exactly():
    rho = random_density(np.random.default_rng(1), 5)
    once = measure_dephase(rho)
    twice = measure_dephase(once)
    np.testing.assert_array_equal(np.asarray(once), np.asarray(twice))


def test_dephase_preserves_trace_exactly():
    rho = random_density(np.random.default_rng(2), 6)
    assert np.trace(np.asarray(measure_dephase(rho))).real == np.trace(np.asarray(rho)).real


def test_dephase_never_increases_purity():
    rng = np.random.default_rng(3)
    for dim in (2, 3, 7):
        rho = random_density(rng, dim)
        assert purity(measure_dephase(rho)) <= purity(rho) + 1e-15


def test_dephase_rejects_non_density():
    with pytest.raises(ValidationError):
        measure_dephase(HermitianMatrix(2.0 * np.eye(2)))


def test_sign_flip_equals_explicit_conjugation():
    rho = random_density(np.random.default_rng(4), 5)
    target = 2
    u = np.eye(5)
    u[target, target] = -1.0
    want = u @ np.asarray(rho) @ u
    got = np.asarray(sign_flip(rho, target))
    np.testing.assert_array_equal(got, want)  # pure sign flips, no roundoff


def test_sign_flip_involutive_exactly():
    rho = random_density(np.random.default_rng(5), 4)
    back = sign_flip(sign_flip(rho, 1), 1)
    np.testing.assert_array_equal(np.asarray(back), np.asarray(rho))


def test_sign_flip_preserves_populations_and_spectrum():
    rho = random_density(np.random.default_rng(6), 5)
    out = sign_flip(rho, 0)
    np.testing.assert_array_equal(populations(out), populations(rho))
    np.testing.assert_allclose(out.eigenvalues(), rho.eigenvalues(), atol=1e-12)
    assert purity(out) == pytest.approx(purity(rho), abs=1e-15)


@pytest.mark.parametrize("apply", [measure_dephase, lambda rho: sign_flip(rho, 0)])
def test_maps_reject_a_raw_non_hermitian_array(apply):
    with pytest.raises(ValidationError, match="not Hermitian"):
        apply(np.array([[0.5, 0.3], [0.0, 0.5]]))


def test_sign_flip_target_bounds():
    rho = HermitianMatrix.basis_state(3, 0)
    with pytest.raises(ParameterError):
        sign_flip(rho, 3)
    with pytest.raises(ParameterError):
        sign_flip(rho, -1)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=2, max_value=6),
)
def test_maps_commute_with_hermiticity(seed, dim):
    """Both maps return valid densities with untouched populations."""
    rng = np.random.default_rng(seed)
    rho = random_density(rng, dim)
    target = int(rng.integers(dim))
    for out in (measure_dephase(rho), sign_flip(rho, target)):
        out.validate_density()
        np.testing.assert_array_equal(populations(out), populations(rho))


@pytest.mark.parametrize(
    "call",
    [
        lambda: sign_flip(HermitianMatrix.basis_state(3, 0), 1.5),
        lambda: sign_flip(HermitianMatrix.basis_state(3, 0), True),
        lambda: HermitianMatrix.basis_state(2, 1.5),
        lambda: HermitianMatrix.basis_state(2, True),
    ],
    ids=["flip-float", "flip-bool", "basis-float", "basis-bool"],
)
def test_state_index_must_be_an_integer(call):
    """Unchecked, numpy raises IndexError for 1.5 and reads True as a mask."""
    with pytest.raises(ParameterError, match="is not an integer"):
        call()


def test_apply_intervention_dispatch():
    rho = random_density(np.random.default_rng(7), 3)
    m = apply_intervention(rho, Intervention(1.0, InterventionKind.MEASURE))
    np.testing.assert_array_equal(np.asarray(m), np.asarray(measure_dephase(rho)))
    f = apply_intervention(rho, Intervention(1.0, InterventionKind.SIGN_FLIP, target=2))
    np.testing.assert_array_equal(np.asarray(f), np.asarray(sign_flip(rho, 2)))


def test_schedule_accepts_increasing_times():
    sched = InterventionSchedule(
        (
            Intervention(1.0, InterventionKind.MEASURE),
            Intervention(2.5, InterventionKind.SIGN_FLIP),
        )
    )
    sched.validate(dim=2, t_final=10.0)
    assert len(sched) == 2


@pytest.mark.parametrize(
    "times, message",
    [
        ((0.0,), "positive"),
        ((-1.0,), "positive"),
        ((2.0, 2.0), "increase"),
        ((3.0, 1.0), "increase"),
    ],
)
def test_schedule_rejects_bad_times(times, message):
    sched = InterventionSchedule(
        tuple(Intervention(t, InterventionKind.MEASURE) for t in times)
    )
    with pytest.raises(ValidationError) as err:
        sched.validate()
    assert message in str(err.value)


def test_schedule_rejects_time_past_horizon():
    sched = InterventionSchedule((Intervention(5.0, InterventionKind.MEASURE),))
    with pytest.raises(ValidationError):
        sched.validate(t_final=5.0)


def test_schedule_rejects_target_out_of_range():
    sched = InterventionSchedule(
        (Intervention(1.0, InterventionKind.SIGN_FLIP, target=7),)
    )
    with pytest.raises(ValidationError):
        sched.validate(dim=3)


@pytest.mark.parametrize("target", [0.5, 1.0, True, "1", None])
def test_schedule_rejects_non_integer_target(target):
    sched = InterventionSchedule((Intervention(1.0, InterventionKind.SIGN_FLIP, target),))
    with pytest.raises(ValidationError) as err:
        sched.validate(dim=3)
    assert err.value.problems == (("schedule[0].target", f"{target!r} is not an integer"),)


@pytest.mark.parametrize("target", [1, np.int64(1), np.uint8(1)])
def test_schedule_accepts_integer_target(target):
    InterventionSchedule((Intervention(1.0, InterventionKind.SIGN_FLIP, target),)).validate(dim=3)


@pytest.mark.parametrize("kind", ["bogus", "sign_flip", None, 0])
def test_schedule_rejects_a_kind_that_is_not_an_intervention_kind(kind):
    sched = InterventionSchedule((Intervention(0.5, kind),))
    with pytest.raises(ValidationError) as err:
        sched.validate(dim=3)
    assert err.value.problems == (("schedule[0].kind", f"{kind!r} is not an InterventionKind"),)


def test_empty_schedule_is_valid():
    InterventionSchedule().validate(dim=2, t_final=1.0)
