"""Observables and the exact rate identities they must satisfy."""

import numpy as np
import pytest

from zenosim.core import HermitianMatrix, UnsupportedPairError, ValidationError, as_matrix
from zenosim.diagnostics import (
    coherence_rate,
    factor_observables,
    population_rate_residual,
    record_observables,
    sigma,
    validate_observables,
)
from zenosim.interventions import measure_dephase, sign_flip
from zenosim.models import ModelSpec, build, hub
from zenosim.propagator import eigendecompose, evolve

FD = 1e-6
# (eps, c) of the two fixtures' Hamiltonians
HUB2 = hub(ModelSpec.two_level())
HUB_BAND = hub(ModelSpec.level_in_continuum())


@pytest.fixture(scope="module")
def two_level():
    h, rho0 = build(ModelSpec.two_level())
    return h, rho0, eigendecompose(h)


@pytest.fixture(scope="module")
def in_band():
    h, rho0 = build(ModelSpec.level_in_continuum())
    return h, rho0, eigendecompose(h)


def fd_matrix_rate(state, spectral):
    ahead = np.asarray(evolve(state, spectral, FD))
    behind = np.asarray(evolve(state, spectral, -FD))
    return (ahead - behind) / (2.0 * FD)


def test_sigma_zero_on_diagonal_states():
    assert sigma(HermitianMatrix.basis_state(4, 0)) == 0.0
    assert sigma(HermitianMatrix(np.diag([0.3, 0.3, 0.4]))) == 0.0


def test_sigma_two_level_value(two_level):
    h, rho0, spectral = two_level
    state = evolve(rho0, spectral, 1.0)
    np.testing.assert_allclose(sigma(state), 0.18950270544495065, atol=1e-13)
    # sign convention: positive while population leaves state 0
    assert sigma(state) == pytest.approx(-np.asarray(state)[1, 0].imag, abs=1e-15)


def test_sigma_vanishes_exactly_after_dephasing(two_level):
    h, rho0, spectral = two_level
    state = evolve(rho0, spectral, 1.0)
    assert sigma(measure_dephase(state)) == 0.0


def test_population_rate_residual_stationary_state(in_band):
    h, _, spectral = in_band
    maximally_mixed = HermitianMatrix(np.eye(201, dtype=complex) / 201.0)
    assert population_rate_residual(maximally_mixed, h, 0, spectral) < 1e-12


def test_population_rate_residual_two_level(two_level):
    h, rho0, spectral = two_level
    rng = np.random.default_rng(42)
    for t in rng.uniform(0.0, 12.0, size=50):
        state = evolve(rho0, spectral, t)
        assert population_rate_residual(state, h, 0, spectral) < 1e-6
        assert population_rate_residual(state, h, 1, spectral) < 1e-6


@pytest.mark.parametrize("t", [10.0, 30.0, 55.0, 80.0])
def test_population_rate_residual_band(in_band, t):
    h, rho0, spectral = in_band
    state = evolve(rho0, spectral, t)
    assert population_rate_residual(state, h, 0, spectral) < 1e-8


def test_hub_outflow_equals_summed_coherences(in_band):
    """d rho_00 / dt = -2 v sigma, the identity behind the sigma column."""
    h, rho0, spectral = in_band
    state = evolve(rho0, spectral, 30.0)
    fd = fd_matrix_rate(state, spectral)[0, 0].real
    assert abs(fd + 2.0 * 0.01 * sigma(state)) < 1e-8


def test_coherence_rate_initial_state(two_level):
    h, rho0, _ = two_level
    d_re, d_im = coherence_rate(rho0, *HUB2, 0, 1)
    assert d_re == 0.0
    np.testing.assert_allclose(d_im, 0.2, atol=1e-15)


def test_coherence_rate_matches_derivative_two_level(two_level):
    """For an isolated pair the rate formulas are exact at all times."""
    h, rho0, spectral = two_level
    for t in np.linspace(0.3, 11.7, 20):
        state = evolve(rho0, spectral, t)
        fd = fd_matrix_rate(state, spectral)[1, 0]
        d_re, d_im = coherence_rate(state, *HUB2, 1, 0)
        np.testing.assert_allclose(d_re, fd.real, atol=1e-8)
        np.testing.assert_allclose(d_im, fd.imag, atol=1e-8)


def test_coherence_rate_after_dephasing(two_level):
    h, rho0, spectral = two_level
    dephased = measure_dephase(evolve(rho0, spectral, 1.0))
    d_re, d_im = coherence_rate(dephased, *HUB2, 1, 0)
    assert d_re == 0.0  # no Im left to rotate into Re
    # restart growth rate set purely by the population imbalance
    m = np.asarray(dephased)
    np.testing.assert_allclose(d_im, (m[1, 1].real - m[0, 0].real) * 0.2, atol=1e-15)


def test_coherence_rate_sign_flip_relation(two_level):
    h, rho0, spectral = two_level
    state = evolve(rho0, spectral, 2.1)
    d_re, d_im = coherence_rate(state, *HUB2, 1, 0)
    f_re, f_im = coherence_rate(sign_flip(state, 0), *HUB2, 1, 0)
    m = np.asarray(state)
    pop_term = (m[1, 1].real - m[0, 0].real) * 0.2
    np.testing.assert_allclose(f_re, -d_re, atol=1e-15)
    np.testing.assert_allclose(f_im + d_im, 2.0 * pop_term, atol=1e-14)


def test_coherence_rate_unsupported_pairs(in_band):
    h, rho0, _ = in_band
    with pytest.raises(UnsupportedPairError):
        coherence_rate(rho0, *HUB_BAND, 3, 3)
    with pytest.raises(UnsupportedPairError):
        coherence_rate(rho0, *HUB_BAND, 1, 2)  # band levels never couple directly


def test_hub_coherence_rate_exact_at_dephased_state(in_band):
    """With every coherence erased the hub formulas lose their blind spot."""
    h, rho0, spectral = in_band
    dephased = measure_dephase(evolve(rho0, spectral, 30.0))
    fd = fd_matrix_rate(dephased, spectral)
    for k in (1, 50, 100, 200):
        d_re, d_im = coherence_rate(dephased, *HUB_BAND, 0, k)
        np.testing.assert_allclose(d_re, fd[0, k].real, atol=1e-12)
        np.testing.assert_allclose(d_im, fd[0, k].imag, atol=1e-12)


def test_hub_coherence_rate_gap_mid_trajectory(in_band):
    """Mid-trajectory the omitted closure feed is visible but stays O(v)."""
    h, rho0, spectral = in_band
    state = evolve(rho0, spectral, 30.0)
    fd = fd_matrix_rate(state, spectral)
    worst = 0.0
    for k in range(1, 201):
        d_re, d_im = coherence_rate(state, *HUB_BAND, 0, k)
        worst = max(worst, abs(d_re - fd[0, k].real), abs(d_im - fd[0, k].imag))
    assert 1e-5 < worst < 5e-3, f"closure gap {worst}"


def test_record_observables_energy_against_dense_trace(in_band):
    h, rho0, spectral = in_band
    state = evolve(rho0, spectral, 17.0)
    pops, _, coherences, trace, purity, energy = record_observables(
        state, *HUB_BAND, pairs=((0, 1),)
    )
    m = np.asarray(state)
    want = float(np.real(np.trace(h @ m)))
    np.testing.assert_allclose(energy, want, atol=1e-12)
    assert coherences == [m[0, 1]]
    np.testing.assert_array_equal(pops, np.real(np.diagonal(m)))
    np.testing.assert_allclose(trace, 1.0, atol=1e-12)
    np.testing.assert_allclose(purity, np.sum(np.abs(m) ** 2), atol=1e-14)


def test_record_observables_populations_do_not_hold_the_state(in_band):
    """`run` keeps a row's populations after it drops the state; a view
    into rho would keep the whole n x n matrix alive."""
    _, rho0, spectral = in_band
    state = evolve(rho0, spectral, 3.0)
    pops = record_observables(state, *HUB_BAND)[0]
    assert not np.shares_memory(pops, as_matrix(state))


def test_observable_record_validation():
    with pytest.raises(ValidationError):
        validate_observables(np.array([[0.7, 0.7]]), np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValidationError) as err:
        validate_observables(
            np.array([[1.0, 0.0], [0.5, 0.5]]), np.array([1.0, 1.0]), np.array([1.0, 1.5])
        )
    assert "purity 1.5" in str(err.value) and "row 1" in str(err.value)
    validate_observables(np.array([[0.5, 0.5]]), np.array([1.0]), np.array([0.5]))


def test_factor_observables_match_record_observables(in_band):
    """Three rows of a random mixed factor against the full matrices."""
    h, _, _ = in_band
    rng = np.random.default_rng(3)
    n, pairs = h.shape[0], ((0, 5), (7, 2), (1, 0))
    q, _ = np.linalg.qr(rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4)))
    blocks = np.stack([q * np.exp(1j * k) for k in range(3)], axis=1)  # (n, rows, m)
    w = np.array([0.5, 0.3, 0.15, 0.05])
    got = factor_observables(blocks, w, *HUB_BAND, pairs)
    for r in range(3):
        x = blocks[:, r]
        want = record_observables((x * w) @ x.conj().T, *HUB_BAND, pairs)
        for a, b in zip(got, want):
            np.testing.assert_allclose(a[r], b, rtol=0, atol=1e-14)

