"""Propagation: spectral solver against closed forms, RK4 as cross-check.

The two-level defaults admit a full closed-form solution, written out
here independently of the package, so every matrix entry of `evolve`
can be checked at arbitrary times.
"""

import numpy as np
import pytest
import scipy.linalg

from zenosim.core import HermitianMatrix, ParameterError, ValidationError
from zenosim.diagnostics import record_observables
from zenosim.models import ModelSpec, build, hub
from zenosim.propagator import (
    eigendecompose,
    evolve,
    evolve_factor,
    liouville_rhs,
    rk4_evolve,
)

OMEGA = 0.2 * np.sqrt(2.0)  # Rabi frequency of the default two-level system
T_HALF = np.pi / (2.0 * OMEGA)  # first time rho_00 reaches 1/2
HUB2 = hub(ModelSpec.two_level())  # (eps, c) of the two-level fixture's H


def rabi_state(t):
    """Exact density matrix of the default two-level system at time t.

    Starting from |0><0| with H = [[-0.2, 0.2], [0.2, 0.2]], the
    populations oscillate as sin^2 at frequency Omega = 0.2 sqrt(2) and
    the coherence traces a circle of radius 1/2 in the lower half plane.
    """
    s, c = np.sin(OMEGA * t), np.cos(OMEGA * t)
    rho00 = 1.0 - 0.5 * s * s
    re10 = -0.5 * s * s
    im10 = -s * c / np.sqrt(2.0)
    return np.array(
        [
            [rho00, re10 - 1j * im10],
            [re10 + 1j * im10, 1.0 - rho00],
        ]
    )


@pytest.fixture(scope="module")
def two_level():
    h, rho0 = build(ModelSpec.two_level())
    return h, rho0, eigendecompose(h)


def test_evolve_matches_closed_form_everywhere(two_level):
    h, rho0, spectral = two_level
    rng = np.random.default_rng(2024)
    for t in rng.uniform(0.0, 12.0, size=1000):
        got = evolve(rho0, spectral, t)
        np.testing.assert_allclose(np.asarray(got), rabi_state(t), atol=1e-12)


def test_survival_at_unit_time(two_level):
    h, rho0, spectral = two_level
    got = evolve(rho0, spectral, 1.0)
    np.testing.assert_allclose(np.asarray(got)[0, 0].real, 0.9610553536741537, atol=1e-13)
    np.testing.assert_allclose(np.asarray(got)[1, 0].imag, -0.18950270544495065, atol=1e-13)


def test_state_at_half_transfer_time(two_level):
    h, rho0, spectral = two_level
    got = evolve(rho0, spectral, T_HALF)
    np.testing.assert_allclose(np.asarray(got)[0, 0].real, 0.5, atol=1e-12)
    # coherence is purely real and maximal there
    np.testing.assert_allclose(np.asarray(got)[0, 1], -0.5 + 0.0j, atol=1e-12)


def test_negative_time_reverses(two_level):
    h, rho0, spectral = two_level
    there = evolve(rho0, spectral, 2.2)
    back = evolve(there, spectral, -2.2)
    np.testing.assert_allclose(np.asarray(back), np.asarray(rho0), atol=1e-13)


def test_composition(two_level):
    h, rho0, spectral = two_level
    stepped = evolve(evolve(rho0, spectral, 1.3), spectral, 2.4)
    direct = evolve(rho0, spectral, 3.7)
    np.testing.assert_allclose(np.asarray(stepped), np.asarray(direct), atol=1e-13)


def test_purity_and_energy_conserved(two_level):
    h, rho0, spectral = two_level
    for t in np.linspace(0.0, 12.0, 25):
        state = evolve(rho0, spectral, t)
        np.testing.assert_allclose(record_observables(state, *HUB2)[4], 1.0, atol=1e-10)
        energy = np.real(np.trace(h @ np.asarray(state)))
        np.testing.assert_allclose(energy, -0.2, atol=1e-10)


def test_evolve_zero_time_is_identity(two_level):
    h, rho0, spectral = two_level
    got = evolve(rho0, spectral, 0.0)
    np.testing.assert_allclose(np.asarray(got), np.asarray(rho0), atol=1e-15)


def test_evolve_rejects_wrong_dimension(two_level):
    _, _, spectral = two_level
    with pytest.raises(ValidationError):
        evolve(HermitianMatrix(np.zeros((3, 3))), spectral, 1.0)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, pytest.param(10**400, id="huge-int")])
def test_non_finite_time_rejected(two_level, t):
    h, rho0, spectral = two_level
    with pytest.raises(ParameterError, match="finite"):
        evolve(rho0, spectral, t)
    with pytest.raises(ParameterError, match="finite"):
        rk4_evolve(rho0, *HUB2, t)


def test_evolve_rejects_a_raw_non_hermitian_array(two_level):
    _, _, spectral = two_level
    with pytest.raises(ValidationError, match="not Hermitian"):
        evolve(np.array([[0.5, 0.3], [0.0, 0.5]]), spectral, 1.0)


def test_evolve_of_a_raw_hermitian_array_equals_evolve_of_its_instance(two_level):
    _, _, spectral = two_level
    raw = np.array([[0.7, 0.1 - 0.2j], [0.1 + 0.2j, 0.3]])
    np.testing.assert_array_equal(
        np.asarray(evolve(raw, spectral, 1.7)),
        np.asarray(evolve(HermitianMatrix(raw), spectral, 1.7)),
    )


def test_liouville_rhs_initial_value(two_level):
    h, rho0, _ = two_level
    rhs = liouville_rhs(*HUB2, rho0)
    np.testing.assert_allclose(rhs, [[0.0, 0.2j], [-0.2j, 0.0]], atol=1e-15)


def test_liouville_rhs_is_time_derivative(two_level):
    h, rho0, spectral = two_level
    state = evolve(rho0, spectral, 3.3)
    step = 1e-6
    ahead = np.asarray(evolve(state, spectral, step))
    behind = np.asarray(evolve(state, spectral, -step))
    fd = (ahead - behind) / (2.0 * step)
    np.testing.assert_allclose(fd, liouville_rhs(*HUB2, state), atol=1e-7)


@pytest.mark.parametrize("n", [2, 6, 201])
def test_liouville_rhs_matches_dense_commutator(n):
    """The O(n^2) hub products against -i (H m - m H) with H written out,
    for a density matrix and for a non-Hermitian complex m."""
    rng = np.random.default_rng(n)
    eps, c = rng.standard_normal(n), rng.standard_normal(n)
    c[0] = 0.0
    h = np.diag(eps)
    h[0] += c
    h[:, 0] += c
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = a @ a.conj().T
    rho /= np.real(np.trace(rho))
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    for state in (rho, m):
        want = -1j * (h @ state - state @ h)
        err = np.max(np.abs(liouville_rhs(eps, c, state) - want))
        assert err <= 1e-13 * np.max(np.abs(want)), err


def test_eigendecompose_rejects_asymmetric():
    with pytest.raises(ValidationError):
        eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        eigendecompose(np.array([[0.0, 1e-6j], [-1e-6j, 0.0]]))


@pytest.mark.parametrize(
    "h", [[[np.nan, 0.2], [0.2, 0.1]], [[0.0, 0.2 + np.nan * 1j], [0.2, 0.1]]], ids=["re", "im"]
)
def test_eigendecompose_symmetry_gate_rejects_nan(h):
    with pytest.raises(ValidationError, match="real symmetric"):
        eigendecompose(np.array(h))


def test_eigendecompose_reconstruction_gate_rejects_nan(monkeypatch):
    # a finite symmetric input never yields NaN, so eigh is made to return one
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (np.array([np.nan, 1.0]), np.eye(2)))
    with pytest.raises(ValidationError, match="reconstruction residual nan"):
        eigendecompose(np.eye(2))


def test_eigendecompose_reconstructs(two_level):
    h, _, spectral = two_level
    rebuilt = (spectral.eigenvectors * spectral.eigenvalues) @ spectral.eigenvectors.T
    np.testing.assert_allclose(rebuilt, h, atol=1e-14)
    np.testing.assert_allclose(spectral.eigenvalues, [-OMEGA, OMEGA], atol=1e-15)


def test_rk4_matches_spectral_two_level(two_level):
    h, rho0, spectral = two_level
    got = rk4_evolve(rho0, *HUB2, 10.0, dt=1e-3)
    want = evolve(rho0, spectral, 10.0)
    np.testing.assert_allclose(np.asarray(got), np.asarray(want), atol=1e-12)


def test_rk4_order_four_convergence(two_level):
    """Halving the step cuts the error by about 2^4."""
    h, rho0, spectral = two_level
    want = np.asarray(evolve(rho0, spectral, 10.0))
    err = {}
    for dt in (0.1, 0.05):
        got = np.asarray(rk4_evolve(rho0, *HUB2, 10.0, dt=dt))
        err[dt] = np.max(np.abs(got - want))
    ratio = err[0.1] / err[0.05]
    assert 12.0 < ratio < 20.0, f"convergence ratio {ratio}"


@pytest.mark.parametrize(
    "spec",
    [ModelSpec.level_in_continuum(), ModelSpec.level_outside_continuum()],
    ids=["in_band", "outside_band"],
)
def test_rk4_matches_spectral_on_band_models(spec):
    # short horizon keeps the 201-level integration affordable
    h, rho0 = build(spec)
    got = rk4_evolve(rho0, *hub(spec), 1.0, dt=1e-3)
    want = evolve(rho0, eigendecompose(h), 1.0)
    np.testing.assert_allclose(np.asarray(got), np.asarray(want), atol=1e-8)


@pytest.mark.parametrize(
    "spec",
    [ModelSpec.two_level(), ModelSpec.level_in_continuum(), ModelSpec.level_outside_continuum()],
    ids=["two_level", "in_band", "outside_band"],
)
def test_evolve_matches_matrix_exponential(spec):
    """U rho U^H with U = expm(-iHt) shares no code with eigh; full-rank
    and rank-two complex mixed states, forwards and backwards."""
    h, _ = build(spec)
    spectral = eigendecompose(h)
    rng = np.random.default_rng(h.shape[0])
    for rank in (h.shape[0], 2):
        a = rng.standard_normal((h.shape[0], rank)) + 1j * rng.standard_normal((h.shape[0], rank))
        rho = a @ a.conj().T
        rho /= np.real(np.trace(rho))
        for t in (0.37, 3.0, -1.2, 120.0):
            u = scipy.linalg.expm(-1j * h * t)
            got = np.asarray(evolve(rho, spectral, t))
            np.testing.assert_allclose(got, u @ rho @ u.conj().T, rtol=0, atol=1e-12)


def test_rk4_remainder_only_step(two_level):
    h, rho0, spectral = two_level
    got = rk4_evolve(rho0, *HUB2, 0.0004, dt=1e-3)  # t < dt: single remainder step
    want = evolve(rho0, spectral, 0.0004)
    np.testing.assert_allclose(np.asarray(got), np.asarray(want), atol=1e-12)


def test_rk4_zero_time(two_level):
    h, rho0, _ = two_level
    got = rk4_evolve(rho0, *HUB2, 0.0)
    np.testing.assert_array_equal(np.asarray(got), np.asarray(rho0))


def test_rk4_parameter_gates(two_level):
    h, rho0, _ = two_level
    with pytest.raises(ParameterError):
        rk4_evolve(rho0, *HUB2, -1.0)
    with pytest.raises(ParameterError):
        rk4_evolve(rho0, *HUB2, 1.0, dt=0.0)


@pytest.mark.parametrize("m", [1, 3, 201])
def test_evolve_factor_matches_evolve(m):
    """Pure (one column) and mixed factors, across several blocks."""
    h, _ = build(ModelSpec.level_outside_continuum())
    spectral = eigendecompose(h)
    rng = np.random.default_rng(m)
    x, _ = np.linalg.qr(rng.standard_normal((201, m)) + 1j * rng.standard_normal((201, m)))
    w = rng.random(m)
    w /= w.sum()
    rho = HermitianMatrix((x * w) @ x.conj().T)
    # 170 pure rows fill three blocks; 201 columns take one row per block
    times = np.linspace(0.0, 3.0, 170 if m == 1 else 3)
    seen = 0
    for first, block in evolve_factor(x, spectral, times):
        assert first == seen
        for r in range(0, block.shape[1], 7):
            xt = block[:, r]
            want = np.asarray(evolve(rho, spectral, times[first + r]))
            np.testing.assert_allclose((xt * w) @ xt.conj().T, want, rtol=0, atol=1e-13)
        seen += block.shape[1]
    assert seen == times.size


def test_evolve_factor_rejects_wrong_dimension(two_level):
    _, _, spectral = two_level
    with pytest.raises(ValidationError):
        next(evolve_factor(np.ones((3, 1), dtype=np.complex128), spectral, np.zeros(1)))
