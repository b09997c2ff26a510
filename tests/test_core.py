"""Matrix layer: Hermitian container, spectral data, commutators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenosim.core import (
    POSITIVITY_TOL,
    DimensionMismatchError,
    HermitianMatrix,
    SpectralData,
    ValidationError,
    as_matrix,
)
from zenosim.propagator import liouville_rhs

H2 = np.array([[-0.2, 0.2], [0.2, 0.2]])


def random_density(rng, dim):
    # rho = A A^H / tr, always a valid density matrix
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = a @ a.conj().T
    return m / np.real(np.trace(m))


def test_two_level_hamiltonian_squares_to_scalar():
    # eps0 = -eps1 and |eps| = v makes H^2 proportional to the identity
    np.testing.assert_allclose(H2 @ H2, 0.08 * np.eye(2), atol=1e-15)


def commutator(h, rho):
    # liouville_rhs is -i [H, rho]
    return 1j * liouville_rhs(h, rho)


def test_commutator_initial_state():
    rho = HermitianMatrix.basis_state(2, 0)
    want = np.array([[0.0, -0.2], [0.2, 0.0]])
    np.testing.assert_allclose(commutator(H2, rho), want, atol=1e-15)


def test_commutator_antihermitian_imaginary_diagonal():
    rng = np.random.default_rng(11)
    h = rng.standard_normal((6, 6))
    h = h + h.T
    rho = random_density(rng, 6)
    c = commutator(h, rho)
    np.testing.assert_allclose(c, -c.conj().T, atol=1e-13)
    np.testing.assert_allclose(np.real(np.diagonal(c)), 0.0, atol=1e-13)


def test_constructor_tolerates_tiny_asymmetry():
    m = np.array([[1.0, 0.5 + 1e-13j], [0.5, 0.0]])
    a = np.asarray(HermitianMatrix(m))
    np.testing.assert_allclose(a, a.conj().T, atol=0)


def test_constructor_rejects_visible_asymmetry():
    m = np.array([[1.0, 0.5 + 1e-9j], [0.5, 0.0]])
    with pytest.raises(ValidationError):
        HermitianMatrix(m)


def test_constructor_rejects_nan():
    with pytest.raises(ValidationError, match="not Hermitian"):
        HermitianMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_constructor_shares_a_checked_instance():
    hm = HermitianMatrix(np.array([[0.7, 0.2j], [-0.2j, 0.3]]))
    assert as_matrix(HermitianMatrix(hm)) is as_matrix(hm)


def test_constructor_rejects_nonsquare():
    with pytest.raises(DimensionMismatchError):
        HermitianMatrix(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatchError):
        HermitianMatrix(np.zeros((0, 0)))


def test_factories():
    b = np.asarray(HermitianMatrix.basis_state(3, 1))
    np.testing.assert_array_equal(np.real(np.diagonal(b)), [0.0, 1.0, 0.0])
    d = np.asarray(HermitianMatrix(np.diag([0.5, 0.3, 0.2])))
    assert np.real(np.trace(d)) == pytest.approx(1.0)
    np.testing.assert_allclose(np.sum(np.abs(d) ** 2), 0.25 + 0.09 + 0.04)


def test_trace_and_purity_on_mixed_state():
    rho = np.asarray(HermitianMatrix(np.array([[0.7, 0.2j], [-0.2j, 0.3]])))
    np.testing.assert_allclose(np.real(np.trace(rho)), 1.0)
    # tr rho^2 = 0.49 + 0.09 + 2 * 0.04
    np.testing.assert_allclose(np.sum(np.abs(rho) ** 2), 0.66)


def test_eigenvalues_of_two_level_hamiltonian():
    lam = HermitianMatrix(H2.astype(complex)).eigenvalues()
    r = 0.2 * np.sqrt(2.0)
    np.testing.assert_allclose(lam, [-r, r], atol=1e-15)


def test_validate_density_lists_all_violations():
    bad = HermitianMatrix(2.0 * np.eye(2))
    with pytest.raises(ValidationError) as err:
        bad.validate_density()
    msg = str(err.value)
    assert "trace" in msg and "purity" in msg


def test_validate_density_rejects_nan_trace():
    # the constructor rejects NaN, so only an unchecked internal value can carry one
    bad = HermitianMatrix._wrap(np.diag([np.nan, 0.0]).astype(np.complex128))
    with pytest.raises(ValidationError, match="trace = nan"):
        bad.validate_density()


def test_validate_density_accepts_pure_state():
    HermitianMatrix.basis_state(5, 2).validate_density()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=8))
def test_random_densities_pass_validation(seed, dim):
    rho = HermitianMatrix(random_density(np.random.default_rng(seed), dim))
    rho.validate_density()
    assert np.sum(np.abs(np.asarray(rho)) ** 2) <= 1.0 + 1e-12
    assert rho.eigenvalues()[0] >= -1e-12


@pytest.mark.parametrize("dim", [3, 201])
@pytest.mark.parametrize("lowest", [-2e-10, -1.2e-10, -0.8e-10, -0.5e-10, 0.0])
@settings(max_examples=5, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10**6))
def test_positivity_gate_sits_at_its_tolerance(dim, lowest, seed):
    """rho = Q diag(lam) Q^H with a random unitary Q and trace 1 is
    rejected exactly when its smallest eigenvalue is below -1e-10."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    rest = rng.random(dim - 1) + 0.5
    lam = np.concatenate([[lowest], rest * (1.0 - lowest) / rest.sum()])
    rho = HermitianMatrix((q * lam) @ q.conj().T)
    rejected = rho.eigenvalues()[0] < -POSITIVITY_TOL
    assert rejected == (lowest < -1e-10)
    if rejected:
        with pytest.raises(ValidationError, match="smallest eigenvalue"):
            rho.validate_density()
    else:
        rho.validate_density()


def test_as_matrix_shares_storage_with_hermitian():
    hm = HermitianMatrix(np.zeros((2, 2)))
    assert as_matrix(hm) is hm._m
    arr = np.eye(2, dtype=np.complex128)
    np.testing.assert_array_equal(as_matrix(arr), arr)


def test_array_protocol_copies():
    hm = HermitianMatrix.basis_state(2, 0)
    arr = np.asarray(hm)
    arr[0, 0] = 5.0
    assert np.asarray(hm)[0, 0] == 1.0


def test_spectral_data_rejects_non_orthonormal_vectors():
    with pytest.raises(ValidationError):
        SpectralData(eigenvalues=np.array([1.0, 2.0]), eigenvectors=np.full((2, 2), 0.9))


def test_spectral_data_rejects_nan_vectors():
    with pytest.raises(ValidationError, match="not orthonormal"):
        SpectralData(eigenvalues=np.array([1.0, 2.0]), eigenvectors=np.array([[np.nan, 0], [0, 1]]))


def test_spectral_data_shape_mismatch():
    with pytest.raises(DimensionMismatchError):
        SpectralData(eigenvalues=np.array([1.0, 2.0, 3.0]), eigenvectors=np.eye(2))
