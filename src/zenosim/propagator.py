"""Exact spectral propagation and an independent RK4 integrator.

The equation of motion is i drho/dt = [H, rho] with H constant, so the
exact solution is rho(t) = exp(-iHt) rho exp(+iHt). `evolve` applies it
to a full matrix through one eigendecomposition of H; `evolve_factor`
applies it to a factored state rho = X diag(w) X^H for many times at
once, which is how `scenario.run` fills a trajectory. `rk4_evolve`
integrates the same equation step by step and exists purely as a
cross-check, so it shares no code path with the spectral route.
"""

from __future__ import annotations

import numpy as np

from .core import (
    HermitianMatrix,
    ParameterError,
    SpectralData,
    ValidationError,
    as_matrix,
)

__all__ = ["eigendecompose", "evolve", "evolve_factor", "liouville_rhs", "rk4_evolve"]

SYMMETRY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-10
# entries of each real (n, rows, m) array `evolve_factor` builds per block
BLOCK_ENTRIES = 1 << 14


def eigendecompose(h) -> SpectralData:
    """Eigendecompose a real symmetric Hamiltonian.

    Parameters
    ----------
    h : array_like
        Real symmetric matrix (max |H - H^T| and max |Im H| both within
        1e-10).

    Returns
    -------
    SpectralData
        Ascending eigenvalues and the orthonormal eigenvector matrix.
        The reconstruction V diag(lam) V^T is verified against ``h`` to
        1e-10 max-abs and reported in the error if violated.
    """
    hm = as_matrix(h)
    if hm.ndim != 2 or hm.shape[0] != hm.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {hm.shape}")
    imag = float(np.max(np.abs(hm.imag))) if hm.size else 0.0
    asym = float(np.max(np.abs(hm - hm.T))) if hm.size else 0.0
    if not (imag <= SYMMETRY_TOL and asym <= SYMMETRY_TOL):
        raise ValidationError(
            f"Hamiltonian must be real symmetric: max |Im| = {imag:.3e}, "
            f"max |H - H^T| = {asym:.3e}"
        )
    hr = np.real(hm)
    try:
        lam, vec = np.linalg.eigh(hr)
    except np.linalg.LinAlgError as exc:
        raise ValidationError(f"eigendecomposition failed to converge: {exc}") from exc
    residual = float(np.max(np.abs((vec * lam) @ vec.T - hr)))
    if not residual <= RECONSTRUCTION_TOL:
        raise ValidationError(
            f"eigendecomposition reconstruction residual {residual:.3e} "
            f"exceeds {RECONSTRUCTION_TOL:.0e}"
        )
    return SpectralData(eigenvalues=lam, eigenvectors=vec)


def evolve(rho, spectral: SpectralData, t: float) -> HermitianMatrix:
    """Propagate rho by time t under the decomposed Hamiltonian.

    ``rho`` passes the `HermitianMatrix` gate; t must be finite, and a
    negative t runs the dynamics backwards. V is real, so each of the
    four products with V or V^T is one real GEMM on the float64 view of
    a complex matrix: half the flops of a complex product. The result is
    symmetrized once, which only removes roundoff: the map is exactly
    Hermiticity-preserving in exact arithmetic.
    """
    if not -np.inf < t < np.inf:
        raise ParameterError(f"evolution time must be finite, got {t!r}")
    rm = as_matrix(HermitianMatrix(rho))
    vec = spectral.eigenvectors
    if rm.shape != (spectral.dim, spectral.dim):
        raise ValidationError(
            f"state of shape {rm.shape} does not match a {spectral.dim}-level system"
        )
    # eigenbasis entries pick up phases exp(-i (lam_m - lam_n) t)
    phases = np.exp(-1j * spectral.eigenvalues * t)
    # B V = (V^T B^T)^T turns every right product into a left one
    rt = _real_times(vec.T, _real_times(vec.T, rm).T).T
    rt *= np.outer(phases, phases.conj())
    out = _real_times(vec, _real_times(vec, rt).T).T
    out = 0.5 * (out + out.conj().T)
    return HermitianMatrix._wrap(out)


def _real_times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for real a and complex b, as one real GEMM on b's float64 view."""
    return (a @ np.ascontiguousarray(b).view(np.float64)).view(np.complex128)


def evolve_factor(xr, xi, spectral: SpectralData, times):
    """Propagate the columns of X = xr + i xi to each of ``times``.

    X(t) = V (exp(-i lam t) o V^T X): every column evolves as a pure
    state, so rho = X diag(w) X^H evolves for any weights w. All
    arithmetic is real, so no complex n x n temporary is built.

    Parameters
    ----------
    xr, xi : ndarray, shape (n, m)
        Real and imaginary parts of X.
    times : ndarray, shape (rows,)
        Propagation times.

    Yields
    ------
    (first, xr_t, xi_t)
        Consecutive blocks: ``xr_t[j, r, c]`` is the real part of entry
        ``(j, c)`` of X at ``times[first + r]``. A block holds at most
        `BLOCK_ENTRIES` entries per array, but never less than one row,
        so one GEMM pair covers many rows of a pure state and one row of
        a mixed state.
    """
    vec, lam = spectral.eigenvectors, spectral.eigenvalues
    n, m = xr.shape
    if n != spectral.dim:
        raise ValidationError(f"factor with {n} rows does not match a {spectral.dim}-level system")
    yr, yi = (vec.T @ xr)[:, None, :], (vec.T @ xi)[:, None, :]
    step = max(1, BLOCK_ENTRIES // (n * m))
    for first in range(0, len(times), step):
        # exp(-i lam t) = c - i s, so (c - i s)(yr + i yi) = (c yr + s yi) + i (c yi - s yr)
        phase = np.multiply.outer(lam, times[first : first + step])[:, :, None]
        c, s = np.cos(phase), np.sin(phase)
        shape = (n, phase.shape[1], m)
        zr = vec @ (c * yr + s * yi).reshape(n, -1)
        zi = vec @ (c * yi - s * yr).reshape(n, -1)
        yield first, zr.reshape(shape), zi.reshape(shape)


def liouville_rhs(h, rho) -> np.ndarray:
    """-i [H, rho], the right-hand side of the equation of motion."""
    hm, rm = as_matrix(h), as_matrix(rho)
    if hm.shape != rm.shape:
        raise ValidationError(
            f"shapes {hm.shape} and {rm.shape} do not match"
        )
    return -1j * (hm @ rm - rm @ hm)


def rk4_evolve(rho, h, t: float, dt: float = 1e-3) -> HermitianMatrix:
    """Integrate the equation of motion with classic fixed-step RK4.

    Parameters
    ----------
    rho : HermitianMatrix or array_like
        Initial state.
    h : array_like
        Hamiltonian, used directly; no eigendecomposition happens here.
    t : float
        Nonnegative integration horizon.
    dt : float
        Step size. A shorter remainder step covers any non-integer
        tail of ``t / dt``.

    Notes
    -----
    The RK4 update maps Hermitian matrices to Hermitian matrices in
    exact arithmetic, so the final state is handed to the validating
    constructor; accumulated roundoff asymmetry beyond 1e-12 would fail
    there and signal a broken integration.
    """
    if not 0 <= t < np.inf:
        raise ParameterError(f"rk4 horizon must be finite and nonnegative, got {t!r}")
    if not dt > 0:
        raise ParameterError(f"rk4 step must be positive, got {dt!r}")
    hm = as_matrix(h)
    r = as_matrix(rho).copy()

    def step(m, s):
        k1 = liouville_rhs(hm, m)
        k2 = liouville_rhs(hm, m + (0.5 * s) * k1)
        k3 = liouville_rhs(hm, m + (0.5 * s) * k2)
        k4 = liouville_rhs(hm, m + s * k3)
        return m + (s / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    nfull = int(np.floor(t / dt + 1e-9))
    for _ in range(nfull):
        r = step(r, dt)
    rem = t - nfull * dt
    if rem > 1e-12 * max(1.0, t):
        r = step(r, rem)
    return HermitianMatrix(r)
