"""Exact spectral propagation and an independent RK4 integrator.

The equation of motion is i drho/dt = [H, rho] with H constant, so the
exact solution is rho(t) = exp(-iHt) rho exp(+iHt). `evolve` applies it
to a full matrix through one eigendecomposition of H; `evolve_factor`
applies it to a factored state rho = X diag(w) X^H for many times at
once, which is how `scenario.run` fills a trajectory. `rk4_evolve`
steps the same equation through the hub entries of H, never its
eigenvectors, as a cross-check that shares no code with the spectral route.
"""

from __future__ import annotations

import numpy as np

from .core import (
    HermitianMatrix,
    ParameterError,
    SpectralData,
    ValidationError,
    _show,
    as_matrix,
)

__all__ = ["eigendecompose", "evolve", "liouville_rhs", "rk4_evolve"]

SYMMETRY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-10
# entries of each (n, rows, m) block `evolve_factor` yields
BLOCK_ENTRIES = 1 << 14
# finite times lie in [-FLOAT_MAX, FLOAT_MAX]; a huge int compares exactly and fails
FLOAT_MAX = float(np.finfo(np.float64).max)


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
    if not -FLOAT_MAX <= t <= FLOAT_MAX:
        raise ParameterError(f"evolution time t must be finite, got {_show(t)}")
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
    return (a @ np.ascontiguousarray(b, dtype=np.complex128).view(np.float64)).view(np.complex128)


def evolve_factor(x, spectral: SpectralData, times):
    """Propagate the columns of the complex factor X to each of ``times``.

    X(t) = V (exp(-i lam t) o V^T X): every column evolves as a pure
    state, so rho = X diag(w) X^H evolves for any weights w. Both
    products with V are real GEMMs on the float64 view (`_real_times`),
    so no complex n x n temporary is built.

    Parameters
    ----------
    x : ndarray, shape (n, m)
        The complex factor X.
    times : ndarray, shape (rows,)
        Propagation times.

    Yields
    ------
    (first, x_t)
        Consecutive blocks: ``x_t[j, r, c]`` is entry ``(j, c)`` of X at
        ``times[first + r]``. A block holds at most `BLOCK_ENTRIES`
        entries, but never less than one row, so one GEMM covers many
        rows of a pure state and one row of a mixed state.
    """
    vec, lam = spectral.eigenvectors, spectral.eigenvalues
    n, m = x.shape
    if n != spectral.dim:
        raise ValidationError(f"factor with {n} rows does not match a {spectral.dim}-level system")
    y = _real_times(vec.T, x)[:, None, :]
    step = max(1, BLOCK_ENTRIES // (n * m))
    for first in range(0, len(times), step):
        phase = np.exp(-1j * np.multiply.outer(lam, times[first : first + step]))
        yield first, _real_times(vec, (phase[:, :, None] * y).reshape(n, -1)).reshape(n, -1, m)


def liouville_rhs(eps, c, rho) -> np.ndarray:
    """-i [H, rho] for the hub H = diag(eps) + c e_0^T + e_0 c^T of `models.hub`.

    O(n^2): (eps_j - eps_k) rho_jk, the rank-two c_j rho_0k - rho_j0 c_k,
    c @ rho into row 0 and rho @ c out of column 0; rho may be non-Hermitian.
    """
    m = as_matrix(rho)
    if m.shape != (eps.size, eps.size) or c.shape != eps.shape:
        raise ValidationError(f"state of shape {m.shape} does not match a {eps.size}-level hub")
    out = np.subtract.outer(eps, eps) * m
    out += np.multiply.outer(c, m[0])
    out -= np.multiply.outer(m[:, 0], c)
    out[0] += c @ m
    out[:, 0] -= m @ c
    out *= -1j
    return out


def rk4_evolve(rho, eps, c, t: float, dt: float = 1e-3) -> HermitianMatrix:
    """Integrate the equation of motion with classic fixed-step RK4.

    Parameters
    ----------
    rho : HermitianMatrix or array_like
        Initial state.
    eps, c : ndarray
        Hub form of the Hamiltonian (see `models.hub`), used directly; no
        eigendecomposition happens here.
    t : float
        Nonnegative integration horizon.
    dt : float
        Step size. A shorter remainder step covers any non-integer
        tail of ``t / dt``.

    Notes
    -----
    H is constant, so an RK4 step of length s is exactly the degree-4
    Taylor polynomial of exp(sL), L = `liouville_rhs`, here in Horner form.
    It maps Hermitian matrices to Hermitian ones in exact arithmetic, so
    the final state is handed to the validating constructor, where roundoff
    asymmetry beyond 1e-12 would fail and signal a broken integration.
    """
    if not 0 <= t <= FLOAT_MAX:
        raise ParameterError(f"rk4 horizon t must be finite and nonnegative, got {_show(t)}")
    if not dt > 0:
        raise ParameterError(f"rk4 step dt must be positive, got {_show(dt)}")
    r = as_matrix(rho)

    def step(m, s):
        out = m  # m + s L (m + s/2 L (m + s/3 L (m + s/4 L m)))
        for j in (4.0, 3.0, 2.0, 1.0):
            out = liouville_rhs(eps, c, out)
            out *= s / j
            out += m
        return out

    nfull = int(np.floor(t / dt + 1e-9))
    for _ in range(nfull):
        r = step(r, dt)
    rem = t - nfull * dt
    if rem > 1e-12 * max(1.0, t):
        r = step(r, rem)
    return HermitianMatrix(r)
