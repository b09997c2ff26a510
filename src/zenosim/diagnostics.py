"""Observable extraction and exactness checks on the equations of motion.

The rate identities here serve double duty: they are outputs (columns
of the trajectory CSV come from `record_observables`) and they are
oracles, since the population rate of every level must equal a weighted
sum of imaginary coherence parts at all times, for every model, with no
approximation.
"""

from __future__ import annotations

import numpy as np

from .core import (
    HermitianMatrix,
    SpectralData,
    UnsupportedPairError,
    ValidationError,
    as_matrix,
)
from .propagator import eigendecompose, evolve

__all__ = [
    "sigma",
    "record_observables",
    "factor_observables",
    "validate_observables",
    "population_rate_residual",
    "coherence_rate",
]

FD_STEP = 1e-6


def sigma(rho) -> float:
    """Sum over k >= 1 of Im rho[0, k].

    Positive while population flows out of state 0; zero for any
    diagonal state. For a two-level system this is Im rho_01.
    """
    m = as_matrix(rho)
    return float(np.sum(np.imag(m[0, 1:])))


def record_observables(rho, h, pairs=()) -> tuple:
    """One trajectory row: every per-state scalar the CSV schema carries.

    Returns ``(populations, sigma, coherences, trace, purity, energy)``,
    where ``coherences`` lists the complex entries rho[j, k] for the
    chosen ``pairs``; the summed sigma column is always present.
    """
    m = as_matrix(rho)
    hm = np.real(np.asarray(h))
    return (
        np.real(np.diagonal(m)),
        sigma(m),
        [m[j, k] for j, k in pairs],
        np.real(np.trace(m)),
        np.sum(np.abs(m) ** 2),
        # tr(H rho) without the O(n^3) product; H is real symmetric
        np.sum(hm * np.real(m)),
    )


def factor_observables(xr, xi, w, h, pairs=()) -> tuple:
    """The rows of `record_observables` for factored states, as columns.

    Row r is the state rho_r = X_r diag(w) X_r^H, with X_r = xr[:, r, :]
    + i xi[:, r, :] as `propagator.evolve_factor` yields it. Returns
    ``(populations, sigma, coherences, trace, purity, energy)`` with one
    entry (or row) per state; nothing of size n x n is formed.

    Purity is sum_c (w_c |x_c|^2)^2, exact while the columns of X stay
    orthogonal, which unitary evolution keeps. Energy is read from the
    diagonal and row 0 of rho, so H may couple levels only to state 0,
    as every model here does.

    Raises
    ------
    ValidationError
        If H couples two levels other than state 0.
    """
    hm = np.real(np.asarray(h))
    band = hm[1:, 1:]
    if np.count_nonzero(band) != np.count_nonzero(np.diagonal(band)):
        raise ValidationError("factored energy needs H to couple levels only to state 0")
    sq = xr**2
    sq += xi**2
    populations = (sq @ w).T
    # rho_0j = sum_c w_c X_0c conj(X_jc)
    ur, ui = w * xr[0], w * xi[0]
    row0_re = np.einsum("jrc,rc->rj", xr, ur) + np.einsum("jrc,rc->rj", xi, ui)
    row0_im = np.einsum("jrc,rc->rj", xr, ui) - np.einsum("jrc,rc->rj", xi, ur)
    coherences = np.empty((populations.shape[0], len(pairs)), dtype=np.complex128)
    for p, (j, k) in enumerate(pairs):
        coherences[:, p] = ((xr[j] + 1j * xi[j]) * w * (xr[k] - 1j * xi[k])).sum(axis=1)
    return (
        populations,
        row0_im[:, 1:].sum(axis=1),
        coherences,
        populations.sum(axis=1),
        ((sq.sum(axis=0) * w) ** 2).sum(axis=1),
        populations @ np.diagonal(hm) + 2.0 * (row0_re[:, 1:] @ hm[0, 1:]),
    )


def validate_observables(populations, trace, purity) -> None:
    """Gate the finished columns of a trajectory.

    ``populations`` has shape (rows, dim); ``trace`` and ``purity`` have
    shape (rows,). Every row's populations must sum to its trace within
    1e-10, and its purity must lie in [1/dim, 1] within 1e-10.

    Raises
    ------
    ValidationError
        Naming the first offending row of each violated gate.
    """
    dim = populations.shape[1]
    problems = []
    bad_sum = np.flatnonzero(~(np.abs(populations.sum(axis=1) - trace) <= 1e-10))
    if bad_sum.size:
        problems.append(f"populations do not sum to the trace in row {bad_sum[0]}")
    ok = (purity >= 1.0 / dim - 1e-10) & (purity <= 1.0 + 1e-10)
    bad_purity = np.flatnonzero(~ok)
    if bad_purity.size:
        r = bad_purity[0]
        problems.append(f"purity {float(purity[r])!r} outside [1/dim, 1] in row {r}")
    if problems:
        raise ValidationError("bad observable rows: " + "; ".join(problems))


def population_rate_residual(rho, h, j: int, spectral: SpectralData | None = None) -> float:
    """Gap between the finite-difference rate of rho_jj and its identity.

    The identity states d rho_jj / dt = sum_k 2 H_jk Im rho_kj, exact
    for any Hermitian rho and real symmetric H. The derivative side is
    measured by propagating to +/- 1e-6 around the given state, so this
    doubles as an end-to-end check of the propagator.

    Returns the absolute residual; the contract is residual < 1e-5 for
    every valid state.
    """
    rho = HermitianMatrix(rho)
    m = as_matrix(rho)
    hm = np.real(np.asarray(h))
    if spectral is None:
        spectral = eigendecompose(hm)
    ahead = as_matrix(evolve(rho, spectral, FD_STEP))
    behind = as_matrix(evolve(rho, spectral, -FD_STEP))
    fd = (ahead[j, j].real - behind[j, j].real) / (2.0 * FD_STEP)
    formula = 2.0 * float(hm[j] @ np.imag(m[:, j]))
    return abs(fd - formula)


def coherence_rate(rho, h, j: int, k: int) -> tuple[float, float]:
    """Model rates of Re rho_jk and Im rho_jk for a directly coupled pair.

    Implements

        d Re rho_jk / dt = (eps_j - eps_k) Im rho_jk
        d Im rho_jk / dt = (rho_jj - rho_kk) H_jk - (eps_j - eps_k) Re rho_jk

    which is exact when states j and k talk only to each other. When one
    index is the hub state 0 of a band model, third states do couple in
    and both rates above omit their summed coherence feed; the gap is
    O(v * sum_l rho_lk) and vanishes at any freshly dephased state.

    Raises
    ------
    UnsupportedPairError
        If j == k, or the pair is uncoupled with neither index 0.
    """
    m = as_matrix(rho)
    hm = np.real(np.asarray(h))
    if j == k:
        raise UnsupportedPairError(f"({j},{k}) is a population, not a coherence")
    if j != 0 and k != 0 and hm[j, k] == 0.0:
        raise UnsupportedPairError(
            f"pair ({j},{k}) has no direct coupling; the rate formula does not apply"
        )
    deps = float(hm[j, j] - hm[k, k])
    d_re = deps * float(np.imag(m[j, k]))
    d_im = float((np.real(m[j, j]) - np.real(m[k, k])) * hm[j, k]) - deps * float(
        np.real(m[j, k])
    )
    return d_re, d_im
