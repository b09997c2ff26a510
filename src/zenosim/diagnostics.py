"""Observable extraction and exactness checks on the equations of motion.

The rate identities here serve double duty: they are outputs (columns
of the trajectory CSV come from `record_observables`) and they are
oracles, since the population rate of every level must equal a weighted
sum of imaginary coherence parts at all times, for every model, with no
approximation.
"""

from __future__ import annotations

import numpy as np

from .core import HermitianMatrix, SpectralData, UnsupportedPairError, ValidationError, as_matrix
from .propagator import eigendecompose, evolve

__all__ = [
    "sigma",
    "record_observables",
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


def record_observables(rho, eps, c, pairs=()) -> tuple:
    """One trajectory row: every per-state scalar the CSV schema carries.

    Returns ``(populations, sigma, coherences, trace, purity, energy)``,
    where ``coherences`` lists the complex entries rho[j, k] for the
    chosen ``pairs``; H enters as its hub form ``(eps, c)`` (`models.hub`).
    """
    m = as_matrix(rho)
    populations = np.diagonal(m).real.copy()  # a view would keep all of rho alive
    return (
        populations,
        sigma(m),
        [m[j, k] for j, k in pairs],
        np.real(np.trace(m)),
        np.sum(np.abs(m) ** 2),
        # tr(H rho) = eps . P + 2 c . Re rho[0, :], O(n) for a hub H
        populations @ eps + 2.0 * (np.real(m[0]) @ c),
    )


def factor_observables(x, w, eps, c, pairs=()) -> tuple:
    """The rows of `record_observables` for factored states, as columns.

    Row r is the state rho_r = X_r diag(w) X_r^H, with X_r = x[:, r, :]
    as `propagator.evolve_factor` yields it. Returns
    ``(populations, sigma, coherences, trace, purity, energy)`` with one
    entry (or row) per state; nothing of size n x n is formed.

    Purity is sum_c (w_c |x_c|^2)^2, exact while the columns of X stay
    orthogonal, which unitary evolution keeps. Sigma and energy are read
    from column 0 of rho, the conjugate of row 0, through the hub form
    ``(eps, c)`` of H.
    """
    sq = x.real**2
    sq += x.imag**2
    populations = (sq @ w).T
    # rho_j0 = sum_c X_jc w_c conj(X_0c)
    col0 = np.einsum("jrc,rc->rj", x, w * x[0].conj())
    coherences = np.empty((populations.shape[0], len(pairs)), dtype=np.complex128)
    for p, (j, k) in enumerate(pairs):
        coherences[:, p] = (x[j] * w * x[k].conj()).sum(axis=1)
    return (
        populations,
        -col0.imag[:, 1:].sum(axis=1),
        coherences,
        populations.sum(axis=1),
        ((sq.sum(axis=0) * w) ** 2).sum(axis=1),
        populations @ eps + 2.0 * (col0.real @ c),
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


def coherence_rate(rho, eps, c, j: int, k: int) -> tuple[float, float]:
    """Model rates of Re rho_jk and Im rho_jk for a directly coupled pair.

    Implements, with H_jk = c[j + k] for the hub H of ``(eps, c)``,

        d Re rho_jk / dt = (eps_j - eps_k) Im rho_jk
        d Im rho_jk / dt = (rho_jj - rho_kk) H_jk - (eps_j - eps_k) Re rho_jk

    which is exact when states j and k talk only to each other. When one
    index is the hub state 0 of a band model, third states do couple in
    and both rates above omit their summed coherence feed; the gap is
    O(v * sum_l rho_lk) and vanishes at any freshly dephased state.

    Raises
    ------
    UnsupportedPairError
        If j == k, or neither index is 0 (hub levels couple only to 0).
    """
    m = as_matrix(rho)
    if j == k:
        raise UnsupportedPairError(f"({j},{k}) is a population, not a coherence")
    if j != 0 and k != 0:
        raise UnsupportedPairError(
            f"pair ({j},{k}) has no direct coupling; the rate formula does not apply"
        )
    deps = float(eps[j] - eps[k])
    d_re = deps * float(np.imag(m[j, k]))
    pop_diff = float(np.real(m[j, j]) - np.real(m[k, k]))
    d_im = pop_diff * float(c[j + k]) - deps * float(np.real(m[j, k]))
    return d_re, d_im
