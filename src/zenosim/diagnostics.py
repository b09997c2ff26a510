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
from .propagator import _real_times, eigendecompose, evolve

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


def dephased_observables(u, d, p, gaps, eps, c, pairs=()) -> tuple:
    """The rows of `record_observables` for rho = U diag(p) U^H, as columns.

    ``u`` and ``d`` hold row 0 and the diagonal of U for each row, shape
    (n, rows), as `propagator.row0_and_diagonal` gives them, and ``gaps``
    is `propagator.band_gaps`. Every other entry of U is
    U_jk = (c_k u_j - c_j u_k) G_jk, so with W = G^2 diag(p) and R = G diag(p)
    over the band (j, k >= 1):

        P_j = p_0 |u_j|^2 + p_j |d_j|^2 + |u_j|^2 (W c^2)_j + c_j^2 (W |u|^2)_j
              - 2 c_j Re(u_j conj(W (c u))_j),          P_0 = |u|^2 . p
        rho_0k = conj(u_k) (p_0 u_0 + (R (c u))_k) + p_k u_k conj(d_k) - c_k (R |u|^2)_k

    Four real GEMMs with W or R per block of rows, O(n^2) per row (one
    stacked [W; R] made OpenBLAS touch more memory, +0.4 MB peak RSS on
    lic_zeno); a tracked pair costs O(n) per row, and purity is sum p^2
    (U is unitary).
    """
    n, rows = u.shape
    au = u.real**2
    au += u.imag**2
    pops = np.empty((n, rows))
    pops[0] = p @ au
    ad = d.real[1:] ** 2
    ad += d.imag[1:] ** 2
    pops[1:] = p[1:, None] * ad
    pops[1:] += p[0] * au[1:]
    rho0 = p[0] * u[0] * u.conj()  # row 0 of rho; entry 0 is replaced below
    rho0 += p[:, None] * u * d.conj()
    if n > 2:  # with one band level every band term vanishes
        cb, cu = c[1:, None], c[1:, None] * u[1:]
        r = gaps * p[1:]
        w = r * gaps
        w_cu = _real_times(w, cu)
        pops[1:] += au[1:] * (w @ c[1:] ** 2)[:, None]
        pops[1:] += cb**2 * (w @ au[1:])
        pops[1:] -= 2.0 * cb * (u.real[1:] * w_cu.real + u.imag[1:] * w_cu.imag)
        rho0[1:] += u[1:].conj() * _real_times(r, cu)
        rho0[1:] -= cb * (r @ au[1:])
    rho0[0] = pops[0]
    populations = pops.T
    coherences = np.empty((rows, len(pairs)), dtype=np.complex128)
    for q, (j, k) in enumerate(pairs):
        if j == 0 or k == 0:
            coherences[:, q] = rho0[j or k] if j == 0 else rho0[j].conj()
        else:
            coherences[:, q] = (p[:, None] * _u_row(u, d, gaps, c, j)
                                * _u_row(u, d, gaps, c, k).conj()).sum(axis=0)
    return (
        populations,
        rho0.imag[1:].sum(axis=0),
        coherences,
        populations.sum(axis=1),
        np.full(rows, p @ p),
        populations @ eps + 2.0 * (c @ rho0.real),
    )


def _u_row(u, d, gaps, c, j):
    """Row j >= 1 of U from its row 0 and diagonal: U_jk = (c_k u_j - c_j u_k) G_jk."""
    row = np.empty_like(u)
    row[0] = u[j]
    row[1:] = gaps[j - 1][:, None] * (c[1:, None] * u[j] - c[j] * u[1:])
    row[j] = d[j]
    return row


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
