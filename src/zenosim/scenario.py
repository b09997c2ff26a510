"""Full experiment driver: propagate, intervene, sample, classify.

A run propagates exactly between scheduled interventions, reusing one
eigendecomposition for the whole trajectory, and samples observables on
a uniform grid. Between two interventions no sample forms an n x n
matrix. Until the first measurement the state is one vector, carried by
`evolve_factor`. After a measurement it is U diag(p) U^H, read from
row 0 and the diagonal of U alone (`row0_and_diagonal`,
`dephased_observables`), plus two signed vectors per later flip, at
most n in all; see `run`. Interventions are instantaneous: each
contributes a pre row and a post row at the same time stamp, with equal
populations and (possibly) different coherences. Both come from a
check chain that carries the exact state from intervention to
intervention in the eigenbasis of H, at one n x n x 2n real GEMM and
one Cholesky per intervention (plus one n x n x n GEMM after a
measurement), and the pre row cross-checks the routes' state. When an
intervention lands exactly on a grid point, the intervention applies
first, the grid sample is the post row, and the pre row sits just
before it.

The pipeline is deterministic end to end; repeated runs of the same
spec produce bit-identical trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .core import HermitianMatrix, ValidationError, _is_integer, _is_real, _show
from .diagnostics import dephased_observables, factor_observables, validate_observables
from .interventions import InterventionKind, InterventionSchedule
from .models import ModelKind, ModelSpec, build, hub
from .propagator import (
    BLOCK_ENTRIES,
    _real_times,
    band_gaps,
    eigendecompose,
    evolve_factor,
    flip_columns,
    row0_and_diagonal,
)

# `run` calls none of these: perfbench/tracer.py binds them here (test_every_traced_binding_exists)
from .diagnostics import record_observables  # noqa: F401
from .interventions import apply_intervention  # noqa: F401
from .propagator import evolve  # noqa: F401

__all__ = [
    "ScenarioSpec",
    "InterventionMarker",
    "Trajectory",
    "Effect",
    "Classification",
    "run",
    "run_batch",
    "classify_effect",
]

# most rows a run may hold; all stay in memory until the CSV is written
MAX_ROWS = 100_000
# longest run: models.MAX_ENERGY keeps eigenvalues below ~3.3e4, so every
# phase (eigenvalue x time) stays finite
MAX_TIME = 1e300
# max |populations| gap between the routes and the check chain at a pre row
CROSS_CHECK_TOL = 1e-12


# |t_grid - t_intervention| below this counts as the same instant
def _tie_tol(t: float) -> float:
    return 1e-9 * max(1.0, abs(t))


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything one run needs.

    ``coherence_pairs = None`` means the per-kind default; pass an
    explicit tuple (possibly empty) to override.
    """

    model: ModelSpec
    t_final: float
    sample_dt: float
    schedule: InterventionSchedule = field(default_factory=InterventionSchedule)
    coherence_pairs: tuple | None = None

    def resolved_pairs(self) -> tuple:
        """The tracked coherences. By default the (1, 0) pair for the
        two-level system, none individually for band models (their hub
        coherences are aggregated in the sigma column)."""
        if self.coherence_pairs is None:
            return ((1, 0),) if self.model.kind is ModelKind.TWO_LEVEL else ()
        return tuple((int(j), int(k)) for j, k in self.coherence_pairs)

    def __post_init__(self):
        self.validate()

    def validate(self) -> "ScenarioSpec":
        """Check the run and the schedule against the model (run when the
        spec is built), raising ValidationError with one problem per field.
        Every field's type is checked before any value is compared."""
        problems = [
            (name, f"must be {what}, got {_show(getattr(self, name))}")
            for name, ok, what in (
                ("model", isinstance(self.model, ModelSpec), "a ModelSpec"),
                ("t_final", _is_real(self.t_final), "a number"),
                ("sample_dt", _is_real(self.sample_dt), "a number"),
                ("schedule", isinstance(self.schedule, InterventionSchedule),
                 "an InterventionSchedule"),
                ("coherence_pairs", isinstance(self.coherence_pairs, (tuple, list, type(None))),
                 "None or a sequence of pairs"),
            )
            if not ok
        ]
        if problems:
            raise ValidationError.from_problems("scenario", problems)
        if not 0 < self.t_final <= MAX_TIME:
            problems.append(
                ("t_final", f"must lie in (0, {MAX_TIME:g}], got {_show(self.t_final)}")
            )
        if not 0 < self.sample_dt <= self.t_final:
            problems.append(
                ("sample_dt", f"must lie in (0, t_final], got {_show(self.sample_dt)}")
            )
        if not problems:
            rows = self.t_final / self.sample_dt + 1 + 2 * len(self.schedule)
            if not rows <= MAX_ROWS:
                problems.append(("sample_dt", f"gives {rows:.4g} rows, more than {MAX_ROWS}"))
        if not self.model.v > 0:
            problems.append(("model.v", f"must be positive to run, got {_show(self.model.v)}"))
        dim = self.model.dim
        for p in self.coherence_pairs or ():
            if not (isinstance(p, (tuple, list)) and len(p) == 2 and all(map(_is_integer, p))):
                problems.append(("coherence_pairs", f"{_show(p)} is not a pair of integers"))
            elif p[0] == p[1] or not (0 <= p[0] < dim and 0 <= p[1] < dim):
                j, k = (_show(int(i)) for i in p)
                problems.append(("coherence_pairs", f"({j},{k}) invalid for dim {dim}"))
        try:
            self.schedule.validate(dim=dim, t_final=self.t_final)
        except ValidationError as exc:
            problems.extend(exc.problems)
        if problems:
            raise ValidationError.from_problems("scenario", problems)
        return self


@dataclass(frozen=True)
class InterventionMarker:
    """One intervention and the rows holding the states around it.

    ``pre`` and ``post`` index the trajectory's rows; ``post`` is always
    ``pre + 1``.
    """

    time: float
    kind: InterventionKind
    target: int
    pre: int
    post: int


@dataclass
class Trajectory:
    """A run stored as columns, one row per sample in sampling order.

    Row r holds the time ``t[r]``, the populations ``populations[r]``,
    the summed Im coherences ``sigma[r]``, the tracked pairs
    ``coherences[r]`` (complex, in ``spec.resolved_pairs()`` order), the
    invariants ``trace[r]``, ``purity[r]``, ``energy[r]`` and the tag
    ``events[r]``. ``grid[i]`` is the row of grid time ``i * sample_dt``;
    where an intervention ties with a grid point it is the post row, the
    state the run carries forward.
    """

    spec: ScenarioSpec
    t: np.ndarray
    events: list
    populations: np.ndarray
    sigma: np.ndarray
    coherences: np.ndarray
    trace: np.ndarray
    purity: np.ndarray
    energy: np.ndarray
    grid: np.ndarray
    markers: list

    def grid_times(self) -> np.ndarray:
        return self.t[self.grid]

    def grid_population(self, j: int) -> np.ndarray:
        return self.populations[self.grid, j]

    def grid_sigma(self) -> np.ndarray:
        return self.sigma[self.grid]


_EVENT_NAME = {InterventionKind.MEASURE: "measure", InterventionKind.SIGN_FLIP: "flip"}


def _row_plan(spec: ScenarioSpec):
    """Times, event tags, grid rows and markers of a run, before any state.

    Each intervention takes a pre row and a post row at its own time.
    A grid time within `_tie_tol` of it gets no row of its own: its grid
    slot points at the post row.
    """
    n = int(np.floor(spec.t_final / spec.sample_dt + 1e-9))
    grid_t = np.arange(n + 1, dtype=np.float64) * spec.sample_dt
    t: list = []
    events: list = []
    grid: list = []
    markers: list = []

    def add_grid_rows(stop: int) -> None:
        for i in range(len(grid), stop):
            grid.append(len(t))
            t.append(grid_t[i])
            events.append("none")

    for item in spec.schedule:
        tau = item.time
        add_grid_rows(int(np.searchsorted(grid_t, tau - _tie_tol(tau))))
        pre = len(t)
        name = _EVENT_NAME[item.kind]
        t += [tau, tau]
        events += [f"pre_{name}", f"post_{name}"]
        markers.append(InterventionMarker(tau, item.kind, item.target, pre, pre + 1))
        i = len(grid)  # the next grid time
        if i <= n and abs(grid_t[i] - tau) <= _tie_tol(tau):
            grid.append(pre + 1)
    add_grid_rows(n + 1)
    return np.array(t, dtype=np.float64), events, np.array(grid), markers


def _diagonal_factor(p):
    """X and w of diag(p): the unit columns of its nonzero populations."""
    keep = np.flatnonzero(p)
    x = np.zeros((p.size, keep.size), dtype=np.complex128)
    x[keep, np.arange(keep.size)] = 1.0
    return x, p[keep]


def _merged_columns(x, w):
    """At most n orthonormal columns carrying the same X diag(w) X^H.

    With the thin QR X = Q R, X diag(w) X^H = Q (R diag(w) R^H) Q^H, and
    the eigenvectors Z of the small Hermitian middle give Q Z.
    """
    q, r = np.linalg.qr(x)
    w, z = np.linalg.eigh((r * w) @ r.conj().T)
    return q @ z, w


def _readout(rho, vec, pairs):
    """Populations, row 0 and the tracked pairs of V rho V^T, from the
    eigenbasis state rho, at one n x n product A = V rho (a real GEMM on
    rho's float64 view): P_j = sum_m Re(A_jm) V_jm, row 0 is A[0] V^T and
    pair (j, k) is A[j] . V[k]."""
    a = _real_times(vec, rho)
    p = np.einsum("jm,jm->j", a.real, vec)
    row0 = _real_times(vec, a[0][:, None])[:, 0]
    return p, row0, np.array([a[j] @ vec[k] for j, k in pairs], dtype=np.complex128)


def _row(p, row0, coherences, purity, eps, c) -> tuple:
    """A trajectory row from the populations and row 0 of rho, as
    `record_observables` forms it for the hub ``(eps, c)``."""
    return p, row0.imag[1:].sum(), coherences, p.sum(), purity, p @ eps + 2.0 * (row0.real @ c)


def _dephase(rho, vec, p) -> None:
    """Set the eigenbasis state rho to V^T diag(p) V in place, by one real
    GEMM symmetrized as `evolve` does."""
    m = (vec.T * p) @ vec
    rho.real = 0.5 * (m + m.T)
    rho.imag = 0.0


def _flip(rho, v) -> None:
    """Apply a flip to the eigenbasis state rho in place, at O(n^2).

    F = 1 - 2|s><s| reads 1 - 2 v v^T in the eigenbasis, with v = row s
    of V. With g = rho v and h = g - Re(v^T g) v, F rho F = rho - 2 (v g^H
    + g v^T) + 4 Re(v^T g) v v^T = rho - 2 (h v^T + v h^H). The update is
    summed with its own conjugate transpose before it is subtracted, so
    rho stays exactly Hermitian however many flips follow.
    """
    g = rho @ v
    m = np.multiply.outer(g - (v @ g).real * v, 2.0 * v)
    m += m.conj().T
    rho -= m


def _flipped(row0, coherences, s: int, pairs):
    """Row 0 and the tracked pairs after a flip of level s, which negates
    row and column s of rho off the diagonal."""
    row0 = row0.copy()
    if s == 0:
        row0[1:] *= -1.0
    else:
        row0[s] *= -1.0
    signs = [-1.0 if (j == s) != (k == s) else 1.0 for j, k in pairs]
    return row0, coherences * signs


def run(spec: ScenarioSpec) -> Trajectory:
    """Execute one scenario.

    Rows between interventions take one of two routes, and neither forms
    an n x n matrix:

    * a pure state (from t = 0 until the first measurement) is one column
      x, rho = x x^H, carried by `evolve_factor` and read by
      `factor_observables`; a flip negates row ``target`` of x;
    * after a measurement the state is rho_D(t) = U(t - tau) diag(p)
      U(t - tau)^H, with p the measured populations at time tau, read by
      `dephased_observables` from row 0 and the diagonal of U alone, at
      O(n^2) per row. Each later flip adds two columns (`flip_columns`)
      to a factor X with signed weights, carried as above and added on,
      until the next measurement resets it; past n columns X is merged
      into n orthonormal ones (`_merged_columns`). For a hub too
      ill-conditioned for that identity (`band_gaps` returns None), the
      measured state is instead the factor of its unit columns, weighted
      by p, and stays on the first route at O(n^3) per row.

    A check chain, which never reads the routes, carries the state exactly
    from intervention to intervention in the eigenbasis of H, as
    rho~ = V^T rho V. There a segment is a phase product, rho~_mn times
    exp(-i (lam_m - lam_n) t), at O(n^2). At each pre row the chain reads
    rho = V rho~ V^T through one n x n x 2n real GEMM (`_readout`), and
    the route's populations must match within `CROSS_CHECK_TOL`. The pre
    row is then the chain's, and the pre state passes
    `HermitianMatrix.validate_density` (rho~ has rho's trace, spectrum
    and purity). A measurement sets rho~ = V^T diag(P) V (one n x n x n
    real GEMM); a flip is a rank-two update (`_flip`) at O(n^2). Every
    row evolves from its segment start, never from the previous sample,
    so sampling density cannot change the states visited.
    """
    h, _ = build(spec.model)
    spectral, (eps, c) = eigendecompose(h), hub(spec.model)
    del h  # only the eigendecomposition reads the dense H; free it for the run
    vec, lam = spectral.eigenvectors, spectral.eigenvalues
    pairs = spec.resolved_pairs()
    t, events, grid, markers = _row_plan(spec)

    rows, dim = t.size, spec.model.dim
    columns = (
        np.empty((rows, dim)),  # populations
        np.empty(rows),  # sigma
        np.empty((rows, len(pairs)), dtype=np.complex128),  # coherences
        np.empty(rows),  # trace
        np.empty(rows),  # purity
        np.empty(rows),  # energy
    )
    populations = columns[0]

    def put(r, row) -> None:
        for column, value in zip(columns, row):
            column[r] = value

    # a segment starts at t = 0 or at a post row; its rows run up to and
    # including the next pre row, which the check chain then overwrites
    seg_t, first = 0.0, 0
    x, w = np.eye(dim, 1, dtype=np.complex128), np.ones(1)  # build starts in |0><0|
    rho = np.multiply.outer(vec[0], vec[0]).astype(np.complex128)  # the chain's |0><0|
    measured = None  # (time, populations) of the last measurement, on the row-0 route
    route = None  # the row-0 route's (vv, gaps), or False where `band_gaps` refuses it
    for marker, item in zip([*markers, None], [*spec.schedule, None]):
        last = rows - 1 if marker is None else marker.pre
        if measured is not None:
            tau, p = measured
            vv, gaps = route
            step = BLOCK_ENTRIES // dim
            for lo in range(first, last + 1, step):
                hi = min(lo + step, last + 1)
                u, d = row0_and_diagonal(spectral, vv, t[lo:hi] - tau)
                put(slice(lo, hi), dephased_observables(u, d, p, gaps, eps, c, pairs))
        blocks = evolve_factor(x, spectral, t[first : last + 1] - seg_t) if x.shape[1] else ()
        for k, xt in blocks:
            r = slice(first + k, first + k + xt.shape[1])
            part = factor_observables(xt, w, eps, c, pairs)
            if measured is None:
                put(r, part)
            else:  # the flip columns' share; purity stays the dephased route's
                for q in (0, 1, 2, 5):  # populations, sigma, coherences, energy
                    columns[q][r] += part[q]
                columns[3][r] = populations[r].sum(axis=1)
        if marker is None:
            break
        phases = np.exp(-1j * lam * (marker.time - seg_t))
        rho *= np.multiply.outer(phases, phases.conj())
        pre, row0, coherences = _readout(rho, vec, pairs)
        drift = float(np.max(np.abs(pre - populations[last])))
        if not drift <= CROSS_CHECK_TOL:
            raise ValidationError(
                f"route populations differ from the check chain by {drift:.3e} in row {last}"
            )
        purity = np.vdot(rho, rho).real
        put(last, _row(pre, row0, coherences, purity, eps, c))
        HermitianMatrix._wrap(rho).validate_density()
        if item.kind is InterventionKind.MEASURE:
            # the post row is diag(P) and reuses the pre row's P, so their
            # populations agree exactly
            _dephase(rho, vec, pre)
            row0 = np.zeros(dim)
            row0[0] = pre[0]
            put(marker.post, _row(pre, row0, np.zeros_like(coherences), pre @ pre, eps, c))
            if route is None:  # built at the first measurement
                gaps = band_gaps(eps, c)
                route = gaps is not None and (vec**2, gaps)
            if not route:  # too ill-conditioned: one unit column per populated level
                x, w = _diagonal_factor(pre)
            else:
                measured = marker.time, pre
                x, w = x[:, :0], w[:0]
        else:
            _flip(rho, vec[item.target])
            row0, coherences = _flipped(row0, coherences, item.target, pairs)
            put(marker.post, _row(pre, row0, coherences, purity, eps, c))
            if x.shape[1]:  # the factor at the pre row; U = 1 - 2|s><s| negates row s
                x = xt[:, -1].copy()
                x[item.target] *= -1.0
            if measured is not None:
                xs, ws = flip_columns(spectral, p, marker.time - tau, item.target)
                x, w = np.hstack((x, xs)), np.concatenate((w, ws))
                if x.shape[1] > dim:
                    x, w = _merged_columns(x, w)
        seg_t, first = marker.time, marker.post + 1

    validate_observables(populations, columns[3], columns[4])
    return Trajectory(spec, t, events, *columns, grid=grid, markers=markers)


def run_batch(specs, max_workers: int | None = None) -> list:
    """Run scenarios one after another in the calling thread, in input order.

    ``max_workers`` is accepted and ignored: on two cores a thread pool
    made a batch of small runs slower than running them in order.
    """
    return [run(spec) for spec in specs]


class Effect(str, Enum):
    QZE = "QZE"
    AZE = "AZE"
    NEUTRAL = "neutral"


class Classification(NamedTuple):
    effect: Effect
    score: float


def classify_effect(
    reference: Trajectory,
    intervened: Trajectory,
    window: tuple,
    theta: float = 0.005,
) -> Classification:
    """Compare time-averaged survival of state 0 over a window.

    ``score`` is the intervened average minus the reference average of
    rho_00 across the grid samples inside ``window`` (endpoints
    inclusive). Above ``theta`` the verdict is QZE (transfer retarded),
    below ``-theta`` AZE (transfer accelerated), otherwise neutral.
    Averages rather than endpoints keep the verdict stable when the
    reference oscillates.
    """
    t_a, t_b = float(window[0]), float(window[1])
    if not t_a < t_b:
        raise ValidationError(f"empty window ({t_a!r}, {t_b!r})")
    ref_t = reference.grid_times()
    int_t = intervened.grid_times()
    if ref_t.size != int_t.size or not np.array_equal(ref_t, int_t):
        raise ValidationError("sampling grids differ between the two trajectories")
    mask = (ref_t >= t_a - _tie_tol(t_a)) & (ref_t <= t_b + _tie_tol(t_b))
    if not np.any(mask):
        raise ValidationError(f"window ({t_a!r}, {t_b!r}) contains no samples")
    score = float(
        np.mean(intervened.grid_population(0)[mask])
        - np.mean(reference.grid_population(0)[mask])
    )
    if score > theta:
        return Classification(Effect.QZE, score)
    if score < -theta:
        return Classification(Effect.AZE, score)
    return Classification(Effect.NEUTRAL, score)
