"""Hamiltonians and initial states for the level-transfer systems.

Three ready-made setups plus a custom variant:

* a two-level system with coupling ``v`` between the levels,
* a discrete level inside a band of uniformly spaced levels (LIC),
* a discrete level above the top edge of that band (LOC).

State index 0 is always the distinguished level; for the band models,
indices 1..n are the band levels and couple to state 0 only. The band
grid is anchored to its top edge: the highest band level sits exactly at
the half width ``d``, so a level at ``d + g`` sits one gap ``g`` above
the band.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import HermitianMatrix, ParameterError

__all__ = [
    "ModelKind",
    "ModelSpec",
    "continuum_grid",
    "build",
    "level_energies",
]

# overhang tolerance for (n_levels - 1) * spacing <= 2 d
GRID_SPAN_SLACK = 1e-9
# largest |energy| and coupling, hartree: at 1e5 a 201-level band already
# misses the absolute 1e-10 eigendecomposition gate; 1,000 levels at 1e3 pass
MAX_ENERGY = 1e3
# largest dimension: propagation works on dense dim x dim complex matrices
MAX_DIM = 1001


class ModelKind(str, Enum):
    TWO_LEVEL = "two_level"
    LEVEL_IN_CONTINUUM = "level_in_continuum"
    LEVEL_OUTSIDE_CONTINUUM = "level_outside_continuum"
    CUSTOM_CONTINUUM = "custom_continuum"


@dataclass(frozen=True)
class ModelSpec:
    """Declarative parameters of a system.

    Parameters
    ----------
    kind : ModelKind
    v : float
        Coupling between state 0 and every other level, hartree. Must be
        nonnegative; `build` additionally requires ``v > 0``.
    eps0 : float
        Energy of the distinguished level, hartree.
    eps1 : float, optional
        Second level energy, two-level kind only.
    d : float, optional
        Band half width, band kinds only.
    n_levels : int, optional
        Number of band levels, band kinds only.
    spacing : float, optional
        Band level spacing, band kinds only.
    """

    kind: ModelKind
    v: float
    eps0: float
    eps1: float | None = None
    d: float | None = None
    n_levels: int | None = None
    spacing: float | None = None

    @classmethod
    def two_level(cls, eps0: float = -0.2, eps1: float = 0.2, v: float = 0.2) -> "ModelSpec":
        return cls(kind=ModelKind.TWO_LEVEL, v=v, eps0=eps0, eps1=eps1)

    @classmethod
    def level_in_continuum(
        cls,
        eps0: float = 0.0,
        d: float = 5.0,
        n_levels: int = 200,
        spacing: float = 0.05,
        v: float = 0.01,
    ) -> "ModelSpec":
        return cls(
            kind=ModelKind.LEVEL_IN_CONTINUUM,
            v=v, eps0=eps0, d=d, n_levels=n_levels, spacing=spacing,
        )

    @classmethod
    def level_outside_continuum(
        cls,
        eps0: float = 5.04,
        d: float = 5.0,
        n_levels: int = 200,
        spacing: float = 0.05,
        v: float = 0.01,
    ) -> "ModelSpec":
        return cls(
            kind=ModelKind.LEVEL_OUTSIDE_CONTINUUM,
            v=v, eps0=eps0, d=d, n_levels=n_levels, spacing=spacing,
        )

    @classmethod
    def custom_continuum(cls, eps0, d, n_levels, spacing, v) -> "ModelSpec":
        return cls(
            kind=ModelKind.CUSTOM_CONTINUUM,
            v=v, eps0=eps0, d=d, n_levels=n_levels, spacing=spacing,
        )

    @property
    def dim(self) -> int:
        if self.kind is ModelKind.TWO_LEVEL:
            return 2
        return self.n_levels + 1

    def __post_init__(self):
        self.validate()

    def validate(self) -> "ModelSpec":
        """Check the parameters (run when the spec is built), raising
        ParameterError with one ``model.<field>`` problem per violation."""
        problems = []
        bound = f"at most {MAX_ENERGY:g} in magnitude"
        if not 0 <= self.v <= MAX_ENERGY:
            problems.append(("v", f"must be a nonnegative coupling {bound}, got {self.v!r}"))
        if not abs(self.eps0) <= MAX_ENERGY:
            problems.append(("eps0", f"must be {bound}, got {self.eps0!r}"))
        if self.kind is ModelKind.TWO_LEVEL:
            if self.eps1 is None:
                problems.append(("eps1", "is required for the two-level kind"))
            elif not abs(self.eps1) <= MAX_ENERGY:
                problems.append(("eps1", f"must be {bound}, got {self.eps1!r}"))
        else:
            d, n, spacing = self.d, self.n_levels, self.spacing
            if d is None or not 0 < d <= MAX_ENERGY:
                problems.append(("d", f"must be positive and {bound} for band kinds, got {d!r}"))
            if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 2:
                problems.append(("n_levels", f"must be an integer of at least 2, got {n!r}"))
            elif n + 1 > MAX_DIM:
                problems.append(("n_levels", f"{n} exceeds the limit of {MAX_DIM - 1} levels"))
            if spacing is None or not spacing > 0:
                problems.append(("spacing", f"must be positive, got {spacing!r}"))
            if not problems:  # an infinite or huge spacing fails here, compared exactly
                span = (n - 1) * spacing
                if span > 2 * d + GRID_SPAN_SLACK:
                    problems.append(("spacing", f"band span {span!r} exceeds 2d = {2 * d!r}"))
        if problems:
            raise ParameterError.from_problems(
                "model parameters", [(f"model.{name}", text) for name, text in problems]
            )
        return self


def continuum_grid(n: int, spacing: float, d: float) -> np.ndarray:
    """Band level energies, top-anchored.

    The k-th level (k = 1..n) sits at ``d - (n - k) * spacing``: the top
    level is exactly at d and the rest step down uniformly. Defaults
    (n=200, spacing=0.05, d=5) span -4.95..+5.00 and contain 0 exactly.
    """
    return d - spacing * np.arange(n - 1, -1, -1, dtype=np.float64)


def level_energies(spec: ModelSpec) -> np.ndarray:
    """All level energies, state 0 first."""
    if spec.kind is ModelKind.TWO_LEVEL:
        return np.array([spec.eps0, spec.eps1], dtype=np.float64)
    grid = continuum_grid(spec.n_levels, spec.spacing, spec.d)
    return np.concatenate(([spec.eps0], grid))


def build(spec: ModelSpec):
    """Hamiltonian and |0><0| initial state of a spec. Returns (h, rho0).

    Level energies sit on the diagonal and state 0 couples to every other
    level with ``v``, which must be positive (a zero coupling is only
    meaningful for the closed-form predictors).
    """
    if not spec.v > 0:
        raise ParameterError(f"coupling v must be positive, got {spec.v!r}")
    h = np.diag(level_energies(spec))
    h[0, 1:] = spec.v
    h[1:, 0] = spec.v
    return h, HermitianMatrix.basis_state(spec.dim, 0)
