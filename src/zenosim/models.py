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

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import HermitianMatrix, ParameterError

__all__ = [
    "ModelKind",
    "ModelSpec",
    "continuum_grid",
    "build_two_level",
    "build_continuum",
    "build",
    "level_energies",
]

# overhang tolerance for (n_levels - 1) * spacing <= 2 d
GRID_SPAN_SLACK = 1e-9


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
        nonnegative; the matrix builders additionally require ``v > 0``
        (a zero coupling is only meaningful for the closed-form
        predictors).
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

    def is_continuum(self) -> bool:
        return self.kind is not ModelKind.TWO_LEVEL

    @property
    def dim(self) -> int:
        if self.kind is ModelKind.TWO_LEVEL:
            return 2
        self.validate()
        return int(self.n_levels) + 1

    def validate(self) -> "ModelSpec":
        """Check the parameter set, raising ParameterError listing violations."""
        problems = []
        if not math.isfinite(self.v) or self.v < 0:
            problems.append(f"v must be a finite nonnegative coupling, got {self.v!r}")
        if not math.isfinite(self.eps0):
            problems.append(f"eps0 must be finite, got {self.eps0!r}")
        if self.kind is ModelKind.TWO_LEVEL:
            if self.eps1 is None:
                problems.append("eps1 is required for the two-level kind")
            elif not math.isfinite(self.eps1):
                problems.append(f"eps1 must be finite, got {self.eps1!r}")
        else:
            if self.d is None or not (self.d > 0 and math.isfinite(self.d)):
                problems.append(f"d must be positive and finite for band kinds, got {self.d!r}")
            if self.n_levels is None or self.n_levels < 2:
                problems.append(f"n_levels must be at least 2, got {self.n_levels!r}")
            if self.spacing is None or not (self.spacing > 0 and math.isfinite(self.spacing)):
                problems.append(f"spacing must be positive and finite, got {self.spacing!r}")
            if not problems:
                span = (self.n_levels - 1) * self.spacing
                if span > 2 * self.d + GRID_SPAN_SLACK:
                    problems.append(
                        f"band span {span!r} exceeds the width 2d = {2 * self.d!r}"
                    )
        if problems:
            raise ParameterError("invalid model parameters: " + "; ".join(problems))
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
    spec.validate()
    if spec.kind is ModelKind.TWO_LEVEL:
        return np.array([spec.eps0, spec.eps1], dtype=np.float64)
    grid = continuum_grid(spec.n_levels, spec.spacing, spec.d)
    return np.concatenate(([spec.eps0], grid))


def build_two_level(eps0: float = -0.2, eps1: float = 0.2, v: float = 0.2):
    """Two-level Hamiltonian and the |0><0| initial state.

    Returns
    -------
    h : ndarray
        [[eps0, v], [v, eps1]], real symmetric.
    rho0 : HermitianMatrix
    """
    if not v > 0:
        raise ParameterError(f"coupling v must be positive, got {v!r}")
    h = np.array([[eps0, v], [v, eps1]], dtype=np.float64)
    return h, HermitianMatrix.basis_state(2, 0)


def build_continuum(eps0: float, d: float, n: int, spacing: float, v: float):
    """Level-plus-band Hamiltonian and the |0><0| initial state.

    State 0 couples to every band level with the single constant ``v``;
    band levels do not couple to each other.
    """
    if not v > 0:
        raise ParameterError(f"coupling v must be positive, got {v!r}")
    spec = ModelSpec.custom_continuum(eps0=eps0, d=d, n_levels=n, spacing=spacing, v=v)
    spec.validate()
    dim = n + 1
    h = np.zeros((dim, dim), dtype=np.float64)
    h[0, 0] = eps0
    grid = continuum_grid(n, spacing, d)
    h[np.arange(1, dim), np.arange(1, dim)] = grid
    h[0, 1:] = v
    h[1:, 0] = v
    return h, HermitianMatrix.basis_state(dim, 0)


def build(spec: ModelSpec):
    """Dispatch to the matching builder. Returns (h, rho0)."""
    spec.validate()
    if spec.kind is ModelKind.TWO_LEVEL:
        return build_two_level(spec.eps0, spec.eps1, spec.v)
    return build_continuum(spec.eps0, spec.d, spec.n_levels, spec.spacing, spec.v)
