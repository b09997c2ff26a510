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

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import HermitianMatrix, ParameterError, _is_integer, _is_real, _show

__all__ = [
    "ModelKind",
    "ModelSpec",
    "continuum_grid",
    "hub",
    "build",
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
        ParameterError with one ``model.<field>`` problem per violation. No
        value is compared before ``kind`` is a `ModelKind`, the fields of the
        kind are real numbers (``n_levels`` an integer) and the rest None."""
        if not isinstance(self.kind, ModelKind):
            problems = [("kind", f"must be a ModelKind, got {_show(self.kind)}")]
        else:
            problems = self._type_problems() or self._value_problems()
        if problems:
            raise ParameterError.from_problems(
                "model parameters", [(f"model.{name}", text) for name, text in problems]
            )
        return self

    def _type_problems(self) -> list:
        band = self.kind is not ModelKind.TWO_LEVEL
        unused = ("eps1",) if band else ("d", "n_levels", "spacing")
        problems = [(name, f"does not apply to kind {self.kind.value!r}")
                    for name in unused if getattr(self, name) is not None]
        problems += [(name, f"must be a number, got {_show(getattr(self, name))}")
                     for name in ("v", "eps0", "d", "spacing", "eps1")
                     if name not in unused and not _is_real(getattr(self, name))]
        if band and not (_is_integer(self.n_levels) and self.n_levels >= 2):
            problems.append(
                ("n_levels", f"must be an integer of at least 2, got {_show(self.n_levels)}")
            )
        return problems

    def _value_problems(self) -> list:
        problems = []
        bound = f"at most {MAX_ENERGY:g} in magnitude"
        if not 0 <= self.v <= MAX_ENERGY:
            problems.append(("v", f"must be a nonnegative coupling {bound}, got {_show(self.v)}"))
        for name in ("eps0", "eps1") if self.kind is ModelKind.TWO_LEVEL else ("eps0",):
            if not abs(getattr(self, name)) <= MAX_ENERGY:
                problems.append((name, f"must be {bound}, got {_show(getattr(self, name))}"))
        if self.kind is ModelKind.TWO_LEVEL:
            return problems
        d, n, spacing = self.d, self.n_levels, self.spacing
        if not 0 < d <= MAX_ENERGY:
            problems.append(("d", f"must be positive and {bound} for band kinds, got {_show(d)}"))
        if n + 1 > MAX_DIM:
            problems.append(
                ("n_levels", f"{_show(int(n))} exceeds the limit of {MAX_DIM - 1} levels")
            )
        if not spacing > 0:
            problems.append(("spacing", f"must be positive, got {_show(spacing)}"))
        if not problems:  # an infinite or huge spacing fails here, compared exactly
            span = (n - 1) * spacing
            if span > 2 * d + GRID_SPAN_SLACK:
                problems.append(
                    ("spacing", f"band span {_show(span)} exceeds 2d = {_show(2 * d)}")
                )
        return problems


def continuum_grid(n: int, spacing: float, d: float) -> np.ndarray:
    """Band level energies, top-anchored.

    The k-th level (k = 1..n) sits at ``d - (n - k) * spacing``: the top
    level is exactly at d and the rest step down uniformly. Defaults
    (n=200, spacing=0.05, d=5) span -4.95..+5.00 and contain 0 exactly.
    """
    return d - spacing * np.arange(n - 1, -1, -1, dtype=np.float64)


def hub(spec: ModelSpec):
    """Hub (arrowhead) form of the Hamiltonian. Returns (eps, c).

    H = diag(eps) + c e_0^T + e_0 c^T: ``eps`` holds the level energies,
    state 0 first, and ``c[k]`` couples level k to state 0 (``c[0] = 0``).
    """
    if spec.kind is ModelKind.TWO_LEVEL:
        eps = np.array([spec.eps0, spec.eps1], dtype=np.float64)
    else:
        eps = np.concatenate(([spec.eps0], continuum_grid(spec.n_levels, spec.spacing, spec.d)))
    return eps, np.where(np.arange(eps.size) > 0, float(spec.v), 0.0)


def build(spec: ModelSpec):
    """Dense Hamiltonian and |0><0| initial state of a spec. Returns (h, rho0).

    ``h`` writes out `hub`; the coupling ``v`` must be positive (a zero
    coupling is only meaningful for the closed-form predictors).
    """
    if not spec.v > 0:
        raise ParameterError(f"coupling v must be positive, got {_show(spec.v)}")
    eps, c = hub(spec)
    h = np.diag(eps)
    h[0, 1:] = h[1:, 0] = c[1:]
    return h, HermitianMatrix.basis_state(spec.dim, 0)
