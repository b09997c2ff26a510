"""Instantaneous maps applied between propagation segments.

Two kinds:

* a dephasing measurement that erases every off-diagonal entry while
  leaving populations untouched (the non-selective readout of which
  level the system is in),
* a sign-flip unitary U = 1 - 2|s><s| that negates the coherences of
  one state without touching any population.

Both act in zero time; the scheduler in `scenario` decides when.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import HermitianMatrix, ParameterError, ValidationError, as_matrix

__all__ = [
    "InterventionKind",
    "Intervention",
    "InterventionSchedule",
    "measure_dephase",
    "sign_flip",
    "apply_intervention",
]


class InterventionKind(str, Enum):
    MEASURE = "measure"
    SIGN_FLIP = "sign_flip"


@dataclass(frozen=True)
class Intervention:
    """One scheduled event.

    ``target`` is the state index whose coherences a sign flip negates;
    it is ignored by the dephasing measurement, which acts on the whole
    basis.
    """

    time: float
    kind: InterventionKind
    target: int = 0


@dataclass(frozen=True)
class InterventionSchedule:
    """Ordered interventions with strictly increasing positive times."""

    items: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def validate(self, dim: int | None = None, t_final: float | None = None):
        """Raise ValidationError with a ``schedule[i]...`` problem per bad item."""
        problems = []
        prev = 0.0
        for i, item in enumerate(self.items):
            path = f"schedule[{i}]"
            if not isinstance(item, Intervention):
                problems.append((path, "is not an Intervention"))
                continue
            if not item.time > 0:
                problems.append((f"{path}.time", f"{item.time!r} must be positive"))
            elif not item.time > prev:
                problems.append(
                    (f"{path}.time", f"{item.time!r} does not increase past {prev!r}")
                )
            prev = max(prev, item.time)
            if t_final is not None and item.time >= t_final:
                problems.append(
                    (f"{path}.time", f"{item.time!r} is not before t_final {t_final!r}")
                )
            if isinstance(item.target, bool) or not isinstance(item.target, (int, np.integer)):
                problems.append((f"{path}.target", f"{item.target!r} is not an integer"))
            elif dim is not None and not 0 <= item.target < dim:
                problems.append((f"{path}.target", f"{item.target} outside [0, {dim})"))
        if problems:
            raise ValidationError.from_problems("schedule", problems)
        return self


def measure_dephase(rho) -> HermitianMatrix:
    """Erase all coherences, keeping the (real) diagonal.

    Idempotent; preserves the trace exactly and never increases purity.
    The input must be a valid density matrix.
    """
    m = as_matrix(HermitianMatrix(rho).validate_density())
    out = np.zeros_like(m)
    np.fill_diagonal(out, np.real(np.diagonal(m)))
    return HermitianMatrix._wrap(out)


def sign_flip(rho, target: int) -> HermitianMatrix:
    """Conjugate rho by U = 1 - 2|target><target|.

    Negates row and column ``target`` off the diagonal; populations and
    the spectrum are untouched. Involutive, and exact in floating point
    because it only flips signs.
    """
    state = HermitianMatrix(rho)
    if not 0 <= target < state.dim:
        raise ParameterError(f"flip target {target} outside [0, {state.dim})")
    out = as_matrix(state.validate_density()).copy()
    out[target, :] *= -1.0
    out[:, target] *= -1.0  # (target, target) is negated twice, so it survives
    return HermitianMatrix._wrap(out)


def apply_intervention(rho, item: Intervention) -> HermitianMatrix:
    if item.kind is InterventionKind.MEASURE:
        return measure_dephase(rho)
    if item.kind is InterventionKind.SIGN_FLIP:
        return sign_flip(rho, item.target)
    raise ParameterError(f"unknown intervention kind {item.kind!r}")
