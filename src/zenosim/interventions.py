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

from .core import (
    HermitianMatrix, ParameterError, ValidationError, _is_integer, _is_real, _show, as_matrix
)

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
        try:
            object.__setattr__(self, "items", tuple(self.items))
        except TypeError:
            problem = ("schedule", f"must be a sequence of interventions, got {_show(self.items)}")
            raise ValidationError.from_problems("schedule", [problem]) from None

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
            if not isinstance(item.kind, InterventionKind):
                problems.append((f"{path}.kind", f"{_show(item.kind)} is not an InterventionKind"))
            time = item.time
            if not _is_real(time):
                problems.append((f"{path}.time", f"{_show(time)} is not a number"))
            else:
                if not time > 0:
                    problems.append((f"{path}.time", f"{_show(time)} must be positive"))
                elif not time > prev:
                    problems.append(
                        (f"{path}.time", f"{_show(time)} does not increase past {_show(prev)}")
                    )
                prev = max(prev, time)
                if t_final is not None and time >= t_final:
                    problems.append(
                        (f"{path}.time", f"{_show(time)} is not before t_final {_show(t_final)}")
                    )
            if not _is_integer(item.target):
                problems.append((f"{path}.target", f"{_show(item.target)} is not an integer"))
            elif dim is not None and not 0 <= item.target < dim:
                target = _show(int(item.target))
                problems.append((f"{path}.target", f"{target} outside [0, {dim})"))
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
    if not _is_integer(target) or not 0 <= target < state.dim:
        raise ParameterError(f"flip target {_show(target)} is not an integer in [0, {state.dim})")
    out = as_matrix(state.validate_density()).copy()
    out[target, :] *= -1.0
    out[:, target] *= -1.0  # (target, target) is negated twice, so it survives
    return HermitianMatrix._wrap(out)


def apply_intervention(rho, item: Intervention) -> HermitianMatrix:
    if item.kind is InterventionKind.MEASURE:
        return measure_dephase(rho)
    if item.kind is InterventionKind.SIGN_FLIP:
        return sign_flip(rho, item.target)
    raise ParameterError(f"unknown intervention kind {_show(item.kind)}")
