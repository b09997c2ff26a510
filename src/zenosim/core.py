"""The Hermitian matrix type, spectral data and the package's errors.

Everything in this package works in atomic units: density matrices are
dimensionless, Hamiltonians are in hartree, times in a.u. of time. All
storage is dense complex128; the largest system here is a few hundred
levels, where sparsity buys nothing and dense eigendecomposition is
simple to verify. Tolerances are absolute because every matrix entry is
O(1): populations are bounded by 1 and level energies by the band half
width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ZenosimError",
    "DimensionMismatchError",
    "ValidationError",
    "ParameterError",
    "UnsupportedPairError",
    "DegenerateSpectrumError",
    "HermitianMatrix",
    "SpectralData",
    "as_matrix",
]

# max |A - A^H| accepted by the HermitianMatrix constructor
HERMITICITY_TOL = 1e-12
# density-matrix validity gates
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10
PURITY_TOL = 1e-10
# orthonormality gate for eigenvector matrices
ORTHONORMALITY_TOL = 1e-10


class ZenosimError(Exception):
    """Base class for every error raised by this package.

    ``problems``: one ``(field, text)`` pair per rule a spec broke, where
    ``field`` is a dotted path such as ``schedule[0].time``.
    """

    problems: tuple = ()

    @classmethod
    def from_problems(cls, what: str, problems) -> "ZenosimError":
        err = cls(f"invalid {what}: " + "; ".join(f"{f} {text}" for f, text in problems))
        err.problems = tuple(problems)
        return err


class DimensionMismatchError(ZenosimError):
    """Operands have incompatible shapes."""


class ValidationError(ZenosimError):
    """A matrix or structured value violates its contract."""


class ParameterError(ZenosimError):
    """A scalar argument is outside its allowed range."""


class UnsupportedPairError(ZenosimError):
    """A coherence-rate formula was asked for a pair it does not cover."""


class DegenerateSpectrumError(ZenosimError):
    """A predictor denominator vanished; the spectrum carries no curvature."""


def _show(value) -> str:
    """``repr(value)`` for an error message, and never an error itself."""
    try:
        return repr(value)
    except Exception:  # an int of over 4,300 digits, or a broken __repr__
        size = f" of {value.bit_length()} bits" if isinstance(value, int) else ""
        return f"<{type(value).__name__}{size}>"


def _is_integer(value) -> bool:
    """An int or numpy integer, but not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def as_matrix(a) -> np.ndarray:
    """Return the complex128 ndarray behind ``a`` without copying when possible."""
    if isinstance(a, HermitianMatrix):
        return a._m
    return np.asarray(a, dtype=np.complex128)


class HermitianMatrix:
    """Square complex matrix kept Hermitian by construction.

    Parameters
    ----------
    entries : HermitianMatrix or array_like
        An instance, whose storage is shared (see Notes), or a square
        matrix Hermitian within ``1e-12`` (max abs entry of ``A - A^H``).
        The stored copy is symmetrized to ``(A + A^H)/2`` so later
        arithmetic cannot drift off the Hermitian manifold.

    Raises
    ------
    DimensionMismatchError
        If ``entries`` is not a square 2-d array of at least 1 x 1.
    ValidationError
        If the Hermiticity residual exceeds the tolerance or is NaN.

    Notes
    -----
    Instances are values: no method mutates the entries, and each was
    checked here or built exactly Hermitian by `_wrap`. So this is the
    one Hermiticity gate, and passing an instance through it again is free.
    """

    __slots__ = ("_m",)

    def __init__(self, entries):
        if isinstance(entries, HermitianMatrix):
            self._m = entries._m
            return
        m = np.array(entries, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
            raise DimensionMismatchError(
                f"expected a non-empty square matrix, got shape {m.shape}"
            )
        residual = float(np.max(np.abs(m - m.conj().T)))
        if not residual <= HERMITICITY_TOL:
            raise ValidationError(
                f"matrix is not Hermitian: max |A - A^H| = {residual:.3e} "
                f"exceeds {HERMITICITY_TOL:.0e}"
            )
        self._m = 0.5 * (m + m.conj().T)

    @classmethod
    def _wrap(cls, m: np.ndarray) -> "HermitianMatrix":
        # internal fast path: m must already be exactly Hermitian
        obj = cls.__new__(cls)
        obj._m = m
        return obj

    @classmethod
    def basis_state(cls, dim: int, j: int) -> "HermitianMatrix":
        """Projector |j><j| as a density matrix."""
        if dim < 1:
            raise ParameterError(f"dim must be positive, got {dim}")
        if not 0 <= j < dim:
            raise ParameterError(f"state index {j} outside [0, {dim})")
        m = np.zeros((dim, dim), dtype=np.complex128)
        m[j, j] = 1.0
        return cls._wrap(m)

    @property
    def dim(self) -> int:
        return self._m.shape[0]

    def __array__(self, dtype=None, copy=None):
        m = self._m
        return m.astype(dtype) if dtype is not None else m.copy()

    def eigenvalues(self) -> np.ndarray:
        """Real eigenvalues in ascending order."""
        return np.linalg.eigvalsh(self._m)

    def validate_density(self) -> "HermitianMatrix":
        """Check trace, positivity and purity gates for a density matrix.

        Positivity fails when the smallest eigenvalue is below -1e-10.
        The gate is decided by a Cholesky factorization of rho + 1e-10 I,
        which exists exactly when the smallest eigenvalue is above
        -1e-10: the eigenvalue gate at the same tolerance, for a fraction
        of the cost of an eigensolve. Only a failed factorization calls
        `eigenvalues`, to report the smallest one.

        Raises
        ------
        ValidationError
            Listing every violated gate.
        """
        m, problems = self._m, []
        tr = float(np.real(np.trace(m)))
        if not abs(tr - 1.0) <= TRACE_TOL:
            problems.append(f"trace = {tr!r} differs from 1 by more than {TRACE_TOL:.0e}")
        shifted = m.copy()
        shifted.flat[:: self.dim + 1] += POSITIVITY_TOL
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            lowest = float(self.eigenvalues()[0])
            problems.append(f"smallest eigenvalue {lowest!r} below -{POSITIVITY_TOL:.0e}")
        pur = float(np.sum(np.abs(m) ** 2))  # tr(rho^2) as the squared Frobenius norm
        lo = 1.0 / self.dim - PURITY_TOL
        if not lo <= pur <= 1.0 + PURITY_TOL:
            problems.append(f"purity {pur!r} outside [1/dim, 1]")
        if problems:
            raise ValidationError("not a valid density matrix: " + "; ".join(problems))
        return self

    def __repr__(self) -> str:
        return f"HermitianMatrix(dim={self.dim})"


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues and orthonormal eigenvectors of a real symmetric matrix.

    ``eigenvectors[:, j]`` pairs with ``eigenvalues[j]``; eigenvalues are
    ascending. Orthonormality is checked at construction; the
    reconstruction residual against the source matrix is checked where
    the decomposition is produced.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=np.float64)
        vec = np.asarray(self.eigenvectors, dtype=np.float64)
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "eigenvectors", vec)
        if lam.ndim != 1 or vec.shape != (lam.size, lam.size):
            raise DimensionMismatchError(
                f"eigenvalue vector of size {lam.size} does not match "
                f"eigenvector matrix of shape {vec.shape}"
            )
        gram = vec.T @ vec
        residual = float(np.max(np.abs(gram - np.eye(lam.size))))
        if not residual <= ORTHONORMALITY_TOL:
            raise ValidationError(
                f"eigenvector matrix is not orthonormal: max |V^T V - I| = {residual:.3e}"
            )

    @property
    def dim(self) -> int:
        return self.eigenvalues.size
