"""Dense complex linear algebra over small labeled Hilbert spaces.

Vectors and matrices carry the labels of the basis they are expressed in;
`inner` checks that its operands share one labeled basis,
so amplitudes written in different bases can never be mixed silently.
Their arrays are read-only after construction, so values are safe to share
between concurrent workers.
"""

from __future__ import annotations

import math
import sys
from typing import Sequence

import numpy as np

from .errors import BasisMismatch, DimensionError

# The tolerance table: each threshold of prepost, named for the decision it makes.  All are
# absolute except where a line says it is taken times a spectrum's largest |eigenvalue|
# (`scaled_tol`) or a matrix's largest |entry|.
#: Arrays within this max-abs gap are equal: `allclose`, Q^dagger Q = I; M = M^dagger within
#: this times M's largest |entry|.
EQUAL_TOL = 1e-10
#: A state's norm is 1 within this.
NORM_TOL = 1e-10
#: A state in a scenario file without `normalize` must have norm 1 within this.
DECLARED_NORM_TOL = 1e-6
#: A norm, overlap, amplitude or singular value at or below this is zero (orthogonality):
#: an empty pointer branch, an ABL denominator's sqrt sum |<f|P_i|d>|^2, and the overlap
#: |<f|d>| under a weak value or a conditional weight.
ZERO_TOL = 1e-12
#: A post-selected pointer density whose rate is at or below this carries no weight.
ZERO_RATE_TOL = 1e-24
#: Eigenvalues this close, times the spectrum's largest |eigenvalue|, are one: spectra merge
#: them, Observable rejects them, outcomes match.
DEGENERACY_TOL = 1e-8
#: A weak value within this of an eigenvalue is sharp (SWV); taken times the spectrum's
#: largest |eigenvalue|.
SHARP_TOL = 1e-10
#: An imaginary part at or below this is zero (functionals; a weak value's or a file
#: eigenvalue's is compared with this times the spectrum's largest |eigenvalue|).
REAL_TOL = 1e-10
#: A family is consistent when r = 2|a||s-a| / (|a|^2 + |s-a|^2) is at most this, with
#: a = <f|E|d> and s = <f|d>: r is scale-free and vanishes when the weak value of E is 0 or 1.
CONSISTENCY_TOL = 1e-10
#: A value within this of an exact one is it: a fixture, a real sqrt argument, a 0/1 entry.
EXACT_TOL = 1e-12

#: Separator used when tensor products concatenate factor basis labels.
LABEL_JOIN = "_"

#: A norm below this has a subnormal square: sqrt of the smallest normal double.
_NORM_MIN = math.sqrt(sys.float_info.min)


def scaled_tol(tol: float, values: Sequence[complex]) -> float:
    """`tol` times the largest |value| of a spectrum or a file's eigenvalue list, the scale
    of eigenvalue and weak-value errors: scaling an observable changes no merge, match or class."""
    return tol * float(np.max(np.abs(values), initial=0.0))


def index_labels(n: int) -> tuple[str, ...]:
    """Default basis labels "0", "1", ... for unlabeled data."""
    return tuple(str(i) for i in range(n))


def checked_labels(labels: Sequence[str], n: int) -> tuple[str, ...]:
    """The labels of an n-element basis: `index_labels(n)` when none are given, else
    exactly n labels; DimensionError otherwise."""
    labels = tuple(labels) if labels else index_labels(n)
    if len(labels) != n:
        raise DimensionError(f"{len(labels)} labels for dimension {n}")
    return labels


def label_index(labels: Sequence[str]) -> dict[str, int]:
    """Position of each label in a basis (whose labels are unique), for O(1) lookups."""
    return {label: k for k, label in enumerate(labels)}


def check_same_basis(a: "CVec | CMat", b: "CVec | CMat") -> None:
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.labels != b.labels:
        raise BasisMismatch(
            f"basis mismatch: {list(a.labels)} vs {list(b.labels)}"
        )


class CVec:
    """Complex amplitude vector over a labeled finite basis."""

    def __init__(self, amps: np.ndarray, labels: Sequence[str] = ()):
        amps = np.array(amps, dtype=complex)
        if amps.ndim != 1 or amps.size < 1:
            raise DimensionError("amplitude vector must be 1-d and non-empty")
        amps.setflags(write=False)
        self.amps, self.labels = amps, checked_labels(labels, amps.size)

    @property
    def dim(self) -> int:
        return self.amps.size

    def norm(self) -> float:
        """Euclidean norm.  Where the sum of squares overflows or is subnormal, the
        amplitudes are divided by their largest modulus first."""
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(self.amps))
            if not _NORM_MIN <= norm < math.inf:
                scale = float(np.abs(self.amps).max())
                if 0.0 < scale < math.inf:
                    norm = scale * float(np.linalg.norm(self.amps.view(float) / scale))
        return norm

    def unit(self) -> "CVec":
        """The vector divided by its norm.  Where that norm overflows or is subnormal,
        the amplitudes are first divided by their largest modulus in real arithmetic:
        numpy's complex quotient multiplies by the divisor's reciprocal, which
        overflows for a subnormal norm, and an infinite norm would give zeros."""
        norm = self.norm()
        if not sys.float_info.min <= norm < math.inf:
            scale = float(np.abs(self.amps).max())
            if 0.0 < scale < math.inf:
                rescaled = CVec((self.amps.view(float) / scale).view(complex), self.labels)
                return rescaled / rescaled.norm()
        return self / norm

    def allclose(self, other: "CVec") -> bool:
        return self.labels == other.labels and bool(
            np.allclose(self.amps, other.amps, rtol=0.0, atol=EQUAL_TOL)
        )

    def __truediv__(self, scalar: complex) -> "CVec":
        return CVec(self.amps / scalar, self.labels)

    @classmethod
    def basis_vector(cls, label: str, labels: Sequence[str]) -> "CVec":
        """Unit vector along the basis element named `label`."""
        labels = tuple(labels)
        amps = np.zeros(len(labels), dtype=complex)
        amps[labels.index(label)] = 1.0
        return cls(amps, labels)


class CMat:
    """Dense complex square matrix over a labeled finite basis."""

    def __init__(self, entries: np.ndarray, labels: Sequence[str] = ()):
        entries = np.array(entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise DimensionError(f"matrix must be square, got {entries.shape}")
        if entries.shape[0] < 1:
            raise DimensionError("matrix must be non-empty")
        entries.setflags(write=False)
        self.entries, self.labels = entries, checked_labels(labels, entries.shape[0])

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def allclose(self, other: "CMat") -> bool:
        return self.labels == other.labels and bool(
            np.allclose(self.entries, other.entries, rtol=0.0, atol=EQUAL_TOL)
        )

    def hermiticity_defect(self) -> float:
        """Max-abs deviation of the matrix from its own adjoint."""
        return float(np.max(np.abs(self.entries - self.entries.conj().T)))


def inner(u: CVec, v: CVec) -> complex:
    """Hermitian inner product, conjugating the first argument."""
    check_same_basis(u, v)
    return complex(np.vdot(u.amps, v.amps))


def tensor_labels(a: Sequence[str], b: Sequence[str]) -> tuple[str, ...]:
    """Row-major concatenation of factor labels, joined by an underscore."""
    return tuple(f"{la}{LABEL_JOIN}{lb}" for la in a for lb in b)


def tensor(a: CVec, b: CVec) -> CVec:
    """Kronecker product of two vectors, over the row-major product basis."""
    return CVec(np.kron(a.amps, b.amps), tensor_labels(a.labels, b.labels))
