"""States, Hermitian observables, projectors, and the weak-value calculus.

A weak value of an operator O between a pre-selected state |a> and a
post-selected state |b> is <b|O|a> / <b|a>.  It is classified against the
operator's eigenvalue set:

* sharp (SWV): coincides with an eigenvalue,
* unsharp (UWV): real and inside the eigenvalue range, but not an eigenvalue,
* strange (STWV): outside the range, or not real at all.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from typing import NamedTuple, Sequence, Union

import numpy as np

from .errors import DimensionError, NormalizationError, NotHermitian, UndefinedWeakValue
from .linalg import (
    DEGENERACY_TOL, EQUAL_TOL, NORM_TOL, REAL_TOL, SHARP_TOL, ZERO_TOL,
    CMat, CVec, apply, check_same_basis, index_labels, inner, label_index,
)


class WeakValueClass(Enum):
    SWV = "SWV"
    UWV = "UWV"
    STWV = "STWV"


class State:
    """Normalized pure state over a labeled basis."""

    def __init__(self, vec: CVec, label: str = ""):
        norm = vec.norm()
        if not abs(norm - 1.0) <= NORM_TOL:  # so that a NaN norm fails too
            raise NormalizationError(
                f"state {label or '<unnamed>'} has norm {norm:.12g}, expected 1"
            )
        self.vec, self.label = vec, label

    @property
    def dim(self) -> int:
        return self.vec.dim

    @property
    def labels(self) -> tuple[str, ...]:
        return self.vec.labels

    @classmethod
    def normalized(
        cls, amps: Sequence[complex] | CVec, labels: Sequence[str] = (), label: str = ""
    ) -> "State":
        """Build a state from raw amplitudes, dividing out the norm."""
        vec = amps if isinstance(amps, CVec) else CVec(np.asarray(amps), tuple(labels))
        norm = vec.norm()
        if norm <= ZERO_TOL:
            raise NormalizationError(f"cannot normalize zero vector {label!r}")
        return cls(vec / norm, label)


class Projector:
    """Orthogonal projector QQ^dagger, held as orthonormal columns Q (n x r).

    The rank is the column count.  The dense matrix is built only when
    `mat` is read; applying the projector costs O(n r) as Q(Q^dagger v).
    """

    def __init__(self, q: np.ndarray, labels: Sequence[str] = ()):
        q = np.array(q, dtype=complex)
        if q.ndim != 2:
            raise DimensionError(f"projector columns must form a matrix, got {q.shape}")
        labels = tuple(labels) if labels else index_labels(q.shape[0])
        if len(labels) != q.shape[0]:
            raise DimensionError(f"{len(labels)} labels for dimension {q.shape[0]}")
        if np.abs(q.conj().T @ q - np.eye(q.shape[1])).max(initial=0.0) > EQUAL_TOL:
            raise ValueError("projector columns are not orthonormal")
        q.setflags(write=False)
        self.q, self.labels = q, labels

    @classmethod
    def _of_checked(cls, q: np.ndarray, labels: tuple[str, ...]) -> "Projector":
        """Wrap read-only columns whose orthonormality the caller checks."""
        proj = object.__new__(cls)
        proj.q, proj.labels = q, labels
        return proj

    @property
    def rank(self) -> int:
        return self.q.shape[1]

    @property
    def dim(self) -> int:
        return self.q.shape[0]

    @cached_property
    def mat(self) -> CMat:
        return CMat(self.q @ self.q.conj().T, self.labels)

    def apply(self, vec: CVec) -> CVec:
        """P|vec>, computed as Q(Q^dagger vec)."""
        check_same_basis(self, vec)
        return CVec(self.q @ (self.q.conj().T @ vec.amps), vec.labels)

    def amplitude(self, bra: CVec, ket: CVec) -> complex:
        """<bra|P|ket>, computed as (Q^dagger bra)^dagger (Q^dagger ket)."""
        check_same_basis(self, bra)
        check_same_basis(self, ket)
        qh = self.q.conj().T
        return complex(np.vdot(qh @ bra.amps, qh @ ket.amps))

    def complement(self) -> "Projector":
        """Projector onto the orthogonal complement of the range."""
        n, r = self.q.shape
        if np.count_nonzero(self.q) == r:
            # every column is a basis vector: the complement takes the others
            return Projector(np.eye(n)[:, ~self.q.any(axis=1)], self.labels)
        full = np.linalg.qr(self.q, mode="complete")[0]
        return Projector(full[:, r:], self.labels)

    def eigenvalue_set(self) -> tuple[float, ...]:
        """Spectrum actually attained: 0 and/or 1 depending on rank."""
        vals = []
        if self.rank < self.dim:
            vals.append(0.0)
        if self.rank > 0:
            vals.append(1.0)
        return tuple(vals)

    @classmethod
    def onto(cls, target: Union[State, CVec]) -> "Projector":
        """Rank-one projector |v><v| onto a (normalized) vector."""
        vec = target.vec if isinstance(target, State) else target
        norm = vec.norm()
        if norm <= ZERO_TOL:
            raise ValueError("cannot project onto the zero vector")
        return cls((vec.amps / norm)[:, None], vec.labels)

    @classmethod
    def span(cls, vectors: Sequence[CVec]) -> "Projector":
        """Projector onto the span of the given vectors (orthonormalized)."""
        if not vectors:
            raise ValueError("span requires at least one vector")
        cols = np.column_stack([v.amps for v in vectors])
        u, s, _ = np.linalg.svd(cols, full_matrices=False)
        return cls(u[:, s > ZERO_TOL], vectors[0].labels)

    @classmethod
    def on_labels(cls, labels: Sequence[str], subset: Sequence[str]) -> "Projector":
        """Diagonal projector onto a subset of the basis labels."""
        labels, index = tuple(labels), label_index(labels)
        try:
            columns = sorted({index[name] for name in subset})
        except KeyError as exc:
            raise ValueError(f"unknown basis label {exc.args[0]!r}") from None
        return cls(np.eye(len(labels))[:, columns], labels)

    @classmethod
    def identity(cls, labels: Sequence[str]) -> "Projector":
        return cls(np.eye(len(labels)), labels)


class Observable:
    """Hermitian operator with its spectral decomposition.

    `eigenvalues` are the distinct eigenvalues in ascending order and
    `projectors` the matching spectral projectors (degenerate eigenvalues
    share one higher-rank projector, so no two lie within DEGENERACY_TOL).
    Side by side, the projectors' columns must form a unitary matrix.
    """

    def __init__(
        self, mat: CMat, eigenvalues: tuple[float, ...], projectors: tuple[Projector, ...]
    ):
        self.mat, self.eigenvalues, self.projectors = mat, eigenvalues, projectors
        defect = mat.hermiticity_defect()
        if defect > EQUAL_TOL:
            raise NotHermitian(f"observable matrix deviates from Hermitian by {defect:.3g}")
        if len(eigenvalues) != len(projectors):
            raise ValueError("eigenvalue list and projector list differ in length")
        for lo, hi in zip(eigenvalues, eigenvalues[1:]):
            if hi < lo:
                raise ValueError("eigenvalues must be ascending")
            if hi - lo <= DEGENERACY_TOL:
                raise ValueError(f"spectrum repeats eigenvalue {lo:g}")
        v = np.hstack([p.q for p in projectors])
        if v.shape[1] != self.dim:
            raise ValueError(
                f"spectral projector ranks sum to {v.shape[1]}, not to the dimension {self.dim}"
            )
        if np.max(np.abs(v.conj().T @ v - np.eye(self.dim))) > EQUAL_TOL:
            raise ValueError("spectral projectors are not mutually orthogonal")

    @property
    def dim(self) -> int:
        return self.mat.dim

    @property
    def labels(self) -> tuple[str, ...]:
        return self.mat.labels

    def projector_for(self, outcome: float) -> Projector:
        for lam, proj in zip(self.eigenvalues, self.projectors):
            if abs(lam - outcome) <= DEGENERACY_TOL:
                return proj
        raise KeyError(outcome)


#: Operators accepted by the weak-value calculus.
OperatorLike = Union[Observable, Projector]


def spectral_decompose(mat: CMat) -> Observable:
    """Eigendecompose a Hermitian matrix into distinct-eigenvalue projectors.

    Eigenvalues within DEGENERACY_TOL of each other are merged into a single
    rank-k projector, so exactly degenerate operators come out with the
    expected multiplicities despite numerical jitter.  A non-Hermitian
    matrix raises NotHermitian.
    """
    w, v = np.linalg.eigh(mat.entries)
    v.setflags(write=False)
    cuts = [0, *(np.flatnonzero(np.diff(w) > DEGENERACY_TOL) + 1).tolist(), len(w)]
    means = np.add.reduceat(w, cuts[:-1]) / np.diff(cuts)
    # Observable checks all of eigh's columns at once, so no block checks its own
    projectors = tuple(
        Projector._of_checked(v[:, a:b], mat.labels) for a, b in zip(cuts, cuts[1:])
    )
    return Observable(mat, tuple(means.tolist()), projectors)


def as_observable(op: OperatorLike) -> Observable:
    """View a projector as a two-outcome observable; pass observables through."""
    if isinstance(op, Observable):
        return op
    if isinstance(op, Projector):
        eigenvalues = op.eigenvalue_set()
        projectors = tuple(op.complement() if lam == 0.0 else op for lam in eigenvalues)
        return Observable(op.mat, eigenvalues, projectors)
    raise TypeError(f"expected Observable or Projector, got {type(op).__name__}")


def classify(value: complex, eigenvalues: Sequence[float]) -> WeakValueClass:
    """Classify a weak value against an eigenvalue set.

    Sharp when within SHARP_TOL of some eigenvalue; unsharp when real and inside
    the closed eigenvalue range; strange otherwise, including every value
    with a non-negligible imaginary part.
    """
    if not eigenvalues:
        raise ValueError("eigenvalue list must be non-empty")
    v = complex(value)
    if any(abs(v - lam) <= SHARP_TOL for lam in eigenvalues):
        return WeakValueClass.SWV
    if abs(v.imag) <= REAL_TOL and min(eigenvalues) <= v.real <= max(eigenvalues):
        return WeakValueClass.UWV
    return WeakValueClass.STWV


class WeakValueReport(NamedTuple):
    """A weak value together with its classification and the pre/post overlap."""

    value: complex
    wv_class: WeakValueClass
    overlap: complex


def weak_value(op: OperatorLike, pre: State, post: State) -> WeakValueReport:
    """Weak value <post|op|pre> / <post|pre> with classification.

    Raises UndefinedWeakValue when pre and post are orthogonal.
    """
    if not isinstance(op, (Observable, Projector)):
        raise TypeError(f"expected Observable or Projector, got {type(op).__name__}")
    overlap = inner(post.vec, pre.vec)
    if abs(overlap) <= ZERO_TOL:
        raise UndefinedWeakValue(
            "pre- and post-selection states are orthogonal; weak value undefined"
        )
    if isinstance(op, Projector):
        numerator, eigenvalues = op.amplitude(post.vec, pre.vec), op.eigenvalue_set()
    else:
        numerator, eigenvalues = inner(post.vec, apply(op.mat, pre.vec)), op.eigenvalues
    value = numerator / overlap
    return WeakValueReport(value, classify(value, eigenvalues), overlap)
