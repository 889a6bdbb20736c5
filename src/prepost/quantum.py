"""States, Hermitian observables, projectors, and the weak-value calculus.

A weak value of an operator O between a pre-selected state |a> and a
post-selected state |b> is <b|O|a> / <b|a>.  It is classified against the
operator's eigenvalue set:

* sharp (SWV): coincides with an eigenvalue,
* unsharp (UWV): real and inside the eigenvalue range, but not an eigenvalue,
* strange (STWV): outside the range, or not real at all.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from functools import cached_property
from typing import NamedTuple, Sequence, Union

import numpy as np

from .errors import (
    BasisMismatch, DimensionError, NormalizationError, NotHermitian, UndefinedWeakValue,
    UnknownEigenvalue,
)
from .linalg import (
    DEGENERACY_TOL, EQUAL_TOL, NORM_TOL, REAL_TOL, SHARP_TOL, ZERO_TOL,
    CMat, CVec, check_finite, check_same_basis, checked_labels, inner, label_index,
    scaled_tol,
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
        return cls(vec.unit(), label)


def _amplitudes(op: OperatorLike, cols: np.ndarray, starts, bra: CVec, ket: CVec) -> np.ndarray:
    """<bra|P_k|ket> for each block k of op's orthonormal columns Q, from starts[k] to the
    next start: block sums of conj(Q^dagger bra) (Q^dagger ket), in O(n r), with Q^dagger x =
    conj(Q^T conj(x)), which copies no column matrix.  No columns give one zero."""
    check_same_basis(op, bra)
    check_same_basis(op, ket)
    terms = (cols.T @ bra.amps.conj()) * (cols.T @ ket.amps.conj()).conj()
    return np.add.reduceat(terms, starts) if terms.size else np.zeros(len(starts), complex)


class Projector:
    """Orthogonal projector QQ^dagger, held as orthonormal columns Q (n x r).

    The rank is the column count.  The dense matrix is built only when
    `mat` is read; applying the projector costs O(n r) as Q(Q^dagger v).
    """

    def __init__(self, q: np.ndarray, labels: Sequence[str] = ()):
        q = np.array(q, dtype=complex)
        if q.ndim != 2:
            raise DimensionError(f"projector columns must form a matrix, got {q.shape}")
        labels = checked_labels(labels, q.shape[0])
        check_finite("q", q)
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
        """<bra|P|ket>: `_amplitudes` of the columns as one block."""
        return complex(_amplitudes(self, self.q, (0,), bra, ket)[0])

    def complement(self) -> "Projector":
        """Projector onto the orthogonal complement of the range."""
        r = self.rank
        if np.count_nonzero(self.q) == r:
            # every column is a basis vector: the complement takes the others
            return Projector.on_rows(np.flatnonzero(~self.q.any(axis=1)), self.labels)
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
    def onto(cls, vec: CVec) -> "Projector":
        """Rank-one projector |v><v| onto a (normalized) vector."""
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
            rows = [index[name] for name in subset]
        except KeyError as exc:
            raise ValueError(f"unknown basis label {exc.args[0]!r}") from None
        return cls.on_rows(rows, labels)

    @classmethod
    def on_rows(cls, rows: Sequence[int], labels: Sequence[str]) -> "Projector":
        """Diagonal projector onto the basis elements at the given positions: their
        identity columns, in basis order, made without an n x n identity."""
        rows = sorted(set(rows))
        q = np.zeros((len(labels), len(rows)), dtype=complex)
        q[rows, range(len(rows))] = 1.0
        q.setflags(write=False)
        return cls._of_checked(q, tuple(labels))

    @classmethod
    def identity(cls, labels: Sequence[str]) -> "Projector":
        return cls.on_rows(range(len(labels)), labels)


def _check_hermitian(mat: CMat) -> None:
    """NotHermitian unless max|M - M^dagger| <= EQUAL_TOL max|M_ij|, the scale of the
    rounding in forming M, and every entry is finite."""
    scale = float(np.max(np.abs(mat.entries)))
    defect = mat.hermiticity_defect() if math.isfinite(scale) else math.nan
    if not defect <= EQUAL_TOL * scale:  # so that a NaN defect fails too
        raise NotHermitian(f"observable matrix deviates from Hermitian by {defect:.3g} "
                           f"with entries up to {scale:.3g}")


class Observable:
    """Hermitian operator held as its spectral decomposition.

    `eigenvalues` are the distinct eigenvalues in ascending order, no two
    within the spectrum's DEGENERACY_TOL (see `linalg.scaled_tol`).  The read-only
    unitary `v` holds the spectral projectors' orthonormal columns side by
    side, in eigenvalue order: columns `bounds[k]:bounds[k + 1]` span the
    eigenspace of `eigenvalues[k]`.  The `projectors` (views of `v`) and the
    dense `mat`, V diag(lambda) V^dagger, are built when first read.
    """

    def __init__(
        self, mat: CMat, eigenvalues: tuple[float, ...], projectors: tuple[Projector, ...]
    ):
        """Observable from a Hermitian matrix and its spectral decomposition, which
        must agree within EQUAL_TOL on the spectrum's scale; the projectors are kept."""
        _check_hermitian(mat)
        self._set_spectrum(eigenvalues, projectors)
        check_same_basis(self, mat)
        gap = float(np.max(np.abs(mat.entries - self.mat.entries)))
        if gap > scaled_tol(EQUAL_TOL, self.eigenvalues):
            raise ValueError(f"observable matrix differs from its spectral sum by {gap:.3g}")
        self.projectors = tuple(projectors)

    @classmethod
    def from_projectors(
        cls, eigenvalues: Sequence[float], projectors: Sequence[Projector]
    ) -> "Observable":
        """The observable sum_k eigenvalues[k] projectors[k], built without forming
        its matrix; ValueError unless the pairs are a spectral decomposition."""
        obs = object.__new__(cls)
        obs._set_spectrum(eigenvalues, projectors)
        return obs

    def _set_spectrum(self, eigenvalues: Sequence[float], projectors: Sequence[Projector]):
        """Check for one nonzero projector per ascending distinct eigenvalue, whose
        columns form a unitary matrix, and hold those columns side by side."""
        if len(eigenvalues) != len(projectors):
            raise ValueError("eigenvalue list and projector list differ in length")
        check_finite("eigenvalues", eigenvalues)
        merge = scaled_tol(DEGENERACY_TOL, eigenvalues)
        for lo, hi in zip(eigenvalues, eigenvalues[1:]):
            if hi < lo:
                raise ValueError("eigenvalues must be ascending")
            if hi - lo <= merge:
                raise ValueError(f"spectrum repeats eigenvalue {lo:g}")
        if len({p.labels for p in projectors}) > 1:
            raise BasisMismatch("spectral projectors have mixed basis labels")
        if not all(p.rank for p in projectors):
            raise ValueError("a spectral projector has rank 0")
        v = np.hstack([p.q for p in projectors])
        if v.shape[1] != v.shape[0]:
            raise ValueError(
                f"spectral projector ranks sum to {v.shape[1]}, not to the dimension {v.shape[0]}"
            )
        if np.max(np.abs(v.conj().T @ v - np.eye(v.shape[0]))) > EQUAL_TOL:
            raise ValueError("spectral projectors are not mutually orthogonal")
        v.setflags(write=False)
        self.eigenvalues, self.v, self.labels = tuple(eigenvalues), v, projectors[0].labels
        self.bounds = (0, *itertools.accumulate(p.rank for p in projectors))

    @property
    def dim(self) -> int:
        return self.v.shape[0]

    @cached_property
    def projectors(self) -> tuple[Projector, ...]:
        b = self.bounds
        return tuple(Projector._of_checked(self.v[:, i:j], self.labels) for i, j in zip(b, b[1:]))

    @cached_property
    def mat(self) -> CMat:
        lams = np.repeat(self.eigenvalues, np.diff(self.bounds))
        return CMat((self.v * lams) @ self.v.conj().T, self.labels)

    def amplitudes(self, bra: CVec, ket: CVec) -> np.ndarray:
        """<bra|P_k|ket> for each eigenvalue k, `_amplitudes` of the blocks of `v`: O(n^2)."""
        return _amplitudes(self, self.v, self.bounds[:-1], bra, ket)

    def outcome_index(self, outcome: float) -> int:
        """Position of the eigenvalue that matches outcome within the spectrum's
        DEGENERACY_TOL; UnknownEigenvalue when none does."""
        match = scaled_tol(DEGENERACY_TOL, self.eigenvalues)
        for k, lam in enumerate(self.eigenvalues):
            if abs(lam - outcome) <= match:
                return k
        raise UnknownEigenvalue(f"{outcome!r} is not an eigenvalue of the observable")

    def projector_for(self, outcome: float) -> Projector:
        return self.projectors[self.outcome_index(outcome)]


#: Operators accepted by the weak-value calculus.
OperatorLike = Union[Observable, Projector]


def spectral_decompose(mat: CMat) -> Observable:
    """Eigendecompose a Hermitian matrix into distinct-eigenvalue projectors.

    Eigenvalues within the spectrum's DEGENERACY_TOL of each other are merged
    into a single rank-k projector, so exactly degenerate operators come out
    with the expected multiplicities despite numerical jitter.  A
    non-Hermitian matrix raises NotHermitian.
    """
    _check_hermitian(mat)
    w, v = np.linalg.eigh(mat.entries)
    merge = scaled_tol(DEGENERACY_TOL, w)
    cuts = [0, *(np.flatnonzero(np.diff(w) > merge) + 1).tolist(), len(w)]
    means = np.add.reduceat(w, cuts[:-1]) / np.diff(cuts)
    # the Observable checks all of eigh's columns at once, so no block checks its own
    projectors = [Projector._of_checked(v[:, a:b], mat.labels) for a, b in zip(cuts, cuts[1:])]
    return Observable.from_projectors(means.tolist(), projectors)


def as_observable(op: OperatorLike) -> Observable:
    """View a projector as a two-outcome observable; pass observables through."""
    if isinstance(op, Observable):
        return op
    if isinstance(op, Projector):
        eigenvalues = op.eigenvalue_set()
        projectors = tuple(op.complement() if lam == 0.0 else op for lam in eigenvalues)
        return Observable.from_projectors(eigenvalues, projectors)
    raise TypeError(f"expected Observable or Projector, got {type(op).__name__}")


def classify(value: complex, eigenvalues: Sequence[float]) -> WeakValueClass:
    """Classify a weak value against an eigenvalue set.

    Sharp when within SHARP_TOL of some eigenvalue; unsharp when real and inside
    the closed eigenvalue range; strange otherwise, including every value
    with a non-negligible imaginary part.  Both tolerances are the spectrum's
    (see `linalg.scaled_tol`), so scaling an observable does not change the class.
    """
    if not eigenvalues:
        raise ValueError("eigenvalue list must be non-empty")
    v = complex(value)
    sharp, real = scaled_tol(SHARP_TOL, eigenvalues), scaled_tol(REAL_TOL, eigenvalues)
    if any(abs(v - lam) <= sharp for lam in eigenvalues):
        return WeakValueClass.SWV
    if abs(v.imag) <= real and min(eigenvalues) <= v.real <= max(eigenvalues):
        return WeakValueClass.UWV
    return WeakValueClass.STWV


class WeakValueReport(NamedTuple):
    """A weak value together with its classification and the pre/post overlap."""

    value: complex
    wv_class: WeakValueClass
    overlap: complex


def weak_value(op: OperatorLike, pre: State, post: State) -> WeakValueReport:
    """Weak value <post|op|pre> / <post|pre> with classification.

    Raises UndefinedWeakValue when pre and post are orthogonal or the quotient is
    not a finite double.
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
    else:  # sum_k lambda_k <post|P_k|pre>
        numerator = complex(np.dot(op.eigenvalues, op.amplitudes(post.vec, pre.vec)))
        eigenvalues = op.eigenvalues
    value = numerator / overlap
    if not np.isfinite(value):
        raise UndefinedWeakValue(
            "<post|O|pre> / <post|pre> is not a finite double; weak value undefined"
        )
    return WeakValueReport(value, classify(value, eigenvalues), overlap)
