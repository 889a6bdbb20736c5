"""Exception types shared across the toolkit: `scencli` exits 2 on a `ComputationError`,
1 on every other `PrepostError`."""

from __future__ import annotations


class PrepostError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(PrepostError):
    """Operands have incompatible dimensions."""


class BasisMismatch(DimensionError):
    """Operands are expressed over different labeled bases."""


class PositionedError(PrepostError):
    """An error that may carry a source position in a scenario file."""

    def __init__(self, msg: str, line: int | None = None, col: int | None = None):
        super().__init__(msg)
        self.line = line
        self.col = col

    def __str__(self) -> str:
        base = super().__str__()
        if self.line is not None and self.col is not None:
            return f"line {self.line}, col {self.col}: {base}"
        if self.line is not None:
            return f"line {self.line}: {base}"
        return base


class NormalizationError(PositionedError):
    """A state vector does not have unit norm."""


class NotFinite(PrepostError, ValueError):
    """An amplitude, matrix entry, projector column, eigenvalue, pointer centre or weak
    value to classify is NaN or infinite."""


class NotHermitian(PrepostError):
    """Matrix is not Hermitian within tolerance."""


class ComputationError(PrepostError):
    """The quantity is undefined for this pre/post pair or fixture table: `scencli` exits 2."""


class UndefinedWeakValue(ComputationError):
    """Pre- and post-selection states are orthogonal, or the weak value's quotient is
    not a finite double; no weak value exists."""


class UnknownEigenvalue(PrepostError):
    """Requested outcome is not an eigenvalue of the observable."""


class UndefinedABL(ComputationError):
    """All transition terms vanish; the ABL probability is undefined."""


class UndefinedWeight(ComputationError):
    """Tr[DF] vanishes; the conditional weight is undefined."""


class PostSelectionImpossible(ComputationError):
    """Post-selected state has no overlap with any measurement branch."""


class PointerRangeError(PrepostError, ValueError):
    """delta is too small or too large for the pointer's branch centres."""


class ScenarioFixtureError(ComputationError):
    """A scenario's stored expectation names an unknown observable or kind."""


class ParseError(PositionedError):
    """A scenario file that does not follow the format."""
