"""Two-outcome history families, consistency, ABL probabilities, and weights.

A history d -> e -> f runs from a pure pre-selection |d> through a projector
event e to a pure post-selection |f> at successive times (no evolution in
between).  A family pairs the history with its complement d -> (1-e) -> f.
The endpoints are states, so every quantity of the family reads one pair of
amplitudes, a = <f|E|d> and s = <f|d>.  The family is consistent when the
interference functional Tr[F E D E'] = a * conj(s - a) vanishes; it factors as

    |<f|d>|^2 * wv(e) * conj(wv(1-e))

so consistency holds exactly when the weak value a/s of e is 0 or 1.  The
functional scales with the overlap, so the verdict is the class of that weak
value instead (see `consistency`): `quantum.classify` gives both at once.
The conditional weight Tr[DEFE]/Tr[DF] is |a/s|^2.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .errors import UndefinedABL, UndefinedWeight
from .linalg import ZERO_TOL, check_finite, check_same_basis, inner
from .quantum import Observable, Projector, State, WeakValueClass, classify


class FailureMode(Enum):
    NONE = "None"
    UNSHARP = "Unsharp"
    STRANGE = "Strange"


class Family:
    """Pure pre-selection d, middle event e, pure post-selection f.

    The two histories d -> e -> f and d -> (1-e) -> f share the endpoints
    and partition the middle time.
    """

    def __init__(self, d: State, e: Projector, f: State):
        check_same_basis(d.vec, e)
        check_same_basis(e, f.vec)
        self.d, self.e, self.f = d, e, f


class ConsistencyReport(NamedTuple):
    """Interference functional of a family with its factored form.

    `functional` is Tr[F E D E'].  For non-orthogonal endpoints it factors
    into factor_overlap_sq * factor_wv * factor_wv_conj, where factor_wv is
    the weak value of e and factor_wv_conj the conjugated weak value of 1-e.
    Orthogonal endpoints leave the weak-value factors undefined (None).
    """

    functional: complex
    consistent: bool
    failure_mode: FailureMode
    factor_overlap_sq: float
    factor_wv: Optional[complex]
    factor_wv_conj: Optional[complex]


#: The failure mode of a family whose event has a weak value of this class.
_MODE_OF_CLASS = {WeakValueClass.SWV: FailureMode.NONE, WeakValueClass.UWV: FailureMode.UNSHARP,
                  WeakValueClass.STWV: FailureMode.STRANGE}


def consistency(fam: Family) -> ConsistencyReport:
    """Evaluate Tr[F E D E'] = <f|E|d><d|(1-E)|f> and classify the family.

    With a = <f|E|d>, s = <f|d> and b = s - a the functional is a * conj(b),
    and for s != 0 the weak values of e and 1-e are a/s and b/s.  The verdict
    is the `classify` class of a/s against 0 and 1, as `weak_value` gives it:
    sharp is consistent; unsharp and strange are the failure modes.  For
    orthogonal endpoints b is about -a and the functional about -|a|^2, so
    only a family without amplitude is consistent; the rest are strange.
    A NaN amplitude is never consistent: it raises NotFinite, or is strange.
    """
    a = fam.e.amplitude(fam.f.vec, fam.d.vec)
    overlap = inner(fam.f.vec, fam.d.vec)
    b = overlap - a
    if not abs(overlap) > ZERO_TOL:
        factor_wv: Optional[complex] = None
        factor_wv_conj: Optional[complex] = None
        empty = math.hypot(abs(a), abs(b)) <= ZERO_TOL
        mode = FailureMode.NONE if empty else FailureMode.STRANGE
    else:
        factor_wv = a / overlap
        factor_wv_conj = (b / overlap).conjugate()
        mode = _MODE_OF_CLASS[classify(factor_wv, (0.0, 1.0))]

    return ConsistencyReport(
        functional=a * b.conjugate(),
        consistent=mode is FailureMode.NONE,
        failure_mode=mode,
        factor_overlap_sq=abs(overlap) ** 2,
        factor_wv=factor_wv,
        factor_wv_conj=factor_wv_conj,
    )


def abl_probability(obs: Observable, pre: State, post: State, outcome: float) -> float:
    """Probability of `outcome` in a sharp measurement of obs between pre and post.

    Degenerate-spectrum form: |<post|P_outcome|pre>|^2 over the sum of the
    same quantity across all spectral projectors, all read from one vector
    of amplitudes (`Observable.amplitudes`).  An outcome that is not an eigenvalue
    raises UnknownEigenvalue (`Observable.outcome_index`).
    """
    chosen = obs.outcome_index(outcome)
    terms = np.abs(obs.amplitudes(post.vec, pre.vec)) ** 2
    denom = float(terms.sum())
    # sqrt(denom) is the norm of the amplitudes <post|P_i|pre>, held to the amplitude scale.
    if not math.sqrt(denom) > ZERO_TOL:
        raise UndefinedABL(
            "every intermediate outcome is incompatible with this pre/post pair"
        )
    return float(terms[chosen]) / denom


def abl_from_weak_values(wv: complex) -> float:
    """ABL probability of a projector outcome from its weak value alone.

    |wv|^2 / (|wv|^2 + |1-wv|^2); valid because projector weak values
    determine both branch amplitudes up to a common factor.  Both moduli are
    divided by the larger, at least 1/2 since |wv| + |1-wv| >= 1, so neither
    square overflows.  A NaN or infinite wv raises NotFinite.
    """
    check_finite("wv", wv)
    a, b = abs(wv), abs(1.0 - wv)
    a, b = a / max(a, b), b / max(a, b)
    return a * a / (a * a + b * b)


def conditional_weight(e: Projector, d: State, f: State) -> float:
    """Multiple-time conditional weight Tr[DEFE]/Tr[DF] of d -> e -> f.

    For pure endpoints this is |<f|E|d>|^2 / |<f|d>|^2, the squared modulus
    of the weak value of e.  Not clamped to [0, 1]; it is a probability only
    on consistent families.
    """
    overlap = inner(f.vec, d.vec)
    if not abs(overlap) > ZERO_TOL:
        raise UndefinedWeight("Tr[DF] vanishes; conditional weight undefined")
    return abs(e.amplitude(f.vec, d.vec) / overlap) ** 2
