"""Built-in pre/post-selection experiments with machine-checked fixtures.

Each scenario packages a basis, pre/post states, named projector
observables, and the quantities they are known to produce (weak values,
ABL probabilities, conditional weights, consistency functionals).
`Scenario.check_all`, which `scencli verify` runs, recomputes every stored
value through the library; loading a scenario does not.

`three_box()` is the three-box paradox: a particle pre-selected in an
equal superposition over boxes a, b, c and post-selected in a state that
flips the sign of c.  The box-c weak value is -1.

`hardy()` is the Hardy pair experiment: positron and electron
interferometers sharing an annihilation arm.  The pair basis is the tensor
product of per-particle overlapping/non-overlapping path states; the
both-non-overlapping occupation weak value is -1.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .errors import ScenarioFixtureError
from .histories import (
    FailureMode,
    Family,
    abl_probability,
    conditional_weight,
    consistency,
)
from .linalg import EXACT_TOL, CVec, inner, tensor
from .quantum import (
    Observable,
    Projector,
    State,
    WeakValueClass,
    as_observable,
    weak_value,
)


class Expectation(NamedTuple):
    """One stored result: what to compute, against which observable, and

    the exact value (plus classification where applicable)."""

    kind: str  # weak_value | abl | weight | functional | overlap_sq
    value: complex
    observable: Optional[str] = None
    outcome: Optional[float] = None
    wv_class: Optional[WeakValueClass] = None
    failure: Optional[FailureMode] = None


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


class Scenario:
    def __init__(
        self,
        name: str,
        basis_labels: tuple[str, ...],
        pre: State,
        post: State,
        observables: dict[str, Observable],
        expected: Optional[dict[str, Expectation]] = None,
        states: Optional[dict[str, State]] = None,
    ):
        self.name, self.basis_labels, self.pre, self.post = name, basis_labels, pre, post
        self.observables = observables
        self.expected = {} if expected is None else expected
        self.states = {} if states is None else states
        for key, exp in self.expected.items():
            if exp.observable is not None and exp.observable not in observables:
                raise ScenarioFixtureError(
                    f"{name}: expectation {key} names unknown observable "
                    f"{exp.observable}"
                )

    def family_for(self, obs_name: str) -> Family:
        """Family with the observable's eigenvalue-1 projector as the event; an observable
        without eigenvalue 1 raises UnknownEigenvalue, as `abl_probability` does."""
        return Family(self.pre, self.observables[obs_name].projector_for(1.0), self.post)

    def check_all(self) -> list[CheckResult]:
        """Recompute every expected entry; `verify` reports each result."""
        results = []
        for key, exp in self.expected.items():
            got, extra_ok, detail = self._recompute(exp)
            passed = abs(got - exp.value) <= EXACT_TOL and extra_ok
            results.append(
                CheckResult(
                    name=key,
                    passed=passed,
                    detail=f"expected {exp.value}, got {got}" + detail,
                )
            )
        return results

    def _recompute(self, exp: Expectation) -> tuple[complex, bool, str]:
        if exp.kind == "weak_value":
            report = weak_value(self.observables[exp.observable], self.pre, self.post)
            ok = exp.wv_class is None or report.wv_class == exp.wv_class
            return report.value, ok, f" (class {report.wv_class.value})"
        if exp.kind == "abl":
            got = abl_probability(
                self.observables[exp.observable], self.pre, self.post, exp.outcome
            )
            return complex(got), True, ""
        if exp.kind == "weight":
            fam = self.family_for(exp.observable)
            got = conditional_weight(fam.e, fam.d, fam.f)
            return complex(got), True, ""
        if exp.kind == "functional":
            report = consistency(self.family_for(exp.observable))
            ok = exp.failure is None or report.failure_mode == exp.failure
            return report.functional, ok, f" (mode {report.failure_mode.value})"
        if exp.kind == "overlap_sq":
            got = abs(inner(self.post.vec, self.pre.vec)) ** 2
            return complex(got), True, ""
        raise ScenarioFixtureError(f"unknown expectation kind {exp.kind!r}")


def three_box() -> Scenario:
    labels = ("a", "b", "c")
    s = 1.0 / math.sqrt(3.0)
    pre = State(CVec([s, s, s], labels), "psi")
    post = State(CVec([s, s, -s], labels), "phi")
    observables = {
        name: as_observable(Projector.on_labels(labels, (box,)))
        for name, box in (("A", "a"), ("B", "b"), ("C", "c"))
    }
    expected = {
        "wv_A": Expectation("weak_value", 1.0, "A", wv_class=WeakValueClass.SWV),
        "wv_B": Expectation("weak_value", 1.0, "B", wv_class=WeakValueClass.SWV),
        "wv_C": Expectation("weak_value", -1.0, "C", wv_class=WeakValueClass.STWV),
        "abl_C": Expectation("abl", 0.2, "C", outcome=1.0),
        "weight_A": Expectation("weight", 1.0, "A"),
        "weight_B": Expectation("weight", 1.0, "B"),
        "weight_C": Expectation("weight", 1.0, "C"),
    }
    states = {
        "phi_prime": State(
            CVec([1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0), 0.0], labels), "phi_prime"
        ),
        "phi_double_prime": State(
            CVec(np.array([1.0, 1.0, 2.0]) / math.sqrt(6.0), labels), "phi_double_prime"
        ),
    }
    return Scenario("three-box", labels, pre, post, observables, expected, states)


def hardy_product_state() -> State:
    """Both particles behind their first beam splitter: an even split of

    overlapping (O) and non-overlapping (NO) arms, positron tensor electron."""
    positron = CVec(np.array([1.0, 1.0]) / math.sqrt(2.0), ("NOp", "Op"))
    electron = CVec(np.array([1.0, 1.0]) / math.sqrt(2.0), ("NOe", "Oe"))
    return State(tensor(positron, electron), "product")


def hardy() -> Scenario:
    product = hardy_product_state()
    labels = product.labels  # NOp_NOe, NOp_Oe, Op_NOe, Op_Oe
    occupation = {
        "N1": "NOp_NOe",
        "N2": "Op_Oe",
        "N3": "NOp_Oe",
        "N4": "Op_NOe",
    }
    projectors = {
        name: Projector.on_labels(labels, (basis_label,))
        for name, basis_label in occupation.items()
    }
    # Annihilation removes the both-overlapping component; the remainder,
    # renormalized, is the pre-selection state.
    survive = projectors["N2"].complement()
    pre = State.normalized(survive.apply(product.vec), label="psi")
    post = State(
        CVec(np.array([1.0, -1.0, -1.0, 1.0]) / 2.0, labels), "phi"
    )
    observables = {name: as_observable(p) for name, p in projectors.items()}
    expected = {
        "wv_N1": Expectation("weak_value", -1.0, "N1", wv_class=WeakValueClass.STWV),
        "wv_N2": Expectation("weak_value", 0.0, "N2", wv_class=WeakValueClass.SWV),
        "wv_N3": Expectation("weak_value", 1.0, "N3", wv_class=WeakValueClass.SWV),
        "wv_N4": Expectation("weak_value", 1.0, "N4", wv_class=WeakValueClass.SWV),
        "overlap_sq": Expectation("overlap_sq", 1.0 / 12.0),
        "functional_N1": Expectation(
            "functional", -1.0 / 6.0, "N1", failure=FailureMode.STRANGE
        ),
        "weight_N1": Expectation("weight", 1.0, "N1"),
    }
    states = {"product": product}
    return Scenario("hardy", labels, pre, post, observables, expected, states)


#: Registry behind the CLI's `builtin:NAME` scenario sources.
BUILTINS = {"three-box": three_box, "hardy": hardy}


def builtin(name: str) -> Scenario:
    if name not in BUILTINS:
        raise KeyError(
            f"unknown builtin scenario {name!r}; available: {', '.join(sorted(BUILTINS))}"
        )
    return BUILTINS[name]()
