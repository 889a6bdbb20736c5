"""Built-in pre/post-selection experiments with machine-checked fixtures.

Each scenario packages a basis, pre/post states, named projector
observables, and the quantities they are known to produce (weak values,
ABL probabilities, conditional weights, consistency functionals).
`Scenario.check_all`, which `scencli verify` runs, recomputes every stored
value through the library; loading a scenario does not.

Each builtin is scenario text (see `scenfile`) in `BUILTINS`, with its fixture
table.  Its amplitudes are `repr` decimals, so each reads back as one exact double.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import ScenarioFixtureError
from .histories import (
    FailureMode,
    Family,
    abl_probability,
    conditional_weight,
    consistency,
)
from .linalg import EXACT_TOL, inner
from .quantum import Observable, State, WeakValueClass, weak_value


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


class Scenario:
    def __init__(
        self,
        name: str,
        basis_labels: tuple[str, ...],
        pre: State,
        post: State,
        observables: dict[str, Observable],
        expected: dict[str, Expectation],
        states: dict[str, State],
    ):
        self.name, self.basis_labels, self.pre, self.post = name, basis_labels, pre, post
        self.observables, self.expected, self.states = observables, expected, states
        for key, exp in expected.items():
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
            got, extra_ok = self._recompute(exp)
            results.append(CheckResult(key, abs(got - exp.value) <= EXACT_TOL and extra_ok))
        return results

    def _recompute(self, exp: Expectation) -> tuple[complex, bool]:
        if exp.kind == "weak_value":
            report = weak_value(self.observables[exp.observable], self.pre, self.post)
            return report.value, exp.wv_class is None or report.wv_class == exp.wv_class
        if exp.kind == "abl":
            got = abl_probability(
                self.observables[exp.observable], self.pre, self.post, exp.outcome
            )
            return complex(got), True
        if exp.kind == "weight":
            fam = self.family_for(exp.observable)
            got = conditional_weight(fam.e, fam.d, fam.f)
            return complex(got), True
        if exp.kind == "functional":
            report = consistency(self.family_for(exp.observable))
            return report.functional, exp.failure is None or report.failure_mode == exp.failure
        if exp.kind == "overlap_sq":
            got = abs(inner(self.post.vec, self.pre.vec)) ** 2
            return complex(got), True
        raise ScenarioFixtureError(f"unknown expectation kind {exp.kind!r}")


THREE_BOX = """\
# The three-box paradox: a particle pre-selected in an equal superposition over boxes
# a, b, c and post-selected in a state that flips the sign of c has box-c weak value -1.
# phi_prime and phi_double_prime complete phi to an orthonormal basis.
basis a b c
state psi = 0.5773502691896258 a + 0.5773502691896258 b + 0.5773502691896258 c
state phi = 0.5773502691896258 a + 0.5773502691896258 b - 0.5773502691896258 c
state phi_prime = 0.7071067811865475 a - 0.7071067811865475 b
state phi_double_prime = 0.4082482904638631 a + 0.4082482904638631 b + 0.8164965809277261 c
pre psi
post phi
proj PA = |a><a|
proj PAc = span(b, c)
proj PB = |b><b|
proj PBc = span(a, c)
proj PC = |c><c|
proj PCc = span(a, b)
obs A = 1*PA + 0*PAc
obs B = 1*PB + 0*PBc
obs C = 1*PC + 0*PCc
"""

HARDY = """\
# Hardy's pair experiment: positron (p) and electron (e) interferometers, with
# overlapping (O) and non-overlapping (NO) arms, that share an annihilation arm.
# psi is the product state less its annihilated Op_Oe part, renormalized, and the
# both-non-overlapping occupation N1 has weak value -1.
basis NOp_NOe NOp_Oe Op_NOe Op_Oe
state product = 0.5 NOp_NOe + 0.5 NOp_Oe + 0.5 Op_NOe + 0.5 Op_Oe
state psi = 0.5773502691896257 NOp_NOe + 0.5773502691896257 NOp_Oe + 0.5773502691896257 Op_NOe
state phi = 0.5 NOp_NOe - 0.5 NOp_Oe - 0.5 Op_NOe + 0.5 Op_Oe
pre psi
post phi
proj P1 = |NOp_NOe><NOp_NOe|
proj P1c = span(NOp_Oe, Op_NOe, Op_Oe)
proj P2 = |Op_Oe><Op_Oe|
proj P2c = span(NOp_NOe, NOp_Oe, Op_NOe)
proj P3 = |NOp_Oe><NOp_Oe|
proj P3c = span(NOp_NOe, Op_NOe, Op_Oe)
proj P4 = |Op_NOe><Op_NOe|
proj P4c = span(NOp_NOe, NOp_Oe, Op_Oe)
obs N1 = 1*P1 + 0*P1c
obs N2 = 1*P2 + 0*P2c
obs N3 = 1*P3 + 0*P3c
obs N4 = 1*P4 + 0*P4c
"""

#: Registry behind the CLI's `builtin:NAME` scenario sources: each builtin's scenario
#: text and the table of its fixtures.
BUILTINS = {
    "three-box": (THREE_BOX, {
        "wv_A": Expectation("weak_value", 1.0, "A", wv_class=WeakValueClass.SWV),
        "wv_B": Expectation("weak_value", 1.0, "B", wv_class=WeakValueClass.SWV),
        "wv_C": Expectation("weak_value", -1.0, "C", wv_class=WeakValueClass.STWV),
        "abl_C": Expectation("abl", 0.2, "C", outcome=1.0),
        "weight_A": Expectation("weight", 1.0, "A"),
        "weight_B": Expectation("weight", 1.0, "B"),
        "weight_C": Expectation("weight", 1.0, "C"),
    }),
    "hardy": (HARDY, {
        "wv_N1": Expectation("weak_value", -1.0, "N1", wv_class=WeakValueClass.STWV),
        "wv_N2": Expectation("weak_value", 0.0, "N2", wv_class=WeakValueClass.SWV),
        "wv_N3": Expectation("weak_value", 1.0, "N3", wv_class=WeakValueClass.SWV),
        "wv_N4": Expectation("weak_value", 1.0, "N4", wv_class=WeakValueClass.SWV),
        "overlap_sq": Expectation("overlap_sq", 1.0 / 12.0),
        "functional_N1": Expectation("functional", -1.0 / 6.0, "N1", failure=FailureMode.STRANGE),
        "weight_N1": Expectation("weight", 1.0, "N1"),
    }),
}


def builtin(name: str) -> Scenario:
    """The builtin `name`: its text parsed and built, with its fixture table."""
    if name not in BUILTINS:
        raise KeyError(
            f"unknown builtin scenario {name!r}; available: {', '.join(sorted(BUILTINS))}"
        )
    from . import scenfile  # here, as scenfile imports Scenario from this module

    text, expected = BUILTINS[name]
    sc = scenfile.to_scenario(scenfile.parse(text), name)
    return Scenario(name, sc.basis_labels, sc.pre, sc.post, sc.observables, expected, sc.states)
