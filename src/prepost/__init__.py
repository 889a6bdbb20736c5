"""Finite-dimensional pre/post-selection toolkit.

Computes weak values with their sharp/unsharp/strange classification,
history-family consistency functionals, ABL probabilities, Lüders
conditional weights, and exact or Monte Carlo Gaussian-pointer
measurement statistics, plus a text scenario format and CLI.
"""

import importlib

from .errors import (
    BasisMismatch,
    DimensionError,
    NormalizationError,
    NotFinite,
    NotHermitian,
    ParseError,
    PointerRangeError,
    PositionedError,
    PostSelectionImpossible,
    PrepostError,
    ScenarioFixtureError,
    UndefinedABL,
    UndefinedWeakValue,
    UndefinedWeight,
    UnknownEigenvalue,
)
from .linalg import CMat, CVec, inner
from .quantum import (
    Observable,
    Projector,
    State,
    WeakValueClass,
    WeakValueReport,
    as_observable,
    classify,
    spectral_decompose,
    weak_value,
)
from .histories import (
    ConsistencyReport,
    FailureMode,
    Family,
    abl_from_weak_values,
    abl_probability,
    conditional_weight,
    consistency,
)
from .scenarios import CheckResult, Expectation, Scenario, builtin

#: The module of each name that only `simulate` or scenario text needs.  It is imported
#: on the name's first access (PEP 562), so `import prepost` loads neither.
_LAZY = dict.fromkeys(
    ("Branches", "Density", "PointerConfig", "PointerEnsemble", "entangle", "gaussian_amplitude",
     "pointer_density", "postselect", "sample", "simulate", "weak_value_estimate",
     "write_density_csv", "write_samples_csv"),
    "pointer",
) | dict.fromkeys(
    ("ScenarioDoc", "parse", "serialize", "to_scenario"), "scenfile"
)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)


__version__ = "0.1.0"

__all__ = [
    "BasisMismatch",
    "Branches",
    "CheckResult",
    "CMat",
    "ConsistencyReport",
    "CVec",
    "Density",
    "DimensionError",
    "Expectation",
    "FailureMode",
    "Family",
    "NormalizationError",
    "NotFinite",
    "NotHermitian",
    "Observable",
    "ParseError",
    "PointerConfig",
    "PointerEnsemble",
    "PointerRangeError",
    "PositionedError",
    "PostSelectionImpossible",
    "PrepostError",
    "Projector",
    "Scenario",
    "ScenarioDoc",
    "ScenarioFixtureError",
    "State",
    "UndefinedABL",
    "UndefinedWeakValue",
    "UndefinedWeight",
    "UnknownEigenvalue",
    "WeakValueClass",
    "WeakValueReport",
    "abl_from_weak_values",
    "abl_probability",
    "as_observable",
    "builtin",
    "classify",
    "conditional_weight",
    "consistency",
    "entangle",
    "gaussian_amplitude",
    "inner",
    "parse",
    "pointer_density",
    "postselect",
    "sample",
    "serialize",
    "simulate",
    "spectral_decompose",
    "to_scenario",
    "weak_value",
    "weak_value_estimate",
    "write_density_csv",
    "write_samples_csv",
]
