import numpy as np
import pytest

from prepost import (
    CVec,
    FailureMode,
    ScenarioFixtureError,
    State,
    WeakValueClass,
    builtin,
    consistency,
    hardy,
    inner,
    three_box,
    weak_value,
)
from prepost import scenarios
from prepost.scenarios import Expectation, Scenario


def test_three_box_states_and_overlap():
    sc = three_box()
    assert sc.basis_labels == ("a", "b", "c")
    assert inner(sc.post.vec, sc.pre.vec) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert sc.pre.vec.norm() == pytest.approx(1.0)
    assert sorted(sc.observables) == ["A", "B", "C"]


def test_three_box_expected_entries():
    sc = three_box()
    assert sc.expected["wv_C"].value == -1.0
    assert sc.expected["wv_C"].wv_class is WeakValueClass.STWV
    assert sc.expected["abl_C"].value == 0.2
    assert all(r.passed for r in sc.check_all())


def test_three_box_post_basis_is_orthonormal():
    sc = three_box()
    basis = [sc.post, sc.states["phi_prime"], sc.states["phi_double_prime"]]
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            expected = 1.0 if i == j else 0.0
            assert abs(inner(u.vec, v.vec)) == pytest.approx(expected, abs=1e-12)


def test_hardy_preselection_comes_from_annihilation_projection():
    hd = hardy()
    s = 1.0 / np.sqrt(3.0)
    assert hd.basis_labels == ("NOp_NOe", "NOp_Oe", "Op_NOe", "Op_Oe")
    assert np.allclose(hd.pre.vec.amps, [s, s, s, 0.0], atol=1e-12)
    product = hd.states["product"]
    assert np.allclose(product.vec.amps, [0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_hardy_occupation_weak_values_sum_to_one():
    hd = hardy()
    total = sum(
        weak_value(hd.observables[n], hd.pre, hd.post).value
        for n in ("N1", "N2", "N3", "N4")
    )
    assert total == pytest.approx(1.0, abs=1e-12)


def test_hardy_expected_entries():
    hd = hardy()
    assert hd.expected["overlap_sq"].value == pytest.approx(1.0 / 12.0)
    assert hd.expected["functional_N1"].failure is FailureMode.STRANGE
    assert all(r.passed for r in hd.check_all())


def test_builtin_registry():
    assert builtin("three-box").name == "three-box"
    assert builtin("hardy").name == "hardy"
    with pytest.raises(KeyError, match="unknown builtin scenario 'nonexistent'"):
        builtin("nonexistent")


def test_builtin_reports_a_builder_key_error_as_itself(monkeypatch):
    def broken():
        return {}["missing"]

    monkeypatch.setitem(scenarios.BUILTINS, "broken", broken)
    with pytest.raises(KeyError) as info:
        builtin("broken")
    assert info.value.args == ("missing",)


def test_consistency_for_and_family_for():
    sc = three_box()
    fam = sc.family_for("C")
    assert fam.e.rank == 1
    report = consistency(sc.family_for("C"))
    assert report.failure_mode is FailureMode.STRANGE


def _tampered(base: Scenario, **changes) -> Scenario:
    fields = dict(
        name=base.name,
        basis_labels=base.basis_labels,
        pre=base.pre,
        post=base.post,
        observables=base.observables,
        expected=base.expected,
        states=base.states,
    )
    fields.update(changes)
    return Scenario(**fields)


def _failed_checks(sc: Scenario) -> list[str]:
    return [r.name for r in sc.check_all() if not r.passed]


def test_wrong_fixture_value_fails_its_check():
    # a scenario loads without recomputing its fixtures; `verify` reports them
    sc = three_box()
    bad = dict(sc.expected)
    bad["wv_C"] = Expectation("weak_value", -2.0, "C")
    assert _failed_checks(_tampered(sc, expected=bad)) == ["wv_C"]


def test_wrong_fixture_class_fails_its_check():
    sc = three_box()
    bad = dict(sc.expected)
    bad["wv_C"] = Expectation("weak_value", -1.0, "C", wv_class=WeakValueClass.UWV)
    assert _failed_checks(_tampered(sc, expected=bad)) == ["wv_C"]


def test_fixture_naming_unknown_observable_refuses_to_load():
    sc = three_box()
    bad = dict(sc.expected)
    bad["wv_X"] = Expectation("weak_value", 1.0, "X")
    with pytest.raises(ScenarioFixtureError):
        _tampered(sc, expected=bad)


def test_swapped_post_state_breaks_fixtures():
    sc = three_box()
    swapped = _tampered(sc, post=State(CVec.basis_vector("a", sc.basis_labels)))
    assert _failed_checks(swapped) == ["wv_B", "wv_C", "abl_C", "weight_B", "weight_C"]
