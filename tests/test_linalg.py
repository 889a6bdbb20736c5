import re
import tokenize
from pathlib import Path

import numpy as np
import pytest

import prepost
from prepost import BasisMismatch, CMat, CVec, DimensionError, Projector
from prepost.linalg import index_labels, inner, tensor, tensor_labels

from conftest import random_vector


def test_default_labels_are_indices():
    v = CVec(np.array([1.0, 0.0, 0.0]))
    assert v.labels == ("0", "1", "2")
    assert index_labels(2) == ("0", "1")


def test_vectors_matrices_and_projectors_take_one_label_rule():
    # default labels 0..n-1, else exactly n labels, with one message for a miscount
    for make in (lambda labels: CVec(np.ones(3), labels),
                 lambda labels: CMat(np.eye(3), labels),
                 lambda labels: Projector(np.eye(3)[:, :1], labels)):
        assert make(()).labels == index_labels(3)
        assert make(("x", "y", "z")).labels == ("x", "y", "z")
        with pytest.raises(DimensionError, match="^2 labels for dimension 3$"):
            make(("x", "y"))


def test_basis_vector():
    labels = ("a", "b", "c")
    v = CVec.basis_vector("b", labels)
    assert v.amps.tolist() == [0, 1, 0]
    assert v.labels == labels
    with pytest.raises(ValueError):
        CVec.basis_vector("z", ("a", "b"))


def test_amps_are_immutable():
    v = CVec(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        v.amps[0] = 5.0


def test_vector_arithmetic_keeps_labels():
    # division by a scalar (State.normalized) is the one arithmetic operator
    u = CVec(np.array([1.0, 2.0]), ("x", "y"))
    assert (u / 2).amps.tolist() == [0.5, 1.0]
    assert (u / 2).labels == ("x", "y")


@pytest.mark.filterwarnings("error")
def test_unit_divides_out_any_finite_norm(rng):
    # a normal norm is divided out directly, so such vectors keep their bits
    v = random_vector(rng, 5)
    assert np.array_equal(v.unit().amps, (v / v.norm()).amps)
    # an overflowing or subnormal norm gives the unit vector of the scale-1 amplitudes
    ones = CVec(np.array([1.0, 1.0j, -1.0]), ("a", "b", "c"))
    for scale in (1.5e308, 5e-324, 1e-320):
        scaled = CVec(ones.amps * scale, ones.labels)
        assert np.array_equal(scaled.unit().amps, ones.unit().amps), scale
        assert scaled.unit().labels == ones.labels


def test_mismatched_bases_are_rejected():
    u = CVec(np.array([1.0, 2.0]), ("x", "y"))
    w = CVec(np.array([1.0, 2.0]), ("x", "z"))
    short = CVec(np.array([1.0]))
    with pytest.raises(BasisMismatch):
        inner(u, w)
    with pytest.raises(DimensionError):
        inner(u, short)


def test_norm_and_allclose():
    u = CVec(np.array([3.0, 4.0]))
    assert u.norm() == pytest.approx(5.0)
    assert u.allclose(CVec(np.array([3.0, 4.0 + 1e-12])))
    assert not u.allclose(CVec(np.array([3.0, 4.1])))


def test_inner_conjugates_first_argument(rng):
    u = random_vector(rng, 4)
    v = random_vector(rng, 4)
    direct = np.vdot(u.amps, v.amps)
    assert inner(u, v) == pytest.approx(direct)
    assert inner(CVec(u.amps * 1j), v) == pytest.approx(-1j * direct)
    assert inner(u, CVec(v.amps * 1j)) == pytest.approx(1j * direct)


def test_matrix_constructors_and_hermiticity():
    ident = CMat(np.eye(2), ("a", "b"))
    assert ident.labels == ("a", "b") and CMat(np.eye(2)).labels == ("0", "1")
    assert ident.hermiticity_defect() == 0.0
    skew = CMat(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert skew.hermiticity_defect() == pytest.approx(2.0)


def test_nonsquare_matrix_rejected():
    with pytest.raises(DimensionError):
        CMat(np.ones((2, 3)))


def test_tensor_labels_are_row_major():
    assert tensor_labels(("x", "y"), ("0", "1")) == ("x_0", "x_1", "y_0", "y_1")
    # associativity of the join
    left = tensor_labels(tensor_labels(("a", "b"), ("c",)), ("d", "e"))
    right = tensor_labels(("a", "b"), tensor_labels(("c",), ("d", "e")))
    assert left == right


def test_tensor_matches_kron(rng):
    u = random_vector(rng, 2)
    v = random_vector(rng, 3)
    tv = tensor(u, v)
    assert np.allclose(tv.amps, np.kron(u.amps, v.amps))
    assert tv.labels == tensor_labels(u.labels, v.labels)


def test_thresholds_are_written_only_in_the_tolerance_table():
    # a 1e-... number token outside a `NAME_TOL = value` line of linalg is a threshold
    # that bypasses the table; docstrings and comments are not number tokens
    stray = []
    for path in sorted(Path(prepost.__file__).parent.glob("*.py")):
        with open(path, "rb") as handle:
            for tok in tokenize.tokenize(handle.readline):
                if tok.type != tokenize.NUMBER or not re.search(r"[eE]-", tok.string):
                    continue
                if path.name == "linalg.py" and re.fullmatch(r"[A-Z_]+_TOL = \S+\s*", tok.line):
                    continue
                stray.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert not stray
