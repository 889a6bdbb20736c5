import numpy as np
import pytest

from prepost import (
    CMat,
    CVec,
    NormalizationError,
    NotHermitian,
    Observable,
    Projector,
    State,
    UndefinedWeakValue,
    WeakValueClass,
    as_observable,
    classify,
    spectral_decompose,
    weak_value,
)
from prepost.linalg import DEGENERACY_TOL

from conftest import (
    random_hermitian,
    random_projector,
    random_state,
    random_state_pair,
    random_vector,
)


def test_state_requires_unit_norm():
    with pytest.raises(NormalizationError):
        State(CVec(np.array([1.0, 1.0])))
    s = State.normalized(np.array([1.0, 1.0]))
    assert s.vec.norm() == pytest.approx(1.0)
    with pytest.raises(NormalizationError):
        State.normalized(np.array([0.0, 0.0]))


@pytest.mark.parametrize("amps", [[np.nan, 0.0], [np.inf, 0.0], [complex(np.inf, np.nan), 0.0]])
def test_state_rejects_a_non_finite_norm(amps):
    # a NaN norm compares false with everything, so the check must fail on it
    with pytest.raises(NormalizationError):
        State(CVec(np.array(amps)))


def test_projector_onto_and_complement():
    p = Projector.onto(CVec(np.array([1.0, 1.0])))
    assert p.rank == 1
    assert np.allclose(p.mat.entries, np.full((2, 2), 0.5))
    q = p.complement()
    assert q.rank == 1
    assert np.allclose(p.mat.entries + q.mat.entries, np.eye(2))
    assert p.eigenvalue_set() == (0.0, 1.0)


def test_projector_span_handles_dependent_vectors(rng):
    v = random_vector(rng, 4)
    p = Projector.span([v, CVec(2.0 * v.amps, v.labels)])
    assert p.rank == 1
    w = random_vector(rng, 4)
    p2 = Projector.span([v, w])
    assert p2.rank == 2
    assert np.allclose(p2.mat.entries @ v.amps, v.amps)
    # a dependent vector ahead of an independent one keeps both directions
    e0, e1 = CVec(np.array([1.0, 0.0, 0.0])), CVec(np.array([0.0, 1.0, 0.0]))
    p3 = Projector.span([e0, CVec(2.0 * e0.amps), e1])
    assert p3.rank == 2
    assert np.allclose(p3.mat.entries, np.diag([1.0, 1.0, 0.0]))


def test_projector_on_labels_and_identity():
    p = Projector.on_labels(("a", "b", "c"), ("a", "c"))
    assert np.allclose(p.mat.entries, np.diag([1.0, 0.0, 1.0]))
    assert p.rank == 2
    with pytest.raises(ValueError, match="unknown basis label 'z'"):
        Projector.on_labels(("a", "b", "c"), ("a", "z"))
    ident = Projector.identity(("a", "b"))
    assert ident.rank == 2
    assert ident.eigenvalue_set() == (1.0,)
    zero = ident.complement()
    assert zero.eigenvalue_set() == (0.0,)


def test_projector_rejects_bad_matrices():
    # columns must be orthonormal: Q^dagger Q = I
    with pytest.raises(ValueError):
        Projector(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        Projector(np.diag([1.0, 0.5]))
    with pytest.raises(ValueError):
        Projector(np.column_stack([[1.0, 0.0], np.array([1.0, 1.0]) / np.sqrt(2.0)]))


def test_spectral_decompose_reconstructs(rng):
    for dim in (2, 3, 5):
        m = random_hermitian(rng, dim)
        obs = spectral_decompose(m)
        rebuilt = sum(
            lam * p.mat.entries for lam, p in zip(obs.eigenvalues, obs.projectors)
        )
        assert np.max(np.abs(rebuilt - m.entries)) < 1e-10
        assert list(obs.eigenvalues) == sorted(obs.eigenvalues)
        assert sum(p.rank for p in obs.projectors) == dim


def test_spectral_decompose_merges_degeneracies(rng):
    obs = spectral_decompose(CMat(np.diag([1.0, 1.0, 0.0])))
    assert obs.eigenvalues == (0.0, 1.0)
    assert tuple(p.rank for p in obs.projectors) == (1, 2)
    # in a random basis, a gap below DEGENERACY_TOL merges and one above splits
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    for gap, ranks in ((DEGENERACY_TOL / 10, (1, 2)), (DEGENERACY_TOL * 10, (1, 1, 1))):
        m = (u * np.array([0.0, 1.0, 1.0 + gap])) @ u.conj().T
        obs = spectral_decompose(CMat((m + m.conj().T) / 2.0))
        assert tuple(p.rank for p in obs.projectors) == ranks


def test_spectral_decompose_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        spectral_decompose(CMat(np.array([[0.0, 1.0], [0.0, 0.0]])))


def test_observable_validates_projector_data():
    p = Projector.on_labels(("a", "b"), ("a",))
    with pytest.raises(ValueError):
        Observable(CMat(np.diag([1.0, 0.0])), (1.0, 0.0), (p, p.complement()))
    # overlapping projectors
    with pytest.raises(ValueError):
        Observable(CMat(np.diag([1.0, 0.0])), (0.0, 1.0), (p, p))
    # projectors that do not resolve the identity
    mat = CMat(np.diag([1.0, 0.0]), ("a", "b"))
    with pytest.raises(ValueError):
        Observable(mat, (1.0,), (p,))
    tilted = Projector.onto(CVec(np.array([1.0, 1.0]), ("a", "b")))
    with pytest.raises(ValueError):
        Observable(mat, (0.0, 1.0), (tilted, p))
    # eigenvalues within DEGENERACY_TOL are one eigenvalue, not two
    for gap, rejected in ((0.0, True), (5e-9, True), (5e-8, False)):
        lams = (1.0, 1.0 + gap)
        mat = CMat(np.diag(lams), ("a", "b"))
        if rejected:
            with pytest.raises(ValueError, match="repeats eigenvalue 1$"):
                Observable(mat, lams, (p, p.complement()))
        else:
            assert Observable(mat, lams, (p, p.complement())).eigenvalues == lams


@pytest.mark.parametrize("scale", [1e-9, 1e-6, 1.0, 1e6, 1e12])
def test_spectrum_tolerances_scale_with_the_spectrum(rng, scale):
    # wv(aA) = a wv(A) and eigh's error is relative to the norm, so scaling an
    # observable changes no class, no merge and no outcome match
    lams = (scale, 2 * scale)
    two_ulps_up = np.nextafter(np.nextafter(scale, np.inf), np.inf)
    assert classify(two_ulps_up, lams) is WeakValueClass.SWV
    assert classify(scale * (1 + 1e-6), lams) is WeakValueClass.UWV
    assert classify(scale * (1.5 + 1e-6j), lams) is WeakValueClass.STWV
    p = Projector.on_labels(("a", "b"), ("a",))
    obs = Observable(CMat(np.diag(lams), ("a", "b")), lams, (p, p.complement()))
    assert obs.projector_for(scale * (1 + DEGENERACY_TOL / 4)) is p
    close = (scale, scale * (1 + DEGENERACY_TOL / 4))
    with pytest.raises(ValueError, match="repeats eigenvalue"):
        Observable(CMat(np.diag(close), ("a", "b")), close, (p, p.complement()))
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    for gap, ranks in ((DEGENERACY_TOL / 10, (1, 2)), (DEGENERACY_TOL * 10, (1, 1, 1))):
        m = (u * (scale * np.array([0.0, 1.0, 1.0 + gap]))) @ u.conj().T
        obs = spectral_decompose(CMat((m + m.conj().T) / 2.0))
        assert tuple(p.rank for p in obs.projectors) == ranks


def test_as_observable_on_projectors():
    p = Projector.on_labels(("a", "b", "c"), ("a",))
    obs = as_observable(p)
    assert obs.eigenvalues == (0.0, 1.0)
    assert obs.projectors[0].rank == 2
    assert obs.projectors[1].rank == 1
    full = as_observable(Projector.identity(("a", "b")))
    assert full.eigenvalues == (1.0,)
    assert as_observable(obs) is obs


def test_classify_trichotomy():
    eigs = (0.0, 1.0)
    assert classify(1.0, eigs) is WeakValueClass.SWV
    assert classify(1.0 + 5e-11, eigs) is WeakValueClass.SWV
    assert classify(0.5, eigs) is WeakValueClass.UWV
    assert classify(-1.0, eigs) is WeakValueClass.STWV
    assert classify(1.5, eigs) is WeakValueClass.STWV
    assert classify(0.5 + 0.2j, eigs) is WeakValueClass.STWV
    assert classify(0.5, (0.5, 2.0)) is WeakValueClass.SWV
    with pytest.raises(ValueError):
        classify(1.0, ())


def test_weak_value_of_identity_is_one(rng):
    pre, post = random_state_pair(rng, 4)
    report = weak_value(Projector.identity(pre.labels), pre, post)
    assert report.value == pytest.approx(1.0, abs=1e-12)
    assert report.wv_class is WeakValueClass.SWV


def test_weak_value_undefined_for_orthogonal_pair():
    pre = State(CVec.basis_vector("a", ("a", "b")))
    post = State(CVec.basis_vector("b", ("a", "b")))
    p = Projector.onto(CVec(np.array([1.0, 1.0])))
    with pytest.raises(UndefinedWeakValue):
        weak_value(p, pre, post)


def test_weak_value_reports_overlap(rng):
    pre, post = random_state_pair(rng, 3)
    report = weak_value(random_projector(rng, 3), pre, post)
    assert report.overlap == pytest.approx(np.vdot(post.vec.amps, pre.vec.amps))


def test_projector_weak_values_resolve_identity(rng):
    # weak values of a complete projector family sum to 1
    pre, post = random_state_pair(rng, 4)
    obs = spectral_decompose(random_hermitian(rng, 4))
    total = sum(weak_value(p, pre, post).value for p in obs.projectors)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_observable_weak_value_is_eigenvalue_combination(rng):
    pre, post = random_state_pair(rng, 4)
    obs = spectral_decompose(random_hermitian(rng, 4))
    combo = sum(
        lam * weak_value(p, pre, post).value
        for lam, p in zip(obs.eigenvalues, obs.projectors)
    )
    assert weak_value(obs, pre, post).value == pytest.approx(combo, abs=1e-10)


def test_weak_value_sum_matches_linearity(rng):
    pre, post = random_state_pair(rng, 3)
    a = spectral_decompose(random_hermitian(rng, 3))
    b = spectral_decompose(random_hermitian(rng, 3))
    summed = weak_value(spectral_decompose(CMat(a.mat.entries + b.mat.entries)), pre, post).value
    parts = weak_value(a, pre, post).value + weak_value(b, pre, post).value
    assert summed == pytest.approx(parts, abs=1e-12)


def test_eigenstate_weak_value_is_sharp(rng):
    # pre an eigenstate: the weak value sits on that eigenvalue exactly
    obs = spectral_decompose(random_hermitian(rng, 3))
    lam, proj = obs.eigenvalues[0], obs.projectors[0]
    vec = CVec(proj.mat.entries[:, 0], proj.labels)
    pre = State.normalized(vec)
    post = random_state(rng, 3)
    if abs(np.vdot(post.vec.amps, pre.vec.amps)) < 1e-6:
        post = pre
    report = weak_value(obs, pre, post)
    assert report.value == pytest.approx(lam, abs=1e-9)
    assert report.wv_class is WeakValueClass.SWV
