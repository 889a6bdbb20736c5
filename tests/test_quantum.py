import math
import tracemalloc
import warnings

import numpy as np
import pytest

from prepost import (
    BasisMismatch,
    CMat,
    CVec,
    Density,
    Family,
    NormalizationError,
    NotFinite,
    NotHermitian,
    Observable,
    PointerConfig,
    PointerRangeError,
    PrepostError,
    Projector,
    State,
    UndefinedWeakValue,
    UnknownEigenvalue,
    WeakValueClass,
    abl_from_weak_values,
    abl_probability,
    as_observable,
    builtin,
    classify,
    conditional_weight,
    consistency,
    simulate,
    spectral_decompose,
    weak_value,
    weak_value_estimate,
)
from prepost.linalg import DEGENERACY_TOL
from prepost.scenarios import BUILTINS
from prepost.scenfile import (
    ObsDecl, ProjDecl, ScenarioDoc, StateDecl, parse, serialize, to_scenario,
)

from conftest import (
    diagonal_scenario_text,
    random_hermitian,
    random_projector,
    random_state,
    random_state_pair,
    random_vector,
    states_with_weak_value,
)


def test_state_requires_unit_norm():
    with pytest.raises(NormalizationError):
        State(CVec(np.array([1.0, 1.0])))
    s = State.normalized(np.array([1.0, 1.0]))
    assert s.vec.norm() == pytest.approx(1.0)
    with pytest.raises(NormalizationError):
        State.normalized(np.array([0.0, 0.0]))


@pytest.mark.parametrize("factor, defined", [(1 - 1e-6, False), (1 + 1e-6, True)])
def test_state_normalizes_up_to_the_tolerance(factor, defined):
    # ZERO_TOL of 1e-12 is written here: a vector of norm 1e-12 * factor
    amps = [0.6e-12 * factor, 0.8e-12 * factor]
    if defined:
        assert State.normalized(amps).vec.amps == pytest.approx([0.6, 0.8], rel=1e-12)
    else:
        with pytest.raises(NormalizationError, match="zero vector"):
            State.normalized(amps)


@pytest.mark.parametrize(
    "amps", [[1.5e308, 1.5e308], [1e308, 1e308, 1e308], [complex(1.5e308, 1.5e308), 0.0]]
)
def test_state_rejects_a_non_finite_norm(amps):
    # finite amplitudes whose norm is past a double: an infinite norm is not 1
    with pytest.raises(NormalizationError):
        State(CVec(np.array(amps)))


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("factor, accepted", [(1 - 1e-3, True), (1 + 1e-3, False)])
def test_a_state_has_unit_norm_up_to_the_tolerance(sign, factor, accepted):
    # NORM_TOL of 1e-10 is written here: a norm 1 -+ 1e-10 * factor, near 1, so the
    # margin is 1e-3 of the tolerance and many ulps wide
    vec = CVec([1.0 + sign * 1e-10 * factor, 0.0], ("a", "b"))
    if accepted:
        assert State(vec).vec is vec
    else:
        with pytest.raises(NormalizationError, match="expected 1$"):
            State(vec)


def test_projector_onto_and_complement():
    p = Projector.onto(CVec(np.array([1.0, 1.0])))
    assert p.rank == 1
    assert np.allclose(p.mat.entries, np.full((2, 2), 0.5))
    q = p.complement()
    assert q.rank == 1
    assert np.allclose(p.mat.entries + q.mat.entries, np.eye(2))
    assert p.eigenvalue_set() == (0.0, 1.0)
    w, v = CVec(np.array([1.0, 0.0])), CVec(np.array([0.6, 0.8j]))
    assert p.amplitude(w, v) == pytest.approx(0.3 + 0.4j)
    assert q.amplitude(w, v) == pytest.approx(0.3 - 0.4j)
    empty = Projector.identity(v.labels).complement()  # rank 0: every amplitude is 0
    assert empty.rank == 0 and empty.amplitude(w, v) == 0


def test_projector_onto_a_vector_whose_norm_overflows():
    # |v| of four 1.5e308 entries is past a double; onto normalizes as a State does
    vec = CVec(np.full(4, 1.5e308))
    assert np.array_equal(Projector.onto(vec).q[:, 0], State.normalized(vec).vec.amps)
    assert np.array_equal(Projector.onto(vec).q[:, 0], np.full(4, 0.5))
    with pytest.raises(ValueError, match="zero vector"):
        Projector.onto(CVec(np.full(4, 1e-13)))


def test_label_projector_complement_takes_identity_columns_without_an_identity():
    labels = tuple(f"k{j}" for j in range(256))
    for subset in ((), ("k5",), ("k0", "k7", "k255"), labels):
        p = Projector.on_labels(labels, subset)
        keep = ~p.q.any(axis=1)
        np.testing.assert_array_equal(p.complement().q, np.eye(len(labels))[:, keep])
    p = Projector(np.exp(0.3j) * np.eye(4)[:, [1]])  # a basis column up to a phase
    np.testing.assert_array_equal(p.complement().q, np.eye(4)[:, [0, 2, 3]])
    p = Projector.on_labels(tuple(f"k{j}" for j in range(2048)), ("k5",))
    tracemalloc.start()
    try:
        q = p.complement().q
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * q.nbytes  # the 2048 x 2047 columns, and no 2048 x 2048 identity


def test_identity_projector_takes_identity_columns_without_a_check():
    p = Projector.identity(tuple(f"k{j}" for j in range(256)))
    np.testing.assert_array_equal(p.q, np.eye(256))
    assert p.labels == tuple(f"k{j}" for j in range(256)) and not p.q.flags.writeable
    labels = tuple(f"k{j}" for j in range(2048))
    tracemalloc.start()
    try:
        q = Projector.identity(labels).q
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * q.nbytes  # the 2048 x 2048 columns, and no Q^dagger Q product


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


def test_columns_whose_products_overflow_are_not_orthonormal():
    # finite columns whose Gram matrix is all NaN: a check that let a NaN pass took
    # them as a projector (consistency then called a family with it consistent, and its
    # weight NaN) and took its columns side by side as an observable's
    q, labels = np.array([[1e200 + 1e200j, 1e200], [1e200, -1e200 + 1e200j]]), ("a", "b")
    for cols in (q, q[:, :1], q[:, 1:]):
        with pytest.raises(ValueError, match="^projector columns are not orthonormal$"):
            Projector(cols, labels)
    halves = [Projector._of_checked(q[:, k : k + 1], labels) for k in (0, 1)]
    with pytest.raises(ValueError, match="^spectral projectors are not mutually orthogonal$"):
        Observable.from_projectors([0.0, 1.0], halves)


@pytest.mark.parametrize("factor, accepted", [(1 - 1e-6, True), (1 + 1e-6, False)])
def test_columns_are_orthonormal_up_to_the_tolerance(factor, accepted):
    # EQUAL_TOL of 1e-10 is written here: an off-diagonal Gram entry of 1e-10 * factor,
    # in a projector's columns and in an observable's columns side by side
    q, labels = np.array([[1.0, 1e-10 * factor], [0.0, 1.0]]), ("a", "b")
    columns = [Projector(q[:, k : k + 1], labels) for k in (0, 1)]
    if accepted:
        assert np.array_equal(Projector(q, labels).q, q)
        assert np.array_equal(Observable.from_projectors((0.0, 1.0), columns).v, q)
    else:
        with pytest.raises(ValueError, match="^projector columns are not orthonormal$"):
            Projector(q, labels)
        with pytest.raises(ValueError, match="^spectral projectors are not mutually orthogonal$"):
            Observable.from_projectors((0.0, 1.0), columns)


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


@pytest.mark.parametrize("scale", [1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e8, 1e12])
def test_hermiticity_check_is_relative_to_the_largest_entry(scale):
    # rounding in U diag(lambda) U^dagger grows with lambda, so it decomposes at any
    # scale, while an anti-Hermitian part of 1e-9 times the largest |entry| never does
    gen = np.random.default_rng(0)
    u = np.linalg.qr(gen.standard_normal((8, 8)) + 1j * gen.standard_normal((8, 8)))[0]
    m = (u * (scale * np.arange(8.0))) @ u.conj().T
    assert spectral_decompose(CMat(m)).dim == 8
    with pytest.raises(NotHermitian):
        spectral_decompose(CMat(m + 1e-9j * np.abs(m).max() * np.eye(8)))
    for bad in (np.nan, np.inf):
        broken = m.copy()
        broken[0, 1] = broken[1, 0] = bad
        with pytest.raises(NotFinite, match="^entries "):
            CMat(broken)
    # finite entries whose modulus is past a double have no finite scale to compare with
    broken = m.copy()
    broken[0, 1] = complex(1.5e308, 1.5e308)
    broken[1, 0] = broken[0, 1].conjugate()
    with pytest.raises(NotHermitian):
        spectral_decompose(CMat(broken))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_is_rejected_where_it_enters(bad):
    labels = ("a", "b")
    p = Projector.on_labels(labels, ("a",))
    builders = [
        ("amps", lambda: CVec([bad, 1.0], labels)),
        ("entries", lambda: CMat([[1.0, bad], [bad, 0.0]], labels)),
        ("q", lambda: Projector(np.array([[bad], [0.0]]), labels)),
        ("eigenvalues", lambda: Observable.from_projectors((0.0, bad), (p.complement(), p))),
        ("alphas", lambda: Density([(0.0, bad), (1.0, 1.0)], 1.0)),
        ("value", lambda: classify(bad, (0.0, 1.0))),
        ("eigenvalues", lambda: classify(0.5, (bad, 1.0))),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, build in builders:
            with pytest.raises(NotFinite, match=f"^{name} holds a non-finite entry$"):
                build()
        with pytest.raises(NotFinite, match="^eigenvalues "):
            Observable(CMat(np.diag([0.0, 1.0]), labels), (0.0, bad), (p.complement(), p))
        # the reach check names a NaN centre, and keeps the overflowing centre's record
        why = "delta or a centre is NaN" if math.isnan(bad) else "1/delta or 2.64 .* overflows"
        with pytest.raises(PointerRangeError, match=f"with centres up to .*: {why}$"):
            Density([(bad, 1.0), (1.0, 1.0)], 1.0)


_AB = ("a", "b")
_PRE, _POST = State(CVec([0.6, 0.8], _AB)), State(CVec([0.8, 0.6], _AB))


def _on_a(lam) -> Observable:
    """lam |a><a| + 0 |b><b|, its eigenvalues in ascending order."""
    p = Projector.on_labels(_AB, ("a",))
    return Observable.from_projectors(*zip(*sorted([(0.0, p.complement()), (lam, p)])))


def _from_matrix(lam) -> Observable:
    """`_on_a(lam)` through the constructor that checks a matrix against its spectral sum."""
    obs = _on_a(lam)
    return Observable(obs.mat, obs.eigenvalues, obs.projectors)


def _estimate(cfg: PointerConfig, lam=1.0) -> float:
    return weak_value_estimate(simulate(_on_a(lam), _PRE, _POST, cfg, 10, 0), cfg)


def _moments(density: Density) -> tuple:
    return density.rate, density.mean(), density.variance()


def _scenario_doc(x) -> ScenarioDoc:
    """A hand-built document with x as a state's coefficient and as an eigenvalue."""
    states = (StateDecl("psi", ((x, "a"), (1.0, "b")), True), StateDecl("phi", ((1.0, "a"),)))
    return ScenarioDoc(basis=_AB, states=states, pre="psi", post="phi",
                       projs=(ProjDecl("P", "ketbra", ("a",)), ProjDecl("Q", "ketbra", ("b",))),
                       obs=(ObsDecl("X", ((x, "P"), (1.0, "Q"))),))


#: x goes into one float argument of a public constructor or computation; each returns
#: the numbers it made.
_FLOAT_ARGUMENTS = {
    "CVec": lambda x: CVec([x, 1.0], _AB).amps,
    "CMat": lambda x: CMat([[x, 0.0], [0.0, 1.0]], _AB).entries,
    "State": lambda x: State(CVec([x, 0.0], _AB)).vec.amps,
    "State.normalized": lambda x: State.normalized([x, 1.0], _AB).vec.amps,
    "Projector": lambda x: Projector(np.array([[x], [0.0]]), _AB).q,
    "Projector.onto": lambda x: Projector.onto(CVec([x, 1.0], _AB)).q,
    "Projector.span": lambda x: Projector.span([CVec([x, 1.0], _AB), CVec([1.0, 0.0], _AB)]).q,
    "Observable.from_projectors": lambda x: _on_a(x).v,
    "Observable": lambda x: _from_matrix(x).v,
    "spectral_decompose": lambda x: spectral_decompose(CMat([[x, 1.0], [1.0, -x]], _AB)).v,
    "classify.value": lambda x: classify(x, (0.0, 1.0)).value,
    "classify.eigenvalues": lambda x: classify(0.5, (x, 1.0)).value,
    "weak_value": lambda x: weak_value(_on_a(x), _PRE, _POST)[::2],
    "abl_probability.outcome": lambda x: abl_probability(_on_a(1.0), _PRE, _POST, x),
    "abl_probability.eigenvalue": lambda x: abl_probability(_on_a(x), _PRE, _POST, x),
    "abl_from_weak_values": lambda x: (abl_from_weak_values(x), abl_from_weak_values(x * 1j)),
    "conditional_weight": lambda x: conditional_weight(_on_a(x).projector_for(x), _PRE, _POST),
    "consistency": lambda x: consistency(Family(_PRE, _on_a(x).projector_for(x), _POST))[::3],
    "PointerConfig.delta": lambda x: _estimate(PointerConfig(x)),
    "PointerConfig.x0": lambda x: _estimate(PointerConfig(1.0, x0=x)),
    "PointerConfig.coupling": lambda x: _estimate(PointerConfig(1.0, coupling=x)),
    "simulate.eigenvalue": lambda x: _estimate(PointerConfig(1.0), x),
    "Density.centre": lambda x: _moments(Density([(x, 1.0), (1.0, 1.0)], 1.0)),
    "Density.alpha": lambda x: _moments(Density([(0.0, x), (1.0, 1.0)], 1.0)),
    "Density.delta": lambda x: _moments(Density([(0.0, 1.0), (1.0, 1.0)], x)),
    "Density.mass_between": lambda x: Density([(0.0, 1.0), (1.0, 1.0)], 1.0).mass_between(-x, x),
    "to_scenario": lambda x: to_scenario(_scenario_doc(x)).observables["X"].eigenvalues,
}


@pytest.mark.parametrize("name", sorted(_FLOAT_ARGUMENTS))
def test_a_non_finite_or_extreme_float_gives_a_typed_error_or_a_finite_result(name):
    # no NaN, infinity or overflow passes silently: each value is rejected by a typed
    # error or a ValueError, or what it makes is finite, with every warning an error
    for x in (math.nan, math.inf, -math.inf, 1e308, 5e-324):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                made = _FLOAT_ARGUMENTS[name](x)
            except (PrepostError, ValueError):
                continue
        numbers = [v for v in np.ravel(np.asarray(made, dtype=object)) if not isinstance(v, str)]
        assert np.isfinite(np.asarray(numbers, dtype=complex)).all(), (x, made)


@pytest.mark.parametrize("scale", [1.0, 1e6])
@pytest.mark.parametrize(
    "factor, wv_class", [(1 - 1e-6, WeakValueClass.SWV), (1 + 1e-6, WeakValueClass.UWV)]
)
def test_weak_value_is_sharp_up_to_the_tolerance(scale, factor, wv_class):
    # the paper's SHARP_TOL of 1e-10 is written here, so a changed table entry fails: a
    # weak value 1e-10 * factor times the largest |eigenvalue| from the eigenvalue 0
    pre, post = states_with_weak_value(1e-10 * factor, math.pi / 2 - 1e-5)
    p = Projector.on_labels(pre.labels, ("a",))
    report = weak_value(Observable.from_projectors((0.0, scale), (p.complement(), p)), pre, post)
    assert report.value == pytest.approx(1e-10 * factor * scale, rel=1e-9)
    assert report.wv_class is wv_class


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


def test_an_outcome_off_the_spectrum_is_an_unknown_eigenvalue():
    obs = builtin("three-box").observables["C"]
    message = r"^2\.0 is not an eigenvalue of the observable$"
    for lookup in (obs.outcome_index, obs.projector_for):
        with pytest.raises(UnknownEigenvalue, match=message):
            lookup(2.0)


@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_an_outcome_matches_an_eigenvalue_up_to_the_tolerance(scale):
    # DEGENERACY_TOL of 1e-8 is written here: an outcome 1e-8 * (1 -+ 1e-6) times the
    # largest |eigenvalue| away from the eigenvalue 0
    p = Projector.on_labels(("a", "b"), ("a",))
    obs = Observable.from_projectors((0.0, scale), (p.complement(), p))
    assert obs.outcome_index(1e-8 * (1 - 1e-6) * scale) == 0
    with pytest.raises(UnknownEigenvalue):
        obs.outcome_index(1e-8 * (1 + 1e-6) * scale)


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


@pytest.mark.parametrize("scale", [1.0, 1e6])
@pytest.mark.parametrize(
    "factor, wv_class", [(1 - 1e-6, WeakValueClass.UWV), (1 + 1e-6, WeakValueClass.STWV)]
)
def test_weak_value_is_real_up_to_the_tolerance(scale, factor, wv_class):
    # REAL_TOL of 1e-10 is written here: an imaginary part 1e-10 * factor times the largest
    # |eigenvalue|, on a real part in the middle of the spectrum
    assert classify(complex(0.5 * scale, 1e-10 * factor * scale), (0.0, scale)) is wv_class


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


@pytest.mark.parametrize("factor, defined", [(1 - 1e-6, False), (1 + 1e-6, True)])
def test_weak_value_is_undefined_up_to_the_tolerance(factor, defined):
    # ZERO_TOL of 1e-12 is written here: an overlap |<post|pre>| of 1e-12 * factor
    labels, overlap = ("a", "b"), 1e-12 * factor
    pre = State(CVec.basis_vector("a", labels))
    post = State(CVec([overlap, math.sqrt(1.0 - overlap**2)], labels))
    p = Projector.on_labels(labels, ("a",))
    if defined:
        assert weak_value(p, pre, post).value == pytest.approx(1.0, rel=1e-12)
    else:
        with pytest.raises(UndefinedWeakValue, match="orthogonal"):
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


def test_observable_rejects_a_matrix_its_projectors_contradict():
    labels = ("a", "b")
    p = Projector.on_labels(labels, ("a",))
    pre = State.normalized([1.0, 1.0], labels)
    post = State.normalized([1.0, 0.5], labels)
    # |a> carries eigenvalue 0 in the projectors but 1 in the matrix
    with pytest.raises(ValueError, match="differs from its spectral sum by 1"):
        Observable(CMat(np.diag([1.0, 0.0]), labels), (0.0, 1.0), (p, p.complement()))
    obs = Observable(CMat(np.diag([0.0, 1.0]), labels), (0.0, 1.0), (p, p.complement()))
    assert weak_value(obs, pre, post).value == pytest.approx(1.0 / 3.0, abs=1e-15)
    # a gap on the spectrum's scale is rejected at every scale, and rounding is not
    for scale in (1e-9, 1.0, 1e12):
        lams = (0.0, scale)
        with pytest.raises(ValueError, match="differs from"):
            Observable(CMat(np.diag([0.0, scale * (1 + 1e-9)]), labels), lams, (p, p.complement()))
        Observable(CMat(np.diag([0.0, scale * (1 + 1e-11)]), labels), lams, (p, p.complement()))
    with pytest.raises(BasisMismatch):
        Observable(CMat(np.diag([0.0, 1.0])), (0.0, 1.0), (p, p.complement()))


def test_matrix_constructor_accepts_every_observable_it_is_given(rng):
    # every observable rebuilt from its own matrix, as perfbench/tracing.py rebuilds
    # the dim-scale ones: builtins, file observables and eigendecompositions
    observables = [obs for name in BUILTINS for obs in builtin(name).observables.values()]
    observables += to_scenario(parse(diagonal_scenario_text(16, rng))).observables.values()
    for dim, scale in ((2, 1e-9), (5, 1.0), (8, 1e2), (16, 1e3), (8, 1e8)):
        u = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
        lams = scale * np.repeat(np.arange(dim // 2 + 1), 2)[:dim]  # degenerate pairs
        observables.append(spectral_decompose(CMat((u * lams) @ u.conj().T)))
    for scale in (1e-9, 1e12):
        p = Projector.on_labels(("a", "b", "c"), ("b",))
        observables.append(Observable.from_projectors((0.0, scale), (p.complement(), p)))
    for obs in observables:
        rebuilt = Observable(obs.mat, obs.eigenvalues, obs.projectors)
        assert rebuilt.eigenvalues == obs.eigenvalues
        assert rebuilt.projectors == obs.projectors
        assert np.array_equal(rebuilt.v, obs.v) and rebuilt.bounds == obs.bounds


def test_spectral_projectors_must_share_a_basis_and_be_nonzero():
    p = Projector.on_labels(("a", "b"), ("a",))
    q = Projector.on_labels(("x", "y"), ("y",))
    with pytest.raises(BasisMismatch):
        Observable.from_projectors((0.0, 1.0), (p, q))
    ident = Projector.identity(("a", "b"))
    with pytest.raises(ValueError, match="rank 0"):
        Observable.from_projectors((0.0, 1.0), (ident.complement(), ident))


def _overlap_pair(gen, dim: int):
    """Pre/post states whose overlap modulus is log-uniform in [1e-10, 1]."""
    pre = State.normalized(random_vector(gen, dim).amps, tuple(f"k{j}" for j in range(dim)))
    w = random_vector(gen, dim).amps
    w = w - np.vdot(pre.vec.amps, w) * pre.vec.amps
    t = 10.0 ** gen.uniform(-10.0, 0.0)
    amps = np.exp(2j * np.pi * gen.random()) * t * pre.vec.amps
    return pre, State.normalized(amps + np.sqrt(1.0 - t * t) * w / np.linalg.norm(w), pre.labels)


def _random_spectrum(gen, dim: int):
    """Haar columns, random block ranks and distinct eigenvalues at a random scale."""
    u = np.linalg.qr(gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim)))[0]
    k = int(gen.integers(1, dim + 1))
    bounds = [0, *np.sort(gen.choice(np.arange(1, dim), k - 1, replace=False)).tolist(), dim]
    lams = np.sort(gen.choice(np.arange(-40, 41), k, replace=False)) * 10.0 ** gen.uniform(-3, 3)
    return u, bounds, lams.tolist()


def _file_observable(u, bounds, lams, pre, post):
    """The spectrum as a scenario file: one state per column of u, ket-bras of the
    rank-1 blocks and spans of the others, parsed back."""
    labels = pre.labels
    cols = [StateDecl(f"u{j}", tuple(zip(u[:, j], labels))) for j in range(u.shape[0])]
    projs = tuple(
        ProjDecl(f"P{k}", "ketbra" if b - a == 1 else "span", tuple(f"u{j}" for j in range(a, b)))
        for k, (a, b) in enumerate(zip(bounds, bounds[1:]))
    )
    doc = ScenarioDoc(
        basis=labels,
        states=(StateDecl("psi", tuple(zip(pre.vec.amps, labels))),
                StateDecl("phi", tuple(zip(post.vec.amps, labels))), *cols),
        projs=projs,
        obs=(ObsDecl("A", tuple((lam, f"P{k}") for k, lam in enumerate(lams))),),
        pre="psi",
        post="phi",
    )
    sc = to_scenario(parse(serialize(doc)))
    return sc.observables["A"], sc.pre, sc.post


@pytest.mark.parametrize("source", ["matrix", "file"])
def test_column_observable_matches_the_dense_reference(source):
    # weak value and ABL from the eigenbasis amplitudes against <post|A|pre>/<post|pre>
    # on the dense A, and against a loop over the projectors; errors bounded as in
    # Higham's inner-product analysis (Accuracy and Stability, 2nd ed., sec. 3.1)
    gen = np.random.default_rng(1906 if source == "matrix" else 1907)
    eps = np.finfo(float).eps / 2.0
    for case in range(120 if source == "matrix" else 40):
        dim = int(gen.integers(2, 33))
        u, bounds, lams = _random_spectrum(gen, dim)
        pre, post = _overlap_pair(gen, dim)
        blocks = [u[:, a:b] @ u[:, a:b].conj().T for a, b in zip(bounds, bounds[1:])]
        dense = sum(lam * block for lam, block in zip(lams, blocks))
        if source == "matrix":
            obs = spectral_decompose(CMat((dense + dense.conj().T) / 2.0, pre.labels))
        else:
            obs, pre, post = _file_observable(u, bounds, lams, pre, post)
        norm = max(abs(lam) for lam in lams)
        assert np.allclose(obs.eigenvalues, lams, rtol=0.0, atol=16 * dim * eps * norm)
        assert np.diff(obs.bounds).tolist() == np.diff(bounds).tolist()
        assert np.max(np.abs(obs.mat.entries - dense)) <= 16 * dim * eps * norm, case
        a, b = pre.vec.amps, post.vec.amps
        overlap = np.vdot(b, a)
        reference = np.vdot(b, dense @ a) / overlap
        loop = sum(
            lam * p.amplitude(post.vec, pre.vec) for lam, p in zip(obs.eigenvalues, obs.projectors)
        ) / overlap
        got = weak_value(obs, pre, post).value
        bound = 16 * dim * eps * (norm + abs(reference)) / abs(overlap)
        assert abs(got - reference) <= bound and abs(got - loop) <= bound, case
        # p_k = |a_k|^2/S moves by at most 2 (1 + sqrt(k)) delta / sqrt(S) when each
        # amplitude a_k moves by delta <~ n u
        amps = np.array([np.vdot(b, block @ a) for block in blocks])
        total = np.sum(np.abs(amps) ** 2)
        loop_amps = np.array([p.amplitude(post.vec, pre.vec) for p in obs.projectors])
        abl_bound = 16 * dim * eps * (1 + np.sqrt(len(lams))) / np.sqrt(total)
        for k, lam in enumerate(obs.eigenvalues):
            got = abl_probability(obs, pre, post, lam)
            assert abs(got - abs(amps[k]) ** 2 / total) <= abl_bound, (case, k)
            loop = abs(loop_amps[k]) ** 2 / np.sum(np.abs(loop_amps) ** 2)
            assert abs(got - loop) <= abl_bound, (case, k)
