import math

import numpy as np
import pytest

from prepost import (
    CVec,
    FailureMode,
    Family,
    Observable,
    Projector,
    State,
    UndefinedABL,
    UndefinedWeight,
    UnknownEigenvalue,
    abl_from_weak_values,
    abl_probability,
    as_observable,
    builtin,
    conditional_weight,
    consistency,
    inner,
    spectral_decompose,
    weak_value,
)
from prepost.errors import BasisMismatch, DimensionError
from prepost.pointer import Density, PointerConfig, entangle, postselect

from conftest import (
    projector_containing,
    projector_orthogonal_to,
    random_hermitian,
    random_projector,
    random_state,
    random_state_pair,
    states_with_weak_value,
)


def _three_box_family(obs_name="C"):
    sc = builtin("three-box")
    return sc, sc.family_for(obs_name)


def test_history_requires_matching_dimensions():
    e = Projector.identity(("a", "b"))
    d = State(CVec.basis_vector("a", ("a", "b")))
    d3 = State(CVec.basis_vector("x", ("x", "y", "z")))
    other = State(CVec.basis_vector("a", ("a", "c")))
    for mismatch, f in ((DimensionError, d3), (BasisMismatch, other)):
        with pytest.raises(mismatch):
            Family(d, e, f)
        with pytest.raises(mismatch):
            conditional_weight(e, d, f)
    with pytest.raises(DimensionError):  # endpoints that agree, on another basis than e
        conditional_weight(e, d3, d3)


def test_family_checks_bases_and_builds_endpoints_only_when_read():
    sc, fam = _three_box_family()
    consistency(fam)
    assert vars(fam) == {"d": sc.pre, "e": fam.e, "f": sc.post}  # the endpoints are the states
    with pytest.raises(DimensionError):
        Family(sc.pre, Projector.identity(("a", "b")), sc.post)
    with pytest.raises(BasisMismatch):
        Family(sc.pre, Projector.identity(("x", "y", "z")), sc.post)


def test_family_complement_partitions_identity():
    sc, fam = _three_box_family()
    total = fam.e.mat.entries + fam.e.complement().mat.entries
    assert np.allclose(total, np.eye(3))


def test_box_c_family_is_inconsistent_and_strange():
    sc, fam = _three_box_family()
    report = consistency(fam)
    assert not report.consistent
    assert report.failure_mode is FailureMode.STRANGE
    assert report.functional == pytest.approx(-2.0 / 9.0, abs=1e-12)
    assert report.factor_overlap_sq == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert report.factor_wv == pytest.approx(-1.0, abs=1e-12)
    assert report.factor_wv_conj == pytest.approx(2.0, abs=1e-12)


def test_event_absorbing_the_preselection_gives_consistency(rng):
    for dim in (2, 3, 4):
        pre, post = random_state_pair(rng, dim)
        e = projector_containing(rng, pre.vec)
        fam = Family(pre, e, post)
        report = consistency(fam)
        assert report.consistent
        assert report.failure_mode is FailureMode.NONE
        assert report.factor_wv == pytest.approx(1.0, abs=1e-9)


def test_event_orthogonal_to_the_preselection_gives_consistency(rng):
    pre, post = random_state_pair(rng, 4)
    e = projector_orthogonal_to(rng, pre.vec)
    report = consistency(Family(pre, e, post))
    assert report.consistent
    assert report.factor_wv == pytest.approx(0.0, abs=1e-9)


def test_repeated_endpoint_gives_unsharp_failure(rng):
    # d == f turns the functional into p(1-p) for p strictly inside (0, 1)
    pre = random_state(rng, 3)
    e = random_projector(rng, 3, rank=1)
    p = float(np.real(np.vdot(pre.vec.amps, e.mat.entries @ pre.vec.amps)))
    assert 0.0 < p < 1.0
    report = consistency(Family(pre, e, pre))
    assert not report.consistent
    assert report.failure_mode is FailureMode.UNSHARP
    assert report.functional == pytest.approx(p * (1 - p), abs=1e-10)


def test_orthogonal_endpoints_leave_factors_undefined():
    labels = ("a", "b")
    pre = State(CVec.basis_vector("a", labels))
    post = State(CVec.basis_vector("b", labels))
    e = Projector.onto(CVec(np.array([1.0, 1.0]), labels))
    report = consistency(Family(pre, e, post))
    assert report.factor_wv is None
    assert report.factor_wv_conj is None
    assert report.factor_overlap_sq == pytest.approx(0.0)
    assert report.functional == pytest.approx(-0.25, abs=1e-12)
    assert report.failure_mode is FailureMode.STRANGE


def test_trace_and_factored_forms_agree_on_random_families(rng):
    # the dense Tr[F E D E'] is the reference, for rank-1 and higher-rank e
    ranks = set()
    for _ in range(200):
        dim = int(rng.integers(2, 7))
        pre, post = random_state_pair(rng, dim)
        e = random_projector(rng, dim)
        ranks.add(e.rank)
        report = consistency(Family(pre, e, post))
        factored = (
            report.factor_overlap_sq * report.factor_wv * report.factor_wv_conj
        )
        d = np.outer(pre.vec.amps, pre.vec.amps.conj())
        f = np.outer(post.vec.amps, post.vec.amps.conj())
        em = e.q @ e.q.conj().T
        trace = np.trace(f @ em @ d @ (np.eye(dim) - em))
        assert abs(report.functional - trace) <= 1e-12
        assert abs(factored - trace) <= 1e-10
    assert 1 in ranks and max(ranks) > 1


def test_projectors_stay_columns_until_mat_is_read(rng):
    pre, post = random_state_pair(rng, 6)
    obs = spectral_decompose(random_hermitian(rng, 6))
    fam = Family(pre, obs.projectors[0], post)
    weak_value(obs.projectors[0], pre, post)
    abl_probability(obs, pre, post, obs.eigenvalues[0])
    consistency(fam)
    conditional_weight(fam.e, fam.d, fam.f)
    for p in obs.projectors:
        assert "mat" not in vars(p)


#: alpha for overlaps near 1 and 1e-6 in `states_with_weak_value`, at weak values near 0.
NEAR_ONE_AND_TINY_OVERLAP = pytest.mark.parametrize(
    "alpha, overlap", [(math.pi / 2 - 1e-5, 1.0), (1e-6, 1e-6)], ids=["overlap-1", "overlap-1e-6"]
)


@NEAR_ONE_AND_TINY_OVERLAP
@pytest.mark.parametrize("factor, consistent", [(1 - 1e-6, True), (1 + 1e-6, False)])
def test_consistency_verdict_turns_at_the_tolerance(alpha, overlap, factor, consistent):
    # the paper's CONSISTENCY_TOL of 1e-10 is written here, so a changed table entry fails.
    # For a real weak value t, r = 2|t||1-t| / (t^2 + (1-t)^2); this t, its small root
    # without cancellation, puts r at 1e-10 * factor.
    r = 1e-10 * factor
    t = r / ((1.0 + r) * (1.0 + math.sqrt(1.0 - 2.0 * r / (1.0 + r))))
    pre, post = states_with_weak_value(t, alpha)
    assert abs(inner(post.vec, pre.vec)) == pytest.approx(overlap, rel=1e-3)
    report = consistency(Family(pre, Projector.on_labels(pre.labels, ("a",)), post))
    assert report.consistent is consistent
    assert report.failure_mode is (FailureMode.NONE if consistent else FailureMode.UNSHARP)


def test_abl_probability_three_box():
    sc = builtin("three-box")
    obs = sc.observables["C"]
    assert abl_probability(obs, sc.pre, sc.post, 1.0) == pytest.approx(0.2, abs=1e-12)
    assert abl_probability(obs, sc.pre, sc.post, 0.0) == pytest.approx(0.8, abs=1e-12)


def test_abl_probability_identity_observable(rng):
    pre, post = random_state_pair(rng, 3)
    obs = as_observable(Projector.identity(pre.labels))
    assert abl_probability(obs, pre, post, 1.0) == pytest.approx(1.0)


def test_abl_probability_unknown_outcome():
    sc = builtin("three-box")
    with pytest.raises(UnknownEigenvalue):
        abl_probability(sc.observables["C"], sc.pre, sc.post, 2.0)


def test_abl_probability_normalizes_over_outcomes(rng):
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        pre, post = random_state_pair(rng, dim)
        obs = spectral_decompose(random_hermitian(rng, dim))
        total = sum(
            abl_probability(obs, pre, post, lam) for lam in obs.eigenvalues
        )
        assert total == pytest.approx(1.0, abs=1e-10)


def test_abl_probability_undefined_when_no_route():
    labels = ("a", "b")
    pre = State(CVec.basis_vector("a", labels))
    post = State(CVec.basis_vector("b", labels))
    obs = as_observable(Projector.identity(labels))
    with pytest.raises(UndefinedABL):
        abl_probability(obs, pre, post, 1.0)


def test_abl_from_weak_values_fixed_points():
    assert abl_from_weak_values(-1.0) == pytest.approx(0.2, abs=1e-12)
    assert abl_from_weak_values(1.0) == pytest.approx(1.0, abs=1e-12)
    assert abl_from_weak_values(0.0) == pytest.approx(0.0, abs=1e-12)
    assert abl_from_weak_values(0.5) == pytest.approx(0.5, abs=1e-12)


def test_abl_from_weak_values_depends_only_on_moduli(rng):
    for _ in range(50):
        wv = complex(rng.standard_normal(), rng.standard_normal())
        assert abl_from_weak_values(wv) == pytest.approx(
            abl_from_weak_values(np.conj(wv)), abs=1e-14
        )


def test_abl_routes_agree_for_projector_outcomes(rng):
    for _ in range(100):
        dim = int(rng.integers(2, 6))
        pre, post = random_state_pair(rng, dim)
        p = random_projector(rng, dim)
        wv = weak_value(p, pre, post).value
        direct = abl_probability(as_observable(p), pre, post, 1.0)
        assert abl_from_weak_values(wv) == pytest.approx(direct, abs=1e-10)


def test_conditional_weight_three_box_is_unity():
    sc = builtin("three-box")
    for name in ("A", "B", "C"):
        fam = sc.family_for(name)
        assert conditional_weight(fam.e, fam.d, fam.f) == pytest.approx(
            1.0, abs=1e-12
        )


def test_conditional_weight_zero_weak_value(rng):
    pre, post = random_state_pair(rng, 4)
    e = projector_orthogonal_to(rng, pre.vec)
    w = conditional_weight(e, pre, post)
    assert w == pytest.approx(0.0, abs=1e-10)


def test_conditional_weight_requires_overlapping_endpoints():
    labels = ("a", "b")
    d = State(CVec.basis_vector("a", labels))
    f = State(CVec.basis_vector("b", labels))
    e = Projector.identity(labels)
    with pytest.raises(UndefinedWeight):
        conditional_weight(e, d, f)


def test_weight_and_weak_value_share_one_zero_test():
    # |<f|d>| = 1e-8 is far above ZERO_TOL although |<f|d>|^2 = 1e-16 is below it:
    # every zero test is on the amplitude scale, so the weight and the ABL
    # probability are defined wherever the weak value is.
    labels = ("a", "b")
    pre = State(CVec.basis_vector("a", labels))
    post = State(CVec(np.array([1e-8, np.sqrt(1.0 - 1e-16)]), labels))
    e = Projector.onto(CVec.basis_vector("a", labels))
    wv = weak_value(e, pre, post).value
    assert wv == pytest.approx(1.0, abs=1e-12)
    weight = conditional_weight(e, pre, post)
    assert weight == pytest.approx(abs(wv) ** 2, abs=1e-12)
    assert weight == pytest.approx(1.0, abs=1e-12)
    abl = abl_probability(as_observable(e), pre, post, 1.0)
    assert abl == pytest.approx(abl_from_weak_values(wv), abs=1e-12)
    assert abl == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(UndefinedWeight):  # an exactly orthogonal pair still has none
        conditional_weight(e, pre, State(CVec.basis_vector("b", labels)))


def test_conditional_weight_is_squared_weak_value(rng):
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        pre, post = random_state_pair(rng, dim)
        e = random_projector(rng, dim)
        wv = weak_value(e, pre, post).value
        w = conditional_weight(e, pre, post)
        assert w == pytest.approx(abs(wv) ** 2, abs=1e-10)


def _abl_and_weight(fam):
    abl = abl_from_weak_values(weak_value(fam.e, fam.d, fam.f).value)
    return abl, conditional_weight(fam.e, fam.d, fam.f)


def test_abl_weight_agreement_on_consistent_family(rng):
    # e containing the pre-selection (weak value 1) or orthogonal to it (0)
    for make, value in ((projector_containing, 1.0), (projector_orthogonal_to, 0.0)):
        pre, post = random_state_pair(rng, 4)
        fam = Family(pre, make(rng, pre.vec), post)
        assert consistency(fam).consistent
        abl, weight = _abl_and_weight(fam)
        assert abl == pytest.approx(weight, abs=1e-10)
        assert abl == pytest.approx(value, abs=1e-10)


def test_abl_weight_disagreement_on_box_c():
    sc, fam = _three_box_family()
    abl, weight = _abl_and_weight(fam)
    assert abl == pytest.approx(0.2, abs=1e-12)
    assert weight == pytest.approx(1.0, abs=1e-12)


def _family_with_weak_value(gen, dim: int, overlap: complex, wv: complex):
    """A family with <f|d> = overlap and weak value wv of e, or None if f cannot be unit.

    e projects on a random proper subset of the basis and d spans every basis
    vector but the last.  f is x E|d> + y (1-E)|d> plus the last basis vector,
    so <f|E|d> = wv overlap and <f|(1-E)|d> = (1 - wv) overlap are sums of
    terms of one phase, exact to rounding at any overlap, and a weak value of
    0 or 1 leaves one of them exactly zero.
    """
    inside = gen.permutation(dim) < gen.integers(1, dim)
    d = gen.normal(size=dim) + 1j * gen.normal(size=dim)
    d[-1] = 0.0
    d /= np.linalg.norm(d)
    f = np.zeros(dim, dtype=complex)
    parts = ((wv * overlap, np.where(inside, d, 0)), ((1 - wv) * overlap, np.where(inside, 0, d)))
    for amp, part in parts:
        if amp != 0:
            weight = np.vdot(part, part).real
            if weight == 0:
                return None
            f += np.conj(amp) / weight * part
    rest = 1.0 - np.vdot(f, f).real
    if rest < 0:
        return None
    f[-1] = np.sqrt(rest)
    labels = tuple(str(k) for k in range(dim))
    e = Projector.on_labels(labels, [labels[k] for k in np.flatnonzero(inside)])
    return Family(State(CVec(d, labels)), e, State(CVec(f, labels)))


def test_consistency_holds_exactly_at_weak_values_0_and_1_at_every_overlap():
    # |<f|d>| log-uniform in [1e-10, 1]: the functional scales with |<f|d>|^2, so an
    # absolute threshold on it called every small-overlap family consistent
    gen = np.random.default_rng(80_001)
    cases = [(0.0, FailureMode.NONE), (1.0, FailureMode.NONE),
             (0.5, FailureMode.UNSHARP), (1e-6, FailureMode.UNSHARP),
             (1 - 1e-6, FailureMode.UNSHARP), (-1.0, FailureMode.STRANGE),
             (2.0, FailureMode.STRANGE), (0.5 + 0.5j, FailureMode.STRANGE),
             (1j, FailureMode.STRANGE)]
    seen = set()
    trials = 0
    while trials < 600:
        dim = int(gen.integers(2, 33))
        overlap = 10.0 ** gen.uniform(-10, 0) * np.exp(2j * np.pi * gen.uniform())
        wv, mode = cases[gen.integers(len(cases))]
        fam = _family_with_weak_value(gen, dim, overlap, wv)
        if fam is None:
            continue
        report = consistency(fam)
        assert report.consistent == (mode is FailureMode.NONE), (dim, overlap, wv)
        assert report.failure_mode is mode, (dim, overlap, wv)
        assert abs(report.factor_wv - wv) <= 1e-9 * max(1.0, abs(wv))
        weight = conditional_weight(fam.e, fam.d, fam.f)
        assert weight == pytest.approx(abs(wv) ** 2, rel=1e-9, abs=1e-12)
        obs = as_observable(fam.e)
        abl = abl_probability(obs, fam.d, fam.f, 1.0)
        assert abl == pytest.approx(abl_from_weak_values(wv), rel=1e-9, abs=1e-12)
        # ABL renormalises the two histories' weights, whose sum misses 1 by the
        # functional: |a|^2 + |s-a|^2 = |s|^2 - 2 Re(a conj(s-a)), with s = <f|d>
        weight_c = conditional_weight(fam.e.complement(), fam.d, fam.f)
        assert abl == pytest.approx(weight / (weight + weight_c), rel=1e-9, abs=1e-12)
        assert weight + weight_c == pytest.approx(
            1.0 - 2.0 * report.functional.real / report.factor_overlap_sq, rel=1e-9, abs=1e-12)
        # the pointer mean reads Re A_w for a wide pointer and the ABL mean for a narrow one
        for delta, mean in ((1e4, pytest.approx(wv.real, abs=1e-6)),
                            (1e-3, pytest.approx(abl, rel=1e-9, abs=1e-12))):
            cfg = PointerConfig(delta)
            amps, _ = postselect(entangle(obs, fam.d, cfg), fam.f, cfg)
            assert Density(amps, delta).mean() == mean, (dim, overlap, wv, delta)
        seen.add((mode, abs(overlap) < 1e-5))
        trials += 1
    # every verdict was met at overlaps both below and above 1e-5
    assert len(seen) == 6


def _spectral_family(gen):
    """A Haar eigenbasis of d = 2..32 split into k = 2..8 blocks of random ranks, with
    distinct eigenvalues, and pre/post states whose overlap modulus is log-uniform in
    [1e-10, 1]."""
    dim = int(gen.integers(2, 33))
    k = int(gen.integers(2, min(dim, 8) + 1))
    u = np.linalg.qr(gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim)))[0]
    cuts = [0, *np.sort(gen.choice(np.arange(1, dim), k - 1, replace=False)).tolist(), dim]
    labels = tuple(str(j) for j in range(dim))
    projectors = [Projector(u[:, a:b], labels) for a, b in zip(cuts, cuts[1:])]
    lams = np.sort(gen.choice(np.arange(-40, 41), k, replace=False)).astype(float).tolist()
    pre = random_state(gen, dim)
    w = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
    w -= np.vdot(pre.vec.amps, w) * pre.vec.amps
    t = 10.0 ** gen.uniform(-10.0, 0.0)
    amps = t * np.exp(2j * np.pi * gen.random()) * pre.vec.amps
    post = State.normalized(amps + np.sqrt(1.0 - t * t) * w / np.linalg.norm(w), labels)
    return Observable.from_projectors(lams, projectors), pre, post


def test_abl_weights_and_weak_values_read_one_amplitude_vector_in_both_time_directions():
    # With a = <f|P_k|d> and s = <f|d> = sum a: ABL(k) = w(k) / sum w for the weights
    # w(k) = |a_k/s|^2, sum w = 1 - 2 sum_{k<l} Re D(k, l) / |s|^2 for the decoherence
    # functional D(k, l) = a_k conj(a_l), and exchanging d and f conjugates every
    # amplitude, so every weak value, but no ABL probability and no weight.
    gen = np.random.default_rng(26_001)
    eps = np.finfo(float).eps
    for trial in range(300):
        obs, pre, post = _spectral_family(gen)
        dim, k, norm = pre.dim, len(obs.eigenvalues), max(map(abs, obs.eigenvalues))
        a = obs.amplitudes(post.vec, pre.vec)
        applied = [np.vdot(post.vec.amps, p.apply(pre.vec).amps) for p in obs.projectors]
        assert np.max(np.abs(a - applied)) <= 16 * dim * eps, trial
        s = inner(post.vec, pre.vec)
        err = 16 * dim * eps / abs(s)  # of a/s: each amplitude moves by about n u
        case = (trial, dim, k, abs(s))
        w = np.array([conditional_weight(p, pre, post) for p in obs.projectors])
        abl = np.array([abl_probability(obs, pre, post, lam) for lam in obs.eigenvalues])
        assert np.max(np.abs(abl - w / w.sum())) <= 1e-12, case
        interference = np.triu(np.outer(a, a.conj()).real, 1).sum()
        assert abs(w.sum() - (1.0 - 2.0 * interference / abs(s) ** 2)) <= 1e-9 * w.sum(), case
        wv = weak_value(obs, pre, post).value
        assert abs(wv - np.dot(obs.eigenvalues, a) / s) <= err * (k * norm + abs(wv)), case
        back = weak_value(obs, post, pre).value
        assert abs(back - wv.conjugate()) <= err * (k * norm + abs(wv)), case
        for p, lam, weight, prob in zip(obs.projectors, obs.eigenvalues, w, abl):
            assert abs(abl_probability(obs, post, pre, lam) - prob) <= 1e-12, case
            assert abs(conditional_weight(p, post, pre) - weight) <= err * (1 + weight), case
            p_wv = weak_value(p, pre, post).value
            assert abs(weak_value(p, post, pre).value - p_wv.conjugate()) <= err * (1 + abs(p_wv))


def test_two_outcome_family_is_consistent_exactly_when_its_weak_value_is_0_or_1():
    # generic Haar families, and families built with weak value exactly 0 or 1; the
    # verdict is the same with the endpoints exchanged
    gen = np.random.default_rng(26_002)
    verdicts = set()
    for trial in range(300):
        if trial % 3:
            overlap = 10.0 ** gen.uniform(-10, 0) * np.exp(2j * np.pi * gen.uniform())
            fam = _family_with_weak_value(gen, int(gen.integers(2, 33)), overlap, trial % 3 - 1.0)
            if fam is None:
                continue
        else:
            obs, pre, post = _spectral_family(gen)
            fam = Family(pre, Projector(np.hstack([p.q for p in obs.projectors[1:]]), pre.labels),
                         post)
        wv = weak_value(fam.e, fam.d, fam.f).value
        consistent = consistency(fam).consistent
        assert consistent == (min(abs(wv), abs(1.0 - wv)) <= 1e-12), (trial, wv)
        assert consistency(Family(fam.f, fam.e, fam.d)).consistent == consistent, trial
        verdicts.add(consistent)
    assert verdicts == {True, False}
