import csv
import math
import os
import threading
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from prepost import (
    BasisMismatch,
    CMat,
    CVec,
    DimensionError,
    PointerConfig,
    PointerRangeError,
    PostSelectionImpossible,
    Projector,
    State,
    abl_probability,
    as_observable,
    builtin,
    entangle,
    gaussian_amplitude,
    pointer_density,
    postselect,
    sample,
    simulate,
    spectral_decompose,
    weak_value,
    weak_value_estimate,
    write_density_csv,
    write_samples_csv,
)
from prepost.scenfile import parse, to_scenario

from prepost import cli
from prepost import pointer as pointer_module
from prepost.pointer import (
    _CHUNK, _FLOAT_COLS, _GUIDE, _WRITE_ROWS, Density, _Buffers, _InverseCdf, _put_index,
    _put_repr, _write_csv,
)

from conftest import diagonal_scenario_text, random_state_pair


def _three_box_amps(cfg):
    sc = builtin("three-box")
    bs = entangle(sc.observables["C"], sc.pre, cfg)
    return postselect(bs, sc.post, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        PointerConfig(delta=0.0)
    for bad in ({"delta": float("nan")}, {"delta": float("inf")},
                {"delta": 1.0, "x0": float("inf")}, {"delta": 1.0, "coupling": 0.0}):
        with pytest.raises(ValueError):
            PointerConfig(**bad)


def test_support_covers_every_branch_window():
    for cfg in (PointerConfig(delta=10.0), PointerConfig(delta=1e-5),
                PointerConfig(delta=0.1, coupling=20.0), PointerConfig(delta=3.0, x0=5.0)):
        amps, _ = _three_box_amps(cfg)
        density = pointer_density(amps, cfg)
        xs = density.xs
        assert len(xs) == 2**14 and len(density.ps) == 2**14
        assert np.all(np.diff(xs) > 0)
        assert density.ps.min() >= 0.0
        for center, _ in amps:
            lo, hi = center - 10 * cfg.delta, center + 10 * cfg.delta
            inside = xs[(xs >= lo) & (xs <= hi)]
            assert xs[0] <= lo and hi <= xs[-1], (cfg, center)
            # at least a thousand nodes span the window, with no gap at its ends
            assert np.diff(np.concatenate(([lo], inside, [hi]))).max() <= 20 * cfg.delta / 1000


def test_gaussian_amplitude_is_normalized_with_sd_delta():
    for delta in (0.3, 1.0, 4.0):
        mass, _ = quad(lambda x: gaussian_amplitude(x, 1.5, delta) ** 2, -np.inf, np.inf)
        assert mass == pytest.approx(1.0, abs=1e-9)
        second, _ = quad(
            lambda x: (x - 1.5) ** 2 * gaussian_amplitude(x, 1.5, delta) ** 2,
            -np.inf,
            np.inf,
        )
        assert second == pytest.approx(delta**2, rel=1e-8)


def _branch_norms(bs, cfg):
    """{center: ||P_k|pre>||^2}, read as <pre|P_k|pre> by post-selecting on pre itself."""
    amps, _ = postselect(bs, bs.pre, cfg)
    return {center: amp.real for center, amp in amps}


def test_entangle_three_box_branches():
    sc = builtin("three-box")
    cfg = PointerConfig(delta=1.0)
    bs = entangle(sc.observables["C"], sc.pre, cfg)
    assert bs.kept.tolist() == [0, 1] and bs.centers.tolist() == [0.0, 1.0]
    assert bs.obs is sc.observables["C"] and bs.pre is sc.pre
    norms = _branch_norms(bs, cfg)
    assert norms[0.0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert norms[1.0] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_entangle_eigenstate_gives_single_branch():
    sc = builtin("three-box")
    cfg = PointerConfig(delta=1.0, coupling=2.0, x0=0.5)
    pre = State(CVec.basis_vector("c", sc.basis_labels))
    bs = entangle(sc.observables["C"], pre, cfg)
    assert bs.kept.tolist() == [1]
    assert bs.centers[0] == pytest.approx(0.5 + 2.0)
    assert list(_branch_norms(bs, cfg).values()) == pytest.approx([1.0])


def test_entangle_branch_norms_are_born_probabilities(rng):
    cfg = PointerConfig(delta=1.0)
    obs = builtin("three-box").observables["A"]
    for _ in range(20):
        pre, _ = random_state_pair(rng, 3)
        pre = State(CVec(pre.vec.amps, obs.labels))
        bs = entangle(obs, pre, cfg)
        for lam, norm in _branch_norms(bs, cfg).items():  # coupling 1, x0 0
            proj = obs.projector_for(lam)
            born = float(np.real(np.vdot(pre.vec.amps, proj.mat.entries @ pre.vec.amps)))
            assert norm == pytest.approx(born, abs=1e-12)


def test_entangle_holds_branches_to_the_state_norm_check():
    # the branches split the state: their total norm is the state's own, which
    # State holds to NORM_TOL, so the branches need no norm check of their own
    sc = builtin("three-box")
    pre = State(CVec(sc.pre.vec.amps * (1 + 8e-11), sc.pre.vec.labels))
    cfg = PointerConfig(delta=1.0)
    bs = entangle(sc.observables["C"], pre, cfg)
    assert sum(_branch_norms(bs, cfg).values()) == pytest.approx((1 + 8e-11) ** 2, abs=1e-13)


def test_entangle_dimension_mismatch():
    sc = builtin("three-box")
    with pytest.raises(DimensionError):
        entangle(sc.observables["A"], State.normalized(np.ones(2)), PointerConfig(delta=1.0))


def test_overflowing_centres_are_one_pointer_range_error():
    # x0 + coupling * lambda overflows in the add (three-box C, eigenvalue 1) or in
    # the multiply (eigenvalue 2); pytest turns a numpy RuntimeWarning into an error
    sc = builtin("three-box")
    doubled = spectral_decompose(CMat(np.diag([0.0, 2.0, 0.0]), sc.basis_labels))
    for obs, cfg in ((sc.observables["C"], PointerConfig(delta=10.0, x0=1.7e308, coupling=1e308)),
                     (doubled, PointerConfig(delta=10.0, coupling=1e308))):
        assert np.isinf(entangle(obs, sc.pre, cfg).centers).any()
        with pytest.raises(PointerRangeError):
            simulate(obs, sc.pre, sc.post, cfg, n=10, seed=0)


def test_postselect_three_box_amplitudes():
    amps, rate = _three_box_amps(PointerConfig(delta=1.0))
    by_center = dict(amps)
    assert by_center[0.0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert by_center[1.0] == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert 0.0 < rate < 1.0


def test_postselect_completeness_over_a_basis():
    # summing |amplitude|^2 over an orthonormal post basis recovers each
    # branch norm
    sc = builtin("three-box")
    cfg = PointerConfig(delta=1.0)
    bs = entangle(sc.observables["C"], sc.pre, cfg)
    posts = [sc.post, sc.states["phi_prime"], sc.states["phi_double_prime"]]
    totals = dict.fromkeys(bs.centers.tolist(), 0.0)
    for post in posts:
        try:
            amps, _ = postselect(bs, post, cfg)
        except PostSelectionImpossible:
            continue  # orthogonal to every branch: contributes nothing
        for center, amp in amps:
            totals[center] += abs(amp) ** 2
    for center, norm in _branch_norms(bs, cfg).items():
        assert totals[center] == pytest.approx(norm, abs=1e-12)


def test_branch_amplitudes_are_the_family_amplitudes(rng):
    # the pointer, ABL and the weak value all read <post|P_k|pre> from one vector
    cfg = PointerConfig(delta=1.0)
    file = to_scenario(parse(diagonal_scenario_text(64, rng)))
    for sc in (builtin("three-box"), builtin("hardy"), file):
        for obs in sc.observables.values():
            bs = entangle(obs, sc.pre, cfg)
            amps, _ = postselect(bs, sc.post, cfg)
            expected = obs.amplitudes(sc.post.vec, sc.pre.vec)[bs.kept]
            assert np.array_equal([a for _, a in amps], expected)


def test_three_box_empty_box_amplitude_is_exactly_zero():
    # <phi|(1 - P_A)|psi> = 1/3 - 1/3: the blocks of V^dagger pre and V^dagger post
    # cancel exactly, where a sum over the n-vector P|pre> left 2.9e-18
    sc, cfg = builtin("three-box"), PointerConfig(delta=1.0)
    for name in ("A", "B"):
        amps, _ = postselect(entangle(sc.observables[name], sc.pre, cfg), sc.post, cfg)
        assert dict(amps)[0.0] == 0.0, name


def test_simulate_builds_one_density(monkeypatch):
    built = []
    real_init = Density.__init__

    def counted_init(self, *args):
        built.append(args)
        real_init(self, *args)

    monkeypatch.setattr(Density, "__init__", counted_init)
    sc = builtin("three-box")
    simulate(sc.observables["C"], sc.pre, sc.post, PointerConfig(delta=1.0), 10, seed=0)
    assert len(built) == 1


def test_postselect_impossible_when_orthogonal_to_all_branches():
    sc = builtin("three-box")
    cfg = PointerConfig(delta=1.0)
    bs = entangle(sc.observables["C"], sc.pre, cfg)
    with pytest.raises(PostSelectionImpossible):
        postselect(bs, sc.states["phi_prime"], cfg)


def test_postselect_rejects_a_post_state_in_another_basis():
    sc = builtin("three-box")
    cfg = PointerConfig(delta=1.0)
    bs = entangle(sc.observables["C"], sc.pre, cfg)
    post = State(CVec(sc.post.vec.amps, ("x", "y", "z")))
    with pytest.raises(BasisMismatch):
        postselect(bs, post, cfg)


def test_single_branch_density_is_gaussian():
    cfg = PointerConfig(delta=0.7)
    density = pointer_density([(0.0, 1.0)], cfg)
    assert density.mean() == pytest.approx(0.0, abs=1e-9)
    assert np.trapezoid(density.ps, density.xs) == pytest.approx(1.0, abs=1e-9)
    second = np.trapezoid(density.xs**2 * density.ps, density.xs)
    assert second == pytest.approx(0.49, abs=1e-6)
    assert density.ps.min() >= 0.0


def test_density_rate_and_mean_match_quadrature_oracle():
    delta = 2.0
    amps = [(0.0, 0.6), (1.0, -0.3 + 0.2j), (2.0, 0.35j)]

    def field(x):
        return sum(a * gaussian_amplitude(x, c, delta) for c, a in amps)

    raw, _ = quad(lambda x: abs(field(x)) ** 2, -np.inf, np.inf)
    first, _ = quad(lambda x: x * abs(field(x)) ** 2, -np.inf, np.inf)
    exact = Density(amps, delta)
    assert exact.rate == pytest.approx(raw, abs=1e-10)
    assert exact.mean() == pytest.approx(first / raw, abs=1e-10)
    cfg = PointerConfig(delta=delta)
    density = pointer_density(amps, cfg)
    assert density.rate == pytest.approx(raw, abs=1e-10)
    assert density.mean() == pytest.approx(first / raw, abs=1e-9)
    mean = first / raw
    second, _ = quad(lambda x: (x - mean) ** 2 * abs(field(x)) ** 2, -np.inf, np.inf)
    assert density.variance() == pytest.approx(second / raw, abs=1e-9)
    below, _ = quad(lambda x: abs(field(x)) ** 2, -np.inf, 1.0)
    assert density.mass_between(-np.inf, 1.0) == pytest.approx(below / raw, abs=1e-9)


def test_rate_limits_recover_projective_and_overlap_statistics():
    amps, _ = _three_box_amps(PointerConfig(delta=1.0))
    # wide pointer: rate -> |<post|pre>|^2
    assert Density(amps, 1e6).rate == pytest.approx(1.0 / 9.0, abs=1e-9)
    # narrow pointer: rate -> sum of branch transition probabilities
    assert Density(amps, 1e-6).rate == pytest.approx(5.0 / 9.0, abs=1e-12)


def test_wide_pointer_mean_approaches_weak_value(rng):
    sc = builtin("three-box")
    cfg = PointerConfig(delta=100.0)
    amps, _ = _three_box_amps(cfg)
    assert Density(amps, 100.0).mean() == pytest.approx(-1.0, abs=1e-3)

    hd = builtin("hardy")
    bs = entangle(hd.observables["N1"], hd.pre, cfg)
    hardy_amps, _ = postselect(bs, hd.post, cfg)
    assert Density(hardy_amps, 100.0).mean() == pytest.approx(-1.0, abs=1e-3)

    for _ in range(20):
        dim = int(rng.integers(2, 5))
        pre, post = random_state_pair(rng, dim, min_overlap=0.2, real=True)
        p = Projector.onto(
            State.normalized(rng.standard_normal(dim), pre.labels).vec
        )
        wv = weak_value(p, pre, post).value
        if abs(wv) > 3.0:
            continue
        obs = as_observable(p)
        bs = entangle(obs, pre, cfg)
        amps, _ = postselect(bs, post, cfg)
        assert Density(amps, 100.0).mean() == pytest.approx(wv.real, abs=1e-3)


def test_sharp_pointer_masses_match_abl():
    cfg = PointerConfig(delta=0.01)
    amps, _ = _three_box_amps(cfg)
    density = pointer_density(amps, cfg)
    assert density.mass_between(0.5, np.inf) == pytest.approx(0.2, abs=1e-6)
    assert density.mass_between(-np.inf, 0.5) == pytest.approx(0.8, abs=1e-6)
    # at delta 1e-3 the branches no longer overlap: the mass within 10 delta of each
    # centre is its outcome's ABL probability, and 0 where entangle dropped the branch
    cfg = PointerConfig(delta=1e-3)
    for sc in (builtin("three-box"), builtin("hardy")):
        for obs in sc.observables.values():
            amps, _ = postselect(entangle(obs, sc.pre, cfg), sc.post, cfg)
            density = pointer_density(amps, cfg)
            for lam in obs.eigenvalues:  # coupling 1, x0 0
                mass = density.mass_between(lam - 10 * cfg.delta, lam + 10 * cfg.delta)
                assert mass == pytest.approx(abl_probability(obs, sc.pre, sc.post, lam), abs=1e-12)


def test_sampling_is_deterministic_and_seed_sensitive():
    cfg = PointerConfig(delta=2.0)
    amps, _ = _three_box_amps(cfg)
    density = pointer_density(amps, cfg)
    a = sample(density, 5000, seed=11)
    b = sample(density, 5000, seed=11)
    c = sample(density, 5000, seed=12)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)
    # seeds agree statistically
    spread = np.sqrt(a.variance / 5000 + c.variance / 5000)
    assert abs(a.mean - c.mean) < 6 * spread


def test_single_sample_stays_on_grid():
    cfg = PointerConfig(delta=1.0)
    density = pointer_density([(0.0, 1.0)], cfg)
    ens = sample(density, 1, seed=0)
    assert density.xs[0] <= ens.samples[0] <= density.xs[-1]
    with pytest.raises(ValueError):
        sample(density, 0, seed=0)


def _cdf(density):
    xs, ps = density.xs, density.ps
    cdf = np.concatenate(([0.0], np.cumsum((ps[1:] + ps[:-1]) / 2.0 * np.diff(xs))))
    return cdf / cdf[-1]


def _one_stream_reference(density, n, seed):
    u = np.random.Generator(np.random.Philox(key=seed)).random(n)
    return np.interp(u, _cdf(density), density.xs)


def _report_cores(monkeypatch, cores):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)


def _three_box_density(delta, coupling=1.0):
    cfg = PointerConfig(delta=delta, coupling=coupling)
    return pointer_density(_three_box_amps(cfg)[0], cfg)


# Deltas 10..0.01 put the mass on more and more nodes per guide cell and
# leave longer flat tails; 1e-5 puts each branch in a narrow window of its
# own, and coupling 20 leaves a wide empty gap between the two windows.
_SAMPLED = [(10.0, 1.0), (1.0, 1.0), (0.1, 1.0), (0.01, 1.0), (1e-5, 1.0), (0.1, 20.0)]


def _assert_moments_match_numpy(ens):
    # chunk-order merge against one pass over the array; the mean is taken
    # relative to the spread as well, since it can sit near zero
    scale = max(abs(np.mean(ens.samples)), np.std(ens.samples))
    assert abs(ens.mean - np.mean(ens.samples)) <= 1e-12 * scale
    assert ens.variance == pytest.approx(np.var(ens.samples), rel=1e-12)


@pytest.mark.parametrize("n", [3 * _CHUNK + 5, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1])
def test_sample_equals_one_philox_stream(monkeypatch, n):
    _report_cores(monkeypatch, 4)
    seed = 2**128 - 7
    for delta, coupling in _SAMPLED:
        density = _three_box_density(delta, coupling)
        ens = sample(density, n, seed)
        reference = _one_stream_reference(density, n, seed)
        assert np.array_equal(ens.samples, reference), (delta, coupling)
        _assert_moments_match_numpy(ens)


@pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1])
@pytest.mark.parametrize("delta", [10.0, 0.01, 1e-5])
def test_guide_table_inverse_equals_interp(monkeypatch, n, delta):
    density = _three_box_density(delta)
    cdf, xs = _cdf(density), density.xs
    inverse = _InverseCdf(cdf, xs)
    # a tail cell holding hundreds of nodes, where the walk gives up and
    # the binary search takes over
    spans = np.diff(inverse.guide)
    wide = int(np.argmax(spans))
    assert spans[wide] >= 200
    first = inverse.guide[wide] + 1
    inner = cdf[first : first + spans[wide] - 1]
    special = np.concatenate((
        [0.0, np.nextafter(1.0, 0.0), wide / _GUIDE],
        cdf[1:-1:97],  # interior nodes
        inner,
        (inner[:-1] + inner[1:]) / 2.0,
    ))
    special = special[(special >= 0.0) & (special < 1.0)]
    u = np.random.Generator(np.random.Philox(key=23)).random(n)
    u[: special.size] = special[:n]
    expected = np.interp(u, cdf, xs)
    searched = []
    real_search = np.searchsorted

    def traced_search(a, v, *args):
        searched.append(np.size(v))
        return real_search(a, v, *args)

    monkeypatch.setattr(np, "searchsorted", traced_search)
    out = np.empty(n)
    inverse(u, out, _Buffers(len(u)))
    assert np.array_equal(out, expected)
    assert searched[-1] > 0  # the walk handed draws to the binary search


def _guide_cdfs():
    """CDFs of the sampled three-box and hardy densities, one whose nodes lie on
    every cell edge, flat runs around a subnormal value, and random ones."""
    cdfs = [_cdf(_three_box_density(delta, coupling)) for delta, coupling in _SAMPLED]
    sc = builtin("hardy")
    for name in ("N1", "N3", "N4"):
        for delta in (10.0, 0.1):
            cfg = PointerConfig(delta=delta)
            amps = postselect(entangle(sc.observables[name], sc.pre, cfg), sc.post, cfg)[0]
            cdfs.append(_cdf(pointer_density(amps, cfg)))
    edges = np.arange(_GUIDE + 1) / _GUIDE
    cdfs += [edges, np.sort(np.concatenate((edges, edges[::7])))]
    tiny = 5e-324
    cdfs.append(np.array([0.0, 0.0, tiny, tiny, tiny, 1 / _GUIDE, 1 / _GUIDE, 0.5, 1.0, 1.0]))
    gen = np.random.default_rng(61)
    for size in gen.integers(2, 5000, size=20):
        steps = gen.random(size - 1) * (gen.random(size - 1) < 0.8)  # some flat runs
        cdf = np.concatenate(([0.0], np.cumsum(steps)))
        cdfs.append(cdf / cdf[-1])
    return cdfs


def test_guide_table_equals_a_binary_search_per_cell():
    # the table counts ceil(cdf * _GUIDE); the reference searches every cell edge
    for cdf in _guide_cdfs():
        reference = np.searchsorted(cdf, np.arange(_GUIDE + 1) / _GUIDE, "right") - 1
        guide = _InverseCdf(cdf, np.arange(cdf.size, dtype=float)).guide
        assert guide.dtype == reference.dtype
        assert np.array_equal(guide, reference)


def _record_workers(monkeypatch, tmp_path, fail_in=None):
    """Patch `_fill_chunk` to append the pid of each process that runs it to a
    file, and to raise in the caller or in a worker when fail_in says so.
    Returns a function that gives the pids recorded since its last call."""
    log, caller, real_fill = tmp_path / "pids", os.getpid(), pointer_module._fill_chunk

    def traced_fill(*args):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        if fail_in is not None and (os.getpid() == caller) == (fail_in == "caller"):
            raise RuntimeError("injected chunk failure")
        return real_fill(*args)

    monkeypatch.setattr(pointer_module, "_fill_chunk", traced_fill)

    def recorded():
        pids = set(map(int, log.read_text().split())) if log.exists() else set()
        log.unlink(missing_ok=True)
        return pids

    return recorded


def _assert_no_child_left():
    # scencli ends its process with os._exit once a command returns, which
    # would leave a worker that is still running behind
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sample_does_not_depend_on_core_count(monkeypatch, tmp_path):
    cfg = PointerConfig(delta=10.0)
    density = pointer_density(_three_box_amps(cfg)[0], cfg)
    n = 3 * _CHUNK + 5  # four chunks
    recorded = _record_workers(monkeypatch, tmp_path)
    runs = {}
    for cores in (1, 4):
        _report_cores(monkeypatch, cores)
        runs[cores] = sample(density, n, seed=5)
        pids = recorded()
        assert len(pids) == cores and os.getpid() in pids
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    runs[3] = sample(density, n, seed=5)
    assert len(recorded()) == 3
    _report_cores(monkeypatch, 64)
    sample(density, 5, seed=5)
    assert recorded() == {os.getpid()}  # never more workers than chunks
    for ens in (runs[4], runs[3]):
        assert np.array_equal(ens.samples, runs[1].samples)
        assert ens.mean == runs[1].mean
        assert ens.variance == runs[1].variance
    _assert_no_child_left()


@pytest.mark.parametrize("n", [1, _CHUNK + 1, 3 * _CHUNK + 5])
def test_draws_and_moments_do_not_depend_on_core_count(monkeypatch, tmp_path, n):
    # the draws are made again from the stream each time `samples` is read and
    # in each CSV batch; both must give the one-pass draws, and the moments the
    # same bits, at any core count.  repr reads back as the same double, so
    # equal CSV bytes mean equal draws.
    seed, path, expected = 17, tmp_path / "samples.csv", tmp_path / "expected.csv"
    for delta, coupling in _SAMPLED:
        density = _three_box_density(delta, coupling)
        reference = _one_stream_reference(density, n, seed)
        _write_samples(expected, reference)
        runs = {}
        for cores in (1, 4):
            _report_cores(monkeypatch, cores)
            ens = runs[cores] = sample(density, n, seed)
            assert (ens.n, ens.seed) == (n, seed)
            assert np.array_equal(ens.samples, reference), (delta, coupling, cores)
            write_samples_csv(ens, str(path))
            assert path.read_bytes() == expected.read_bytes(), (delta, coupling, cores)
        assert (runs[4].mean, runs[4].variance) == (runs[1].mean, runs[1].variance)


def test_sample_without_keep_samples_holds_no_sample_array(monkeypatch):
    # one worker holds its block buffers (about 1 MB) whatever n is; an
    # n-long sample array would add n * 8 bytes
    _report_cores(monkeypatch, 1)
    density = _three_box_density(10.0)
    sample(density, 1, seed=0)  # numpy.random imports lazily
    n = 4 * _CHUNK
    tracemalloc.start()
    try:
        sample(density, n, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * 8 / 4


def test_samples_out_holds_no_sample_array(monkeypatch, capsys):
    # the whole command, CSV included: each batch of draws is made again where
    # it is formatted, so the peak does not grow with n
    _report_cores(monkeypatch, 1)
    argv = ["simulate", "builtin:three-box", "--obs", "C", "--seed", "5",
            "--samples-out", os.devnull]
    assert cli.main(argv + ["--n", "1"]) == 0  # loads what the command imports lazily
    n = 16 * _CHUNK
    tracemalloc.start()
    try:
        assert cli.main(argv + ["--n", str(n)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err == ""
    assert peak < n * 8 / 4


def test_sample_joins_its_workers(monkeypatch, tmp_path):
    _report_cores(monkeypatch, 4)
    recorded = _record_workers(monkeypatch, tmp_path)
    sample(_three_box_density(1.0), 4 * _CHUNK, seed=3)
    assert len(recorded()) == 4
    _assert_no_child_left()


@pytest.mark.parametrize("where", ["caller", "worker"])
def test_sample_raises_a_chunk_failure(monkeypatch, tmp_path, where):
    _report_cores(monkeypatch, 4)
    cfg = PointerConfig(delta=1.0)
    density = pointer_density(_three_box_amps(cfg)[0], cfg)
    _record_workers(monkeypatch, tmp_path, fail_in=where)
    with pytest.raises(RuntimeError, match="^injected chunk failure$"):
        sample(density, 4 * _CHUNK, seed=3)
    _assert_no_child_left()


class _Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("this exception does not pickle")


def test_an_unpicklable_worker_exception_arrives_as_its_type_and_message(monkeypatch):
    # two workers: the child sends chunk 1 whole, then fails on chunk 3; the
    # caller reads chunk 1 and then the stand-in, with nothing in between
    _report_cores(monkeypatch, 2)
    caller, real_fill = os.getpid(), pointer_module._fill_chunk

    def failing_fill(lo, *args):
        if os.getpid() != caller and lo == 3 * _CHUNK:
            raise _Unpicklable("injected chunk failure")
        return real_fill(lo, *args)

    monkeypatch.setattr(pointer_module, "_fill_chunk", failing_fill)
    with pytest.raises(RuntimeError, match="^_Unpicklable: injected chunk failure$") as raised:
        sample(_three_box_density(1.0), 4 * _CHUNK, seed=3)
    assert type(raised.value) is RuntimeError
    _assert_no_child_left()


def test_a_worker_that_ends_without_sending_is_a_child_process_error(monkeypatch, tmp_path):
    _report_cores(monkeypatch, 3)
    caller, real_fill = os.getpid(), pointer_module._fill_chunk

    def exit_in_child(*args):
        if os.getpid() != caller:
            os._exit(0)
        return real_fill(*args)

    monkeypatch.setattr(pointer_module, "_fill_chunk", exit_in_child)
    with pytest.raises(ChildProcessError, match="^a worker process ended before sending its items$"):
        sample(_three_box_density(1.0), 3 * _CHUNK, seed=3)
    _assert_no_child_left()

    def values(lo, hi):
        if os.getpid() != caller:
            os._exit(0)
        return np.full(hi - lo, 0.5)

    with pytest.raises(ChildProcessError, match="^a worker process ended before sending its items$"):
        _write_csv(str(tmp_path / "x.csv"), "index,x", 3 * _WRITE_ROWS, 16, _put_index, values)
    _assert_no_child_left()


def _count_forks(monkeypatch) -> list:
    forks, real_fork = [], os.fork

    def counted_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def _write_samples(path, values):
    """`write_samples_csv`'s rows for crafted draws: an index column (four
    groups of four digits hold any index), then each value's repr."""
    _write_csv(str(path), "index,x", len(values), 16, _put_index, lambda lo, hi: values[lo:hi])


def _csv_case(rows):
    """A table and draws whose CSV batches mix formatted and fallback values."""
    mixed = [-0.0, 1 / 3, -2.5e-17, 4.0, 1e22, -7.25, 5e-324, 9.99e-5, 2.0**53, 123.456]
    density = SimpleNamespace(xs=np.resize(mixed[::-1], rows), ps=np.resize(mixed, rows))
    return density, np.resize(mixed[3:] + mixed[:3], rows)


def _csv_bytes(case, tmp_path) -> tuple:
    density, draws = case
    write_density_csv(density, str(tmp_path / "density.csv"))
    _write_samples(tmp_path / "samples.csv", draws)
    return (tmp_path / "density.csv").read_bytes(), (tmp_path / "samples.csv").read_bytes()


@pytest.mark.parametrize("rows", [1, _WRITE_ROWS, 2 * _WRITE_ROWS + 3])
def test_csv_bytes_do_not_depend_on_core_count(monkeypatch, tmp_path, rows):
    case = _csv_case(rows)
    forks = _count_forks(monkeypatch)
    _report_cores(monkeypatch, 1)
    expected = _csv_bytes(case, tmp_path)
    batches = -(-rows // _WRITE_ROWS)
    for cores in (2, 3, 4):
        _report_cores(monkeypatch, cores)
        forks.clear()
        assert _csv_bytes(case, tmp_path) == expected, cores
        # one worker process per core but the caller's, and one per batch at most
        assert len(forks) == 2 * (min(cores, batches) - 1)
        _assert_no_child_left()
    assert expected[1].count(b"\r\n") == rows + 1


def test_no_worker_is_forked_beside_another_thread_or_without_fork(monkeypatch, tmp_path):
    _report_cores(monkeypatch, 4)
    density, case = _three_box_density(1.0), _csv_case(2 * _WRITE_ROWS + 3)

    def outputs():
        drawn = sample(density, 3 * _CHUNK + 5, seed=7)
        return drawn.samples.tobytes(), drawn.mean, drawn.variance, _csv_bytes(case, tmp_path)

    forks = _count_forks(monkeypatch)
    expected = outputs()
    assert len(forks) == 3 + 2 * 2
    forks.clear()
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert outputs() == expected
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert forks == []
    monkeypatch.delattr(os, "fork")
    assert outputs() == expected
    _assert_no_child_left()


def test_sample_mean_tracks_exact_mean():
    cfg = PointerConfig(delta=10.0)
    amps, _ = _three_box_amps(cfg)
    density = pointer_density(amps, cfg)
    target = Density(amps, 10.0).mean()
    n = 200000
    ens = sample(density, n, seed=123)
    sd = np.sqrt(np.trapezoid((density.xs - target) ** 2 * density.ps, density.xs))
    assert abs(ens.mean - target) <= 5 * sd / np.sqrt(n)
    assert ens.variance == pytest.approx(np.var(ens.samples))


@pytest.mark.parametrize("delta, coupling", [(1e-5, 1.0), (0.1, 20.0)])
def test_sharp_and_far_branch_means_match_the_closed_form(delta, coupling):
    # the ABL mean, with the eigenvalue-1 branch at x = coupling
    density = _three_box_density(delta, coupling)
    assert density.mean() == pytest.approx(0.2 * coupling, abs=1e-12)
    n = 10**6
    ens = sample(density, n, seed=8)
    assert abs(ens.mean - 0.2 * coupling) <= 6 * np.sqrt(density.variance() / n)


@pytest.mark.parametrize("delta", [10.0, 0.01])
def test_sample_variance_matches_the_closed_form(delta):
    density = _three_box_density(delta)
    n = 10**6
    ens = sample(density, n, seed=31)
    spread = np.std((ens.samples - ens.mean) ** 2) / np.sqrt(n)
    assert abs(ens.variance - density.variance()) <= 6 * spread


def test_estimate_inverts_ready_position_and_coupling():
    sc = builtin("three-box")
    cfg = PointerConfig(delta=5.0, x0=2.0, coupling=0.5)
    ens = simulate(sc.observables["C"], sc.pre, sc.post, cfg, n=200000, seed=9)
    estimate = weak_value_estimate(ens, cfg)
    assert estimate == pytest.approx(-1.0, abs=0.25)


def test_sharp_eigenstate_estimate_recovers_eigenvalue():
    sc = builtin("three-box")
    cfg = PointerConfig(delta=0.05)
    pre = State(CVec.basis_vector("c", sc.basis_labels))
    ens = simulate(sc.observables["C"], pre, pre, cfg, n=20000, seed=4)
    assert weak_value_estimate(ens, cfg) == pytest.approx(1.0, abs=0.01)
    assert ens.postselect_rate == pytest.approx(1.0, abs=1e-9)


def test_hardy_pipeline_weak_estimate():
    hd = builtin("hardy")
    cfg = PointerConfig(delta=10.0)
    ens = simulate(hd.observables["N1"], hd.pre, hd.post, cfg, n=100000, seed=21)
    assert weak_value_estimate(ens, cfg) == pytest.approx(-1.0, abs=0.25)


def test_csv_exports_are_deterministic(tmp_path):
    cfg = PointerConfig(delta=1.0)
    amps, _ = _three_box_amps(cfg)
    density = pointer_density(amps, cfg)
    ens = sample(density, 50, seed=2)
    dpath = tmp_path / "density.csv"
    spath = tmp_path / "samples.csv"
    write_density_csv(density, str(dpath))
    write_samples_csv(ens, str(spath))
    dlines = dpath.read_text().splitlines()
    slines = spath.read_text().splitlines()
    assert dlines[0] == "x,p_x"
    assert slines[0] == "index,x"
    assert len(dlines) == 2**14 + 1
    assert len(slines) == 51
    first = dpath.read_bytes()
    write_density_csv(density, str(dpath))
    assert dpath.read_bytes() == first


def test_csv_bytes_match_csv_writer(tmp_path):
    # each batch mixes formatted and fallback rows (zeros, subnormal, below
    # 1e-4, at and above 2^53), and the index runs on across batch edges
    mixed = [-0.0, 1 / 3, -2.5e-17, 4.0, 1e22, -7.25, 0.0, 5e-324, 9.99e-5, 1e-4,
             2.0**53, -(2.0**53 - 1), 1e16, 123.456]
    rows = 2 * _WRITE_ROWS + 3
    xs = np.resize(mixed[::-1] + [-1.5, 0.1, 1e-300], rows)
    density = SimpleNamespace(xs=xs, ps=np.resize(mixed, rows))  # the writer reads only the table
    draws = np.resize(mixed, rows)

    def reference(path, header, rows):
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)
        return path.read_bytes()

    dref = reference(tmp_path / "dref.csv", ["x", "p_x"],
                     ([repr(float(x)), repr(float(p))] for x, p in zip(density.xs, density.ps)))
    sref = reference(tmp_path / "sref.csv", ["index", "x"],
                     ([i, repr(float(x))] for i, x in enumerate(draws)))
    write_density_csv(density, str(tmp_path / "density.csv"))
    _write_samples(tmp_path / "samples.csv", draws)
    assert (tmp_path / "density.csv").read_bytes() == dref
    assert (tmp_path / "samples.csv").read_bytes() == sref
    assert b"-0.0" in dref and b"-0.0" in sref


@pytest.mark.parametrize("n", [1, 9, 10, 10001])
def test_samples_csv_index_column(tmp_path, n):
    path = tmp_path / "samples.csv"
    _write_samples(path, np.ones(n))
    assert path.read_bytes() == b"index,x\r\n" + b"".join(b"%d,1.0\r\n" % i for i in range(n))


def _repr_text(values):
    """The formatter's text of each value, one per line."""
    rows = np.zeros((len(values), _FLOAT_COLS + 1), np.uint8)
    rows[:, -1] = ord("\n")
    _put_repr(values, rows[:, :-1])
    return rows[rows != 0].tobytes().decode().splitlines()


def _fast(values):
    mag = np.abs(values)
    return (mag >= 1e-4) & (mag < 2.0**53)


@pytest.fixture(scope="module")
def formatter_cases():
    """About 1.1e6 seeded doubles, by the case they probe."""
    rng = np.random.default_rng(20181)
    n = 400_000
    # bit patterns over the fast path's exponent fields 1009..1075 ([2^-14, 2^53)), both signs
    fields = rng.integers(1009, 1076, n, dtype=np.uint64) << np.uint64(52)
    signs = rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
    bits = fields | rng.integers(0, 2**52, n, dtype=np.uint64) | signs
    powers = np.array([2.0**j for j in range(-20, 60)] + [float(f"1e{j}") for j in range(-6, 20)])
    near = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    # m = 2^52: the gap below is half the gap above
    edges = (np.arange(1009, 1076, dtype=np.uint64) << np.uint64(52)).view(np.float64)
    scaled = rng.normal(size=170_000) * 10.0 ** rng.integers(-5, 17, 170_000)
    digits = np.array([float(f"{v:.{k}e}") for k, v in zip(np.arange(170_000) % 17, scaled)])
    return {
        "bit patterns": bits.view(np.float64),
        "normal": rng.normal(-1.0, 10.0, 300_000),
        "uniform": np.concatenate([rng.uniform(-1e3, 1e3, 150_000), rng.uniform(0.0, 1.0, 100_000)]),
        "powers of 2 and 10 and their neighbours": np.concatenate([near, -near]),
        "1 to 17 significant digits": digits,
        "m = 2^52 and its neighbours": np.concatenate(
            [edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)]),
        # 2^50 + 1/4 lies halfway between ...624.2 and ...624.3: ties go to the even digit
        "halfway between two 17-digit decimals": 2.0**50 + np.array([0.25, 0.75, 1.25, 1.75]),
        "the fast path's edges and beyond": np.array([
            0.0, -0.0, 5e-324, -2.2250738585072014e-308, 9.99e-5, -9.999999999999999e-05, 1e-4,
            2.0**53 - 1, 2.0**53, -(2.0**53), 1e16, 1e22, 1.7976931348623157e308, np.inf, -np.inf, np.nan,
        ]),
    }


@pytest.mark.parametrize("case", [
    "bit patterns", "normal", "uniform", "powers of 2 and 10 and their neighbours",
    "1 to 17 significant digits", "m = 2^52 and its neighbours",
    "halfway between two 17-digit decimals", "the fast path's edges and beyond",
])
def test_formatter_matches_repr(monkeypatch, formatter_cases, case):
    values = formatter_cases[case]
    fallback = []
    monkeypatch.setattr(pointer_module, "repr", lambda v: fallback.append(v) or repr(v), raising=False)
    got = _repr_text(values)
    want = [repr(v) for v in values.tolist()]
    wrong = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not wrong, wrong[:5]
    assert len(fallback) == np.count_nonzero(~_fast(values))  # the rest took the fast path


def _decade(x):
    """j with 10^j <= x < 10^(j+1), exactly."""
    j = len(str(int(x))) - 1 if x >= 1 else -1
    while Fraction(10) ** j > Fraction(x):
        j -= 1
    return j


def test_interval_is_exact():
    # _interval against rational arithmetic: the reals that read back as x lie
    # halfway to its neighbours, the ends included for an even significand
    rng = np.random.default_rng(7)
    powers = [2.0**e for e in range(-13, 53)]  # the gap below is half the gap above
    odd = 2.0**52 + 2.0 * rng.integers(0, 2**51, 300) + 1.0  # ends on integers, open
    patterns = (rng.integers(1010, 1076, 2000, dtype=np.uint64) << np.uint64(52)) | rng.integers(
        0, 2**52, 2000, dtype=np.uint64)
    mag = np.concatenate([powers, odd, odd - 1.0, patterns.view(np.float64)])
    k = np.array([16 - _decade(x) for x in mag.tolist()])
    v_int, v_rem, s, top, below = pointer_module._interval(mag, k)
    for i, x in enumerate(mag.tolist()):
        scale = Fraction(10) ** int(k[i])
        value = Fraction(x) * scale
        lo = (Fraction(x) + Fraction(math.nextafter(x, 0.0))) / 2 * scale
        hi = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2 * scale
        open_ends = (Fraction(x) / Fraction(math.ulp(x))).numerator % 2 == 1
        want = (math.floor(hi) - (hi.denominator == 1 and open_ends),
                math.ceil(lo) - 1 + (lo.denominator == 1 and open_ends))
        assert 10**16 <= value < 10**17
        assert (int(top[i]), int(below[i])) == want, x
        assert int(v_int[i]) + Fraction(int(v_rem[i]), 2 ** int(s[i])) == value, x
