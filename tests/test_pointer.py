import csv
import math
import os
import sys
import threading
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from prepost import (
    BasisMismatch,
    CVec,
    DimensionError,
    PointerConfig,
    PostSelectionImpossible,
    PointerEnsemble,
    Projector,
    State,
    as_observable,
    entangle,
    gaussian_amplitude,
    pointer_density,
    postselect,
    sample,
    simulate,
    three_box,
    hardy,
    weak_value,
    weak_value_estimate,
    write_density_csv,
    write_samples_csv,
)

from prepost import pointer as pointer_module
from prepost.pointer import (
    _CHUNK, _FLOAT_COLS, _GUIDE, _WRITE_ROWS, Density, _Buffers, _InverseCdf, _put_repr,
)

from conftest import random_state_pair


def _three_box_amps(cfg):
    sc = three_box()
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


def test_entangle_three_box_branches():
    sc = three_box()
    cfg = PointerConfig(delta=1.0)
    bs = entangle(sc.observables["C"], sc.pre, cfg)
    assert bs.labels == sc.basis_labels and bs.components.shape == (2, 3)
    by_center = dict(zip(bs.centers.tolist(), bs.components))
    assert set(by_center) == {0.0, 1.0}
    s = 1.0 / np.sqrt(3.0)
    assert np.allclose(by_center[0.0], [s, s, 0.0])
    assert np.allclose(by_center[1.0], [0.0, 0.0, s])


def test_entangle_eigenstate_gives_single_branch():
    sc = three_box()
    cfg = PointerConfig(delta=1.0, coupling=2.0, x0=0.5)
    pre = State(CVec.basis_vector("c", sc.basis_labels))
    bs = entangle(sc.observables["C"], pre, cfg)
    assert bs.components.shape == (1, 3)
    assert bs.centers[0] == pytest.approx(0.5 + 2.0)
    assert np.linalg.norm(bs.components[0]) == pytest.approx(1.0)


def test_entangle_branch_norms_are_born_probabilities(rng):
    cfg = PointerConfig(delta=1.0)
    for _ in range(20):
        pre, _ = random_state_pair(rng, 3)
        obs = three_box().observables["A"]
        pre = State(CVec(pre.vec.amps, obs.labels))
        bs = entangle(obs, pre, cfg)
        for lam, component in zip(bs.centers, bs.components):  # coupling 1, x0 0
            proj = obs.projector_for(lam)
            born = float(np.real(np.vdot(pre.vec.amps, proj.mat.entries @ pre.vec.amps)))
            assert np.linalg.norm(component) ** 2 == pytest.approx(born, abs=1e-12)


def test_entangle_holds_branches_to_the_state_norm_check():
    # the branches split the state: their total norm is the state's own, which
    # State holds to NORM_TOL, so the branches need no norm check of their own
    sc = three_box()
    pre = State(CVec(sc.pre.vec.amps * (1 + 8e-11), sc.pre.vec.labels))
    bs = entangle(sc.observables["C"], pre, PointerConfig(delta=1.0))
    assert np.linalg.norm(bs.components) == pytest.approx(1 + 8e-11, abs=1e-13)


def test_entangle_dimension_mismatch():
    sc = three_box()
    with pytest.raises(DimensionError):
        entangle(sc.observables["A"], State.normalized(np.ones(2)), PointerConfig(delta=1.0))


def test_postselect_three_box_amplitudes():
    amps, rate = _three_box_amps(PointerConfig(delta=1.0))
    by_center = dict(amps)
    assert by_center[0.0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert by_center[1.0] == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert 0.0 < rate < 1.0


def test_postselect_completeness_over_a_basis():
    # summing |amplitude|^2 over an orthonormal post basis recovers each
    # branch norm
    sc = three_box()
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
    for center, component in zip(bs.centers.tolist(), bs.components):
        assert totals[center] == pytest.approx(np.linalg.norm(component) ** 2, abs=1e-12)


def test_simulate_builds_one_density(monkeypatch):
    built = []
    real_init = Density.__init__

    def counted_init(self, *args):
        built.append(args)
        real_init(self, *args)

    monkeypatch.setattr(Density, "__init__", counted_init)
    sc = three_box()
    simulate(sc.observables["C"], sc.pre, sc.post, PointerConfig(delta=1.0), 10, seed=0)
    assert len(built) == 1


def test_postselect_impossible_when_orthogonal_to_all_branches():
    sc = three_box()
    cfg = PointerConfig(delta=1.0)
    bs = entangle(sc.observables["C"], sc.pre, cfg)
    with pytest.raises(PostSelectionImpossible):
        postselect(bs, sc.states["phi_prime"], cfg)


def test_postselect_rejects_a_post_state_in_another_basis():
    sc = three_box()
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
    sc = three_box()
    cfg = PointerConfig(delta=100.0)
    amps, _ = _three_box_amps(cfg)
    assert Density(amps, 100.0).mean() == pytest.approx(-1.0, abs=1e-3)

    hd = hardy()
    bs = entangle(hd.observables["N1"], hd.pre, cfg)
    hardy_amps, _ = postselect(bs, hd.post, cfg)
    assert Density(hardy_amps, 100.0).mean() == pytest.approx(-1.0, abs=1e-3)

    for _ in range(20):
        dim = int(rng.integers(2, 5))
        pre, post = random_state_pair(rng, dim, min_overlap=0.2, real=True)
        p = Projector.onto(
            State.normalized(rng.standard_normal(dim), pre.labels)
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


def test_sample_does_not_depend_on_core_count(monkeypatch):
    cfg = PointerConfig(delta=10.0)
    density = pointer_density(_three_box_amps(cfg)[0], cfg)
    n = 3 * _CHUNK + 5  # four chunks
    real_fill = pointer_module._fill_chunk
    names = set()

    def traced_fill(*args):
        names.add(threading.current_thread().name)
        return real_fill(*args)

    monkeypatch.setattr(pointer_module, "_fill_chunk", traced_fill)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = {}
        for cores in (1, 4):
            _report_cores(monkeypatch, cores)
            names.clear()
            runs[cores] = sample(density, n, seed=5)
            assert len(names) == cores
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        names.clear()
        runs[3] = sample(density, n, seed=5)
        assert len(names) == 3
        _report_cores(monkeypatch, 64)
        names.clear()
        sample(density, 5, seed=5)
        assert len(names) == 1  # never more workers than chunks
    finally:
        sys.setswitchinterval(interval)
    for ens in (runs[4], runs[3]):
        assert np.array_equal(ens.samples, runs[1].samples)
        assert ens.mean == runs[1].mean
        assert ens.variance == runs[1].variance


@pytest.mark.parametrize("cores", [1, 4])
@pytest.mark.parametrize("n", [1, _CHUNK + 1, 3 * _CHUNK + 5])
def test_moments_do_not_depend_on_keep_samples(monkeypatch, n, cores):
    _report_cores(monkeypatch, cores)
    for delta, coupling in _SAMPLED:
        density = _three_box_density(delta, coupling)
        kept = sample(density, n, seed=17)
        dropped = sample(density, n, seed=17, keep_samples=False)
        assert dropped.samples is None
        assert (dropped.mean, dropped.variance) == (kept.mean, kept.variance), (delta, coupling)


def test_sample_without_keep_samples_holds_no_sample_array(monkeypatch):
    # one worker holds its block buffers (about 1 MB) whatever n is; kept
    # samples would add n * 8 bytes
    _report_cores(monkeypatch, 1)
    density = _three_box_density(10.0)
    sample(density, 1, seed=0, keep_samples=False)  # numpy.random imports lazily
    n = 4 * _CHUNK
    tracemalloc.start()
    try:
        sample(density, n, seed=0, keep_samples=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * 8 / 4


def test_samples_csv_needs_kept_samples(tmp_path):
    ens = sample(_three_box_density(1.0), 10, seed=0, keep_samples=False)
    path = tmp_path / "samples.csv"
    with pytest.raises(ValueError, match="ensemble was sampled without keep_samples"):
        write_samples_csv(ens, str(path))
    assert not path.exists()


def test_sample_joins_its_workers(monkeypatch):
    # scencli ends its process with os._exit once a command returns, which
    # would cut a worker that is still alive short
    _report_cores(monkeypatch, 4)
    real_fill, names = pointer_module._fill_chunk, set()

    def traced_fill(*args):
        names.add(threading.current_thread().name)
        return real_fill(*args)

    monkeypatch.setattr(pointer_module, "_fill_chunk", traced_fill)
    threads_before = threading.active_count()
    sample(_three_box_density(1.0), 4 * _CHUNK, seed=3, keep_samples=False)
    assert len(names) == 4
    assert threading.active_count() == threads_before


@pytest.mark.parametrize("where", ["caller", "worker"])
def test_sample_raises_a_chunk_failure(monkeypatch, where):
    _report_cores(monkeypatch, 4)
    cfg = PointerConfig(delta=1.0)
    density = pointer_density(_three_box_amps(cfg)[0], cfg)
    real_fill = pointer_module._fill_chunk

    def failing_fill(*args):
        in_caller = threading.current_thread() is threading.main_thread()
        if in_caller == (where == "caller"):
            raise RuntimeError("injected chunk failure")
        return real_fill(*args)

    monkeypatch.setattr(pointer_module, "_fill_chunk", failing_fill)
    threads_before = threading.active_count()
    with pytest.raises(RuntimeError, match="injected chunk failure"):
        sample(density, 4 * _CHUNK, seed=3)
    assert threading.active_count() == threads_before


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
    ens = sample(density, n, seed=8, keep_samples=False)
    assert abs(ens.mean - 0.2 * coupling) <= 6 * np.sqrt(density.variance() / n)


@pytest.mark.parametrize("delta", [10.0, 0.01])
def test_sample_variance_matches_the_closed_form(delta):
    density = _three_box_density(delta)
    n = 10**6
    ens = sample(density, n, seed=31)
    spread = np.std((ens.samples - ens.mean) ** 2) / np.sqrt(n)
    assert abs(ens.variance - density.variance()) <= 6 * spread


def test_estimate_inverts_ready_position_and_coupling():
    sc = three_box()
    cfg = PointerConfig(delta=5.0, x0=2.0, coupling=0.5)
    ens = simulate(sc.observables["C"], sc.pre, sc.post, cfg, n=200000, seed=9)
    estimate = weak_value_estimate(ens, cfg)
    assert estimate == pytest.approx(-1.0, abs=0.25)


def test_sharp_eigenstate_estimate_recovers_eigenvalue():
    sc = three_box()
    cfg = PointerConfig(delta=0.05)
    pre = State(CVec.basis_vector("c", sc.basis_labels))
    ens = simulate(sc.observables["C"], pre, pre, cfg, n=20000, seed=4)
    assert weak_value_estimate(ens, cfg) == pytest.approx(1.0, abs=0.01)
    assert ens.postselect_rate == pytest.approx(1.0, abs=1e-9)


def test_hardy_pipeline_weak_estimate():
    hd = hardy()
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
    ens = PointerEnsemble(np.resize(mixed, rows), 0.0, 0.0, density, 1.0)

    def reference(path, header, rows):
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)
        return path.read_bytes()

    dref = reference(tmp_path / "dref.csv", ["x", "p_x"],
                     ([repr(float(x)), repr(float(p))] for x, p in zip(density.xs, density.ps)))
    sref = reference(tmp_path / "sref.csv", ["index", "x"],
                     ([i, repr(float(x))] for i, x in enumerate(ens.samples)))
    write_density_csv(density, str(tmp_path / "density.csv"))
    write_samples_csv(ens, str(tmp_path / "samples.csv"))
    assert (tmp_path / "density.csv").read_bytes() == dref
    assert (tmp_path / "samples.csv").read_bytes() == sref
    assert b"-0.0" in dref and b"-0.0" in sref


@pytest.mark.parametrize("n", [1, 9, 10, 10001])
def test_samples_csv_index_column(tmp_path, n):
    ens = PointerEnsemble(np.ones(n), 1.0, 0.0, None, 1.0)
    path = tmp_path / "samples.csv"
    write_samples_csv(ens, str(path))
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
