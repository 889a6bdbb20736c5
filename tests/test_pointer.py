import csv
import os
import sys
import threading

import numpy as np
import pytest
from scipy.integrate import quad

from prepost import (
    CVec,
    DimensionError,
    PointerConfig,
    PostSelectionImpossible,
    PointerEnsemble,
    Projector,
    State,
    as_observable,
    entangle,
    exact_mean,
    exact_rate,
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
from prepost.pointer import Density, _BLOCK, _CHUNK, _GUIDE, _InverseCdf

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
    with pytest.raises(ValueError):
        PointerConfig(delta=1.0, grid=(0.0, 1.0, 1))
    with pytest.raises(ValueError):
        PointerConfig(delta=1.0, grid=(2.0, 1.0, 64))


def test_default_grid_covers_shifted_branches():
    cfg = PointerConfig(delta=3.0, x0=5.0)
    x_min, x_max, n = cfg.grid
    assert x_min == pytest.approx(5.0 - 26.0)
    assert x_max == pytest.approx(5.0 + 26.0)
    assert n == 2**14


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
    by_center = {b.pointer_center: b.system_component for b in bs.branches}
    assert set(by_center) == {0.0, 1.0}
    s = 1.0 / np.sqrt(3.0)
    assert np.allclose(by_center[0.0].amps, [s, s, 0.0])
    assert np.allclose(by_center[1.0].amps, [0.0, 0.0, s])


def test_entangle_eigenstate_gives_single_branch():
    sc = three_box()
    cfg = PointerConfig(delta=1.0, coupling=2.0, x0=0.5)
    pre = State(CVec.basis_vector("c", sc.basis_labels))
    bs = entangle(sc.observables["C"], pre, cfg)
    assert len(bs.branches) == 1
    branch = bs.branches[0]
    assert branch.pointer_center == pytest.approx(0.5 + 2.0)
    assert branch.system_component.norm() == pytest.approx(1.0)


def test_entangle_branch_norms_are_born_probabilities(rng):
    cfg = PointerConfig(delta=1.0)
    for _ in range(20):
        pre, _ = random_state_pair(rng, 3)
        obs = three_box().observables["A"]
        pre = State(CVec(pre.vec.amps, obs.labels))
        bs = entangle(obs, pre, cfg)
        for b in bs.branches:
            lam = b.pointer_center  # coupling 1, x0 0
            proj = obs.projector_for(lam)
            born = float(np.real(np.vdot(pre.vec.amps, proj.mat.entries @ pre.vec.amps)))
            assert b.system_component.norm() ** 2 == pytest.approx(born, abs=1e-12)


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
    totals = {b.pointer_center: 0.0 for b in bs.branches}
    for post in posts:
        try:
            amps, _ = postselect(bs, post, cfg)
        except PostSelectionImpossible:
            continue  # orthogonal to every branch: contributes nothing
        for center, amp in amps:
            totals[center] += abs(amp) ** 2
    for b in bs.branches:
        assert totals[b.pointer_center] == pytest.approx(
            b.system_component.norm() ** 2, abs=1e-12
        )


def test_postselect_impossible_when_orthogonal_to_all_branches():
    sc = three_box()
    cfg = PointerConfig(delta=1.0)
    bs = entangle(sc.observables["C"], sc.pre, cfg)
    with pytest.raises(PostSelectionImpossible):
        postselect(bs, sc.states["phi_prime"], cfg)


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
    assert exact_rate(amps, delta) == pytest.approx(raw, abs=1e-10)
    assert exact_mean(amps, delta) == pytest.approx(first / raw, abs=1e-10)
    cfg = PointerConfig(delta=delta)
    density = pointer_density(amps, cfg)
    assert density.rate == pytest.approx(raw, abs=1e-10)
    assert density.mean() == pytest.approx(first / raw, abs=1e-9)


def test_rate_limits_recover_projective_and_overlap_statistics():
    amps, _ = _three_box_amps(PointerConfig(delta=1.0))
    # wide pointer: rate -> |<post|pre>|^2
    assert exact_rate(amps, 1e6) == pytest.approx(1.0 / 9.0, abs=1e-9)
    # narrow pointer: rate -> sum of branch transition probabilities
    assert exact_rate(amps, 1e-6) == pytest.approx(5.0 / 9.0, abs=1e-12)


def test_wide_pointer_mean_approaches_weak_value(rng):
    sc = three_box()
    cfg = PointerConfig(delta=100.0)
    amps, _ = _three_box_amps(cfg)
    assert exact_mean(amps, 100.0) == pytest.approx(-1.0, abs=1e-3)

    hd = hardy()
    bs = entangle(hd.observables["N1"], hd.pre, cfg)
    hardy_amps, _ = postselect(bs, hd.post, cfg)
    assert exact_mean(hardy_amps, 100.0) == pytest.approx(-1.0, abs=1e-3)

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
        assert exact_mean(amps, 100.0) == pytest.approx(wv.real, abs=1e-3)


def test_sharp_pointer_masses_match_abl():
    cfg = PointerConfig(delta=0.01)
    amps, _ = _three_box_amps(cfg)
    density = pointer_density(amps, cfg)
    assert density.mass_between(0.5, cfg.grid[1]) == pytest.approx(0.2, abs=1e-6)
    assert density.mass_between(cfg.grid[0], 0.5) == pytest.approx(0.8, abs=1e-6)


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
# leave longer flat tails; 1e-5 puts it on a few nodes (infinite slopes
# elsewhere), and coupling 20 pushes one branch off the grid.
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
    inverse(u, out)
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
    target = exact_mean(amps, 10.0)
    n = 200000
    ens = sample(density, n, seed=123)
    sd = np.sqrt(np.trapezoid((density.xs - target) ** 2 * density.ps, density.xs))
    assert abs(ens.mean - target) <= 5 * sd / np.sqrt(n)
    assert ens.variance == pytest.approx(np.var(ens.samples))


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
    cfg = PointerConfig(delta=1.0, grid=(-4.0, 4.0, 257))
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
    assert len(dlines) == 258
    assert len(slines) == 51
    first = dpath.read_bytes()
    write_density_csv(density, str(dpath))
    assert dpath.read_bytes() == first


def test_csv_bytes_match_csv_writer(tmp_path):
    xs, ps = np.array([-1.5, -0.0, 0.1, 1e-300]), np.array([0.0, -0.0, 1 / 3, 2.5e22])
    density = Density(xs, ps, 1.0)
    # more rows than one write batch, so the index runs on across batches
    samples = np.resize([-0.0, 1 / 3, -2.5e-17, 4.0, 1e22, -7.25], 2 * _BLOCK + 3)
    ens = PointerEnsemble(samples, 0.0, 0.0, density, 1.0)

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
