"""Acceptance gate: one test and one printed pass/fail line per criterion.

Each test aggregates its criterion's sub-checks into a single verdict so the
summary block reads as a checklist. Module tests carry the fine-grained
diagnostics; this file only enforces the headline numbers and tolerances.
"""

import time

import numpy as np

from conftest import (
    projector_containing,
    projector_orthogonal_to,
    random_hermitian,
    random_projector,
    random_state_pair,
)
from prepost import scenarios, scenfile
from prepost.cli import main
from prepost.errors import NormalizationError, ParseError
from prepost.histories import (
    Family,
    FailureMode,
    abl_from_weak_values,
    abl_probability,
    conditional_weight,
    consistency,
)
from prepost.pointer import (
    Density,
    PointerConfig,
    entangle,
    pointer_density,
    postselect,
    simulate,
)
from prepost.quantum import as_observable, spectral_decompose, weak_value
from prepost.scenfile import _tokenize


def test_criterion_01_three_box_weak_values(acceptance):
    sc = scenarios.builtin("three-box")
    expected = {"A": 1.0, "B": 1.0, "C": -1.0}
    dev = max(
        abs(weak_value(sc.observables[name], sc.pre, sc.post).value - want)
        for name, want in expected.items()
    )
    acceptance(1, "three-box weak values (1, 1, -1) within 1e-12", dev <= 1e-12)


def test_criterion_02_three_box_abl(acceptance):
    sc = scenarios.builtin("three-box")
    direct = abl_probability(sc.observables["C"], sc.pre, sc.post, 1.0)
    via_wv = abl_from_weak_values(-1.0)
    ok = abs(direct - 0.2) <= 1e-12 and abs(via_wv - 0.2) <= 1e-12
    acceptance(2, "three-box ABL probability 0.2 by both routes", ok)


def test_criterion_03_three_box_conditional_weights(acceptance):
    sc = scenarios.builtin("three-box")
    dev = 0.0
    for name in ("A", "B", "C"):
        fam = sc.family_for(name)
        dev = max(dev, abs(conditional_weight(fam.e, fam.d, fam.f) - 1.0))
    acceptance(3, "three-box conditional weights all 1 within 1e-12", dev <= 1e-12)


def test_criterion_04_hardy_numbers(acceptance):
    sc = scenarios.builtin("hardy")
    expected = {"N1": -1.0, "N2": 0.0, "N3": 1.0, "N4": 1.0}
    dev = max(
        abs(weak_value(sc.observables[name], sc.pre, sc.post).value - want)
        for name, want in expected.items()
    )
    overlap = weak_value(sc.observables["N1"], sc.pre, sc.post).overlap
    report = consistency(sc.family_for("N1"))
    ok = (
        dev <= 1e-12
        and abs(abs(overlap) ** 2 - 1.0 / 12.0) <= 1e-12
        and abs(report.functional - (-1.0 / 6.0)) <= 1e-12
        and report.failure_mode is FailureMode.STRANGE
    )
    acceptance(4, "Hardy weak values, overlap 1/12, functional -1/6 Strange", ok)


def test_criterion_05_consistency_biconditional(acceptance):
    # 120 generic + 40 forced-to-1 + 40 forced-to-0 families per dimension
    gen = np.random.default_rng(50_001)
    trials = 0
    bad = 0

    def run(pre, post, e):
        nonlocal trials, bad
        functional = consistency(Family(pre, e, post)).functional
        wv = weak_value(e, pre, post).value
        lhs = abs(functional) <= 1e-9
        rhs = min(abs(wv), abs(wv - 1.0)) <= 1e-9
        trials += 1
        bad += lhs != rhs

    for dim in (2, 3, 4, 5, 6):
        for _ in range(120):
            pre, post = random_state_pair(gen, dim)
            run(pre, post, random_projector(gen, dim))
        for _ in range(40):
            pre, post = random_state_pair(gen, dim)
            run(pre, post, projector_containing(gen, pre.vec))
        for _ in range(40):
            pre, post = random_state_pair(gen, dim)
            run(pre, post, projector_orthogonal_to(gen, pre.vec))
    acceptance(
        5,
        f"consistency iff weak value in {{0,1}} over {trials} families",
        trials >= 1000 and bad == 0,
    )


def test_criterion_06_weight_equals_squared_weak_value(acceptance):
    gen = np.random.default_rng(50_002)
    trials = 0
    dev = 0.0
    for dim in (2, 3, 4, 5, 6):
        for _ in range(200):
            pre, post = random_state_pair(gen, dim)
            e = random_projector(gen, dim)
            fam = Family(pre, e, post)
            weight = conditional_weight(fam.e, fam.d, fam.f)
            wv = weak_value(e, pre, post).value
            dev = max(dev, abs(weight - abs(wv) ** 2))
            trials += 1
    acceptance(
        6,
        f"conditional weight equals |weak value|^2 over {trials} instances",
        trials >= 1000 and dev <= 1e-10,
    )


def test_criterion_07_abl_weight_match_on_consistent_families(acceptance):
    gen = np.random.default_rng(50_003)
    trials = 0
    dev = 0.0
    for dim in (2, 3, 4, 5, 6):
        for make in (projector_containing, projector_orthogonal_to):
            for _ in range(24):
                pre, post = random_state_pair(gen, dim)
                e = make(gen, pre.vec)
                fam = Family(pre, e, post)
                abl = abl_probability(as_observable(e), pre, post, 1.0)
                weight = conditional_weight(fam.e, fam.d, fam.f)
                dev = max(dev, abs(abl - weight))
                trials += 1
    sc = scenarios.builtin("three-box")
    fam = sc.family_for("C")
    gap = abs(
        abl_probability(sc.observables["C"], sc.pre, sc.post, 1.0)
        - conditional_weight(fam.e, fam.d, fam.f)
    )
    ok = trials >= 200 and dev <= 1e-10 and abs(gap - 0.8) <= 1e-12
    acceptance(
        7,
        f"ABL matches weight on {trials} consistent families; box-C gap 0.8",
        ok,
    )


def test_criterion_08_pointer_means(acceptance):
    sc = scenarios.builtin("three-box")
    obs = sc.observables["C"]

    cfg_wide = PointerConfig(delta=100.0)
    amps, _ = postselect(entangle(obs, sc.pre, cfg_wide), sc.post, cfg_wide)
    exact = Density(amps, cfg_wide.delta).mean()

    start = time.monotonic()
    ens = simulate(obs, sc.pre, sc.post, PointerConfig(delta=10.0), n=10**6, seed=11)
    elapsed = time.monotonic() - start

    ok = (
        abs(exact - (-1.0)) <= 1e-3
        and abs(ens.mean - (-1.0)) <= 0.1
        and elapsed <= 60.0
    )
    acceptance(
        8,
        "pointer mean: exact at delta=100 within 1e-3, MC at delta=10 within 0.1",
        ok,
    )


def test_criterion_09_sharp_regime_mass(acceptance):
    sc = scenarios.builtin("three-box")
    obs = sc.observables["C"]
    cfg = PointerConfig(delta=0.01)
    amps, _ = postselect(entangle(obs, sc.pre, cfg), sc.post, cfg)
    density = pointer_density(amps, cfg)
    mass = density.mass_between(0.5, 1.5)
    acceptance(9, "sharp-regime mass near x=1 equals 0.2 within 1e-6", abs(mass - 0.2) <= 1e-6)


def _weak_value_sum(a, b, pre, post) -> complex:
    """Weak value of a + b computed on the summed matrix, apart from weak_value."""
    total = a.mat.entries + b.mat.entries
    phi, psi = post.vec.amps, pre.vec.amps
    return np.vdot(phi, total @ psi) / np.vdot(phi, psi)


def test_criterion_10_weak_value_additivity(acceptance):
    gen = np.random.default_rng(50_004)
    trials = 0
    dev = 0.0
    for dim in (2, 3, 4, 5, 6):
        for _ in range(200):
            pre, post = random_state_pair(gen, dim)
            a = spectral_decompose(random_hermitian(gen, dim))
            b = spectral_decompose(random_hermitian(gen, dim))
            combined = _weak_value_sum(a, b, pre, post)
            split = weak_value(a, pre, post).value + weak_value(b, pre, post).value
            dev = max(dev, abs(combined - split))
            trials += 1
    acceptance(
        10,
        f"weak-value additivity over {trials} operator pairs within 1e-12",
        trials >= 1000 and dev <= 1e-12,
    )


def test_criterion_11_cli_verify_roundtrip_fuzz(acceptance, capsys):
    codes = [main(["verify", f"builtin:{name}"]) for name in ("three-box", "hardy")]
    capsys.readouterr()

    roundtrip_dev = 0.0
    for name in ("three-box", "hardy"):
        sc = scenarios.builtin(name)
        text = scenfile.serialize(scenfile.parse(scenarios.BUILTINS[name][0]))
        sc2 = scenfile.to_scenario(scenfile.parse(text), name=name)
        for obs_name, obs in sc.observables.items():
            before = weak_value(obs, sc.pre, sc.post).value
            after = weak_value(
                sc2.observables[obs_name], sc2.pre, sc2.post
            ).value
            roundtrip_dev = max(roundtrip_dev, abs(before - after))

    base = scenfile.serialize(scenfile.parse(scenarios.THREE_BOX))
    lines = base.splitlines()
    spots = []
    for li, line in enumerate(lines):
        for tok in _tokenize(line, li + 1):
            spots.append((li, tok.col, tok.text))
    gen = np.random.default_rng(50_005)
    crashes = 0
    for _ in range(1000):
        li, col, text = spots[int(gen.integers(len(spots)))]
        mutated = lines.copy()
        mutated[li] = mutated[li][: col - 1] + mutated[li][col - 1 + len(text) :]
        try:
            scenfile.to_scenario(scenfile.parse("\n".join(mutated)))
        except (ParseError, NormalizationError):
            pass
        except Exception:
            crashes += 1

    ok = codes == [0, 0] and roundtrip_dev <= 1e-12 and crashes == 0
    acceptance(
        11,
        "verify exits 0, serialize/parse round-trip, 1000 fuzz deletions no crash",
        ok,
    )
