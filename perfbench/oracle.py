"""Independent numpy reference for every scencli command the benchmark runs.

Each check parses the `key = value` stdout of one command and compares it
with closed forms computed from the workload's Ref (plain vectors and
basis masks):

* weak value <phi|O|psi>/<phi|psi> and its sharp/unsharp/strange class;
* ABL probability |<phi|P_a|psi>|^2 / sum_b |<phi|P_b|psi>|^2;
* conditional weight |<phi|E|psi>|^2 / |<phi|psi>|^2;
* consistency functional <phi|E|psi> conj(<phi|1-E|psi>);
* post-selection rate sum_ij conj(a_i) a_j K_ij, and the Monte Carlo mean
  within MEAN_Z standard errors of the finite-delta closed form
  sum_ij w_ij m_ij / sum_ij w_ij, w_ij = Re(conj(a_i) a_j) K_ij;
* CSV headers and row counts; the density file's x column increases and
  its p_x column is not negative, and the samples file's x column averages
  to the printed mean.

A check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from workloads import Command, Ref

#: Relative tolerance on deterministic values printed with 12 digits.
REL_TOL = 1e-9
#: Allowed distance of a Monte Carlo mean from the exact one, in standard errors.
MEAN_Z = 6.0
#: Library tolerances the printed classifications depend on.
ATOL = 1e-10
BRANCH_TOL = 1e-12
#: Points of the pointer's default density grid, so rows of --density-out.
DENSITY_ROWS = 2**14


def parse_stdout(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def _amp(ref: Ref, mask: np.ndarray) -> complex:
    return complex(np.vdot(ref.post[mask], ref.pre[mask]))


def _overlap(ref: Ref) -> complex:
    return complex(np.vdot(ref.post, ref.pre))


def _wv_class(value: complex, eigenvalues) -> str:
    if any(abs(value - lam) <= ATOL for lam in eigenvalues):
        return "SWV"
    if abs(value.imag) <= ATOL and min(eigenvalues) <= value.real <= max(eigenvalues):
        return "UWV"
    return "STWV"


def _complex(key: str, value: complex) -> dict:
    return {f"{key}.re": value.real, f"{key}.im": value.imag}


def pointer_moments(cmd: Command) -> tuple[float, float, float]:
    """Exact (rate, mean, variance) of the post-selected pointer density.

    The density is the signed Gaussian mixture sum_ij w_ij N(m_ij, delta^2)
    normalized by the rate, with m_ij the midpoint of branch centers i, j.
    """
    spectrum = cmd.ref.observables[cmd.obs]
    lams = [lam for lam, mask in spectrum.items()
            if np.sum(np.abs(cmd.ref.pre[mask]) ** 2) > BRANCH_TOL]
    alphas = np.array([_amp(cmd.ref, spectrum[lam]) for lam in lams])
    centers = cmd.coupling * np.array(lams)
    diff = centers[:, None] - centers[None, :]
    kernel = np.exp(-(diff**2) / (8.0 * cmd.delta**2))
    weights = np.real(np.outer(alphas.conj(), alphas)) * kernel
    mids = (centers[:, None] + centers[None, :]) / 2.0
    rate = float(weights.sum())
    mean = float((weights * mids).sum() / rate)
    second = float((weights * (mids**2 + cmd.delta**2)).sum() / rate)
    return rate, mean, second - mean**2


def expected(cmd: Command) -> dict:
    """Exact values for the deterministic output keys of one command."""
    ref = cmd.ref
    out = {"command": cmd.kind, "scenario": ref.name}
    if cmd.obs is not None:
        out["obs"] = cmd.obs
    if cmd.kind == "verify":
        out["checks.total"] = str(ref.checks)
        out["checks.failed"] = "0"
        return out
    spectrum = ref.observables[cmd.obs]
    overlap = _overlap(ref)
    amps = {lam: _amp(ref, mask) for lam, mask in spectrum.items()}
    if cmd.kind == "weakvalue":
        wv = sum(lam * a for lam, a in amps.items()) / overlap
        out.update(_complex("wv", wv))
        out.update(_complex("overlap", overlap))
        out["wv.class"] = _wv_class(wv, list(spectrum))
    elif cmd.kind == "abl":
        out["outcome"] = cmd.outcome
        out["abl"] = abs(amps[cmd.outcome]) ** 2 / sum(abs(a) ** 2 for a in amps.values())
    elif cmd.kind == "weight":
        out["weight"] = abs(amps[1.0]) ** 2 / abs(overlap) ** 2
    elif cmd.kind == "consistency":
        inside = amps[1.0]
        outside = sum(a for lam, a in amps.items() if lam != 1.0)
        functional = inside * outside.conjugate()
        consistent = abs(functional) <= ATOL
        if consistent:
            mode = "None"
        elif abs(functional.imag) <= ATOL and 0.0 < functional.real < 1.0:
            mode = "Unsharp"
        else:
            mode = "Strange"
        out.update(_complex("functional", functional))
        out.update(_complex("factor.wv", inside / overlap))
        out.update(_complex("factor.wv_conj", (outside / overlap).conjugate()))
        out["factor.overlap_sq"] = abs(overlap) ** 2
        out["consistent"] = "true" if consistent else "false"
        out["failure_mode"] = mode
    elif cmd.kind == "simulate":
        out.update(delta=cmd.delta, n=str(cmd.n), seed=str(cmd.seed))
        out["rate"] = pointer_moments(cmd)[0]
    return out


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * max(1.0, abs(want))


def check(cmd: Command, returncode: int, stdout: str, stderr: str) -> list[str]:
    """Problems with one command's result; empty when it is correct."""
    if returncode != 0:
        return [f"exit {returncode}: {stderr.strip()[:200]}"]
    got = parse_stdout(stdout)
    problems = []
    for key, want in expected(cmd).items():
        if key not in got:
            problems.append(f"missing {key}")
        elif isinstance(want, str):
            if got[key] != want:
                problems.append(f"{key} = {got[key]}, expected {want}")
        elif not _close(float(got[key]), want):
            problems.append(f"{key} = {got[key]}, expected {want:.12g}")
    if cmd.kind == "verify":
        problems += [f"{k} = {v}" for k, v in got.items() if k.startswith("check.") and v != "pass"]
    if cmd.kind == "simulate" and "mean" in got:
        problems += _check_mean(cmd, got)
        problems += check_csv(cmd, got)
    return problems


def _check_mean(cmd: Command, got: dict[str, str]) -> list[str]:
    _, mean, variance = pointer_moments(cmd)
    stderr = math.sqrt(variance / cmd.n)
    z = (float(got["mean"]) - mean) / stderr
    problems = []
    if not abs(z) <= MEAN_Z:
        problems.append(f"mean = {got['mean']}, exact {mean:.12g} (z = {z:.3g})")
    if "estimate" in got and not _close(float(got["estimate"]), float(got["mean"]) / cmd.coupling):
        problems.append(f"estimate = {got['estimate']} does not invert mean = {got['mean']}")
    return problems


def check_csv(cmd: Command, got: dict[str, str]) -> list[str]:
    """Header, rows and contents of the CSV files a simulate command wrote."""
    problems = []
    for path, header, rows in (
        (cmd.samples_out, "index,x", cmd.n),
        (cmd.density_out, "x,p_x", DENSITY_ROWS),
    ):
        if not path:
            continue
        name = Path(path).name
        with open(path, encoding="ascii") as handle:
            first = handle.readline().strip()
            try:
                table = np.loadtxt(handle, delimiter=",", ndmin=2)
            except ValueError as exc:
                problems.append(f"{name}: unreadable rows ({exc})")
                continue
        if first != header:
            problems.append(f"{name}: header {first!r}, expected {header!r}")
        if table.shape != (rows, 2):
            problems.append(f"{name}: {table.shape[0]} rows, expected {rows}")
            continue
        if header == "index,x":
            if not np.array_equal(table[:, 0], np.arange(rows)):
                problems.append(f"{name}: index column is not 0..{rows - 1}")
            if "mean" in got and not _close(float(np.mean(table[:, 1])), float(got["mean"])):
                problems.append(f"{name}: x averages {np.mean(table[:, 1]):.12g}, printed mean {got['mean']}")
        else:
            if not np.all(np.diff(table[:, 0]) > 0):
                problems.append(f"{name}: x does not increase")
            if np.any(table[:, 1] < 0):
                problems.append(f"{name}: negative p_x")
    return problems
