"""Workload definitions: the commands each workload runs and their references.

Every workload is built from its seed alone.  A build writes the scenario
files its commands read into a work directory and returns a Plan: the
commands grouped into units (the closed loop only stops between units),
the warm-up commands, and the reference data the oracle checks against.

References are plain numpy vectors and eigenvalue -> basis-mask tables,
written here from the physics, never taken from prepost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

_S3 = 1.0 / math.sqrt(3.0)

#: Basis-mask spectral data: eigenvalue -> boolean mask over basis indices.
Spectrum = dict[float, np.ndarray]

#: Sizes of the mc-pointer groups (draws per command).
SAMPLE_N = 4_000_000
WRITE_N = 400_000

#: Hilbert-space dimensions of the dim-scale scenario files.
DIMS = (32, 64, 128)

#: The README's three-box scenario, written verbatim during set-up.
README_THREE_BOX = """\
# three boxes
basis a b c
state psi = (1/sqrt(3)) a + (1/sqrt(3)) b + (1/sqrt(3)) c
state phi = (1/sqrt(3)) a + (1/sqrt(3)) b - (1/sqrt(3)) c
pre psi
post phi
proj PC = |c><c|
proj PCc = span(a, b)
obs C = 1*PC + 0*PCc
"""

#: Commands that give a wrong answer at this baseline (ROADMAP Open item 2).
#: They stay in the workload and count in `failed`; `correct` turns false
#: only when some other command fails its oracle.
KNOWN_DEFECTS = {
    "simulate:bug-fine-delta": "delta 1e-5: grid spacing is 24 delta, mean ~1.0 instead of 0.2",
    "simulate:bug-far-branch": "coupling 20: eigenvalue-1 branch falls off the grid, mean ~0 instead of 4.0",
}


@dataclass(frozen=True)
class Ref:
    """Independent description of a scenario: states and diagonal spectra."""

    name: str
    pre: np.ndarray
    post: np.ndarray
    observables: dict[str, Spectrum]
    checks: int = 0  # fixture checks `verify` reports

    @property
    def dim(self) -> int:
        return len(self.pre)


@dataclass(frozen=True)
class Command:
    """One scencli invocation with everything needed to replay and check it."""

    kind: str  # weakvalue | consistency | abl | weight | verify | simulate
    group: str  # reporting bucket: kind plus workload-specific qualifier
    source: str
    ref: Ref
    obs: Optional[str] = None
    outcome: Optional[float] = None
    delta: Optional[float] = None
    n: Optional[int] = None
    seed: Optional[int] = None
    coupling: float = 1.0
    samples_out: Optional[str] = None
    density_out: Optional[str] = None

    @property
    def dim(self) -> int:
        return self.ref.dim

    def argv(self) -> list[str]:
        argv = [self.kind, self.source]
        if self.obs is not None:
            argv += ["--obs", self.obs]
        if self.outcome is not None:
            argv += ["--outcome", repr(self.outcome)]
        if self.kind == "simulate":
            argv += ["--delta", repr(self.delta), "--n", str(self.n), "--seed", str(self.seed)]
            if self.coupling != 1.0:
                argv += ["--coupling", repr(self.coupling)]
            if self.samples_out:
                argv += ["--samples-out", self.samples_out]
            if self.density_out:
                argv += ["--density-out", self.density_out]
        return argv

    def remove_outputs(self):
        """Delete the CSVs once checked.  Truncating a file still being written
        back to disk made the next write up to 2x slower, so each write goes
        to a new file."""
        for path in (self.samples_out, self.density_out):
            if path:
                Path(path).unlink(missing_ok=True)


@dataclass
class Plan:
    units: list[list[Command]]
    warmups: list[Command]
    files: dict[str, int] = field(default_factory=dict)  # path -> line count


def _masks(dim: int, ones: list[int]) -> Spectrum:
    mask = np.zeros(dim, dtype=bool)
    mask[ones] = True
    return {0.0: ~mask, 1.0: mask}


def three_box_ref(name: str = "three-box", observables=("A", "B", "C"), checks: int = 7) -> Ref:
    boxes = {"A": 0, "B": 1, "C": 2}
    return Ref(
        name,
        np.array([_S3, _S3, _S3], dtype=complex),
        np.array([_S3, _S3, -_S3], dtype=complex),
        {o: _masks(3, [boxes[o]]) for o in observables},
        checks,
    )


def hardy_ref() -> Ref:
    # Basis NOp_NOe, NOp_Oe, Op_NOe, Op_Oe; annihilation removes Op_Oe.
    occupied = {"N1": 0, "N2": 3, "N3": 1, "N4": 2}
    return Ref(
        "hardy",
        np.array([1.0, 1.0, 1.0, 0.0], dtype=complex) * _S3,
        np.array([1.0, -1.0, -1.0, 1.0], dtype=complex) / 2.0,
        {o: _masks(4, [k]) for o, k in occupied.items()},
        7,
    )


def _query_commands(source: str, ref: Ref) -> list[Command]:
    cmds = []
    for obs in ref.observables:
        cmds += [
            Command("weakvalue", "weakvalue", source, ref, obs),
            Command("consistency", "consistency", source, ref, obs),
            Command("abl", "abl", source, ref, obs, outcome=1.0),
            Command("weight", "weight", source, ref, obs),
        ]
    return cmds + [Command("verify", "verify", source, ref)]


def build_cli_small(seed: int, workdir: Path, serialize=None) -> Plan:
    path = workdir / "three_box.scn"
    path.write_text(README_THREE_BOX, encoding="utf-8")
    cmds = (
        _query_commands("builtin:three-box", three_box_ref())
        + _query_commands("builtin:hardy", hardy_ref())
        + _query_commands(str(path), three_box_ref(path.stem, ("C",), checks=0))
    )
    order = np.random.default_rng(seed).permutation(len(cmds))
    units = [[cmds[i]] for i in order]
    warmups, seen = [], set()
    for cmd in cmds:
        if cmd.kind not in seen:
            seen.add(cmd.kind)
            warmups.append(cmd)
    return Plan(units, warmups, {str(path): README_THREE_BOX.count("\n")})


def build_mc_pointer(seed: int, workdir: Path, serialize=None) -> Plan:
    seeds = iter(np.random.default_rng(seed).integers(0, 2**31, size=8).tolist())
    n_sample, n_write = SAMPLE_N, WRITE_N
    tb, hardy = three_box_ref(), hardy_ref()

    def sim(group, ref, obs, delta, n, coupling=1.0, csv=False):
        out = {}
        if csv:
            out = {
                "samples_out": str(workdir / "samples.csv"),
                "density_out": str(workdir / "density.csv"),
            }
        return Command(
            "simulate", group, f"builtin:{ref.name}", ref, obs,
            delta=delta, n=n, seed=next(seeds), coupling=coupling, **out,
        )

    cycle = [sim("simulate:sample", tb, "C", d, n_sample) for d in (10.0, 1.0, 0.1, 0.01)]
    cycle.append(sim("simulate:write", hardy, "N1", 10.0, n_write, csv=True))
    cycle.append(sim("simulate:bug-fine-delta", tb, "C", 1e-5, n_sample))
    cycle.append(sim("simulate:bug-far-branch", tb, "C", 0.1, n_sample, coupling=20.0))
    warm = Command("simulate", "warmup", "builtin:three-box", tb, "C", delta=10.0, n=1000, seed=0)
    return Plan([cycle], [warm])


def dim_scale_doc(dim: int, rng: np.random.Generator):
    """A random pre/post pair, a nondegenerate diagonal X and a two-outcome Y.

    Returns the scenfile document and the matching reference.  States are
    serialized by scenfile.serialize, whose `- a-bi` sign form is the
    canonical spelling of a complex amplitude with a negative real part.
    """
    from prepost.scenfile import ObsDecl, ProjDecl, ScenarioDoc, StateDecl

    labels = tuple(f"k{j}" for j in range(dim))
    vecs = []
    for _ in range(2):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        vecs.append(v / np.linalg.norm(v))
    pre, post = vecs
    third = dim // 3
    projs = [ProjDecl(f"P{j}", "ketbra", (labels[j],)) for j in range(dim)]
    projs += [ProjDecl("PY", "span", labels[:third]), ProjDecl("PYn", "span", labels[third:])]
    doc = ScenarioDoc(
        basis=labels,
        states=tuple(
            StateDecl(name, tuple((complex(a), lab) for a, lab in zip(v, labels)))
            for name, v in (("psi", pre), ("phi", post))
        ),
        projs=tuple(projs),
        obs=(
            ObsDecl("X", tuple((float(j), f"P{j}") for j in range(dim))),
            ObsDecl("Y", ((1.0, "PY"), (0.0, "PYn"))),
        ),
        pre="psi",
        post="phi",
    )
    spectrum_x = {}
    for j in range(dim):
        mask = np.zeros(dim, dtype=bool)
        mask[j] = True
        spectrum_x[float(j)] = mask
    ref = Ref(f"dim{dim}", pre, post, {"X": spectrum_x, "Y": _masks(dim, list(range(third)))})
    return doc, ref


def build_dim_scale(seed: int, workdir: Path, serialize=None) -> Plan:
    from prepost import scenfile

    serialize = serialize or scenfile.serialize
    rng = np.random.default_rng(seed)
    per_dim, files = [], {}
    for dim in DIMS:
        doc, ref = dim_scale_doc(dim, rng)
        text = serialize(doc)
        path = workdir / f"{ref.name}.scn"
        path.write_text(text, encoding="utf-8")
        files[str(path)] = text.count("\n")
        src, outcome = str(path), float(rng.integers(dim))
        per_dim.append([
            Command("weakvalue", f"weakvalue:d{dim}", src, ref, "X"),
            Command("abl", f"abl:d{dim}", src, ref, "X", outcome=outcome),
            Command("consistency", f"consistency:d{dim}", src, ref, "Y"),
            Command("weight", f"weight:d{dim}", src, ref, "Y"),
        ])
    # One unit is one command of each kind per dimension, so every dimension
    # always has the same share of the commands run.
    kinds = [list(k) for k in zip(*per_dim)]
    order = np.random.default_rng(seed + 1).permutation(len(kinds))
    units = [kinds[i] for i in order]
    warmups = list(per_dim[0])
    return Plan(units, warmups, files)


WORKLOADS = {
    "cli-small": build_cli_small,
    "mc-pointer": build_mc_pointer,
    "dim-scale": build_dim_scale,
}
