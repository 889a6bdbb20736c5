"""Gaussian-pointer measurement model: entangle, post-select, read the pointer.

The apparatus starts in a Gaussian ready state of spread delta centered at
x0.  Coupling to an observable shifts each eigenvalue branch by
coupling * eigenvalue.  Post-selecting the system leaves a superposition of
shifted Gaussians whose interference encodes the weak value: for large
delta the pointer mean approaches x0 + coupling * Re(weak value), while for
small delta the branch masses reproduce the ABL probabilities.

All first and second moments of the post-selected density have closed
forms through the overlap kernel

    K_ij = exp(-(c_i - c_j)^2 / (8 delta^2)),

with int G_i G_j = K_ij and int x G_i G_j = ((c_i + c_j)/2) K_ij; the exact
mean and post-selection rate below use these rather than the grid.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BasisMismatch, DimensionError, PostSelectionImpossible
from .linalg import CVec
from .quantum import Observable, State

#: Branches with squared norm at or below this are dropped as empty.
BRANCH_TOL = 1e-12

#: Draws per sampling chunk.  A multiple of 4, so every chunk starts on a
#: Philox counter block (each counter value yields four 64-bit outputs).
_CHUNK = 2**18

#: Draws inverted at a time inside a chunk, so a block's temporaries stay in cache.
_BLOCK = 2**15

#: Equal cells of [0, 1) in the guide table of the inverse CDF.
_GUIDE = 2**16


@dataclass(frozen=True)
class PointerConfig:
    """Apparatus geometry: spread, ready position, coupling, density grid.

    The default grid spans x0 +- (8*delta + 2) with 2^14 points, which
    holds essentially all mass whenever branch centers stay within 2 units
    of x0; pass an explicit grid for larger couplings or eigenvalues.
    """

    delta: float
    x0: float = 0.0
    coupling: float = 1.0
    grid: Optional[tuple[float, float, int]] = None

    def __post_init__(self):
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        if not math.isfinite(self.x0):
            raise ValueError(f"x0 must be finite, got {self.x0}")
        if not (math.isfinite(self.coupling) and self.coupling != 0):
            raise ValueError(f"coupling must be non-zero and finite, got {self.coupling}")
        if self.grid is None:
            span = 8.0 * self.delta + 2.0
            object.__setattr__(self, "grid", (self.x0 - span, self.x0 + span, 2**14))
        x_min, x_max, n_points = self.grid
        if n_points < 2:
            raise ValueError(f"grid needs at least 2 points, got {n_points}")
        if not x_min < x_max:
            raise ValueError(f"empty grid range [{x_min}, {x_max}]")

    def grid_points(self) -> np.ndarray:
        x_min, x_max, n_points = self.grid
        return np.linspace(x_min, x_max, n_points)


@dataclass(frozen=True)
class Branch:
    """One eigenvalue branch: shifted pointer center, unnormalized system part."""

    pointer_center: float
    system_component: CVec


@dataclass(frozen=True)
class BranchState:
    """Entangled system-apparatus state, one branch per surviving eigenvalue."""

    branches: tuple[Branch, ...]

    def __post_init__(self):
        total = sum(b.system_component.norm() ** 2 for b in self.branches)
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"branch norms sum to {total:.12g}, expected 1")


def gaussian_amplitude(x, center: float, delta: float):
    """Normalized Gaussian amplitude; its square integrates to 1 with sd delta."""
    return (2.0 * np.pi * delta**2) ** -0.25 * np.exp(-((x - center) ** 2) / (4.0 * delta**2))


def entangle(obs: Observable, pre: State, cfg: PointerConfig) -> BranchState:
    """Couple the pointer to obs: branch lambda carries P_lambda|pre> at

    center x0 + coupling * lambda.  Branches with no amplitude are dropped,
    so an eigenstate input yields a single branch of norm 1.
    """
    if obs.dim != pre.dim:
        raise DimensionError(
            f"observable dim {obs.dim} does not match state dim {pre.dim}"
        )
    if obs.labels != pre.labels:
        raise BasisMismatch(
            f"observable basis {obs.labels} does not match state basis {pre.labels}"
        )
    branches = []
    for lam, proj in zip(obs.eigenvalues, obs.projectors):
        component = proj.apply(pre.vec)
        if component.norm() ** 2 > BRANCH_TOL:
            branches.append(Branch(cfg.x0 + cfg.coupling * lam, component))
    return BranchState(tuple(branches))


def postselect(
    bs: BranchState, post: State, cfg: PointerConfig
) -> tuple[list[tuple[float, complex]], float]:
    """Project the system on |post>; returns per-branch apparatus amplitudes

    [(center, <post|component>)] and the exact post-selection rate.  The
    rate needs cfg because finite-delta Gaussian overlaps between branch
    pointer states contribute interference terms.
    """
    amps = []
    for b in bs.branches:
        if post.labels != b.system_component.labels:
            raise BasisMismatch(
                f"post-selection basis {post.labels} does not match "
                f"branch basis {b.system_component.labels}"
            )
        amps.append(
            (b.pointer_center, complex(np.vdot(post.vec.amps, b.system_component.amps)))
        )
    if not amps or max(abs(a) for _, a in amps) <= 1e-12:
        raise PostSelectionImpossible(
            "post-selection state is orthogonal to every branch"
        )
    return amps, exact_rate(amps, cfg.delta)


def _overlap_kernel(centers: np.ndarray, delta: float) -> np.ndarray:
    diff = centers[:, None] - centers[None, :]
    return np.exp(-(diff**2) / (8.0 * delta**2))


def exact_rate(amps: Sequence[tuple[float, complex]], delta: float) -> float:
    """Post-selection probability: the squared norm of the apparatus mixture."""
    centers = np.array([c for c, _ in amps], dtype=float)
    alphas = np.array([a for _, a in amps], dtype=complex)
    kernel = _overlap_kernel(centers, delta)
    return float(np.real(alphas.conj() @ kernel @ alphas))


def exact_mean(amps: Sequence[tuple[float, complex]], delta: float) -> float:
    """Mean pointer position of the post-selected density, grid-free."""
    centers = np.array([c for c, _ in amps], dtype=float)
    alphas = np.array([a for _, a in amps], dtype=complex)
    kernel = _overlap_kernel(centers, delta)
    pair_weight = np.real(np.outer(alphas.conj(), alphas) * kernel)
    midpoints = (centers[:, None] + centers[None, :]) / 2.0
    total = pair_weight.sum()
    if total <= 1e-24:
        raise PostSelectionImpossible("post-selected state carries no weight")
    return float((pair_weight * midpoints).sum() / total)


@dataclass(frozen=True)
class Density:
    """Tabulated post-selected pointer density, normalized on its grid."""

    xs: np.ndarray
    ps: np.ndarray
    rate: float

    def mean(self) -> float:
        return float(np.trapezoid(self.xs * self.ps, self.xs))

    def mass_between(self, lo: float, hi: float) -> float:
        mask = (self.xs >= lo) & (self.xs <= hi)
        return float(np.trapezoid(self.ps[mask], self.xs[mask]))


def pointer_density(
    amps: Sequence[tuple[float, complex]], cfg: PointerConfig
) -> Density:
    """|sum_lambda amp_lambda G(x; center_lambda)|^2, normalized on the grid."""
    amps = list(amps)
    if not amps:
        raise PostSelectionImpossible("no branches to build a density from")
    rate = exact_rate(amps, cfg.delta)
    if rate <= 1e-24:
        raise PostSelectionImpossible("post-selected state carries no weight")
    xs = cfg.grid_points()
    psi = np.zeros_like(xs, dtype=complex)
    for center, amp in amps:
        psi += amp * gaussian_amplitude(xs, center, cfg.delta)
    raw = np.abs(psi) ** 2
    norm = np.trapezoid(raw, xs)
    return Density(xs=xs, ps=raw / norm, rate=rate)


@dataclass(frozen=True)
class PointerEnsemble:
    """Monte Carlo pointer readings together with their source density."""

    samples: np.ndarray
    mean: float
    variance: float
    density: Density
    postselect_rate: float


def _usable_cores() -> int:
    """Cores this process may run on: its affinity set where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class _InverseCdf:
    """np.interp(u, cdf, xs) for u in [0, 1), bit for bit, in O(1) per draw.

    A guide table (Chen & Asau 1974; Devroye, Non-Uniform Random Variate
    Generation, 1986, ch. III) holds, for each of `_GUIDE` equal cells of
    [0, 1), the last node whose CDF is at or below the cell's left edge.  A
    draw starts there; one in a cell holding further nodes steps forward at
    most twice, and the rare draw in a tail cell spanning many nodes falls
    back to a binary search.  The value is np.interp's own formula.
    """

    def __init__(self, cdf: np.ndarray, xs: np.ndarray):
        self.cdf, self.xs = cdf, xs
        self.guide = np.searchsorted(cdf, np.arange(_GUIDE + 1) / _GUIDE, "right") - 1
        # Flat CDF runs give 0/0 and x/0 and tiny steps overflow; no draw
        # falls inside a flat run, and one on a node is handled in __call__.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            self.slopes = np.diff(xs) / np.diff(cdf)

    def __call__(self, u: np.ndarray, out: np.ndarray, buf: Optional[_Buffers] = None):
        """Write np.interp(u, cdf, xs) to out, with temporaries from buf."""
        cdf, xs, m = self.cdf, self.xs, len(u)
        buf = buf or _Buffers(m)
        f, cell, node, ahead, flag = buf.first(m)
        cell[...] = np.multiply(u, _GUIDE, out=f)  # truncates, as astype(np.intp)
        # Every index is in range, and mode="clip" lets take write to out unbuffered.
        np.take(self.guide, cell, out=node, mode="clip")
        np.take(self.guide[1:], cell, out=ahead, mode="clip")
        walk = np.flatnonzero(np.not_equal(ahead, node, out=flag))
        for _ in range(2):
            at = node[walk]
            step = cdf[at + 1] <= u[walk]
            node[walk] = at + step
            walk = walk[step]
        node[walk] = np.searchsorted(cdf, u[walk], "right") - 1
        np.subtract(u, np.take(cdf, node, out=f, mode="clip"), out=f)
        np.take(self.slopes, node, out=out, mode="clip")
        with np.errstate(invalid="ignore", over="ignore"):
            out *= f
            out += np.take(xs, node, out=f, mode="clip")
        # An infinite slope times zero: u sits on a node, where np.interp returns it.
        on_node = np.flatnonzero(np.isnan(out, out=flag))
        out[on_node] = xs[node[on_node]]


class _Buffers:
    """One worker's temporaries for blocks of up to `size` draws.

    They are reused block after block, so the sampling loop allocates and
    frees nothing of block size: freed blocks would let malloc hand their
    pages back to the OS and fault them in again for the next block.
    """

    def __init__(self, size: int):
        self.u, self.f = np.empty(size), np.empty(size)
        self.cell, self.node, self.ahead = (np.empty(size, np.intp) for _ in range(3))
        self.flag = np.empty(size, bool)

    def first(self, m: int) -> tuple:
        """The first m entries of the inverter's temporaries f, cell, node, ahead, flag."""
        return self.f[:m], self.cell[:m], self.node[:m], self.ahead[:m], self.flag[:m]


def _merge(a: tuple, b: tuple) -> tuple:
    """Combine two (count, mean, M2) summaries (Chan, Golub & LeVeque 1979)."""
    n_a, mean_a, m2_a = a
    n_b, mean_b, m2_b = b
    n = n_a + n_b
    d = mean_b - mean_a
    return n, mean_a + d * n_b / n, m2_a + m2_b + d * d * n_a * n_b / n


def _fill_chunk(
    out: np.ndarray, start: int, seed: int, inverse: _InverseCdf, buf: _Buffers
) -> tuple:
    """Fill one chunk from draw `start` of the Philox stream; return its (count, mean, M2).

    The draws are inverted block by block in buf, and the blocks' moments
    are merged in order while each block is still in cache.
    """
    uniforms = np.random.Generator(np.random.Philox(key=seed).advance(start // 4))
    moments = []
    for lo in range(0, len(out), _BLOCK):
        block = out[lo : lo + _BLOCK]
        m = len(block)
        inverse(uniforms.random(m, out=buf.u[:m]), block, buf)
        mean = block.mean()
        dev = np.subtract(block, mean, out=buf.f[:m])
        dev *= dev
        moments.append((m, mean, dev.sum()))
    return functools.reduce(_merge, moments)


def sample(density: Density, n: int, seed: int) -> PointerEnsemble:
    """Draw n pointer readings by inverse-CDF on the tabulated density.

    The uniforms are one Philox stream keyed by seed.  Chunks of `_CHUNK`
    draws jump to their own offset in that stream, so they can be filled
    on every usable core and the result is the same as a single pass.  Each
    chunk also returns its count, mean and M2, which are merged in chunk
    order, so the mean and variance do not depend on the core count either.
    """
    if n < 1:
        raise ValueError(f"need at least one sample, got n={n}")
    xs, ps = density.xs, density.ps
    cdf = np.concatenate(([0.0], np.cumsum((ps[1:] + ps[:-1]) / 2.0 * np.diff(xs))))
    cdf /= cdf[-1]
    inverse = _InverseCdf(cdf, xs)
    draws = np.empty(n)
    starts = range(0, n, _CHUNK)
    moments: list = [None] * len(starts)
    errors: list[BaseException] = []

    def fill(share: range):
        try:
            buf = _Buffers(min(_BLOCK, n))
            for lo in share:
                moments[lo // _CHUNK] = _fill_chunk(
                    draws[lo : lo + _CHUNK], lo, seed, inverse, buf
                )
        except BaseException as exc:  # re-raised by the caller after the join
            errors.append(exc)

    workers = min(_usable_cores(), len(starts))
    threads = [
        threading.Thread(target=fill, args=(starts[k::workers],)) for k in range(1, workers)
    ]
    for thread in threads:
        thread.start()
    fill(starts[0::workers])
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    count, mean, m2 = functools.reduce(_merge, moments)
    return PointerEnsemble(
        samples=draws,
        mean=float(mean),
        variance=float(m2 / count),
        density=density,
        postselect_rate=density.rate,
    )


def weak_value_estimate(ens: PointerEnsemble, cfg: PointerConfig) -> float:
    """Invert the pointer shift: (mean reading - x0) / coupling."""
    return (ens.mean - cfg.x0) / cfg.coupling


def simulate(
    obs: Observable,
    pre: State,
    post: State,
    cfg: PointerConfig,
    n: int,
    seed: int,
) -> PointerEnsemble:
    """Full pipeline: entangle, post-select, tabulate the density, sample it."""
    bs = entangle(obs, pre, cfg)
    amps, _ = postselect(bs, post, cfg)
    density = pointer_density(amps, cfg)
    return sample(density, n, seed)


def _write_csv(path: str, header: str, n_rows: int, rows):
    """Write the header, then rows(lo, hi) for each batch of `_BLOCK` rows.

    Lines end in csv.writer's default \\r\\n.  Batches keep the text of
    the whole file from being held in memory at once.
    """
    with open(path, "w", newline="") as handle:
        handle.write(header + "\r\n")
        for lo in range(0, n_rows, _BLOCK):
            handle.write("".join(rows(lo, lo + _BLOCK)))


def write_density_csv(density: Density, path: str):
    def rows(lo, hi):
        pairs = zip(density.xs[lo:hi].tolist(), density.ps[lo:hi].tolist())
        return [f"{x!r},{p!r}\r\n" for x, p in pairs]

    _write_csv(path, "x,p_x", len(density.xs), rows)


def write_samples_csv(ens: PointerEnsemble, path: str):
    def rows(lo, hi):
        return [f"{i},{x!r}\r\n" for i, x in enumerate(ens.samples[lo:hi].tolist(), lo)]

    _write_csv(path, "index,x", len(ens.samples), rows)
