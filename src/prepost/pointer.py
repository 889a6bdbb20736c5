"""Gaussian-pointer measurement model: entangle, post-select, read the pointer.

The apparatus starts in a Gaussian ready state of spread delta centered at
x0.  Coupling to an observable shifts each eigenvalue branch by
coupling * eigenvalue.  Post-selecting the system leaves a superposition of
shifted Gaussians whose interference encodes the weak value: for large
delta the pointer mean approaches x0 + coupling * Re(weak value), while for
small delta the branch masses reproduce the ABL probabilities.

With branch centres c_i and amplitudes alpha_i, |sum_i alpha_i G(x; c_i)|^2 is the
signed mixture sum_ij w_ij N(x; m_ij, delta) with m_ij = (c_i + c_j)/2 and w_ij =
Re(conj(alpha_i) alpha_j) exp(-((c_i - c_j)/delta)^2 / 8), so its rate (sum w),
moments and masses have closed forms.  Samples come from a table over c_i +- 10 delta.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import pickle
import sys
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import PointerRangeError, PostSelectionImpossible
from .linalg import ZERO_RATE_TOL, ZERO_TOL, check_finite
from .quantum import Observable, State

#: Nodes of a density table, and the half-width in deltas of its window around each centre.
_NODES, _REACH = 2**14, 10.0

#: Draws per sampling chunk.  A multiple of 4, so every chunk starts on a
#: Philox counter block (each counter value yields four 64-bit outputs).
_CHUNK = 2**18

#: Draws inverted at a time inside a chunk, so a block's temporaries stay in cache.
_BLOCK = 2**15

#: Equal cells of [0, 1) in the guide table of the inverse CDF.
_GUIDE = 2**16

#: CSV rows formatted and written at a time.  One row matrix (49 bytes a
#: row in samples.csv, 79 in density.csv) is reused for every batch.  A
#: batch's temporaries must stay small: with 8192 rows, malloc returned
#: their pages to the OS after each batch and faulted them in again (350
#: page faults a batch), and the write took 25% longer.
_WRITE_ROWS = 2**12

#: Bytes a worker process's pipe may hold, where the OS lets it be raised
#: (Linux F_SETPIPE_SZ), so a child can run a few CSV batches ahead of the caller.
_PIPE_BYTES = 2**20

#: Columns of one float in a CSV row matrix: sign, 16 integer digits, the
#: point and 20 fraction digits, which spans repr's fixed notation from
#: 1e-4 to 2^53.  Any other value's repr (at most 24 bytes) fills the first
#: columns instead.
_FLOAT_COLS = 38


class PointerConfig:
    """Apparatus geometry: pointer spread delta, ready position x0, coupling.

    Branch lambda sits at c = x0 + coupling * lambda.  The density raises
    PointerRangeError unless each window c +- 10 delta holds its share of the
    2^14 table nodes as distinct doubles (delta >~ 1e-13 |c|) and
    2^64 (max|c| + 10 delta)^2 is finite (delta <~ 3e143).
    """

    def __init__(self, delta: float, x0: float = 0.0, coupling: float = 1.0):
        if not (math.isfinite(delta) and delta > 0):
            raise ValueError(f"delta must be positive and finite, got {delta}")
        if not math.isfinite(x0):
            raise ValueError(f"x0 must be finite, got {x0}")
        if not (math.isfinite(coupling) and coupling != 0 and math.isfinite(1.0 / coupling)):
            raise ValueError(f"coupling must be finite with a finite reciprocal, got {coupling}")
        self.delta, self.x0, self.coupling = delta, x0, coupling


class Branches(NamedTuple):
    """Entangled system-apparatus state: the branch whose pointer sits at centers[i]
    carries P_k|pre>, P_k the projector of obs.eigenvalues[k] for k = kept[i]."""

    centers: np.ndarray
    kept: np.ndarray
    obs: Observable
    pre: State


def gaussian_amplitude(x, center: float, delta: float):
    """Normalized Gaussian amplitude; its square integrates to 1 with sd delta."""
    z = (x - center) / delta
    return np.exp(-(z * z) / 4.0) / math.sqrt(math.sqrt(2.0 * math.pi) * delta)


def entangle(obs: Observable, pre: State, cfg: PointerConfig) -> Branches:
    """Couple the pointer to obs: branch lambda carries P_lambda|pre> at

    center x0 + coupling * lambda.  Branches of norm at most ZERO_TOL are
    dropped, so an eigenstate input yields a single branch of norm 1.
    """
    # ||P_k|pre>|| = sqrt <pre|P_k|pre>, read from the amplitudes the post-selection reads
    kept = np.flatnonzero(np.sqrt(obs.amplitudes(pre.vec, pre.vec).real) > ZERO_TOL)
    with np.errstate(over="ignore"):  # an infinite centre is reported by Density's reach check
        centers = cfg.x0 + cfg.coupling * np.array(obs.eigenvalues)[kept]
    return Branches(centers, kept, obs, pre)


def postselect(
    bs: Branches, post: State, cfg: PointerConfig
) -> tuple[list[tuple[float, complex]], float]:
    """Project the system on |post>; returns per-branch apparatus amplitudes

    [(center, <post|P_k|pre>)] and the exact post-selection rate.  The
    rate needs cfg because finite-delta Gaussian overlaps between branch
    pointer states contribute interference terms.
    """
    amps = _branch_amplitudes(bs, post)
    return amps, Density(amps, cfg.delta).rate


def _branch_amplitudes(bs: Branches, post: State) -> list[tuple[float, complex]]:
    """[(center, <post|P_k|pre>)] for each branch of bs, read from `Observable.amplitudes`."""
    amps = bs.obs.amplitudes(post.vec, bs.pre.vec)[bs.kept]
    if not amps.size or np.abs(amps).max() <= ZERO_TOL:
        raise PostSelectionImpossible(
            "post-selection state is orthogonal to every branch"
        )
    return list(zip(bs.centers.tolist(), amps.tolist()))


class Density:
    """Post-selected pointer density of amps [(c_i, alpha_i)]: closed-form rate, moments
    and masses, and the table `xs`, `ps` and its `inverse` CDF, built on first use."""

    def __init__(self, amps: Sequence[tuple[float, complex]], delta: float):
        if not amps:
            raise PostSelectionImpossible("no branches to build a density from")
        self.delta = delta = float(delta)
        self.centers = np.array([c for c, _ in amps], dtype=float)
        self.alphas = np.array([a for _, a in amps], dtype=complex)
        check_finite("alphas", self.alphas)  # a non-finite centre fails the reach check
        far = float(np.max(np.abs(self.centers)))
        reach = far + _REACH * delta  # the sampler sums n < 2^64 squares of up to this size
        if not (math.isfinite(reach * reach * 2.0**64) and math.isfinite(1.0 / delta)):
            raise PointerRangeError(f"delta = {delta!r} with centres up to |c| = {far!r}: "
                                    "1/delta or 2^64 (max|c| + 10 delta)^2 overflows")
        z = (self.centers[:, None] - self.centers[None, :]) / delta
        with np.errstate(over="ignore"):  # z * z overflows only where the kernel is 0
            kernel = np.exp(-(z * z) / 8.0)
        self.mids = (self.centers[:, None] + self.centers[None, :]) / 2.0
        self.weights = np.real(np.outer(self.alphas.conj(), self.alphas)) * kernel
        self.rate = float(self.weights.sum())
        if self.rate <= ZERO_RATE_TOL:
            raise PostSelectionImpossible("post-selected state carries no weight")

    def mean(self) -> float:
        return float((self.weights * self.mids).sum() / self.rate)

    def variance(self) -> float:
        """sum w (m^2 + delta^2) / rate - mean^2, summed about the mean."""
        dev = self.mids - self.mean()
        return float((self.weights * (dev * dev + self.delta**2)).sum() / self.rate)

    def mass_between(self, lo: float, hi: float) -> float:
        """Mass on [lo, hi], from the normal CDF of each pair term."""
        s, pairs = self.delta * math.sqrt(2.0), zip(self.weights.flat, self.mids.flat)
        total = sum(w * (math.erfc((m - hi) / s) - math.erfc((m - lo) / s)) for w, m in pairs)
        return total / (2.0 * self.rate)

    @functools.cached_property
    def xs(self) -> np.ndarray:
        """`_NODES` strictly increasing nodes over the merged windows c_i +- 10 delta,
        shared out by window length; rounding the running total hands out the remainder."""
        c = np.sort(self.centers)
        lo, hi = c - _REACH * self.delta, c + _REACH * self.delta
        first = np.concatenate(([True], lo[1:] > hi[:-1]))  # starts a merged window
        lo, hi = lo[first], hi[np.append(first[1:], True)]
        if np.all(hi > lo):
            ends = np.rint(_NODES * np.cumsum(hi - lo) / (hi - lo).sum()).astype(int)
            counts = np.diff(ends, prepend=0)
            xs = np.concatenate([np.linspace(a, b, k) for a, b, k in zip(lo, hi, counts)])
            if counts.min() >= 2 and np.all(np.diff(xs) > 0):
                return xs
        raise PointerRangeError(f"delta = {self.delta!r} is too small: a window c +- 10 delta "
                                "holds too few distinct doubles for its share of the nodes")

    @functools.cached_property
    def ps(self) -> np.ndarray:
        """|sum_i alpha_i G(x; c_i, delta)|^2 / rate at the nodes; never negative."""
        psi = sum(a * gaussian_amplitude(self.xs, c, self.delta)
                  for c, a in zip(self.centers, self.alphas))
        return np.abs(psi) ** 2 / self.rate

    @functools.cached_property
    def inverse(self) -> _InverseCdf:
        """The inverse of the trapezoid-rule CDF over the table, which `sample` draws with."""
        xs, ps = self.xs, self.ps
        cdf = np.concatenate(([0.0], np.cumsum((ps[1:] + ps[:-1]) / 2.0 * np.diff(xs))))
        cdf /= cdf[-1]
        return _InverseCdf(cdf, xs)


def pointer_density(amps: Sequence[tuple[float, complex]], cfg: PointerConfig) -> Density:
    """The post-selected pointer density of amps at cfg's spread."""
    return Density(list(amps), cfg.delta)


class PointerEnsemble(NamedTuple):
    """Moments of n Monte Carlo pointer readings, with the density and the seed
    of the Philox stream they were drawn from.  The draws themselves are not held."""

    mean: float
    variance: float
    density: Density
    postselect_rate: float
    n: int
    seed: int

    @property
    def samples(self) -> np.ndarray:
        """The n draws, regenerated from the stream on every read: O(n) memory."""
        out, at = np.empty(self.n), 0
        buf = _Buffers(min(_BLOCK, self.n))
        for block in _blocks(0, self.n, self.seed, self.density.inverse, buf):
            out[at : at + len(block)] = block
            at += len(block)
        return out


def _usable_cores() -> int:
    """Cores this process may run on: its affinity set where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@contextlib.contextmanager
def _in_workers(count: int, work: Callable[[int], object]) -> Iterator[Iterator]:
    """Run work(i) for i in range(count) on W workers; yield the results in order.

    W = min(usable cores, count), or 1 where os.fork is missing or another
    Python thread runs (a forked child could deadlock on a lock that thread
    holds).  Item i runs in worker i mod W.  Worker 0 is the caller, which
    runs its items as they are consumed.  Workers 1..W-1 are forked on
    entry, before the caller opens anything; each pickles its items, or the
    exception that stopped it, into a pipe of its own and ends with
    os._exit.  Pickle is the only format on a pipe: the caller loads a
    child's items in order and raises a child's exception at that item.  On
    leaving, every pipe is closed before any child is waited for, so a child
    blocked on a full pipe stops and none outlives the call.
    """
    workers = min(_usable_cores(), count)
    threading = sys.modules.get("threading")  # no Python thread runs before it is loaded
    if not hasattr(os, "fork") or (threading is not None and threading.active_count() > 1):
        workers = min(workers, 1)
    pipes, pids = [], []

    def results() -> Iterator:
        for i in range(count):
            if i % workers == 0:
                yield work(i)
                continue
            try:
                item = pickle.load(pipes[i % workers - 1])
            except (EOFError, pickle.UnpicklingError):
                raise ChildProcessError("a worker process ended before sending its items") from None
            if isinstance(item, BaseException):
                raise item
            yield item

    try:
        for k in range(1, workers):
            import fcntl  # POSIX, as os.fork is

            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            with contextlib.suppress(AttributeError, OSError):  # Linux, up to its pipe limit
                fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
            with open(w, "wb") as end:
                pid = os.fork()
                if pid == 0:
                    for pipe in pipes:
                        pipe.close()
                    _serve(end, range(k, count, workers), work)
                pids.append(pid)
        yield results()
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _serve(end, items: range, work: Callable[[int], object]):
    """A child's loop: pickle each item, or the exception that stopped it, into
    end, flushing after each.  Each is pickled whole before any of it is written,
    so no partial pickle goes ahead of an exception.  Never returns."""
    try:
        for i in items:
            end.write(pickle.dumps(work(i)))
            end.flush()
        os._exit(0)
    except BaseException as exc:  # ends here: a child must never unwind into the caller's frames
        try:
            text = pickle.dumps(exc)
        except Exception:
            text = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
        with contextlib.suppress(OSError):  # the caller has gone, and raises its own error
            end.write(text)
            end.flush()
    finally:
        os._exit(1)


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
        # cdf[j] <= c / _GUIDE exactly when ceil(cdf[j] * _GUIDE) <= c, as _GUIDE is a
        # power of two: so one count of the ceilings replaces a binary search per cell.
        ceilings = np.ceil(cdf * _GUIDE).astype(np.intp)
        self.guide = np.cumsum(np.bincount(ceilings, minlength=_GUIDE + 1)) - 1
        # Cells holding further nodes, where a draw may have to walk.
        self.walks = self.guide[1:] != self.guide[:-1]
        # Flat CDF runs give 0/0 and x/0 and tiny steps overflow; no draw
        # falls inside a flat run, and one on a node is handled in __call__.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            self.slopes = np.diff(xs) / np.diff(cdf)

    def __call__(self, u: np.ndarray, out: np.ndarray, buf: _Buffers):
        """Write np.interp(u, cdf, xs) to out, with temporaries from buf.

        out may be u itself: u is last read before out is first written.
        """
        cdf, xs = self.cdf, self.xs
        f, cell, node, flag = buf.first(len(u))
        cell[...] = np.multiply(u, _GUIDE, out=f)  # truncates, as astype(np.intp)
        # Every index is in range, and mode="clip" lets take write to out unbuffered.
        np.take(self.guide, cell, out=node, mode="clip")
        walk = np.flatnonzero(np.take(self.walks, cell, out=flag, mode="clip"))
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
        self.cell, self.node = np.empty(size, np.intp), np.empty(size, np.intp)
        self.flag = np.empty(size, bool)

    def first(self, m: int) -> tuple:
        """The first m entries of the inverter's temporaries f, cell, node, flag."""
        return self.f[:m], self.cell[:m], self.node[:m], self.flag[:m]


def _merge(a: tuple, b: tuple) -> tuple:
    """Combine two (count, mean, M2) summaries (Chan, Golub & LeVeque 1979)."""
    n_a, mean_a, m2_a = a
    n_b, mean_b, m2_b = b
    n = n_a + n_b
    d = mean_b - mean_a
    return n, mean_a + d * n_b / n, m2_a + m2_b + d * d * n_a * n_b / n


def _blocks(lo: int, hi: int, seed: int, inverse: _InverseCdf, buf: _Buffers) -> Iterator:
    """Draws lo..hi-1 of the Philox stream keyed by seed, lo a multiple of 4, in
    blocks of up to len(buf.u), each inverted in place over its uniforms in buf.u."""
    uniforms, size = np.random.Generator(np.random.Philox(key=seed).advance(lo // 4)), len(buf.u)
    for start in range(lo, hi, size):
        m = min(size, hi - start)
        u = uniforms.random(m, out=buf.u[:m])
        inverse(u, u, buf)
        yield u


def _fill_chunk(lo: int, hi: int, seed: int, inverse: _InverseCdf, buf: _Buffers) -> tuple:
    """(count, mean, M2) of draws lo..hi-1, merged block by block while each is in cache."""
    moments = []
    for block in _blocks(lo, hi, seed, inverse, buf):
        mean = block.mean()
        dev = np.subtract(block, mean, out=buf.f[: len(block)])
        dev *= dev
        moments.append((len(block), mean, dev.sum()))
    return functools.reduce(_merge, moments)


def sample(density: Density, n: int, seed: int) -> PointerEnsemble:
    """Draw n pointer readings by inverse-CDF on the tabulated density.

    The uniforms are one Philox stream keyed by seed.  Chunks of `_CHUNK`
    draws jump to their own offset in that stream, so they can be filled
    by one worker process per usable core (`_in_workers`).  Each chunk is
    reduced to its count, mean and M2 as it is drawn, and these are merged
    in chunk order, so the mean and variance do not depend on the core
    count, and no n-long array is held.
    """
    if n < 1:
        raise ValueError(f"need at least one sample, got n={n}")
    inverse = density.inverse
    buf = _Buffers(min(_BLOCK, n))  # each forked worker writes its own copy

    def chunk(i: int) -> tuple:
        return _fill_chunk(i * _CHUNK, min((i + 1) * _CHUNK, n), seed, inverse, buf)

    with _in_workers(-(-n // _CHUNK), chunk) as chunks:
        count, mean, m2 = functools.reduce(_merge, chunks)
    return PointerEnsemble(float(mean), float(m2 / count), density, density.rate, n, seed)


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
    amps = _branch_amplitudes(entangle(obs, pre, cfg), post)
    return sample(pointer_density(amps, cfg), n, seed)


class _TextTables(NamedTuple):
    """Constant tables of the CSV formatter."""

    ten: np.ndarray  # 10^0..10^19 as uint64
    five: np.ndarray  # 5^0..5^20 as uint64
    decades: np.ndarray  # the doubles nearest 10^-4..10^16
    digits: np.ndarray  # the ASCII of each 4-digit group 0000..9999 as one uint32
    # Row 21 a + f, for a < 16 and f <= 20: a 36-byte mask (as 9 uint32) that keeps
    # digit columns a..15 and 16..15+f, the integer and fraction digits of a number.
    masks: np.ndarray


@functools.cache
def _text_tables() -> _TextTables:
    """The formatter's tables, built on first use so that importing stays cheap."""
    ten = np.array([10**i for i in range(20)], dtype=np.uint64)
    five = np.array([5**i for i in range(21)], dtype=np.uint64)
    decades = np.array([float(f"1e{j}") for j in range(-4, 17)])
    groups = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    digits = groups.astype(np.uint8).view(np.uint32).ravel()
    col = np.arange(36)
    keep = (col >= np.arange(16)[:, None, None]) & (col < 16 + np.arange(21)[:, None])
    masks = (keep * 255).astype(np.uint8).view(np.uint32).reshape(16 * 21, 9)
    return _TextTables(ten, five, decades, digits, masks)


def _mul_128(a: np.ndarray, b: np.ndarray) -> tuple:
    """(high, low) 64-bit halves of a * b for uint64 a < 2^55 and b < 2^47, in 32-bit limbs."""
    u32, low32 = np.uint64(32), np.uint64(0xFFFFFFFF)
    a1, a0, b1, b0 = a >> u32, a & low32, b >> u32, b & low32
    p00 = a0 * b0
    mid = a0 * b1 + a1 * b0 + (p00 >> u32)  # < 2^56
    return a1 * b1 + (mid >> u32), (mid << u32) | (p00 & low32)


def _shift_128(high: np.ndarray, low: np.ndarray, s: np.ndarray) -> tuple:
    """Quotient and remainder of (high 2^64 + low) / 2^s, for 1 <= s <= 63."""
    one = np.uint64(1)
    return (high << (np.uint64(64) - s)) | (low >> s), low & ((one << s) - one)


def _put_groups(v: np.ndarray, out: np.ndarray):
    """Write the ASCII of uint64 v's last 4 c digits into out (n, c) uint32, four per column."""
    digits = _text_tables().digits
    for c in range(out.shape[1] - 1, 0, -1):
        rest = v // np.uint64(10**4)
        out[:, c] = digits[v - rest * np.uint64(10**4)]
        v = rest
    out[:, 0] = digits[v]


def _interval(mag: np.ndarray, k: np.ndarray) -> tuple:
    """Scale the positive normal doubles mag by 10^k, with mag 10^k in [10^16, 10^17).

    Returns the integer part and the remainder (over 2^s) of mag 10^k, s,
    and of the reals that read back as mag, scaled: the largest integer
    `top` and one less than the smallest, `below`.

    mag = m 2^q with 2^52 <= m < 2^53.  Those reals lie within half a gap
    of mag, (2m +- 1) 2^(q-1), except that the gap below m = 2^52 is half
    as wide: (4m - 1) 2^(q-2).  Scaled, mag and these ends are 4m 5^k and
    (4m +- 2) 5^k (or (4m - 1) 5^k) over 2^s with s = 2 - q - k in [1, 49],
    each split exactly from a 128-bit product.  Round-half-even reading
    keeps the ends only for even m.
    """
    u64 = np.uint64
    five = _text_tables().five[k]
    bits = mag.view(u64)
    m = (bits & u64(2**52 - 1)) | u64(2**52)
    s = u64(1077) - k.astype(u64) - (bits >> u64(52))  # q = exponent field - 1075
    high, low = _mul_128(m << u64(2), five)
    wide = five << u64(1)
    narrow = np.where(m == u64(2**52), five, wide)
    v_int, v_rem = _shift_128(high, low, s)
    w_low = low + wide
    w_int, w_rem = _shift_128(high + (w_low < low), w_low, s)
    u_int, u_rem = _shift_128(high - (low < narrow), low - narrow, s)
    closed = (m & u64(1)) == u64(0)
    top = w_int - (~closed & (w_rem == u64(0)))
    below = u_int - (closed & (u_rem == u64(0)))
    return v_int, v_rem, s, top, below


def _shortest(mag: np.ndarray, k: np.ndarray) -> tuple:
    """repr's digits of mag as an integer `near` ~ mag 10^k, and its trailing zeros t.

    Of the scaled integers that read back as mag, those with the most
    trailing zeros give the shortest digits; of these, repr takes the one
    nearest mag 10^k, ties to even.  This is the search of Ryu (Adams, PLDI
    2018) over exact integer bounds.
    """
    u64 = np.uint64
    ten = _text_tables().ten
    v_int, v_rem, s, top, below = _interval(mag, k)
    # A multiple of 10^t lies in (below, top] iff top mod 10^t < top - below.
    # That count of integers is 1 to 23, so t >= 2 needs top mod 100 < count
    # and then one more zero digit of top per step.
    count = top - below
    rest = top // u64(100)
    last2 = top - rest * u64(100)
    t = (last2 % u64(10) < count).astype(np.intp)
    live = np.flatnonzero(last2 < count)
    rest = rest[live]
    t[live] = 2
    while live.size:
        zero = rest % u64(10) == u64(0)
        live, rest = live[zero], rest[zero] // u64(10)
        t[live] += 1
    # The multiple of 10^t nearest mag 10^k.  At t = 0 the part rounded off
    # is v_rem / 2^s; above, it is rem / 10^t, with v_rem != 0 breaking a tie
    # upward.  One step brings it back into the interval.
    step = ten[t]
    q = v_int // step
    rem = np.where(t == 0, v_rem, v_int - q * step)
    half = np.where(t == 0, u64(1) << (s - u64(1)), step >> u64(1))
    odd = (q & u64(1)) == u64(1)
    near = (q + ((rem > half) | ((rem == half) & (odd | ((t != 0) & (v_rem != u64(0))))))) * step
    near -= step * (near > top)
    near += step * (near <= below)
    return near, t


def _put_repr(values: np.ndarray, out: np.ndarray):
    """Write repr(float(v)) of each float64 value into its row of out, NUL-padded.

    out is (n, `_FLOAT_COLS`) uint8.  repr prints the shortest digits that
    read back as v.  For 1e-4 <= |v| < 2^53, which repr writes in fixed
    notation, `_shortest` finds them for the whole column at once in uint64
    arithmetic; they are laid out around a fixed point column, and the digit
    columns outside repr's text are masked to NUL.  Every other value (zeros,
    tiny, huge and non-finite ones) gets repr itself.
    """
    tables = _text_tables()
    ten, decades, masks = tables.ten, tables.decades, tables.masks
    values = np.asarray(values, dtype=np.float64)
    mag = np.abs(values)
    fast = (mag >= decades[0]) & (mag < 2.0**53)  # decades[0] is 1e-4
    mag = np.where(fast, mag, 1.0)  # rows off the fast path are overwritten below
    j = np.searchsorted(decades, mag, "right") - 5  # 10^j <= mag < 10^(j+1)
    k = 16 - j
    near, t = _shortest(mag, k)
    # Fixed notation of near 10^-k: the integer part, and 20 fraction
    # digits as frac 10^(j+4) = f8 10^12 + f12.
    unit = ten[np.minimum(k, 19)]  # near < 10^17, so the integer part is 0 for k >= 17
    whole = near // unit
    frac = near - whole * unit
    cut = ten[np.maximum(8 - j, 0)]
    f8 = frac // cut
    f12 = (frac - f8 * cut) * ten[j + 4]
    f8 *= ten[np.maximum(j - 8, 0)]
    chars = np.empty((len(values), 9), np.uint32)
    _put_groups(whole, chars[:, :4])
    _put_groups(f8, chars[:, 4:6])
    _put_groups(f12, chars[:, 6:])
    # Keep the integer digits from the first significant one (or the units
    # digit) and the fraction digits up to the last significant one (or one).
    chars &= np.take(masks, (15 - np.maximum(j, 0)) * 21 + np.maximum(16 - t - j, 1), axis=0)
    text = chars.view(np.uint8)
    out[:, 0] = np.signbit(values).view(np.uint8) * np.uint8(ord("-"))
    out[:, 1:17] = text[:, :16]
    out[:, 17] = ord(".")
    out[:, 18:] = text[:, 16:]
    slow = np.flatnonzero(~fast)
    if slow.size:
        out[slow] = 0
        reprs = np.array([repr(v) for v in values[slow].tolist()], dtype="S24")
        out[slow, :24] = reprs.view(np.uint8).reshape(-1, 24)


def _put_index(lo: int, hi: int, out: np.ndarray):
    """Write lo..hi-1 (< 10^16) in decimal, NUL-padded on the left, into the rows of out.

    out has four columns per group of four digits, at most four groups.
    """
    tables = _text_tables()
    count = out.shape[1] // 4
    index = np.arange(lo, hi, dtype=np.uint64)
    chars = np.empty((hi - lo, count), np.uint32)
    _put_groups(index, chars)
    # Row (a, 0) of masks keeps integer columns a..15, here from the first digit on.
    lead = 15 - np.searchsorted(tables.ten[1:], index, "right")
    chars &= np.take(tables.masks[:, 4 - count : 4], lead * 21, axis=0)
    out[...] = chars.view(np.uint8)


def _write_csv(path: str, header: str, n: int, first_cols: int, put_first, values):
    """Write the header, then n rows: put_first's columns, a comma, a value's repr, \\r\\n.

    put_first(lo, hi, out) writes the first columns of rows lo..hi-1, and
    values(lo, hi) returns their floats.  Lines end in csv.writer's default
    \\r\\n.  Each batch of `_WRITE_ROWS` rows is built in one reused uint8
    matrix, whose NUL bytes are padding, and written without them.  The
    batches are formatted by `_in_workers`, whose processes fork before the
    file is opened.
    """
    rows = np.zeros((min(n, _WRITE_ROWS), first_cols + 1 + _FLOAT_COLS + 2), np.uint8)
    rows[:, first_cols] = ord(",")
    rows[:, -2:] = (ord("\r"), ord("\n"))

    def batch(i: int) -> bytes:
        lo, hi = i * _WRITE_ROWS, min((i + 1) * _WRITE_ROWS, n)
        text = rows[: hi - lo]
        put_first(lo, hi, text[:, :first_cols])
        _put_repr(values(lo, hi), text[:, first_cols + 1 : -2])
        return text[text != 0].tobytes()

    with _in_workers(-(-n // _WRITE_ROWS), batch) as batches, open(path, "wb") as handle:
        handle.write(header.encode() + b"\r\n")
        for text in batches:
            handle.write(text)


def write_density_csv(density: Density, path: str):
    def put_x(lo, hi, out):
        _put_repr(density.xs[lo:hi], out)

    _write_csv(path, "x,p_x", len(density.ps), _FLOAT_COLS, put_x, lambda lo, hi: density.ps[lo:hi])


def write_samples_csv(ens: PointerEnsemble, path: str):
    """Write ens's n draws as `index,x` rows.  Each batch's draws are made again
    from the stream, by the worker that formats the batch, so no n-long array is held."""
    # read before the workers fork, so that they share one table
    inverse, buf = ens.density.inverse, _Buffers(min(_WRITE_ROWS, ens.n))

    def draws(lo, hi):
        return next(_blocks(lo, hi, ens.seed, inverse, buf))

    digits = len(str(ens.n - 1))
    _write_csv(path, "index,x", ens.n, 4 * -(-digits // 4), _put_index, draws)
