"""Shared random-object builders and the acceptance summary hook.

All randomness flows through seeded generators created per test, so every
run sees the same draws.
"""

import math

import numpy as np
import pytest

from prepost import CMat, CVec, Projector, State
from prepost.linalg import index_labels

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def acceptance():
    """Record one pass/fail line per criterion, then enforce it."""

    def check(num: int, description: str, ok: bool):
        line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {description}"
        ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, line

    return check


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_vector(rng, dim: int, real: bool = False) -> CVec:
    amps = rng.standard_normal(dim)
    if not real:
        amps = amps + 1j * rng.standard_normal(dim)
    return CVec(amps, index_labels(dim))


def random_state(rng, dim: int, real: bool = False) -> State:
    return State.normalized(random_vector(rng, dim, real))


def random_state_pair(rng, dim: int, min_overlap: float = 0.05, real: bool = False):
    """Pre/post pair with overlap bounded away from zero."""
    while True:
        pre = random_state(rng, dim, real)
        post = random_state(rng, dim, real)
        if abs(np.vdot(post.vec.amps, pre.vec.amps)) >= min_overlap:
            return pre, post


def states_with_weak_value(wv: float, alpha: float) -> tuple[State, State]:
    """Pre-selection cos(alpha) a + sin(alpha) b and a unit post-selection at which
    |a><a| has the real weak value wv: <post|a><a|pre> and <post|b><b|pre> are wv and
    1 - wv times the overlap, each one product, so wv holds to rounding at any overlap.
    The overlap is near 1 for alpha near pi/2 and near sin(alpha) for small alpha and wv."""
    c, s = math.cos(alpha), math.sin(alpha)
    overlap = 1.0 / math.hypot(wv / c, (1.0 - wv) / s)
    labels = ("a", "b")
    post = CVec([wv * overlap / c, (1.0 - wv) * overlap / s], labels)
    return State(CVec([c, s], labels)), State(post)


def random_hermitian(rng, dim: int) -> CMat:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return CMat((m + m.conj().T) / 2.0, index_labels(dim))


def _haar_columns(rng, dim: int) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(m)
    return q


def random_projector(rng, dim: int, rank: int | None = None) -> Projector:
    if rank is None:
        rank = int(rng.integers(1, dim))
    cols = _haar_columns(rng, dim)[:, :rank]
    return Projector(cols, index_labels(dim))


def _basis_through(rng, vec: CVec) -> np.ndarray:
    """Orthonormal basis whose first column spans vec."""
    dim = vec.dim
    m = np.column_stack(
        [vec.amps, rng.standard_normal((dim, dim - 1)) + 1j * rng.standard_normal((dim, dim - 1))]
    )
    q, _ = np.linalg.qr(m)
    return q


def projector_containing(rng, vec: CVec, rank: int | None = None) -> Projector:
    """Random projector whose range includes the direction of vec."""
    dim = vec.dim
    if rank is None:
        rank = int(rng.integers(1, dim))
    q = _basis_through(rng, vec)
    cols = q[:, :rank]
    return Projector(cols, vec.labels)


def projector_orthogonal_to(rng, vec: CVec, rank: int | None = None) -> Projector:
    """Random projector whose range is orthogonal to vec."""
    dim = vec.dim
    if rank is None:
        rank = int(rng.integers(1, dim))
    q = _basis_through(rng, vec)
    cols = q[:, 1 : 1 + rank]
    return Projector(cols, vec.labels)


def diagonal_scenario_text(dim: int, gen) -> str:
    """A serialized file over k0..k(dim-1) with random pre/post states, X with
    eigenvalue j on |kj><kj| (dim ket-bra projectors) and a two-outcome span Y."""
    from prepost.scenfile import ObsDecl, ProjDecl, ScenarioDoc, StateDecl, serialize

    labels = tuple(f"k{j}" for j in range(dim))
    states = []
    for name in ("psi", "phi"):
        v = gen.normal(size=dim) + 1j * gen.normal(size=dim)
        states.append(StateDecl(name, tuple(zip(v / np.linalg.norm(v), labels))))
    third = dim // 3
    projs = [ProjDecl(f"P{j}", "ketbra", (labels[j],)) for j in range(dim)]
    projs += [ProjDecl("PY", "span", labels[:third]), ProjDecl("PYn", "span", labels[third:])]
    return serialize(ScenarioDoc(
        basis=labels,
        states=tuple(states),
        projs=tuple(projs),
        obs=(ObsDecl("X", tuple((float(j), f"P{j}") for j in range(dim))),
             ObsDecl("Y", ((1.0, "PY"), (0.0, "PYn")))),
        pre="psi",
        post="phi",
    ))


#: A coefficient nested `depth` levels deep, in each shape the scalar grammar recurses on.
NESTED_COEFFICIENTS = {
    "parentheses": lambda depth: "(" * depth + "1" + ")" * depth,
    "unary minus": lambda depth: "-" * depth + "1",
    "root sign": lambda depth: "√" * depth + "1",
}


def nested_state_text(shape: str, depth: int) -> str:
    """Two lines whose second declares a state with a nested coefficient; every
    shape evaluates to 1 at an even depth."""
    return f"basis a b\nstate psi = {NESTED_COEFFICIENTS[shape](depth)} a\n"
