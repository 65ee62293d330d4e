import numpy as np
import pytest

from ghzverify import protocol, sources
from ghzverify.qstate import DensityMatrix, GhzDiagonal, PureState

import oracles


def random_pure(n: int, rng: np.random.Generator) -> PureState:
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return PureState(n, v / np.linalg.norm(v))


def random_density(n: int, rng: np.random.Generator) -> DensityMatrix:
    d = 2**n
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    mat = g @ g.conj().T
    return DensityMatrix(n, mat / np.trace(mat).real)


def random_ghz_diagonal(n: int, rng: np.random.Generator) -> GhzDiagonal:
    """A random record: a background in [0, 1/(2^n - 1)), the corner weight
    that makes the trace 1, and a complex coherence of any size that weight
    allows."""
    b = rng.random() / (2**n - 1)
    w = 0.5 * (1.0 - (2**n - 2) * b)
    size = rng.random() * w
    return GhzDiagonal(n, w, b, size * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))


def dephased_ghz(n: int, p: float) -> GhzDiagonal:
    """The record a ``dephased-ghz`` source with dephasing p prepares."""
    return sources.prepare(sources.SourceModel("dephased-ghz", n, {"p": p}))


def depolarized_ghz(n: int, v: float) -> GhzDiagonal:
    """The record a ``depolarized-ghz`` source with visibility v prepares."""
    return sources.prepare(sources.SourceModel("depolarized-ghz", n, {"v": v}))


def random_valid_theta_angles(n: int, rng: np.random.Generator) -> list[float]:
    free = rng.uniform(0.0, np.pi, n - 1)
    return list(free) + [float((-free.sum()) % np.pi)]


def block_assignment(kind, n: int, rng, *, last_angle: float | None = None):
    """One assignment drawn as the angle step of a one-row block of
    ``protocol.run_block``."""
    kind = protocol.ProtocolKind(kind)
    return oracles.Assignment.of(protocol._angle_block(kind, n, 1, rng, last_angle)[0], kind)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
