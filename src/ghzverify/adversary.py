"""Dishonest-coalition analysis and concrete cheating strategies.

The coalition (which may include the source) tries to convince the Verifier
while holding a state whose honest part is not genuinely multipartite
entangled.  Its best move against a given honest angle is a Helstrom
measurement distinguishing the two components of the honest state along the
rotated-GHZ directions; the closed forms here quantify that, and the strategy
constructors turn the optimal plays (including loss declaration) into
round-by-round response policies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from . import qstate
from .protocol import LOSS
from .qstate import DensityMatrix, PureState, State

XY_OPTIMUM = math.cos(math.pi / 8) ** 2

# phases of the four coordinated Bell-type states used to hide basis-dependent
# loss: answer tables stay balanced because each basis serves half of them
_BELL_PHASES = (0.0, math.pi, math.pi / 2, 3 * math.pi / 2)


@dataclass(frozen=True)
class Coalition:
    """A partition of n parties into an honest set and a dishonest set."""

    n: int
    dishonest: frozenset[int]

    def __init__(self, n: int, dishonest):
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "dishonest", frozenset(int(j) for j in dishonest))
        if self.n < 2:
            raise ValueError("need at least 2 parties")
        if any(j < 0 or j >= self.n for j in self.dishonest):
            raise ValueError("dishonest indices out of range")
        if len(self.dishonest) >= self.n:
            raise ValueError("at least one party (the Verifier) must be honest")

    @property
    def honest(self) -> tuple[int, ...]:
        return tuple(j for j in range(self.n) if j not in self.dishonest)

    @property
    def k(self) -> int:
        return self.n - len(self.dishonest)


@dataclass(frozen=True)
class GhzDecomposition:
    """Split of a pure state against the honest-side rotated-GHZ directions.

    With honest parties grouped first, the state reads
    ``|G_t>|psi_t> + |G_{t+pi}>|psi_{t+pi}> + |chi>`` where the honest part of
    ``chi`` is orthogonal to both rotated GHZ vectors.  ``p`` and ``q`` are
    the squared norms of the two dishonest-side vectors and ``overlap`` their
    inner product.
    """

    theta: float
    coalition: Coalition
    psi_theta: np.ndarray
    psi_theta_pi: np.ndarray
    chi: np.ndarray
    p_theta: float
    q_theta: float
    overlap: complex

    def reconstruct_honest_first(self) -> np.ndarray:
        """The original state in honest-first qubit layout."""
        k = self.coalition.k
        g0 = qstate.ghz_state(k, self.theta).amplitudes
        g1 = qstate.ghz_state(k, self.theta + np.pi).amplitudes
        return np.kron(g0, self.psi_theta) + np.kron(g1, self.psi_theta_pi) + self.chi


def _qubit_permutation(arr: np.ndarray, order: Sequence[int]) -> np.ndarray:
    """Relabel qubit order[i] as qubit i of a state vector (rank 1) or a
    density matrix (rank 2)."""
    n = len(order)
    # tensor axis a of each index group holds qubit n-1-a
    axes = [n - 1 - old for old in reversed(order)]
    if arr.ndim == 2:
        axes += [n + a for a in axes]
    return arr.reshape((2,) * (arr.ndim * n)).transpose(axes).reshape(arr.shape)


def honest_first_vector(psi: PureState, coalition: Coalition) -> np.ndarray:
    """Amplitudes reindexed so honest parties occupy the high qubits.

    The result reshapes to (2**k, 2**d): row = honest basis index, column =
    dishonest basis index, each group keeping ascending party order.
    """
    order = sorted(coalition.dishonest) + list(coalition.honest)
    return _qubit_permutation(psi.amplitudes, order)


def _honest_matrix(psi: PureState, coalition: Coalition) -> np.ndarray:
    vec = honest_first_vector(psi, coalition)
    return vec.reshape(2**coalition.k, -1)


def decompose_vs_ghz(psi: PureState, coalition: Coalition, theta: float) -> GhzDecomposition:
    """Project the honest subsystem onto the two rotated-GHZ directions."""
    if psi.n != coalition.n:
        raise ValueError("state arity does not match the coalition")
    mat = _honest_matrix(psi, coalition)
    a = mat[0, :]
    b = mat[-1, :]
    phase = np.exp(-1j * theta)
    psi_t = (a + phase * b) / np.sqrt(2.0)
    psi_tp = (a - phase * b) / np.sqrt(2.0)
    k = coalition.k
    g0 = qstate.ghz_state(k, theta).amplitudes
    g1 = qstate.ghz_state(k, theta + np.pi).amplitudes
    chi = mat.reshape(-1) - np.kron(g0, psi_t) - np.kron(g1, psi_tp)
    return GhzDecomposition(
        theta=float(theta),
        coalition=coalition,
        psi_theta=psi_t,
        psi_theta_pi=psi_tp,
        chi=chi,
        p_theta=float(np.vdot(psi_t, psi_t).real),
        q_theta=float(np.vdot(psi_tp, psi_tp).real),
        overlap=complex(np.vdot(psi_t, psi_tp)),
    )


def helstrom_guess_probability(decomp: GhzDecomposition) -> float:
    """Optimal probability of guessing the honest parity from the dishonest
    share: ``1/2 + sqrt((p+q)^2 - 4|overlap|^2)/2``."""
    radicand = (decomp.p_theta + decomp.q_theta) ** 2 - 4.0 * abs(decomp.overlap) ** 2
    if radicand < -1e-12:
        raise ValueError(f"negative Helstrom radicand {radicand}: corrupted decomposition")
    return 0.5 + 0.5 * math.sqrt(max(radicand, 0.0))


def _reduced_honest_density(state: State, coalition: Coalition) -> DensityMatrix:
    if isinstance(state, PureState):
        mat = _honest_matrix(state, coalition)
        return DensityMatrix(coalition.k, mat @ mat.conj().T)
    return qstate.partial_trace(state, coalition.honest)


def _ghz_reduced(k: int) -> DensityMatrix:
    mat = np.zeros((2**k, 2**k), dtype=complex)
    mat[0, 0] = mat[-1, -1] = 0.5
    return DensityMatrix(k, mat)


LabeledMixture = Sequence[tuple[float, State]]


def best_dishonest_fidelity(
    state: Union[State, LabeledMixture], coalition: Coalition
) -> float:
    """Fidelity to the ideal GHZ state maximized over the coalition's local
    operations: the fidelity between the reduced honest states.

    A labeled mixture ``[(weight, state), ...]`` models a source that also
    hands the coalition a classical label; the value is then the
    weight-averaged optimum over the components.
    """
    if not isinstance(state, (PureState, DensityMatrix)):
        parts = list(state)
        weights = np.array([w for w, _ in parts], dtype=float)
        if abs(weights.sum() - 1.0) > 1e-9 or np.any(weights < 0):
            raise ValueError("mixture weights must be nonnegative and sum to 1")
        return float(
            sum(w * best_dishonest_fidelity(s, coalition) for w, s in parts)
        )
    reduced = _reduced_honest_density(state, coalition)
    return qstate.fidelity(reduced, _ghz_reduced(coalition.k))


def averaged_guess_probability(
    psi: PureState, coalition: Coalition, grid: int = 10_000
) -> float:
    """Average of the Helstrom guess probability over a uniform honest angle.

    Evaluated by the trapezoid rule on ``grid`` intervals over [0, pi]; the
    integrand is pi-periodic and smooth, so the quadrature error is far below
    the statistical tolerances used elsewhere.
    """
    if grid < 1_000:
        raise ValueError("grid must be at least 1000 points")
    mat = _honest_matrix(psi, coalition)
    a = mat[0, :]
    b = mat[-1, :]
    norm_a = float(np.vdot(a, a).real)
    norm_b = float(np.vdot(b, b).real)
    cross = complex(np.vdot(a, b))
    thetas = np.linspace(0.0, np.pi, grid + 1)
    # p+q is theta-independent; the overlap rotates with the honest angle
    total = 0.5 * (norm_a + norm_b)
    rotating = np.exp(-1j * thetas) * cross
    overlap_sq = (0.5 * (norm_a - norm_b)) ** 2 + rotating.imag**2
    radicand = np.clip((2.0 * total) ** 2 - 4.0 * overlap_sq, 0.0, None)
    values = 0.5 + 0.5 * np.sqrt(radicand)
    return float(np.trapezoid(values, thetas) / np.pi)


def xy_optimal_pass_probability(psi: PureState, coalition: Coalition) -> float:
    """Exact pass probability under the xy protocol when the coalition plays
    the optimal guess for every setting: the average Helstrom guess
    probability over the 2**(n-1) valid xy assignments.

    A setting enters only through its honest angle sum mod pi: 0 or pi/2 for
    an even or odd count of honest pi/2 angles.  Valid settings are the n-bit
    strings of even weight, so with a dishonest party to complete the parity
    the honest bits are uniform over all 2**k strings, and the average is
    ``(H(0) + H(pi/2))/2`` with ``H`` the Helstrom guess probability at that
    honest angle.  Without dishonest parties the honest count is always even.
    """
    honest_angles = (0.0, math.pi / 2) if coalition.dishonest else (0.0,)
    values = [
        helstrom_guess_probability(decompose_vs_ghz(psi, coalition, t)) for t in honest_angles
    ]
    return float(np.mean(values))


# ---------------------------------------------------------------------------
# loss-dependent optimal cheating curves


def theta_cheat_pass_curve(lam: float) -> float:
    """Best non-GME pass probability for the theta protocol at loss rate lam:
    ``1/2 + sin(a)/(2a)`` with ``a = pi(1-lam)/2``."""
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"loss rate must lie in [0, 1), got {lam}")
    a = math.pi * (1.0 - lam) / 2.0
    return 0.5 + math.sin(a) / (2.0 * a)


def xy_cheat_pass_curve(lam: float) -> float:
    """Best non-GME pass probability for the xy protocol at loss rate lam:
    ``(lam + (1-2*lam) cos^2(pi/8)) / (1-lam)``."""
    if not 0.0 <= lam <= 0.5:
        raise ValueError(f"loss rate must lie in [0, 1/2], got {lam}")
    return (lam + (1.0 - 2.0 * lam) * XY_OPTIMUM) / (1.0 - lam)


# ---------------------------------------------------------------------------
# concrete strategies


class SideInfo(NamedTuple):
    """Per-round data shared inside the coalition: the state handed to the
    honest parties plus whatever classical label the source produced."""

    label: object
    honest_state: State


class _RoundLabel(NamedTuple):
    phase: float
    loss_mode: str  # "none" | "xy-basis" | "arc"
    lam: float


@dataclass(frozen=True)
class CheatStrategy:
    """A dishonest coalition's round policy.

    ``sample_side_info(rng, source_state)`` prepares one round: it returns the
    state the honest parties will measure together with the coalition's
    classical side information.  ``respond(side, angles)`` maps the coalition's
    requested angles to an outcome bit or LOSS and is a total deterministic
    function of its inputs.
    """

    name: str
    dishonest_count: int
    target_loss_rate: float
    sample_side_info: Callable[[np.random.Generator, State | None], SideInfo]
    respond: Callable[[SideInfo, tuple[float, ...]], Union[int, str]]


def _respond_from_label(side: SideInfo, angles: tuple[float, ...]) -> Union[int, str]:
    """Shared response rule: answer the likelier parity, or declare loss.

    With the honest parties holding a rotated GHZ state of phase ``phi`` and
    the coalition asked angles summing to ``t``, answering bit
    ``[cos(t + phi) < 0]`` passes with probability ``(1 + |cos(t + phi)|)/2``.
    Loss modes: "xy-basis" declares loss whenever the request is not aligned
    with the state (|cos| below 1/2), "arc" declares loss on a half-open arc
    of width lam*pi centred on the alignment minimum.
    """
    label: _RoundLabel = side.label
    t = float(sum(angles))
    alignment = math.cos(t + label.phase)
    if label.loss_mode == "xy-basis":
        if abs(alignment) < 0.5:
            return LOSS
    elif label.loss_mode == "arc":
        offset = (t + label.phase) % math.pi - math.pi / 2.0
        if -label.lam * math.pi / 2.0 <= offset < label.lam * math.pi / 2.0:
            return LOSS
    return 0 if alignment >= 0.0 else 1


def _ghz_side(phase: float, k: int, loss_mode: str, lam: float) -> SideInfo:
    return SideInfo(_RoundLabel(phase, loss_mode, lam), qstate.ghz_state(k, phase))


def measure_parties(
    state: State, coalition: Coalition, angles: Sequence[float], rng: np.random.Generator
) -> tuple[list[int], State]:
    """Measure the dishonest parties' qubits of an n-party state in the
    equatorial bases given by ``angles`` (one per dishonest qubit, ascending
    party order) and return (outcome bits, collapsed honest state).  Draws
    follow the sampling contract in ``qstate``."""
    if len(angles) != coalition.n - coalition.k:
        raise ValueError("need one measurement angle per dishonest qubit")
    pure = isinstance(state, PureState)
    order = sorted(coalition.dishonest) + list(coalition.honest)
    arr = _qubit_permutation(state.amplitudes if pure else state.entries, order)
    bits, rest = qstate._measure_low_qubits(arr, angles, rng.random(len(angles)))
    return bits, (PureState if pure else DensityMatrix)(coalition.k, rest)


def make_strategy(
    name: str,
    *,
    n_parties: int,
    dishonest_count: int = 1,
    lam: float | None = None,
    theta_prime: float | None = None,
) -> CheatStrategy:
    """Build a named cheating strategy for a coalition of the given size.

    Available strategies (k = number of honest parties):

    * ``xy-perfect-loss50`` -- the source sends one of four coordinated
      Bell-type states uniformly at random; the coalition answers only when
      its requested basis matches, declaring loss otherwise.  Passes every
      valid round at 50% declared loss, with basis-balanced answers and
      losses.
    * ``xy-naive-loss`` -- the unmixed version of the above (always the same
      state, loss always on the mismatched basis); detectable by the audit.
    * ``xy-rotated-bell`` -- pi/4-rotated state with a random multiple-of-pi/2
      masking offset; never declares loss and passes at cos^2(pi/8).
    * ``xy-mixed`` (lam) -- probabilistic mixture: with probability 2*lam play
      xy-perfect-loss50, otherwise xy-rotated-bell.
    * ``theta-rotated-bell`` (lam, theta_prime) -- rotated state with a fresh
      uniform masking rotation each round; declares loss on the width-lam*pi
      arc of requested angles where the pass probability is lowest, so
      declared-loss angles stay uniform over rounds.
    * ``projective-cheat`` (lam, theta_prime) -- measures the coalition's
      qubits of the (possibly noisy) source state to steer the honest parties
      into a rotated non-GME state, then plays theta-rotated-bell's rule.
    * ``product-guesser`` (theta_prime) -- fixed rotated state, no loss,
      always answers the likelier parity.
    """
    if dishonest_count < 1 or dishonest_count >= n_parties:
        raise ValueError("dishonest_count must leave at least one honest party")
    k = n_parties - dishonest_count
    tp = 0.0 if theta_prime is None else float(theta_prime)
    if not 0.0 <= tp < 2.0 * math.pi:
        raise ValueError("theta_prime must lie in [0, 2*pi)")

    if name == "xy-perfect-loss50":
        def sample(rng, _source):
            phase = _BELL_PHASES[rng.integers(0, 4)]
            return _ghz_side(phase, k, "xy-basis", 0.0)

        return CheatStrategy(name, dishonest_count, 0.5, sample, _respond_from_label)

    if name == "xy-naive-loss":
        def sample(rng, _source):
            return _ghz_side(0.0, k, "xy-basis", 0.0)

        return CheatStrategy(name, dishonest_count, 0.5, sample, _respond_from_label)

    if name == "xy-rotated-bell":
        def sample(rng, _source):
            phase = math.pi / 4 + rng.integers(0, 4) * math.pi / 2
            return _ghz_side(phase, k, "none", 0.0)

        return CheatStrategy(name, dishonest_count, 0.0, sample, _respond_from_label)

    if name == "xy-mixed":
        if lam is None or not 0.0 <= lam <= 0.5:
            raise ValueError("xy-mixed needs lam in [0, 1/2]")
        lam = float(lam)

        def sample(rng, _source):
            if rng.random() < 2.0 * lam:
                phase = _BELL_PHASES[rng.integers(0, 4)]
                return _ghz_side(phase, k, "xy-basis", 0.0)
            phase = math.pi / 4 + rng.integers(0, 4) * math.pi / 2
            return _ghz_side(phase, k, "none", 0.0)

        return CheatStrategy(name, dishonest_count, lam, sample, _respond_from_label)

    if name == "theta-rotated-bell":
        if lam is None or not 0.0 <= lam < 1.0:
            raise ValueError("theta-rotated-bell needs lam in [0, 1)")
        lam = float(lam)

        def sample(rng, _source):
            mask = rng.uniform(0.0, math.pi)
            return _ghz_side((tp + mask) % (2.0 * math.pi), k, "arc", lam)

        return CheatStrategy(name, dishonest_count, lam, sample, _respond_from_label)

    if name == "projective-cheat":
        if lam is None or not 0.0 <= lam < 1.0:
            raise ValueError("projective-cheat needs lam in [0, 1)")
        lam = float(lam)
        coalition = Coalition(n_parties, range(k, n_parties))

        def sample(rng, source):
            if source is None:
                raise ValueError("projective-cheat needs a source state to measure")
            mask = rng.uniform(0.0, math.pi)
            target = (tp + mask) % (2.0 * math.pi)
            meas = [(-target) % (2.0 * math.pi) % math.pi] + [0.0] * (dishonest_count - 1)
            # fold any mod-pi wraparound of the measurement angle into the label
            wrap = round((((-target) % (2.0 * math.pi)) - meas[0]) / math.pi)
            bits, honest_state = measure_parties(source, coalition, meas, rng)
            flips = (sum(bits) + wrap) % 2
            phase = (target + flips * math.pi) % (2.0 * math.pi)
            return SideInfo(_RoundLabel(phase, "arc", lam), honest_state)

        return CheatStrategy(name, dishonest_count, lam, sample, _respond_from_label)

    if name == "product-guesser":
        def sample(rng, _source):
            return _ghz_side(tp, k, "none", 0.0)

        return CheatStrategy(name, dishonest_count, 0.0, sample, _respond_from_label)

    raise ValueError(f"unknown strategy {name!r}")


STRATEGY_NAMES = (
    "xy-perfect-loss50",
    "xy-naive-loss",
    "xy-rotated-bell",
    "xy-mixed",
    "theta-rotated-bell",
    "projective-cheat",
    "product-guesser",
)
