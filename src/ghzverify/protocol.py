"""The verification protocol: angle sampling, the parity test, single-shot
rounds and exact pass probabilities.

A round distributes one copy of the resource state, asks every party for a
measurement at an angle chosen by the Verifier (angles sum to a multiple of
pi), and passes when the XOR of the reported outcome bits equals the parity
of that multiple.  Rounds with a declared loss are aborted and excluded from
the pass-rate denominator.

Rounds run in blocks of ``B`` rows with one random stream per block,
``(seed, block)``; ``run_block`` states the order of a block's draws.  Angles,
side information, uniforms, outcomes and pass bits are arrays over the rows
(``Rounds``), from the engine to the session's files.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Union

import numpy as np

from . import qstate
from .qstate import State

if TYPE_CHECKING:
    from .adversary import CheatStrategy

LOSS = "LOSS"


class ProtocolKind(str, Enum):
    THETA = "theta"
    XY = "xy"


@dataclass(frozen=True, eq=False)
class Rounds:
    """The rounds of a run as arrays, one row per round.

    ``angles`` (m, n) are the assignments, whose sums are multiples of pi,
    ``bits`` (m, n) the outcome bits (0 for the coalition members that answer
    nothing), ``lost`` (m, n) the declared losses, which stand for the bits
    beneath them in records, and ``passed`` (m,) the pass bits: 1 when the
    XOR of a row's bits equals the parity of its angle sum over pi.  They
    count only in rounds without loss.
    """

    angles: np.ndarray
    bits: np.ndarray
    lost: np.ndarray
    passed: np.ndarray

    def __len__(self) -> int:
        return len(self.angles)


@dataclass(frozen=True)
class PassStats:
    """Aggregated pass statistics over a batch of rounds."""

    valid: int
    passes: int
    estimate: float
    stderr: float
    loss_rates: tuple[float, ...]

    @classmethod
    def from_records(cls, records: Rounds) -> "PassStats":
        if not len(records):
            raise ValueError("no rounds to aggregate")
        valid_rows = ~records.lost.any(axis=1)
        valid = int(valid_rows.sum())
        if valid == 0:
            raise ValueError("pass probability is undefined: every round had loss")
        passes = int(records.passed[valid_rows].sum())
        est = passes / valid
        stderr = float(np.sqrt(est * (1.0 - est) / valid))
        rates = tuple(l / len(records) for l in records.lost.sum(axis=0).tolist())
        return cls(valid, passes, est, stderr, rates)

    def to_json_dict(self) -> dict:
        return {
            "valid_rounds": self.valid,
            "passes": self.passes,
            "estimate": self.estimate,
            "stderr": self.stderr,
            "loss_rates": list(self.loss_rates),
        }


# ---------------------------------------------------------------------------
# angle sampling


def _completion(partial: np.ndarray) -> np.ndarray:
    """The angles in [0, pi) that bring ``partial`` to multiples of pi."""
    last = np.mod(-partial, np.pi)
    return np.where(last == np.pi, 0.0, last)  # the remainder can round up to pi


def _angle_block(
    kind: ProtocolKind, n: int, m: int, rng: np.random.Generator, last_angle: float | None
) -> np.ndarray:
    """The angles (m, n) of m assignments, each row summing to a multiple of
    pi; the draws are the first step of the block layout in ``run_block``."""
    if n < 2:
        raise ValueError(f"need at least 2 parties, got {n}")
    if last_angle is not None:
        if kind is not ProtocolKind.THETA:
            raise ValueError("last_angle pins a theta assignment; the xy kind takes none")
        if not 0.0 <= last_angle < np.pi:
            raise ValueError(f"last_angle must lie in [0, pi), got {last_angle}")
    if kind is ProtocolKind.THETA:
        pinned = [] if last_angle is None else [np.full(m, float(last_angle))]
        free = rng.uniform(0.0, np.pi, (m, n - 1 - len(pinned)))
        last = _completion(free.sum(axis=1) + (last_angle or 0.0))
        return np.column_stack([free, last, *pinned])
    free = rng.integers(0, 2, (m, n - 1))
    return np.column_stack([free, free.sum(axis=1) % 2]) * (np.pi / 2)


# ---------------------------------------------------------------------------
# rounds

# rounds per block: each block of a run draws from its own stream
B = 4096


def _parties(source: State | None, strategy: CheatStrategy | None) -> tuple[int, int]:
    """(n, k): the party count and the number of honest parties."""
    if strategy is None:
        if source is None:
            raise ValueError("an all-honest round needs a source state")
        return source.n, source.n
    n = strategy.n_parties
    if source is not None and source.n != n:
        raise ValueError(f"the source has {source.n} qubits but the strategy is for {n} parties")
    return n, n - strategy.dishonest_count


def run_block(
    source: State | None,
    strategy: CheatStrategy | None,
    kind: ProtocolKind,
    m: int,
    rng: np.random.Generator,
    *,
    honest_loss: float = 0.0,
    last_angle: float | None = None,
) -> Rounds:
    """Execute m single-shot rounds on the draws of one generator.

    With ``strategy`` None every party is honest and measures its qubit of
    the source state.  Otherwise the strategy is played by the last
    ``strategy.dishonest_count`` of its ``strategy.n_parties`` parties: it
    supplies the state of the honest parties ``0..k-1`` (measuring its qubits
    of the source if it ``measures_source``), its first member answers for
    the coalition (possibly with LOSS) and the others report 0; a source given
    with a strategy must have one qubit per party.
    ``honest_loss`` in [0, 1) is an i.i.d. loss probability applied to honest
    parties, independent of their outcomes.

    Draw layout, in this order:

    1. angles: theta ``rng.uniform(0, pi, (m, n-1))``, the last party
       completing each row's sum; xy ``rng.integers(0, 2, (m, n-1))`` for
       angles ``{0, pi/2}``, the last forcing an even count of pi/2.  A
       pinned ``last_angle`` (theta only) draws ``rng.uniform(0, pi,
       (m, n-2))`` for parties 0..n-3 and party n-2 completes the sum.
    2. with a strategy, its side information (``CheatStrategy.draw_side``):
       arm, phase index and mask, each an (m,) draw where the strategy has one.
    3. measurement uniforms ``rng.random((m, n))``, column j for qubit j
       (``qstate.sample_rows``); a strategy that prepares the honest state
       leaves columns k.. unread.
    4. with ``honest_loss`` > 0, ``rng.random((m, k)) < honest_loss`` for the
       honest parties' losses.
    """
    check_honest_loss(honest_loss)
    kind = ProtocolKind(kind)
    n, k = _parties(source, strategy)
    angles = _angle_block(kind, n, m, rng, last_angle)
    lost = np.zeros((m, n), dtype=bool)
    if strategy is None:
        bits = qstate.sample_rows(source, angles, rng.random((m, n)))
    else:
        arm, phase = strategy.draw_side(rng, m)
        bits, lost[:, k] = strategy.play(source, arm, phase, angles, rng.random((m, n)))
    if honest_loss > 0.0:
        lost[:, :k] = rng.random((m, k)) < honest_loss
    parity = np.rint(angles.sum(axis=1) / np.pi).astype(np.int64) % 2
    passed = (bits.sum(axis=1) % 2 == parity).view(np.int8)
    return Rounds(angles, bits, lost, passed)


def check_honest_loss(honest_loss: float) -> None:
    """Reject an honest loss probability outside [0, 1), NaN included."""
    if not 0.0 <= honest_loss < 1.0:
        raise ValueError(f"honest_loss must lie in [0, 1), got {honest_loss}")


def base_seed(rng: Union[int, np.random.Generator]) -> int:
    if isinstance(rng, np.random.Generator):
        return int(rng.integers(0, 2**63))
    if not (isinstance(rng, (int, np.integer)) and rng >= 0):
        raise ValueError(f"seed must be a non-negative integer or a numpy Generator, got {rng!r}")
    return int(rng)


def run_rounds(
    source: State | None,
    strategy: CheatStrategy | None,
    kind: ProtocolKind,
    rounds: int,
    rng: Union[int, np.random.Generator],
    *,
    honest_loss: float = 0.0,
    last_angle: float | None = None,
) -> Rounds:
    """Run ``rounds`` independent rounds in blocks of ``B``: block b holds
    rounds ``b*B`` onwards and draws from the stream ``(seed, b)`` as
    ``run_block`` lays out, with ``seed`` the integer ``rng`` or a 63-bit
    integer drawn from the generator ``rng``."""
    qstate.check_count(rounds, "rounds")
    if rounds < 1:
        raise ValueError("need at least one round")
    seed = base_seed(rng)
    blocks = [
        run_block(
            source, strategy, kind, min(B, rounds - lo), np.random.default_rng((seed, b)),
            honest_loss=honest_loss, last_angle=last_angle,
        )
        for b, lo in enumerate(range(0, rounds, B))
    ]
    if len(blocks) == 1:
        return blocks[0]
    columns = ("angles", "bits", "lost", "passed")
    arrays = (np.concatenate([getattr(r, c) for r in blocks]) for c in columns)
    return Rounds(*arrays)


def estimate_pass_probability(
    source: State | None,
    strategy: CheatStrategy | None,
    kind: ProtocolKind,
    rounds: int,
    rng: Union[int, np.random.Generator],
    *,
    honest_loss: float = 0.0,
) -> PassStats:
    """Monte Carlo pass-probability estimate over single-shot rounds.

    Rounds with declared loss are excluded from the denominator; a run in
    which every round was lossy raises, since the estimate is undefined.
    """
    records = run_rounds(source, strategy, kind, rounds, rng, honest_loss=honest_loss)
    return PassStats.from_records(records)


# ---------------------------------------------------------------------------
# exact pass probabilities


def exact_pass_probability(rho: State, kind: ProtocolKind) -> float:
    """Exact pass probability of an all-honest round under protocol ``kind``:
    ``1/2 + Re rho[0, 2^n - 1]`` for both protocols, read as ``1/2 + Re x``
    with ``x = rho[2^n - 1, 0]`` from ``qstate.corner``.

    Theta: averaging the per-setting test operator over all valid
    assignments leaves ``|G_0><G_0| + (I - |G_0><G_0| - |G_pi><G_pi|)/2``, so
    the value is ``F_0 + (1 - F_0 - F_pi)/2 = 1/2 + (F_0 - F_pi)/2`` with
    ``F_a`` the overlap with the rotated GHZ state
    ``(|0..0> + e^{ia}|1..1>)/sqrt(2)``.  Writing ``N = 2^n - 1``,
    ``F_0 = (rho[0,0] + rho[N,N])/2 + Re rho[0,N]`` and
    ``F_pi = (rho[0,0] + rho[N,N])/2 - Re rho[0,N]``, so
    ``F_0 - F_pi = 2 Re rho[0,N]``.

    xy: the uniform average of the per-setting pass probability over all
    valid xy assignments.  A setting measures Y on an even-sized set S of
    parties and X on the rest; it passes with probability
    ``(1 + (-1)^{|S|/2} <O_S>)/2`` for the product observable ``O_S``.
    ``O_S`` maps ``|b>`` to its complement with the factor
    ``prod_{j in S} i(-1)^{b_j}``, so ``<O_S> = sum_b rho[b, ~b] i^{|S|}
    prod_{j in S} (-1)^{b_j}`` and ``(-1)^{|S|/2} i^{|S|} = 1``.  Summed over
    the even-sized S, ``prod_{j in S} (-1)^{b_j}`` gives
    ``(prod_j (1 + s_j) + prod_j (1 - s_j))/2`` with ``s_j = (-1)^{b_j}``,
    which is ``2^(n-1)`` for ``b = 0..0`` and ``b = 1..1`` and 0 otherwise.
    The average of ``(-1)^{|S|/2} <O_S>`` over the ``2^(n-1)`` settings is
    therefore ``rho[0, N] + rho[N, 0] = 2 Re rho[0, N]``.
    """
    ProtocolKind(kind)
    return 0.5 + qstate.corner(rho)[2].real
