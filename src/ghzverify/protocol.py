"""The verification protocol: angle sampling, the parity test, single-shot
rounds and exact pass probabilities.

A round distributes one copy of the resource state, asks every party for a
measurement at an angle chosen by the Verifier (angles sum to a multiple of
pi), and passes when the XOR of the reported outcome bits equals the parity
of that multiple.  Rounds with a declared loss are aborted and excluded from
the pass-rate denominator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence, Union

import numpy as np

from . import qstate
from .qstate import DensityMatrix, PureState, State

LOSS = "LOSS"

ANGLE_SUM_TOL = 1e-9


class ProtocolKind(str, Enum):
    THETA = "theta"
    XY = "xy"


class _Honest:
    """Marker policy for a party that measures honestly."""

    def __repr__(self):
        return "HONEST"


HONEST = _Honest()


@dataclass(frozen=True)
class AngleAssignment:
    """One round's angles (radians in [0, pi), one per party) plus the parity
    bit ``(sum theta_j)/pi mod 2`` the outcome XOR must reproduce."""

    angles: tuple[float, ...]
    kind: ProtocolKind
    parity: int

    def __post_init__(self):
        total = float(sum(self.angles))
        m = round(total / np.pi)
        if abs(total - m * np.pi) > ANGLE_SUM_TOL:
            raise ValueError("angle sum must be a multiple of pi within 1e-9")
        if any(not 0.0 <= a < np.pi for a in self.angles):
            raise ValueError("angles must lie in [0, pi)")
        if self.kind is ProtocolKind.XY and any(
            min(abs(a), abs(a - np.pi / 2)) > 1e-12 for a in self.angles
        ):
            raise ValueError("xy assignments only allow angles 0 and pi/2")
        if self.parity != m % 2:
            raise ValueError(f"parity {self.parity} inconsistent with angle sum {total}")

    @property
    def n(self) -> int:
        return len(self.angles)


@dataclass(frozen=True)
class RoundRecord:
    """A single round: the assignment, per-party outcomes (0, 1 or LOSS) and
    the pass bit, which is absent whenever any party declared loss."""

    index: int
    assignment: AngleAssignment
    outcomes: tuple[Union[int, str], ...]
    passed: int | None

    def __post_init__(self):
        lossy = any(o == LOSS for o in self.outcomes)
        if lossy != (self.passed is None):
            raise ValueError("passed must be present exactly when no loss was declared")

    def to_json_dict(self) -> dict:
        return {
            "round": self.index,
            "angles": list(self.assignment.angles),
            "outcomes": list(self.outcomes),
            "passed": self.passed,
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))


@dataclass(frozen=True)
class PassStats:
    """Aggregated pass statistics over a batch of rounds."""

    valid: int
    passes: int
    estimate: float
    stderr: float
    loss_rates: tuple[float, ...]

    @classmethod
    def from_records(cls, records: Sequence[RoundRecord]) -> "PassStats":
        if not records:
            raise ValueError("no rounds to aggregate")
        n = records[0].assignment.n
        losses = [0] * n
        valid = passes = 0
        for rec in records:
            for j, o in enumerate(rec.outcomes):
                if o == LOSS:
                    losses[j] += 1
            if rec.passed is not None:
                valid += 1
                passes += rec.passed
        if valid == 0:
            raise ValueError("pass probability is undefined: every round had loss")
        est = passes / valid
        stderr = float(np.sqrt(est * (1.0 - est) / valid))
        rates = tuple(l / len(records) for l in losses)
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
# angle sampling and the parity test


def _assignment_trusted(
    angles: tuple[float, ...], kind: ProtocolKind, parity: int
) -> AngleAssignment:
    """Construct without revalidating; only for values built to the invariant.

    The sampler produces millions of assignments per run; its output is
    invariant-checked by property tests instead of per instance.
    """
    asg = object.__new__(AngleAssignment)
    object.__setattr__(asg, "angles", angles)
    object.__setattr__(asg, "kind", kind)
    object.__setattr__(asg, "parity", parity)
    return asg


def sample_angles(kind: ProtocolKind, n: int, rng: np.random.Generator) -> AngleAssignment:
    """Draw one valid assignment; the last party's angle completes the sum.

    theta kind: the first n-1 angles are i.i.d. uniform on [0, pi).
    xy kind: the first n-1 angles are i.i.d. uniform on {0, pi/2} and the last
    one forces an even count of pi/2 entries.
    """
    if n < 2:
        raise ValueError(f"need at least 2 parties, got {n}")
    kind = ProtocolKind(kind)
    if kind is ProtocolKind.THETA:
        free = rng.uniform(0.0, np.pi, n - 1)
        last = (-free.sum()) % np.pi
        angles = tuple(float(a) for a in free) + (float(last),)
        total = free.sum() + last
    else:
        free = rng.integers(0, 2, n - 1)
        last_bit = int(free.sum()) % 2
        angles = tuple(float(b) * (np.pi / 2) for b in free) + (last_bit * (np.pi / 2),)
        total = (int(free.sum()) + last_bit) * (np.pi / 2)
    parity = int(round(total / np.pi)) % 2
    return _assignment_trusted(angles, kind, parity)


def parity_test(assignment: AngleAssignment, outcomes: Sequence[int]) -> int:
    """1 when the XOR of the outcome bits equals the assignment parity."""
    acc = 0
    for o in outcomes:
        if o == LOSS:
            raise ValueError("parity test is undefined when a loss was declared")
        if o not in (0, 1):
            raise ValueError(f"outcomes must be bits, got {o!r}")
        acc ^= o
    return 1 if acc == assignment.parity else 0


# ---------------------------------------------------------------------------
# rounds


SourceLike = Union[State, Callable[[], State], None]


def _resolve_source(source: SourceLike) -> State | None:
    if source is None or isinstance(source, (PureState, DensityMatrix)):
        return source
    if callable(source):
        return source()
    raise TypeError(f"unsupported source {source!r}")


def _split_policies(strategies) -> tuple[list[int], object | None]:
    """Return (dishonest party indices, their shared strategy)."""
    dishonest = [j for j, p in enumerate(strategies) if p is not HONEST]
    if not dishonest:
        return [], None
    strat = strategies[dishonest[0]]
    if any(strategies[j] is not strat for j in dishonest):
        raise ValueError("all dishonest parties must share one coalition strategy")
    if len(dishonest) != strat.dishonest_count:
        raise ValueError(
            f"strategy {strat.name!r} covers {strat.dishonest_count} parties, "
            f"{len(dishonest)} were marked dishonest"
        )
    return dishonest, strat


def run_round(
    source: SourceLike,
    strategies: Sequence[object] | None,
    kind: ProtocolKind,
    rng: np.random.Generator,
    *,
    honest_loss: float = 0.0,
    index: int = 0,
) -> RoundRecord:
    """Execute one single-shot round and return its record.

    ``strategies`` lists one policy per party: the HONEST marker or a shared
    CheatStrategy instance for every coalition member.  When all parties are
    honest the source state must cover all of them; otherwise the coalition
    supplies the honest parties' state and answers classically (possibly with
    LOSS).  ``honest_loss`` is an i.i.d. loss probability applied to honest
    parties, independent of their outcomes.
    """
    state = _resolve_source(source)
    if strategies is None:
        if state is None:
            raise ValueError("need either a source state or explicit strategies")
        n = state.n
        dishonest, strat = [], None
    else:
        n = len(strategies)
        dishonest, strat = _split_policies(strategies)
    assignment = sample_angles(kind, n, rng)

    if strat is None:
        if state is None or state.n != n:
            raise ValueError("source state arity does not match the party count")
        outcomes: list[Union[int, str]] = qstate.sample_outcomes(
            state, assignment.angles, rng
        )
        honest_parties = range(n)
    else:
        outcomes = [0] * n
        honest_parties = [j for j in range(n) if j not in dishonest]
        side = strat.sample_side_info(rng, state)
        honest_state = side.honest_state
        if honest_state.n != len(honest_parties):
            raise ValueError("strategy produced a state of the wrong arity")
        honest_angles = [assignment.angles[j] for j in honest_parties]
        bits = qstate.sample_outcomes(honest_state, honest_angles, rng)
        for j, b in zip(honest_parties, bits):
            outcomes[j] = b
        answer = strat.respond(side, tuple(assignment.angles[j] for j in dishonest))
        if answer not in (0, 1, LOSS):
            raise ValueError(f"strategy {strat.name!r} returned {answer!r}")
        outcomes[dishonest[0]] = answer

    if honest_loss > 0.0:
        drops = rng.random(len(honest_parties)) < honest_loss
        for j, drop in zip(honest_parties, drops):
            if drop:
                outcomes[j] = LOSS

    lossy = any(o == LOSS for o in outcomes)
    passed = None if lossy else parity_test(assignment, outcomes)
    return RoundRecord(index, assignment, tuple(outcomes), passed)


def round_rng(seed: int, index: int) -> np.random.Generator:
    """The per-round random stream: deterministic in (seed, round index)."""
    return np.random.default_rng((seed, index))


def base_seed(rng: Union[int, np.random.Generator]) -> int:
    if isinstance(rng, (int, np.integer)):
        return int(rng)
    return int(rng.integers(0, 2**63))


def run_rounds(
    source: SourceLike,
    strategies: Sequence[object] | None,
    kind: ProtocolKind,
    rounds: int,
    rng: Union[int, np.random.Generator],
    *,
    honest_loss: float = 0.0,
) -> list[RoundRecord]:
    """Run ``rounds`` independent rounds with per-round derived streams."""
    if rounds < 1:
        raise ValueError("need at least one round")
    seed = base_seed(rng)
    return [
        run_round(
            source, strategies, kind, round_rng(seed, i), honest_loss=honest_loss, index=i
        )
        for i in range(rounds)
    ]


def estimate_pass_probability(
    source: SourceLike,
    strategies: Sequence[object] | None,
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
    records = run_rounds(source, strategies, kind, rounds, rng, honest_loss=honest_loss)
    return PassStats.from_records(records)


# ---------------------------------------------------------------------------
# exact pass probabilities


def exact_pass_probability_theta(rho: DensityMatrix) -> float:
    """Exact pass probability under uniformly random theta assignments:
    ``1/2 + Re rho[0, 2^n - 1]``.

    Averaging the per-setting test operator over all valid assignments leaves
    ``|G_0><G_0| + (I - |G_0><G_0| - |G_pi><G_pi|)/2``, so the value is
    ``F_0 + (1 - F_0 - F_pi)/2 = 1/2 + (F_0 - F_pi)/2`` with ``F_a`` the
    overlap with the rotated GHZ state ``(|0..0> + e^{ia}|1..1>)/sqrt(2)``.
    Writing ``N = 2^n - 1``,
    ``F_0 = (rho[0,0] + rho[N,N])/2 + Re rho[0,N]`` and
    ``F_pi = (rho[0,0] + rho[N,N])/2 - Re rho[0,N]``, so
    ``F_0 - F_pi = 2 Re rho[0,N]``.
    """
    return 0.5 + float(rho.entries[0, -1].real)


def xy_valid_settings(n: int) -> list[tuple[float, ...]]:
    """All 2**(n-1) xy assignments with an even count of pi/2 entries."""
    settings = []
    for bits in range(2**n):
        if bin(bits).count("1") % 2 == 0:
            settings.append(tuple(((bits >> j) & 1) * (np.pi / 2) for j in range(n)))
    return settings


def exact_pass_probability_xy(rho: DensityMatrix) -> float:
    """Exact pass probability under the xy protocol, the uniform average of
    the per-setting pass probability over all valid xy assignments:
    ``1/2 + Re rho[0, 2^n - 1]``, the same value as the theta protocol.

    A setting measures Y on an even-sized set S of parties and X on the rest;
    it passes with probability ``(1 + (-1)^{|S|/2} <O_S>)/2`` for the product
    observable ``O_S``.  ``O_S`` maps ``|b>`` to its complement with the factor
    ``prod_{j in S} i(-1)^{b_j}``, so ``<O_S> = sum_b rho[b, ~b] i^{|S|}
    prod_{j in S} (-1)^{b_j}`` and ``(-1)^{|S|/2} i^{|S|} = 1``.  Summed over
    the even-sized S, ``prod_{j in S} (-1)^{b_j}`` gives
    ``(prod_j (1 + s_j) + prod_j (1 - s_j))/2`` with ``s_j = (-1)^{b_j}``,
    which is ``2^(n-1)`` for ``b = 0..0`` and ``b = 1..1`` and 0 otherwise.
    The average of ``(-1)^{|S|/2} <O_S>`` over the ``2^(n-1)`` settings is
    therefore ``rho[0, N] + rho[N, 0] = 2 Re rho[0, N]`` with ``N = 2^n - 1``.
    """
    return 0.5 + float(rho.entries[0, -1].real)


def exact_pass_probability(rho: DensityMatrix, kind: ProtocolKind) -> float:
    kind = ProtocolKind(kind)
    if kind is ProtocolKind.THETA:
        return exact_pass_probability_theta(rho)
    return exact_pass_probability_xy(rho)
