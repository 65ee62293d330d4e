"""Dishonest-coalition analysis and concrete cheating strategies.

The coalition (which may include the source) tries to convince the Verifier
while holding a state whose honest part is not genuinely multipartite
entangled.  Two quantities bound it: its best guess of the honest parity,
a Helstrom measurement on its share against a given honest angle, and the
best GHZ fidelity its local operations can reach.  Both depend on the state
only through the corner block of the honest reduced state on the all-0 and
all-1 honest strings (``qstate.corner``); the closed forms here are
functions of its three entries.
The strategy constructors turn the optimal plays (including loss
declaration) into round-by-round response policies.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import qstate
from .qstate import PureState, State
from .sources import check_key_params, format_key, key_number, key_params, split_key

XY_OPTIMUM = math.cos(math.pi / 8) ** 2

@dataclass(frozen=True)
class Coalition:
    """A partition of n parties into an honest set and a dishonest set."""

    n: int
    dishonest: frozenset[int]

    def __init__(self, n: int, dishonest):
        qstate.check_count(n, "party count")
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


def _corner(state: State, coalition: Coalition) -> tuple[float, float, complex]:
    """``qstate.corner`` of the honest reduced state: the coalition traced out."""
    if state.n != coalition.n:
        raise ValueError(f"state has {state.n} qubits but the coalition has {coalition.n} parties")
    return qstate.corner(state, coalition.dishonest)


def _radicand(product: float, square: float) -> float:
    """``product - square``, or 0 when that is below ``4*eps*product``.

    Every radicand here is ``r00*rNN`` less a square that Cauchy-Schwarz
    bounds by it, and it is exactly 0 for a rank-1 corner block (every party
    honest, say), where rounding leaves a remainder of order eps*product
    whose square root is of order 1e-9; as ``qstate._clip_spectrum`` does
    for eigenvalues, such a remainder, or a negative one, is set to 0.
    """
    radicand = product - square
    return radicand if radicand > 4.0 * np.finfo(float).eps * product else 0.0


def _pure_corner(psi: PureState, coalition: Coalition, caller: str) -> tuple[float, float, complex]:
    """``_corner`` of a pure state; the Helstrom closed forms need one."""
    if not isinstance(psi, PureState):
        raise TypeError(f"{caller} needs a PureState, got {type(psi).__name__}")
    return _corner(psi, coalition)


def best_dishonest_fidelity(state: State, coalition: Coalition) -> float:
    """Fidelity to the ideal GHZ state maximized over the coalition's local
    operations: the fidelity between the reduced honest states.

    The ideal reduced state ``sigma = (|0><0| + |N><N|)/2`` has rank 2, so
    ``sqrt(sigma) rho_H sqrt(sigma)`` is half the corner block
    ``M = [[r00, conj(x)], [x, rNN]]`` (``_corner``) and
    ``F = Tr[sqrt(M/2)]^2 = (tr M + 2 sqrt(det M))/2``, that is
    ``(r00 + rNN)/2 + sqrt(r00*rNN - |x|^2)``.  ``sigma`` is the honest
    reduced state of the GHZ state whenever the coalition is not empty.
    Without a coalition there is nothing to optimise, and the value is the
    GHZ fidelity ``<GHZ|rho|GHZ> = (r00 + rNN)/2 + Re x``, clamped to [0, 1]
    as ``qstate.fidelity`` clamps it.
    """
    r00, rnn, x = _corner(state, coalition)
    if not coalition.dishonest:
        return min(max(0.5 * (r00 + rnn) + x.real, 0.0), 1.0)
    return 0.5 * (r00 + rnn) + math.sqrt(_radicand(r00 * rnn, abs(x) ** 2))


def averaged_guess_probability(psi: PureState, coalition: Coalition) -> float:
    """Average of the Helstrom guess probability over a uniform honest angle.

    At honest angle ``t`` the guess is
    ``G(t) = 1/2 + sqrt(r00*rNN - Im(e^{-it} x)^2)`` (see
    ``xy_optimal_pass_probability``).  With ``x = |x| e^{i*phi}`` the square
    is ``|x|^2 sin^2(phi - t)``, so over t uniform on [0, pi]
    ``mean sqrt(P - |x|^2 sin^2 u) = (2/pi) sqrt(P) E(|x|^2/P)``, with
    ``P = r00*rNN`` and ``E`` the complete elliptic integral of the second
    kind in the parameter convention of ``scipy.special.ellipe``.  The value
    is 1/2 when ``P = 0``.
    """
    # imported here, so that importing the package loads no scipy
    from scipy import special

    r00, rnn, x = _pure_corner(psi, coalition, "averaged_guess_probability")
    product = r00 * rnn
    if product == 0.0:
        return 0.5
    m = 1.0 - _radicand(product, abs(x) ** 2) / product
    return float(0.5 + 2.0 / math.pi * math.sqrt(product) * special.ellipe(m))


def xy_optimal_pass_probability(psi: PureState, coalition: Coalition) -> float:
    """Exact pass probability under the xy protocol when the coalition plays
    the optimal guess for every setting: the average Helstrom guess
    probability over the 2**(n-1) valid xy assignments.

    Helstrom guess at honest angle ``t``: projecting the honest parties onto
    ``GHZ_k(t)`` and ``GHZ_k(t + pi)`` leaves the coalition
    ``u = (a + e^{-it} b)/sqrt(2)`` and ``v = (a - e^{-it} b)/sqrt(2)``
    (``a``, ``b`` as in ``qstate.corner``), and the best guess of which it holds is
    ``1/2 + ||uu* - vv*||_1 / 2`` with
    ``||uu* - vv*||_1^2 = (|u|^2 + |v|^2)^2 - 4|<u|v>|^2``.  Here
    ``|u|^2 + |v|^2 = r00 + rNN`` and
    ``<u|v> = (r00 - rNN)/2 - i Im(e^{-it} x)``, so the guess is
    ``G(t) = 1/2 + sqrt(r00*rNN - Im(e^{-it} x)^2)``.

    A setting enters only through its honest angle sum mod pi: 0 or pi/2 for
    an even or odd count of honest pi/2 angles.  Valid settings are the n-bit
    strings of even weight, so with a dishonest party to complete the parity
    the honest bits are uniform over all 2**k strings, and the average is
    ``(G(0) + G(pi/2))/2``, where ``Im(e^{-it} x)`` is ``Im x`` and
    ``-Re x``.  Without dishonest parties the honest count is always even.
    """
    r00, rnn, x = _pure_corner(psi, coalition, "xy_optimal_pass_probability")
    parts = (x.imag, x.real) if coalition.dishonest else (x.imag,)
    return sum(0.5 + math.sqrt(_radicand(r00 * rnn, v * v)) for v in parts) / len(parts)


# ---------------------------------------------------------------------------
# loss-dependent optimal cheating curves


def theta_cheat_pass_curve(lam: float, name: str = "loss rate") -> float:
    """Best non-GME pass probability for the theta protocol at loss rate lam:
    ``1/2 + sin(a)/(2a)`` with ``a = pi(1-lam)/2``; a range error calls lam
    ``name``."""
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"{name} must lie in [0, 1), got {lam}")
    a = math.pi * (1.0 - lam) / 2.0
    return 0.5 + math.sin(a) / (2.0 * a)


def xy_cheat_pass_curve(lam: float, name: str = "loss rate") -> float:
    """Best non-GME pass probability for the xy protocol at loss rate lam:
    ``(lam + (1-2*lam) cos^2(pi/8)) / (1-lam)``; a range error calls lam
    ``name``."""
    if not 0.0 <= lam <= 0.5:
        raise ValueError(f"{name} must lie in [0, 1/2], got {lam}")
    return (lam + (1.0 - 2.0 * lam) * XY_OPTIMUM) / (1.0 - lam)


# ---------------------------------------------------------------------------
# concrete strategies


@dataclass(frozen=True)
class PhaseArm:
    """A table of GHZ phases (offsets from theta_prime), one drawn uniformly
    per round, and the loss arc the coalition plays with it: the width in
    [0, 1], as a share of pi, of the half-open arc of answer angles ``t + phi``
    (mod pi) centred on pi/2, where the state is least aligned with the
    request, on which it declares loss; 0 for none, None for ``lam``."""

    phases: tuple[float, ...]
    loss_arc: float | None = 0.0

    def __post_init__(self):
        w = self.loss_arc
        if w is not None and not (isinstance(w, numbers.Real) and 0.0 <= w <= 1.0):
            raise ValueError(f"loss_arc must be None or a number in [0, 1], got {w!r}")


@dataclass(frozen=True)
class CheatStrategy:
    """A dishonest coalition's round policy, as data.

    Each round the honest parties get ``GHZ_k(phi)`` and the coalition
    answers ``[cos(t + phi) < 0]`` to requested angles summing to ``t``, or
    LOSS on its arm's loss arc.  ``phi`` is ``theta_prime`` plus a phase
    from the arm's table; with two arms the first is played with probability
    ``2*lam`` (it declares loss on half its rounds, so the loss rate is
    ``lam``).  A ``masked`` strategy adds a fresh uniform rotation on
    [0, pi).  A strategy that ``measures_source`` obtains ``GHZ_k(phi)`` by
    measuring the coalition's qubits of the source state instead of
    preparing it; an odd outcome parity shifts ``phi`` by pi.
    """

    name: str
    n_parties: int
    dishonest_count: int
    arms: tuple[PhaseArm, ...]
    theta_prime: float = 0.0
    masked: bool = False
    lam: float = 0.0
    measures_source: bool = False

    def key(self) -> str:
        """The strategy key that ``from_key`` parses back into this strategy;
        theta-prime is left out at its default 0."""
        values = {"lam": self.lam, "theta-prime": self.theta_prime}
        shown = [p for p in key_params(_syntax(self.name)) if p == "lam" or values[p] != 0.0]
        return format_key(self.name, {p: values[p] for p in shown})

    def draw_side(self, rng: np.random.Generator, m: int) -> tuple[np.ndarray, np.ndarray]:
        """The arm (m,) and the GHZ phase ``phi`` (m,) of m rounds, drawing as
        ``make_strategy`` documents: an arm, a phase index and a mask, each
        an (m,) draw made only where the strategy has a choice."""
        arm = np.zeros(m, dtype=np.int64)
        if len(self.arms) > 1:
            arm[rng.random(m) >= 2.0 * self.lam] = 1
        sizes = np.array([len(a.phases) for a in self.arms])
        table = np.array([a.phases + (0.0,) * (sizes.max() - len(a.phases)) for a in self.arms])
        index = rng.integers(0, sizes[arm]) if sizes.max() > 1 else np.zeros(m, dtype=np.int64)
        phase = self.theta_prime + table[arm, index]
        if self.masked:
            phase = (phase + rng.uniform(0.0, math.pi, m)) % (2.0 * math.pi)
        return arm, phase

    def play(
        self,
        source: State | None,
        arm: np.ndarray,
        phase: np.ndarray,
        angles: np.ndarray,
        draws: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Outcome bits (m, n) of the honest parties and the coalition, and
        the coalition's declared losses (m,), for rounds with the given arms,
        phases, angles (m, n) and measurement uniforms (m, n).

        Column j of ``draws`` is qubit j's uniform.  The honest parties
        measure ``GHZ_k(phi)``, a record with coherence ``e^{-i*phi}/2``,
        with ``draws[:, :k]``; columns k.. go unread.  A strategy that
        ``measures_source`` instead measures every qubit of the source in
        ascending order: the honest ones at their angles, then the
        coalition's first at ``-phi`` (mod pi) and its others at 0.  As local
        measurements commute, the honest bits are those of ``GHZ_k(phi)`` up
        to a flip by pi per coalition outcome 1 and per mod-pi wraparound of
        the first angle, and the coalition answers by the flipped phase.

        With requested angles summing to ``t``, the coalition answers bit
        ``[cos(t + phi) < 0]``, which passes with probability
        ``(1 + |cos(t + phi)|)/2``, or declares loss where ``t + phi`` falls
        on its arm's loss arc (``PhaseArm``), one test for every arm.
        """
        m, n = angles.shape
        d = self.dishonest_count
        k = n - d
        bits = np.zeros((m, n), dtype=np.int8)
        if self.measures_source:
            if source is None:
                raise ValueError(f"{self.name} needs a source state to measure")
            target = (-phase) % (2.0 * math.pi)
            meas = np.zeros((m, d))
            meas[:, 0] = target % math.pi
            wrap = np.rint((target - meas[:, 0]) / math.pi)
            seq = qstate.sample_rows(source, np.hstack([angles[:, :k], meas]), draws)
            bits[:, :k] = seq[:, :k]
            flips = (seq[:, k:].sum(axis=1) + wrap) % 2
            phase = (phase + flips * math.pi) % (2.0 * math.pi)
        else:
            coherence = 0.5 * np.exp(-1j * phase)
            bits[:, :k] = qstate.sample_record(coherence, angles[:, :k], draws[:, :k])
        total = angles[:, k:].sum(axis=1) + phase
        half = self.loss_arcs()[arm] * math.pi / 2.0
        offset = total % math.pi - math.pi / 2.0
        bits[:, k] = np.cos(total) < 0.0
        return bits, (-half <= offset) & (offset < half)

    def loss_arcs(self) -> np.ndarray:
        """Each arm's loss arc width, ``lam`` in place of None."""
        return np.array([self.lam if a.loss_arc is None else a.loss_arc for a in self.arms])


_XY_LOSS = 1.0 / 3.0  # loss where |cos(t + phi)| < 1/2: the middle third of pi
_XY_LOSS50 = PhaseArm((0.0, math.pi, math.pi / 2, 3 * math.pi / 2), _XY_LOSS)
_XY_ROTATED = PhaseArm(tuple(math.pi / 4 + i * math.pi / 2 for i in range(4)))
_THETA_ARC = PhaseArm((0.0,), None)
_THETA_SYNTAX = "{}:lam=<0..1>[,theta-prime=<radians>]"

# name: (key syntax, CheatStrategy fields).  A strategy takes the parameters
# its syntax names, those in [...] optional; lam is the target loss rate.
STRATEGIES = {
    "xy-perfect-loss50": ("{}", dict(arms=(_XY_LOSS50,))),
    "xy-naive-loss": ("{}", dict(arms=(PhaseArm((0.0,), _XY_LOSS),))),
    "xy-rotated-bell": ("{}", dict(arms=(_XY_ROTATED,))),
    "xy-mixed": ("{}:lam=<0..1/2>", dict(arms=(_XY_LOSS50, _XY_ROTATED))),
    "theta-rotated-bell": (_THETA_SYNTAX, dict(arms=(_THETA_ARC,), masked=True)),
    "projective-cheat": (
        _THETA_SYNTAX, dict(arms=(_THETA_ARC,), masked=True, measures_source=True)
    ),
    "product-guesser": ("{}[:theta-prime=<radians>]", dict(arms=(PhaseArm((0.0,)),))),
}


def _syntax(name: str) -> str:
    if name not in STRATEGIES:
        raise ValueError(f"unknown strategy {name!r}")
    return STRATEGIES[name][0].format(name)


def make_strategy(
    name: str,
    *,
    n_parties: int,
    dishonest_count: int = 1,
    lam: float | None = None,
    theta_prime: float | None = None,
) -> CheatStrategy:
    """Build a named cheating strategy for a coalition of the given size.

    Available strategies (k = number of honest parties), with their loss
    arcs and the draws ``CheatStrategy.draw_side`` makes for m rounds:

    * ``xy-perfect-loss50`` -- the source sends one of four coordinated
      Bell-type states uniformly at random; the coalition answers only when
      its requested basis matches: loss arc 1/3, where ``|cos(t + phi)|``
      is below 1/2.  Passes every valid round at 50% declared loss, with
      basis-balanced answers and losses.  Draws ``integers(0, 4, m)``.
    * ``xy-naive-loss`` -- the unmixed version of the above (always the same
      state, loss arc 1/3); detectable by the audit.  Draws nothing.
    * ``xy-rotated-bell`` -- pi/4-rotated state with a random multiple-of-pi/2
      masking offset; loss arc 0, and passes at cos^2(pi/8).  Draws
      ``integers(0, 4, m)``.
    * ``xy-mixed`` (lam) -- probabilistic mixture: with probability 2*lam play
      xy-perfect-loss50, otherwise xy-rotated-bell.  Draws ``random(m)``
      (arm 0 below 2*lam), then ``integers(0, sizes[arm])``, a phase index
      per row in its arm's table of 4.
    * ``theta-rotated-bell`` (lam, theta_prime) -- rotated state with a fresh
      uniform masking rotation each round; loss arc lam, where the pass
      probability is lowest, so declared-loss angles stay uniform over
      rounds.  Draws ``uniform(0, pi, m)``.
    * ``projective-cheat`` (lam, theta_prime) -- measures the coalition's
      qubits of the (possibly noisy) source state to steer the honest parties
      into a rotated non-GME state, then plays theta-rotated-bell's rule.
      Draws ``uniform(0, pi, m)``; its dishonest qubits take the last d of
      each row's measurement uniforms (``play``).
    * ``product-guesser`` (theta_prime) -- fixed rotated state, loss arc 0,
      always answers the likelier parity.  Draws nothing.

    ``play`` draws nothing.  ``n_parties`` may not exceed
    ``qstate.MAX_RECORD_QUBITS``.  ``lam`` is required where listed; passing
    a parameter a strategy does not take is an error.  Values are read as a
    key's are (``sources.key_number``): one that is not a finite number
    fails with an error naming its parameter.
    """
    syntax = _syntax(name)
    given = {p: v for p, v in (("lam", lam), ("theta-prime", theta_prime)) if v is not None}
    check_key_params("strategy", name, given, syntax)
    label = f"strategy {name!r} parameter"
    values = {p: key_number(v, f"{label} {p}", syntax) for p, v in given.items()}
    fields = STRATEGIES[name][1]
    check_dishonest_count(dishonest_count, n_parties)
    # a block holds (rows, n) angles and uniforms, with or without a source
    qstate.check_qubits(n_parties, qstate.MAX_RECORD_QUBITS)
    tp = values.get("theta-prime", 0.0)
    if not 0.0 <= tp < 2.0 * math.pi:
        raise ValueError("theta_prime must lie in [0, 2*pi)")
    if "lam" in values:
        # a two-arm mixture plays its first arm with probability 2*lam
        mixed = len(fields["arms"]) > 1
        if not (0.0 <= values["lam"] <= 0.5 if mixed else 0.0 <= values["lam"] < 1.0):
            raise ValueError(f"{name} needs lam in [0, {'1/2]' if mixed else '1)'}")
        fields = dict(fields, lam=values["lam"])
    return CheatStrategy(name, n_parties, dishonest_count, theta_prime=tp, **fields)


def check_dishonest_count(
    count: int, n_parties: int, name: str = "dishonest_count", parties: str = "n_parties"
) -> None:
    """Raise unless a coalition of ``count`` of ``n_parties`` parties has a
    member and leaves one party honest; the message calls the two values
    ``name`` and ``parties``."""
    qstate.check_count(count, name)
    if count < 1:
        raise ValueError(f"{name} must be at least 1, got {count}")
    if count >= n_parties:
        raise ValueError(f"{name} must be at most {parties} - 1 = {n_parties - 1}, got {count}")


def from_key(key: str, n_parties: int, dishonest_count: int = 1) -> CheatStrategy:
    """Parse a strategy key like ``theta-rotated-bell:lam=0.3,theta-prime=0.5``
    for a coalition of the last ``dishonest_count`` of ``n_parties`` parties."""
    name, params = split_key(key, "strategy")
    # checked here too, so that an unlisted name fails before it is a keyword
    check_key_params("strategy", name, params, _syntax(name))
    kwargs = {p.replace("-", "_"): v for p, v in params.items()}
    return make_strategy(name, n_parties=n_parties, dishonest_count=dishonest_count, **kwargs)
