"""Reference implementations that the package's kernels are tested against.

These are the direct forms of what the package computes by shorter routes:
separate sequential samplers for pure states (python lists and numpy) and
density matrices, the exact pass probabilities as GHZ-projector
overlaps and as a sum over the 2**(n-1) xy settings, the single-setting
pass probability from an integer sign table and a copied anti-diagonal, and
the xy-optimal cheat as a sum over those settings.  The setting kernel is
also replayed on a matrix's strided anti-diagonal view, the layout the
package read before it held a contiguous copy.  The loss tolerance is a
bisection on ``analytics.gme_threshold``.  The coalition analysis is done
the long way: a partial trace and ``qstate.fidelity`` for the best fidelity,
and the rotated-GHZ decomposition with its Helstrom guess, averaged over a
uniform honest angle by a trapezoid or by adaptive quadrature, where the
package reads three entries of the state.  Each sampler draws its uniforms as the
sampling contract in ``ghzverify.qstate`` prescribes, so on a shared seed it
must return the same bits as the package.  Basis states, the maximally mixed
state and the list of xy settings are built here as test inputs.

The positivity check of a density matrix is a full diagonalisation; the
package factors the shifted matrix instead.

The cheating strategies are written as one pair of closures each: the first
draws the round's side information and measures the honest qubits, of a
prepared GHZ state or, for ``projective-cheat``, of the source with every
qubit measured in ascending order; the second answers.  The session message
log is built as message objects for every round.  On a shared seed both must
give the package's records, generator states and bytes.

The per-round engine (``run_round``) plays one round at a time from one
generator, with the sequential samplers and the closure strategies, and
scores it with ``parity_test``, as the package did before it ran blocks of
rounds as arrays; it returns a ``Row`` object.  ``rows`` reads the package's
arrays into the same objects, and ``records_jsonl`` writes them as the
session's records file.  ``draw_block``
replays a block's draws in the documented layout and ``row_script`` feeds
one row's draws to the per-round engine through a ``ScriptedRng``, so
``run_rounds`` gives the package's rounds row by row.

The dishonest-angle profile's rounds are drawn and scored by hand on the
block layout; on a shared seed they must give the package's estimates from
``run_rounds`` with a pinned last angle.
"""

import cmath
import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy import integrate

from ghzverify import adversary, analytics, protocol, qstate, simnet, sources
from ghzverify.protocol import LOSS
from ghzverify.qstate import DensityMatrix, GhzDiagonal, PureState

SMALL_STATE_DIM = 64


# ---------------------------------------------------------------------------
# test inputs


def basis_state(n, index):
    """The computational basis state |index> on n qubits."""
    amps = np.zeros(2**n, dtype=complex)
    amps[index] = 1.0
    return PureState(n, amps)


def maximally_mixed(n):
    return DensityMatrix(n, np.eye(2**n, dtype=complex) / 2**n)


def xy_valid_settings(n):
    """All 2**(n-1) xy assignments with an even count of pi/2 entries."""
    settings = []
    for bits in range(2**n):
        if bin(bits).count("1") % 2 == 0:
            settings.append(tuple(((bits >> j) & 1) * (np.pi / 2) for j in range(n)))
    return settings


# ---------------------------------------------------------------------------
# state validation


def has_eigenvalue_below_floor(mat):
    """True when the Hermitian matrix that ``mat``'s lower triangle defines has
    an eigenvalue below ``-NORM_TOL``: the floor ``DensityMatrix`` enforces."""
    return float(np.linalg.eigvalsh(mat)[0]) < -qstate.NORM_TOL


# ---------------------------------------------------------------------------
# sequential samplers


def sample_outcomes(state, angles, rng):
    """One shot of every qubit, drawing ``rng.random(n)`` up front; a
    ``GhzDiagonal`` record is sampled through its dense matrix."""
    vals = qstate.angle_values(angles, state.n)
    if isinstance(state, GhzDiagonal):
        state = state.to_density()
    if isinstance(state, DensityMatrix):
        return sample_density(state.entries, vals, rng)
    if len(state.amplitudes) <= SMALL_STATE_DIM:
        return sample_pure_list(state.amplitudes.tolist(), vals, rng)
    return sample_pure_numpy(state.amplitudes, vals, rng)


def sample_pure_list(a, vals, rng):
    draws = rng.random(len(vals)).tolist()
    outcomes = []
    for t, u in zip(vals, draws):
        phase = cmath.exp(-1j * t)
        half = range(0, len(a), 2)
        branch0 = [a[i] + phase * a[i + 1] for i in half]
        p0 = 0.5 * sum(x.real * x.real + x.imag * x.imag for x in branch0)
        if u < p0:
            outcomes.append(0)
            scale = 1.0 / math.sqrt(2.0 * p0)
            a = [x * scale for x in branch0]
        else:
            outcomes.append(1)
            scale = 1.0 / math.sqrt(max(2.0 * (1.0 - p0), 1e-300))
            a = [(a[i] - phase * a[i + 1]) * scale for i in half]
    return outcomes


def sample_pure_numpy(amps, vals, rng):
    a = amps
    draws = rng.random(len(vals))
    outcomes = []
    for t, u in zip(vals, draws):
        rotated = cmath.exp(-1j * t) * a[1::2]
        branch0 = a[0::2] + rotated
        p0 = 0.5 * float(np.vdot(branch0, branch0).real)
        if u < p0:
            outcomes.append(0)
            a = branch0 / math.sqrt(2.0 * p0)
        else:
            outcomes.append(1)
            a = (a[0::2] - rotated) / math.sqrt(max(2.0 * (1.0 - p0), 1e-300))
    return outcomes


def sample_density(mat, vals, rng):
    rho = mat
    draws = rng.random(len(vals))
    outcomes = []
    for t, u in zip(vals, draws):
        r00 = rho[0::2, 0::2]
        r01 = rho[0::2, 1::2]
        r10 = rho[1::2, 0::2]
        r11 = rho[1::2, 1::2]
        phase = cmath.exp(1j * t)
        cross = phase * r01 + phase.conjugate() * r10
        block0 = 0.5 * (r00 + cross + r11)
        p0 = float(np.trace(block0).real)
        if u < p0:
            outcomes.append(0)
            rho = block0 / p0
        else:
            outcomes.append(1)
            rho = 0.5 * (r00 - cross + r11) / max(1.0 - p0, 1e-300)
    return outcomes


# ---------------------------------------------------------------------------
# exact pass probabilities


def exact_pass_probability_theta(rho):
    """``F_0 + (1 - F_0 - F_pi)/2`` from the rotated-GHZ projector overlaps."""
    g0 = qstate.ghz_state(rho.n, 0.0).amplitudes
    gp = qstate.ghz_state(rho.n, np.pi).amplitudes
    f0 = float((g0.conj() @ rho.entries @ g0).real)
    fp = float((gp.conj() @ rho.entries @ gp).real)
    return f0 + 0.5 * (1.0 - f0 - fp)


def setting_pass_probability(rho, angles):
    """The single-setting pass probability as an integer sign table of the
    basis-index bits and a copied anti-diagonal, the package's first form;
    a record is read through its dense matrix."""
    vals = qstate.angle_values(angles, rho.n)
    total = float(vals.sum())
    m = int(round(total / np.pi))
    if abs(total - m * np.pi) > qstate.NORM_TOL:
        raise ValueError("angle sum must be a multiple of pi within 1e-9")
    if isinstance(rho, GhzDiagonal):
        rho = rho.to_density()
    bits = (np.arange(2**rho.n)[:, None] >> np.arange(rho.n)) & 1
    phases = np.exp(1j * ((1 - 2 * bits) @ vals))
    anti = np.diag(np.fliplr(rho.entries))
    return 0.5 * (1.0 + (-1) ** (m % 2) * float((anti @ phases).real))


def strided_setting_pass_probability(rho, angles):
    """The package's setting kernel on a ``DensityMatrix``, reading its
    anti-diagonal as the strided ``(2^hi, 2^lo)`` view of the entries that the
    package held before it kept a contiguous copy; the same phases and the
    same contraction, so it must give the package's float bit for bit."""
    n = rho.n
    vals = np.asarray(angles, dtype=float)
    total = sum(vals.tolist())
    m = round(total / math.pi)
    d = 2**n
    hi, lo = n - n // 2, n // 2
    anti = rho.entries.reshape(-1)[d - 1 : d * d - 1 : d - 1].reshape(2**hi, 2**lo)
    phases = np.exp(qstate._half_sign_table(n).dot(vals))
    expectation = float(phases[: 2**hi].dot(anti.dot(phases[2**hi :])).real)
    return 0.5 * (1.0 + (expectation if m % 2 == 0 else -expectation))


def exact_pass_probability_xy(rho):
    """Uniform average of the per-setting pass probability over the valid xy
    settings."""
    settings = xy_valid_settings(rho.n)
    return float(np.mean([qstate.setting_pass_probability(rho, s) for s in settings]))


def xy_optimal_pass_probability(psi, coalition):
    """Average Helstrom guess probability over the valid xy settings."""
    values = []
    for setting in xy_valid_settings(coalition.n):
        honest_angle = sum(setting[j] for j in coalition.honest) % np.pi
        decomp = decompose_vs_ghz(psi, coalition, honest_angle)
        values.append(helstrom_guess_probability(decomp))
    return float(np.mean(values))


# ---------------------------------------------------------------------------
# coalition analysis through the GHZ decomposition and the reduced state


def partial_trace(rho, keep):
    """Trace out all qubits not in ``keep``; kept qubits keep their order."""
    if isinstance(rho, GhzDiagonal):
        rho = rho.to_density()
    kept = sorted(set(int(q) for q in keep))
    if not kept:
        raise ValueError("keep must name at least one qubit")
    if kept[0] < 0 or kept[-1] >= rho.n:
        raise ValueError(f"keep indices must lie in [0, {rho.n - 1}]")
    n = rho.n
    traced = [q for q in range(n) if q not in kept]
    k, t = len(kept), len(traced)
    tensor_form = rho.entries.reshape((2,) * (2 * n))
    # axis a of the row (col) group corresponds to qubit n-1-a
    row_axes = [n - 1 - q for q in reversed(kept)] + [n - 1 - q for q in reversed(traced)]
    col_axes = [n + a for a in row_axes]
    reordered = tensor_form.transpose(row_axes + col_axes)
    blocks = reordered.reshape(2**k, 2**t, 2**k, 2**t)
    reduced = np.einsum("aibi->ab", blocks)
    return DensityMatrix(k, reduced)


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
    coalition: adversary.Coalition
    psi_theta: np.ndarray
    psi_theta_pi: np.ndarray
    chi: np.ndarray
    p_theta: float
    q_theta: float
    overlap: complex


def honest_first_vector(psi, coalition):
    """Amplitudes reindexed so honest parties occupy the high qubits.

    The result reshapes to (2**k, 2**d): row = honest basis index, column =
    dishonest basis index, each group keeping ascending party order.
    """
    n = psi.n
    order = sorted(coalition.dishonest) + list(coalition.honest)
    # tensor axis a holds qubit n-1-a; qubit order[i] becomes qubit i
    axes = [n - 1 - old for old in reversed(order)]
    return psi.amplitudes.reshape((2,) * n).transpose(axes).reshape(-1)


def _honest_matrix(psi, coalition):
    return honest_first_vector(psi, coalition).reshape(2**coalition.k, -1)


def decompose_vs_ghz(psi, coalition, theta):
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


def helstrom_guess_probability(decomp):
    """Optimal probability of guessing the honest parity from the dishonest
    share: ``1/2 + sqrt((p+q)^2 - 4|overlap|^2)/2``."""
    radicand = (decomp.p_theta + decomp.q_theta) ** 2 - 4.0 * abs(decomp.overlap) ** 2
    if radicand < -1e-12:
        raise ValueError(f"negative Helstrom radicand {radicand}: corrupted decomposition")
    return 0.5 + 0.5 * math.sqrt(max(radicand, 0.0))


def averaged_guess_probability(psi, coalition, grid):
    """The Helstrom guess averaged over a uniform honest angle by the
    trapezoid rule on ``grid`` intervals over [0, pi], each point through
    the decomposition."""
    thetas = np.linspace(0.0, np.pi, grid + 1)
    values = [helstrom_guess_probability(decompose_vs_ghz(psi, coalition, t)) for t in thetas]
    return float(np.trapezoid(values, thetas) / np.pi)


def averaged_guess_by_quadrature(psi, coalition):
    """The same average by adaptive quadrature, split where ``p = q``.

    ``p - q`` is ``2 Re(e^{-it} <a|b>)`` with ``a`` and ``b`` the honest
    all-0 and all-1 rows, so it vanishes at one angle in [0, pi).  With every
    party honest the guess has a kink there, which the trapezoid converges
    on only as the square of its step; the split keeps the quadrature exact
    to rounding.
    """
    def pointwise(t):
        return helstrom_guess_probability(decompose_vs_ghz(psi, coalition, t))

    decomps = [decompose_vs_ghz(psi, coalition, t) for t in (0.0, np.pi / 2)]
    re, im = (0.5 * (d.p_theta - d.q_theta) for d in decomps)
    kink = (math.atan2(im, re) + np.pi / 2) % np.pi
    total = sum(
        integrate.quad(pointwise, lo, hi, epsabs=1e-13, epsrel=0.0, limit=200)[0]
        for lo, hi in ((0.0, kink), (kink, np.pi))
    )
    return total / np.pi


def best_dishonest_fidelity(state, coalition):
    """Uhlmann fidelity, by ``qstate.fidelity``, of the honest reduced state
    (``partial_trace``) with ``(|0><0| + |N><N|)/2`` on the honest qubits, or
    with ``ghz_state(k)`` when every party is honest."""
    if isinstance(state, PureState):
        state = state.to_density()
    reduced = partial_trace(state, coalition.honest)
    if not coalition.dishonest:
        return qstate.fidelity(reduced, qstate.ghz_state(coalition.k))
    ideal = np.zeros((2**coalition.k, 2**coalition.k), dtype=complex)
    ideal[0, 0] = ideal[-1, -1] = 0.5
    return qstate.fidelity(reduced, DensityMatrix(coalition.k, ideal))


# ---------------------------------------------------------------------------
# the loss tolerance


def max_tolerable_loss(pass_probability, kind, trust):
    """The loss tolerance by bisection on ``analytics.gme_threshold``, which
    converts its kind and trust on every step."""
    kind, trust = protocol.ProtocolKind(kind), analytics.TrustModel(trust)
    floor = analytics.gme_threshold(kind, trust, 0.0)
    if pass_probability < floor:
        raise ValueError(
            f"pass probability {pass_probability} is below the zero-loss threshold {floor}"
        )
    hi = 0.5 if kind is protocol.ProtocolKind.XY else 1.0 - 1e-9
    if trust is analytics.TrustModel.ALL_HONEST:
        return 0.0 if pass_probability == floor else hi
    if pass_probability >= analytics.gme_threshold(kind, trust, hi):
        return hi
    lo = 0.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if analytics.gme_threshold(kind, trust, mid) <= pass_probability:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# the per-round engine and the block draw layout


class ScriptedRng:
    """Serves a fixed list of draws, in order, to whichever generator method
    asks; ``size`` None takes one value."""

    def __init__(self, values):
        self._values = list(values)

    def _take(self, size):
        if size is None:
            return self._values.pop(0)
        count = int(np.prod(size))
        out = np.array(self._values[:count]).reshape(size)
        del self._values[:count]
        return out

    def random(self, size=None):
        return self._take(size)

    def uniform(self, low, high, size=None):
        return self._take(size)

    def integers(self, low, high, size=None):
        return self._take(size)

    def exhausted(self):
        return not self._values


@dataclass(frozen=True)
class Assignment:
    """One round's angles plus the parity bit ``(sum theta_j)/pi mod 2`` the
    outcome XOR must reproduce."""

    angles: tuple
    kind: protocol.ProtocolKind
    parity: int

    @property
    def n(self):
        return len(self.angles)

    @classmethod
    def of(cls, angles, kind):
        """The assignment of ``angles``, with the parity of their sum."""
        angles = tuple(float(a) for a in angles)
        return cls(angles, kind, round(sum(angles) / np.pi) % 2)


@dataclass(frozen=True)
class Row:
    """One round: its assignment, per-party outcomes (0, 1 or LOSS) and the
    pass bit, None in a round with a declared loss."""

    index: int
    assignment: Assignment
    outcomes: tuple
    passed: object


def rows(rounds, kind, start=0):
    """The rows of a ``protocol.Rounds`` of protocol ``kind``, numbered from
    ``start``: a lost party's bit reads LOSS and a round with loss has no
    pass bit."""
    kind = protocol.ProtocolKind(kind)
    out = []
    for r in range(len(rounds.angles)):
        lost = [bool(x) for x in rounds.lost[r]]
        outcomes = tuple(LOSS if l else int(b) for b, l in zip(rounds.bits[r], lost))
        passed = None if any(lost) else int(rounds.passed[r])
        out.append(Row(start + r, Assignment.of(rounds.angles[r], kind), outcomes, passed))
    return out


def records_jsonl(transcript):
    """The records file, one JSON object per ``Row`` of the session."""
    return "\n".join(
        json.dumps({"round": row.index, "angles": list(row.assignment.angles),
                    "outcomes": list(row.outcomes), "passed": row.passed},
                   separators=(",", ":"))
        for row in rows(transcript.records, transcript.config.kind)
    )


def _completion(partial):
    last = float((-partial) % np.pi)
    return 0.0 if last == np.pi else last


def parity_test(assignment, outcomes):
    """1 when the XOR of the outcome bits equals the assignment parity: the
    Verifier's score of one round."""
    acc = 0
    for o in outcomes:
        if o == LOSS:
            raise ValueError("parity test is undefined when a loss was declared")
        if o not in (0, 1):
            raise ValueError(f"outcomes must be bits, got {o!r}")
        acc ^= o
    return 1 if acc == assignment.parity else 0


def sample_angles(kind, n, rng, last_angle=None):
    """One assignment drawn with one generator call, as rounds once did."""
    kind = protocol.ProtocolKind(kind)
    if last_angle is not None:
        free = rng.uniform(0.0, np.pi, n - 2)
        angles = tuple(free.tolist()) + (_completion(free.sum() + last_angle), float(last_angle))
    elif kind is protocol.ProtocolKind.THETA:
        free = rng.uniform(0.0, np.pi, n - 1)
        angles = tuple(free.tolist()) + (_completion(free.sum()),)
    else:
        free = rng.integers(0, 2, n - 1)
        last = (int(free.sum()) % 2) * (np.pi / 2)
        angles = tuple(float(b) * (np.pi / 2) for b in free) + (last,)
    return Assignment.of(angles, kind)


def run_round(source, strategy, kind, rng, *, honest_loss=0.0, index=0, last_angle=None):
    """The per-round engine: angles, the closure strategy's side information
    (its honest state and answer), one uniform per measured qubit, then the
    honest losses, all from one generator, scored by ``parity_test``."""
    if strategy is None:
        n = k = source.n
    else:
        n = strategy.n_parties
        k = n - strategy.dishonest_count
    assignment = sample_angles(kind, n, rng, last_angle)
    if strategy is None:
        outcomes = sample_outcomes(source, assignment.angles, rng)
    else:
        side = strategy.sample_side_info(rng, source, assignment.angles[:k])
        outcomes = list(side.honest_bits)
        outcomes.append(strategy.respond(side, assignment.angles[k:]))
        outcomes += [0] * (n - k - 1)
    if honest_loss > 0.0:
        for j, drop in enumerate(rng.random(k) < honest_loss):
            if drop:
                outcomes[j] = LOSS
    lossy = any(o == LOSS for o in outcomes)
    passed = None if lossy else parity_test(assignment, outcomes)
    return Row(index, assignment, tuple(outcomes), passed)


def draw_block(rng, strategy, kind, n, m, honest_loss=0.0, last_angle=None):
    """A block's draws, made in the order ``protocol.run_block`` documents;
    ``strategy`` is the package's strategy (None when all are honest)."""
    draws = {}
    if last_angle is not None:
        draws["free"] = rng.uniform(0.0, np.pi, (m, n - 2))
    elif protocol.ProtocolKind(kind) is protocol.ProtocolKind.THETA:
        draws["free"] = rng.uniform(0.0, np.pi, (m, n - 1))
    else:
        draws["free"] = rng.integers(0, 2, (m, n - 1))
    k = n
    if strategy is not None:
        k = n - strategy.dishonest_count
        arm = np.zeros(m, dtype=int)
        if len(strategy.arms) > 1:
            draws["arm"] = rng.random(m)
            arm = (draws["arm"] >= 2.0 * strategy.lam).astype(int)
        sizes = np.array([len(a.phases) for a in strategy.arms])
        if sizes.max() > 1:
            draws["index"] = rng.integers(0, sizes[arm])
        if strategy.masked:
            draws["mask"] = rng.uniform(0.0, np.pi, m)
    draws["u"] = rng.random((m, n))
    if honest_loss > 0.0:
        draws["loss"] = rng.random((m, k))
    return draws


def row_script(draws, r, strategy):
    """Row r's draws in the order the per-round engine asks for them: a
    strategy that prepares the honest state uses the first k uniforms only."""
    values = draws["free"][r].tolist()
    n = draws["u"].shape[1]
    used = n
    if strategy is not None:
        arm = 0
        if "arm" in draws:
            values.append(draws["arm"][r])
            arm = int(draws["arm"][r] >= 2.0 * strategy.lam)
        if len(strategy.arms[arm].phases) > 1:
            values.append(int(draws["index"][r]))
        if "mask" in draws:
            values.append(draws["mask"][r])
        if not strategy.measures_source:
            used = n - strategy.dishonest_count
    values += draws["u"][r, :used].tolist()
    if "loss" in draws:
        values += draws["loss"][r].tolist()
    return values


def oracle_strategy(strategy):
    """The closure pair for a package strategy made by ``make_strategy``."""
    params = {}
    if "lam" in sources.key_params(adversary.STRATEGIES[strategy.name][0]):
        params["lam"] = strategy.lam
    if "theta-prime" in sources.key_params(adversary.STRATEGIES[strategy.name][0]):
        params["theta_prime"] = strategy.theta_prime
    return make_strategy(strategy.name, n_parties=strategy.n_parties,
                         dishonest_count=strategy.dishonest_count, **params)


def run_rounds(source, strategy, kind, rounds, seed, *, honest_loss=0.0, last_angle=None,
               oracle=None):
    """``protocol.run_rounds`` row by row: each block's draws on the stream
    ``(seed, block)``, each row fed to ``run_round`` with ``oracle`` (the
    closure pair of ``strategy`` by default) playing the coalition."""
    n = source.n if strategy is None else strategy.n_parties
    if strategy is not None and oracle is None:
        oracle = oracle_strategy(strategy)
    records = []
    for b, lo in enumerate(range(0, rounds, protocol.B)):
        m = min(protocol.B, rounds - lo)
        draws = draw_block(np.random.default_rng((seed, b)), strategy, kind, n, m,
                           honest_loss, last_angle)
        for r in range(m):
            script = ScriptedRng(row_script(draws, r, strategy))
            records.append(run_round(source, oracle, kind, script, honest_loss=honest_loss,
                                     index=lo + r, last_angle=last_angle))
            assert script.exhausted()
    return records


# ---------------------------------------------------------------------------
# the dishonest-angle profile drawn by hand


def profile_point(theta_d, theta_prime, n, rounds, seed):
    """Pass rate and standard error of ``rounds`` product-guesser rounds with
    the last party's angle pinned to ``theta_d``: each block of the point's
    stream draws the free angles of parties 0..n-3 and the measurement
    uniforms, party n-2 completes the sum, and the rounds are scored
    directly."""
    strat = make_strategy("product-guesser", n_parties=n,
                          theta_prime=(-theta_prime) % (2 * math.pi))
    point = np.random.default_rng((seed, 303, round(theta_d * 1e9)))
    base = int(point.integers(0, 2**63))
    passes = 0
    for b, lo in enumerate(range(0, rounds, protocol.B)):
        m = min(protocol.B, rounds - lo)
        rng = np.random.default_rng((base, b))
        free = rng.uniform(0.0, np.pi, (m, n - 2))
        uniforms = rng.random((m, n))
        for r in range(m):
            completion = (-(free[r].sum() + theta_d)) % np.pi
            angles = tuple(free[r].tolist()) + (float(completion), float(theta_d))
            assignment = Assignment.of(angles, protocol.ProtocolKind.THETA)
            side = strat.sample_side_info(ScriptedRng(uniforms[r, : n - 1].tolist()), None,
                                          angles[:-1])
            bits = list(side.honest_bits)
            bits.append(strat.respond(side, (theta_d,)))
            passes += parity_test(assignment, bits)
    est = passes / rounds
    return est, math.sqrt(est * (1.0 - est) / rounds)


# ---------------------------------------------------------------------------
# cheating strategies as pairs of closures


_BELL_PHASES = (0.0, math.pi, math.pi / 2, 3 * math.pi / 2)


class SideInfo(NamedTuple):
    label: object
    honest_bits: list


class _RoundLabel(NamedTuple):
    phase: float
    loss_mode: str  # "none" | "xy-basis" | "arc"
    lam: float


@dataclass(frozen=True)
class CheatStrategy:
    name: str
    n_parties: int
    dishonest_count: int
    sample_side_info: Callable
    respond: Callable


def _respond_from_label(side, angles):
    label = side.label
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


def _ghz_side(phase, loss_mode, lam, rng, angles):
    """The label of a prepared ``GHZ_k(phase)`` and the honest bits of
    measuring it at ``angles``, one uniform per honest qubit."""
    bits = sample_outcomes(qstate.ghz_state(len(angles), phase), angles, rng)
    return SideInfo(_RoundLabel(phase, loss_mode, lam), bits)


def make_strategy(name, *, n_parties, dishonest_count=1, lam=None, theta_prime=None):
    """One closure pair per strategy, each with its own draws."""
    k = n_parties - dishonest_count
    tp = 0.0 if theta_prime is None else float(theta_prime)

    if name == "xy-perfect-loss50":
        def sample(rng, _source, angles):
            phase = _BELL_PHASES[rng.integers(0, 4)]
            return _ghz_side(phase, "xy-basis", 0.0, rng, angles)

        return CheatStrategy(name, n_parties, dishonest_count, sample, _respond_from_label)

    if name == "xy-naive-loss":
        def sample(rng, _source, angles):
            return _ghz_side(0.0, "xy-basis", 0.0, rng, angles)

        return CheatStrategy(name, n_parties, dishonest_count, sample, _respond_from_label)

    if name == "xy-rotated-bell":
        def sample(rng, _source, angles):
            phase = math.pi / 4 + rng.integers(0, 4) * math.pi / 2
            return _ghz_side(phase, "none", 0.0, rng, angles)

        return CheatStrategy(name, n_parties, dishonest_count, sample, _respond_from_label)

    if name == "xy-mixed":
        lam = float(lam)

        def sample(rng, _source, angles):
            if rng.random() < 2.0 * lam:
                phase = _BELL_PHASES[rng.integers(0, 4)]
                return _ghz_side(phase, "xy-basis", 0.0, rng, angles)
            phase = math.pi / 4 + rng.integers(0, 4) * math.pi / 2
            return _ghz_side(phase, "none", 0.0, rng, angles)

        return CheatStrategy(name, n_parties, dishonest_count, sample, _respond_from_label)

    if name == "theta-rotated-bell":
        lam = float(lam)

        def sample(rng, _source, angles):
            mask = rng.uniform(0.0, math.pi)
            return _ghz_side((tp + mask) % (2.0 * math.pi), "arc", lam, rng, angles)

        return CheatStrategy(name, n_parties, dishonest_count, sample, _respond_from_label)

    if name == "projective-cheat":
        lam = float(lam)

        def sample(rng, source, angles):
            # every qubit of the source in ascending order: the honest ones,
            # then the coalition's first at -target (mod pi) and its others at 0
            mask = rng.uniform(0.0, math.pi)
            target = (tp + mask) % (2.0 * math.pi)
            meas = [(-target) % (2.0 * math.pi) % math.pi] + [0.0] * (dishonest_count - 1)
            wrap = round((((-target) % (2.0 * math.pi)) - meas[0]) / math.pi)
            bits = sample_outcomes(source, list(angles) + meas, rng)
            flips = (sum(bits[k:]) + wrap) % 2
            phase = (target + flips * math.pi) % (2.0 * math.pi)
            return SideInfo(_RoundLabel(phase, "arc", lam), bits[:k])

        return CheatStrategy(name, n_parties, dishonest_count, sample, _respond_from_label)

    if name == "product-guesser":
        def sample(rng, _source, angles):
            return _ghz_side(tp, "none", 0.0, rng, angles)

        return CheatStrategy(name, n_parties, dishonest_count, sample, _respond_from_label)

    raise ValueError(f"unknown strategy {name!r}")


# ---------------------------------------------------------------------------
# the session message log as stored message objects


BROADCAST = -1


@dataclass(frozen=True)
class AngleMsg:
    round: int
    party: int
    theta: float
    sender: int
    receiver: int

    def to_json_dict(self):
        return {"type": "angle", "round": self.round, "party": self.party,
                "theta": self.theta, "sender": self.sender, "receiver": self.receiver}


@dataclass(frozen=True)
class OutcomeMsg:
    round: int
    party: int
    outcome: object
    sender: int
    receiver: int

    def to_json_dict(self):
        return {"type": "outcome", "round": self.round, "party": self.party,
                "outcome": self.outcome, "sender": self.sender, "receiver": self.receiver}


@dataclass(frozen=True)
class AbortMsg:
    round: int
    reason: str
    sender: int
    receiver: int

    def to_json_dict(self):
        return {"type": "abort", "round": self.round, "reason": self.reason,
                "sender": self.sender, "receiver": self.receiver}


def _round_messages(rec, verifier, net):
    n = rec.assignment.n
    msgs = []
    for j in net.permutation(n):
        msgs.append(AngleMsg(rec.index, int(j), rec.assignment.angles[j], verifier, int(j)))
    for j in net.permutation(n):
        msgs.append(OutcomeMsg(rec.index, int(j), rec.outcomes[j], int(j), verifier))
    if rec.passed is None:
        msgs.append(AbortMsg(rec.index, "loss-declared", verifier, BROADCAST))
    return msgs


def messages_jsonl(transcript):
    """The message log built round by round with a fresh network stream each."""
    config = transcript.config
    messages = []
    for i, rec in enumerate(rows(transcript.records, config.kind)):
        net = np.random.default_rng((config.seed, i, 0xA11CE))
        messages.extend(_round_messages(rec, simnet.VERIFIER, net))
    return "\n".join(
        json.dumps(m.to_json_dict(), sort_keys=True, separators=(",", ":")) for m in messages
    )
