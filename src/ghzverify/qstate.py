"""Small n-qubit state engine: construction, rotation, measurement and noise.

Conventions used throughout the package:

* Basis index ``i`` encodes qubit ``j`` in bit ``j`` of ``i``; qubit 0 is the
  least significant bit, so ``|1...1>`` sits at index ``2**n - 1``.
* The rotated GHZ state carries ``e^{+i*phase}`` on ``|1...1>``.
* ``R_z(theta) = diag(1, e^{-i*theta})``, so rotating every qubit of a GHZ
  state by angles summing to ``s`` maps its phase to ``phase - s``.
* The equatorial measurement basis is
  ``|+_t> = (|0> + e^{it}|1>)/sqrt(2)``, ``|-_t> = (|0> - e^{it}|1>)/sqrt(2)``,
  with outcome bit 0 for ``|+_t>``.  The associated observable is
  ``cos(t) X + sin(t) Y``.

Sampling contract (``sample_outcomes`` and ``adversary.measure_parties``):
qubits are measured one at a time in ascending order (for
``measure_parties``, the dishonest qubits in ascending party order).  Each
measured qubit consumes exactly one uniform ``u`` from the generator, and
gives outcome 0 when ``u < p0``, the probability of ``|+_t>`` given the
outcomes before it.  ``sample_outcomes`` draws ``rng.random(n)`` up front and
``measure_parties`` one ``rng.random()`` per qubit, which is the same stream.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence, Union

import numpy as np

NORM_TOL = 1e-9
MAX_PURE_QUBITS = 20
MAX_DENSITY_QUBITS = 10


@dataclass(frozen=True)
class MeasurementAngle:
    """An equatorial measurement angle in radians, restricted to [0, pi)."""

    theta: float

    def __post_init__(self):
        if not 0.0 <= self.theta < np.pi:
            raise ValueError(f"measurement angle must lie in [0, pi), got {self.theta}")

    def __float__(self) -> float:
        return float(self.theta)


AngleLike = Union[MeasurementAngle, float]


def angle_values(angles: Sequence[AngleLike], n: int | None = None) -> np.ndarray:
    """Normalize a sequence of angles to a float array, validating the range."""
    if n is not None and len(angles) != n:
        raise ValueError(f"expected {n} angles, got {len(angles)}")
    try:
        if min(angles) < 0.0 or max(angles) >= np.pi:
            raise ValueError("measurement angles must lie in [0, pi)")
        return np.asarray(angles, dtype=float)
    except TypeError:
        # MeasurementAngle objects are not orderable; unwrap them first
        vals = np.array([float(a) for a in angles], dtype=float)
        if np.any(vals < 0.0) or np.any(vals >= np.pi):
            raise ValueError("measurement angles must lie in [0, pi)")
        return vals


@dataclass(frozen=True)
class PureState:
    """An n-qubit state vector with 2**n complex amplitudes."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if not 1 <= self.n <= MAX_PURE_QUBITS:
            raise ValueError(f"qubit count must be in [1, {MAX_PURE_QUBITS}], got {self.n}")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.n,):
            raise ValueError(f"expected {2**self.n} amplitudes, got shape {amps.shape}")
        norm = float(np.vdot(amps, amps).real)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized: |psi|^2 = {norm}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def to_density(self) -> "DensityMatrix":
        return DensityMatrix(self.n, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """An n-qubit density operator: Hermitian, unit trace, PSD up to tolerance.

    States failing the positivity floor (eigenvalues below -1e-9) are rejected
    rather than repaired, so numerical corruption fails loudly.
    """

    n: int
    entries: np.ndarray

    def __post_init__(self):
        if not 1 <= self.n <= MAX_DENSITY_QUBITS:
            raise ValueError(f"qubit count must be in [1, {MAX_DENSITY_QUBITS}], got {self.n}")
        d = 2**self.n
        mat = np.asarray(self.entries, dtype=complex)
        if mat.shape != (d, d):
            raise ValueError(f"expected a {d}x{d} matrix, got shape {mat.shape}")
        if np.max(np.abs(mat - mat.conj().T)) > NORM_TOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        tr = float(np.trace(mat).real)
        if abs(tr - 1.0) > NORM_TOL:
            raise ValueError(f"density matrix trace is {tr}, expected 1")
        if float(np.linalg.eigvalsh(mat)[0]) < -NORM_TOL:
            raise ValueError("density matrix has an eigenvalue below -1e-9")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)


State = Union[PureState, DensityMatrix]


@dataclass(frozen=True)
class ChannelSpec:
    """A noise channel: collective GHZ dephasing or global depolarizing."""

    kind: str
    value: float

    _KINDS = ("ghz-dephasing", "depolarizing")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"channel parameter must lie in [0, 1], got {self.value}")

    @classmethod
    def ghz_dephasing(cls, p: float) -> "ChannelSpec":
        """Damp the |0..0><1..1| coherences by a factor (1 - p)."""
        return cls("ghz-dephasing", p)

    @classmethod
    def depolarizing(cls, v: float) -> "ChannelSpec":
        """Mix towards the maximally mixed state: v*rho + (1-v)*I/2^n."""
        return cls("depolarizing", v)


# ---------------------------------------------------------------------------
# construction


def ghz_state(n: int, phase: float = 0.0) -> PureState:
    """The rotated n-qubit GHZ state (|0..0> + e^{i*phase}|1..1>)/sqrt(2)."""
    if not 1 <= n <= MAX_PURE_QUBITS:
        raise ValueError(f"qubit count must be in [1, {MAX_PURE_QUBITS}], got {n}")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1.0 / np.sqrt(2.0)
    amps[-1] = np.exp(1j * phase) / np.sqrt(2.0)
    return PureState(n, amps)


def basis_state(n: int, index: int) -> PureState:
    """The computational basis state |index> on n qubits."""
    amps = np.zeros(2**n, dtype=complex)
    amps[index] = 1.0
    return PureState(n, amps)


def plus_state(n: int) -> PureState:
    """The product state |+>^n with uniform real amplitudes."""
    amps = np.full(2**n, 2.0 ** (-n / 2.0), dtype=complex)
    return PureState(n, amps)


def tensor(low: PureState, high: PureState) -> PureState:
    """Tensor product placing ``low`` on qubits 0..low.n-1 and ``high`` above."""
    return PureState(low.n + high.n, np.kron(high.amplitudes, low.amplitudes))


def maximally_mixed(n: int) -> DensityMatrix:
    return DensityMatrix(n, np.eye(2**n, dtype=complex) / 2**n)


# ---------------------------------------------------------------------------
# rotations and measurement


@lru_cache(maxsize=32)
def _bit_table(n: int) -> np.ndarray:
    """(2^n, n) matrix of basis-index bits; row i holds the bits of i."""
    idx = np.arange(2**n)
    bits = (idx[:, None] >> np.arange(n)) & 1
    bits.setflags(write=False)
    return bits


def rz_all(state: PureState, angles: Sequence[AngleLike]) -> PureState:
    """Apply R_z(theta_j) = diag(1, e^{-i*theta_j}) to every qubit j."""
    vals = angle_values(angles, state.n)
    phases = np.exp(-1j * _bit_table(state.n) @ vals)
    return PureState(state.n, state.amplitudes * phases)


def sample_outcomes(
    state: State, angles: Sequence[AngleLike], rng: np.random.Generator
) -> list[int]:
    """Sample one measurement outcome bit per qubit in the |+-_t> bases.

    Draws ``rng.random(n)`` and measures the qubits in ascending order with
    ``_measure_low_qubits``; the resulting joint distribution is the full Born
    rule over all 2**n outcome strings.  Outcome 0 corresponds to |+_t>.
    """
    # python floats keep the list loop's scalar arithmetic off numpy scalars
    vals = angle_values(angles, state.n).tolist()
    amps = state.amplitudes if isinstance(state, PureState) else state.entries
    return _measure_low_qubits(amps, vals, rng.random(state.n).tolist())[0]


# below this dimension plain python complex arithmetic beats numpy dispatch;
# Monte Carlo runs spend most of their time here
_SMALL_STATE_DIM = 64


def _measure_low_qubits(
    state: np.ndarray, angles: Sequence[float], draws: Sequence[float]
) -> tuple[list[int], Union[np.ndarray, list[complex]]]:
    """Measure qubits 0..m-1 (m = len(angles)) of a state vector or a density
    matrix, in ascending order, as the sampling contract states; ``draws[j]``
    is qubit j's uniform.  Returns the bits and the normalized state of the
    unmeasured qubits, relabelled from 0.

    Projecting qubit 0 onto |+-_t> leaves ``low +- cross`` up to normalization:
    ``low = a[0::2]`` and ``cross = e^{-it} a[1::2]`` for a vector, and
    ``low = r00 + r11`` and ``cross = e^{it} r01 + e^{-it} r10`` for the
    qubit-0 blocks of a density matrix.  Vectors of at most
    ``_SMALL_STATE_DIM`` amplitudes run as python lists, and their remaining
    state is returned as a list.
    """
    bits: list[int] = []
    if state.ndim == 1 and len(state) <= _SMALL_STATE_DIM:
        a = state.tolist()
        for t, u in zip(angles, draws):
            phase = cmath.exp(-1j * t)
            half = range(0, len(a), 2)
            branch0 = [a[i] + phase * a[i + 1] for i in half]
            p0 = 0.5 * sum(x.real * x.real + x.imag * x.imag for x in branch0)
            if u < p0:
                bits.append(0)
                scale = 1.0 / math.sqrt(2.0 * p0)
                a = [x * scale for x in branch0]
            else:
                bits.append(1)
                scale = 1.0 / math.sqrt(max(2.0 * (1.0 - p0), 1e-300))
                a = [(a[i] - phase * a[i + 1]) * scale for i in half]
        return bits, a
    a = state
    for t, u in zip(angles, draws):
        phase = cmath.exp(-1j * t)
        if a.ndim == 1:
            low, cross = a[0::2], phase * a[1::2]
        else:
            low = a[0::2, 0::2] + a[1::2, 1::2]
            cross = phase.conjugate() * a[0::2, 1::2]
            cross += phase * a[1::2, 0::2]
        # branch is a fresh array: the outcome-1 branch and the normalization
        # reuse its memory, which saves megabyte allocations at n = 10
        branch = low + cross
        # weight is 2 * p0 here and 2 * (1 - p0) for outcome 1
        weight = float((np.vdot(branch, branch) if a.ndim == 1 else np.trace(branch)).real)
        if u < 0.5 * weight:
            bits.append(0)
        else:
            bits.append(1)
            weight = max(2.0 - weight, 1e-300)
            np.subtract(low, cross, out=branch)
        branch /= math.sqrt(weight) if a.ndim == 1 else weight
        a = branch
    return bits, a


def setting_pass_probability(rho: DensityMatrix, angles: Sequence[AngleLike]) -> float:
    """Exact probability that the outcome parity matches the angle parity.

    For angles summing to m*pi this equals
    ``(1 + (-1)^m * Tr[rho * prod_j (cos(t_j) X_j + sin(t_j) Y_j)]) / 2``.
    The product observable only couples each basis state to its bitwise
    complement, so the trace reduces to a phase-weighted anti-diagonal sum.
    """
    vals = angle_values(angles, rho.n)
    total = float(vals.sum())
    m = int(round(total / np.pi))
    if abs(total - m * np.pi) > NORM_TOL:
        raise ValueError("angle sum must be a multiple of pi within 1e-9")
    n = rho.n
    signs = 1 - 2 * _bit_table(n)
    phases = np.exp(1j * (signs @ vals))
    anti = np.diag(np.fliplr(rho.entries))
    expectation = float((anti @ phases).real)
    return 0.5 * (1.0 + (-1) ** (m % 2) * expectation)


# ---------------------------------------------------------------------------
# reduced states, fidelity, channels


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Trace out all qubits not in ``keep``; kept qubits keep their order."""
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


def _clip_spectrum(w: np.ndarray) -> np.ndarray:
    """Zero out eigenvalues that are numerical noise around 0.

    sqrt is infinitely steep at 0, so machine-noise eigenvalues of order
    eps*|M| would otherwise contribute sqrt(eps)-sized errors.
    """
    cutoff = max(float(w.max()), 0.0) * len(w) * np.finfo(float).eps
    return np.where(w > cutoff, w, 0.0)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Matrix square root of a Hermitian PSD matrix, clamping eigenvalues at 0."""
    w, v = np.linalg.eigh(mat)
    w = _clip_spectrum(w)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(rho: State, sigma: State) -> float:
    """Squared Uhlmann fidelity ``Tr[sqrt(sqrt(rho) sigma sqrt(rho))]^2``.

    Symmetric in its arguments; reduces to ``|<psi|phi>|^2`` for pure inputs.
    Pure states are accepted and converted to density operators.
    """
    if isinstance(rho, PureState):
        rho = rho.to_density()
    if isinstance(sigma, PureState):
        sigma = sigma.to_density()
    if rho.n != sigma.n:
        raise ValueError(f"dimension mismatch: {rho.n} vs {sigma.n} qubits")
    root = _psd_sqrt(rho.entries)
    inner = root @ sigma.entries @ root
    w = _clip_spectrum(np.linalg.eigvalsh(0.5 * (inner + inner.conj().T)))
    value = float(np.sqrt(w).sum()) ** 2
    return min(max(value, 0.0), 1.0)


def apply_channel(rho: DensityMatrix, spec: ChannelSpec) -> DensityMatrix:
    """Apply a noise channel and return the resulting density matrix."""
    mat = rho.entries.copy()
    if spec.kind == "ghz-dephasing":
        mat[0, -1] *= 1.0 - spec.value
        mat[-1, 0] *= 1.0 - spec.value
        return DensityMatrix(rho.n, mat)
    dim = 2**rho.n
    mixed = spec.value * mat + (1.0 - spec.value) * np.eye(dim) / dim
    return DensityMatrix(rho.n, mixed)
