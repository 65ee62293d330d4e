"""Small n-qubit state engine: construction, measurement, corner blocks and fidelity.

Conventions used throughout the package:

* Basis index ``i`` encodes qubit ``j`` in bit ``j`` of ``i``; qubit 0 is the
  least significant bit, so ``|1...1>`` sits at index ``2**n - 1``.
* The rotated GHZ state carries ``e^{+i*phase}`` on ``|1...1>``.
* The equatorial measurement basis is
  ``|+_t> = (|0> + e^{it}|1>)/sqrt(2)``, ``|-_t> = (|0> - e^{it}|1>)/sqrt(2)``,
  with outcome bit 0 for ``|+_t>``.  The associated observable is
  ``cos(t) X + sin(t) Y``.

Sampling contract (``sample_rows`` and ``sample_record``): each row of a
block of rounds measures the qubits one at a time, in ascending order.
Qubit j consumes exactly one uniform ``u``, column j of the ``(m, n)``
uniforms, and gives outcome 0 when ``u < p0``, the probability of ``|+_t>``
given the outcomes of qubits 0..j-1.  On a ``GhzDiagonal`` record every
qubit but the last has ``p0 = 1/2``, and the last has
``p0 = 1/2 + (-1)^x Re(c e^{i*T})``, with ``x`` the XOR of the bits before
it, ``c`` the corner coherence and ``T`` the sum of the angles.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, NoReturn, Sequence, Union

import numpy as np

NORM_TOL = 1e-9
MAX_PURE_QUBITS = 20
MAX_DENSITY_QUBITS = 10
# a record is O(1) in n, but a block holds (rows, n) angles and uniforms
MAX_RECORD_QUBITS = 64


def check_qubits(n: int, cap: int) -> None:
    """Reject a qubit count outside [1, cap], naming the cap."""
    if not 1 <= n <= cap:
        raise ValueError(f"qubit count must be in [1, {cap}], got {n}")


def _halves(n: int) -> tuple[int, int]:
    """``(hi, lo)``: the counts ``ceil(n/2)`` of high and ``floor(n/2)`` of
    low qubits.  Basis index ``i = k * 2^lo + j`` sits at row k, column j of
    a ``(2^hi, 2^lo)`` array."""
    return n - n // 2, n // 2


_ANGLE_RANGE = "measurement angles must lie in [0, pi)"


def _check_angle_count(vals: np.ndarray, n: int) -> None:
    count = vals.shape[-1] if vals.ndim else 0
    if count != n:
        raise ValueError(f"expected {n} angles, got {count}")


def angle_values(angles: Sequence[float] | np.ndarray, n: int) -> np.ndarray:
    """Angles as a float array of any rank whose last axis holds ``n``
    angles, each validated to lie in [0, pi).  ``setting_pass_probability``
    checks its one setting itself, in one pass over a Python list."""
    vals = np.asarray(angles, dtype=float)
    _check_angle_count(vals, n)
    # comparisons, so that a NaN fails wherever it sits
    if not ((vals >= 0.0) & (vals < np.pi)).all():
        raise ValueError(_ANGLE_RANGE)
    return vals


@dataclass(frozen=True)
class PureState:
    """An n-qubit state vector with 2**n complex amplitudes."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        check_qubits(self.n, MAX_PURE_QUBITS)
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.n,):
            raise ValueError(f"expected {2**self.n} amplitudes, got shape {amps.shape}")
        # written as `not (... <= tol)` so that a NaN fails the test too
        norm = float(np.vdot(amps, amps).real)
        if not abs(norm - 1.0) <= NORM_TOL:
            _reject(amps, "state vector", f"state is not normalized: |psi|^2 = {norm}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def to_density(self) -> "DensityMatrix":
        return DensityMatrix(self.n, np.outer(self.amplitudes, self.amplitudes.conj()))

    def __reduce__(self):
        # copies and pickles rebuild through the constructor: read-only, no cache
        return PureState, (self.n, self.amplitudes)

    @cached_property
    def anti_diagonal(self) -> np.ndarray:
        """``v_i conj(v_{2^n-1-i})`` as a read-only ``(2^hi, 2^lo)`` array
        (``_halves``), computed on the first call of the setting kernel: one
        more ``2^n`` complex array per state, held as long as the state."""
        v = self.amplitudes
        anti = v * v[::-1].conj()
        anti.setflags(write=False)
        hi, lo = _halves(self.n)
        return anti.reshape(2**hi, 2**lo)


def _reject(values: np.ndarray, what: str, message: str) -> NoReturn:
    """Raise ``message``, or name the non-finite entries that made a
    tolerance test fail."""
    if not np.isfinite(values).all():
        message = f"{what} has non-finite entries"
    raise ValueError(message)


@dataclass(frozen=True)
class DensityMatrix:
    """An n-qubit density operator: Hermitian, unit trace, PSD up to tolerance.

    Every entry must be finite, the matrix must equal its conjugate transpose
    within 1e-9 entrywise and its trace must be 1 within 1e-9.  Positivity
    means no eigenvalue below -1e-9.  It is tested by a Cholesky
    factorisation of ``rho + 1e-9 * I``, which exists exactly when every
    eigenvalue of ``rho`` lies above -1e-9, so it judges a matrix as a full
    diagonalisation would unless the smallest eigenvalue equals -1e-9 to
    within rounding; like ``eigvalsh`` it reads the lower triangle.  States
    failing a check are rejected rather than repaired, so numerical
    corruption fails loudly.
    """

    n: int
    entries: np.ndarray

    def __post_init__(self):
        check_qubits(self.n, MAX_DENSITY_QUBITS)
        d = 2**self.n
        mat = np.asarray(self.entries, dtype=complex)
        if mat.shape != (d, d):
            raise ValueError(f"expected a {d}x{d} matrix, got shape {mat.shape}")
        if not _is_hermitian(mat):
            _reject(mat, "density matrix", "density matrix is not Hermitian within tolerance")
        tr = float(np.trace(mat).real)
        if not abs(tr - 1.0) <= NORM_TOL:
            raise ValueError(f"density matrix trace is {tr}, expected 1")
        # imported here, so that importing the package loads no scipy
        from scipy.linalg.lapack import zpotrf

        # LAPACK factors the transpose, a Fortran-ordered view, in place; its
        # upper triangle is the transpose of mat's lower one, and a Hermitian
        # matrix and its transpose have the same eigenvalues
        shifted = mat.copy()
        shifted.flat[:: d + 1] += NORM_TOL
        if zpotrf(shifted.T, lower=0, overwrite_a=1, clean=0)[1] != 0:
            raise ValueError("density matrix has an eigenvalue below -1e-9")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)

    def __reduce__(self):
        return DensityMatrix, (self.n, self.entries)

    @cached_property
    def anti_diagonal(self) -> np.ndarray:
        """``rho[i, 2^n-1-i]`` as a read-only, C-contiguous ``(2^hi, 2^lo)``
        copy (``_halves``), made on first use: one more ``2^n`` complex array
        per matrix, read without gathering entries ``2^n - 1`` apart."""
        # flat indices d-1, 2(d-1), ..., d(d-1) are [i, d-1-i] for i = 0..d-1
        d = 2**self.n
        hi, lo = _halves(self.n)
        anti = self.entries.reshape(-1)[d - 1 : d * d - 1 : d - 1].copy()
        anti.setflags(write=False)
        return anti.reshape(2**hi, 2**lo)


def _is_hermitian(mat: np.ndarray) -> bool:
    """True when ``mat`` equals its conjugate transpose within 1e-9 entrywise;
    a NaN or infinite entry makes the maximum NaN or infinite and fails."""
    # inf - inf is a NaN, which fails the test as intended: no warning
    with np.errstate(invalid="ignore"):
        return bool(np.max(np.abs(mat - mat.conj().T)) <= NORM_TOL)


@dataclass(frozen=True)
class GhzDiagonal:
    """An n-qubit GHZ-diagonal record, such as an ideal, dephased or
    depolarized GHZ state: the density operator
    ``rho = b*I + (w - b)(|0><0| + |N><N|) + c|0><N| + conj(c)|N><0|``,
    ``N = 2^n - 1``, stored as corner weight ``w``, background ``b`` and
    coherence ``c``.  Its spectrum is ``b`` (``2^n - 2`` times) and
    ``w +- |c|``, so the checks and messages of ``DensityMatrix`` take O(1):
    finite entries, trace ``2w + (2^n - 2) b`` within 1e-9 of 1, and
    ``b + 1e-9 > 0`` (n >= 2) and ``w - |c| + 1e-9 > 0`` for the spectrum.
    Up to ``MAX_RECORD_QUBITS`` qubits; ``to_density`` has the dense cap.
    """

    n: int
    weight: float
    background: float
    coherence: complex

    def __post_init__(self):
        check_qubits(self.n, MAX_RECORD_QUBITS)
        w, b, c = float(self.weight), float(self.background), complex(self.coherence)
        if not (math.isfinite(w) and math.isfinite(b) and cmath.isfinite(c)):
            raise ValueError("density matrix has non-finite entries")
        tr = 2.0 * w + (2.0**self.n - 2.0) * b
        if not abs(tr - 1.0) <= NORM_TOL:
            raise ValueError(f"density matrix trace is {tr}, expected 1")
        if not ((self.n == 1 or b + NORM_TOL > 0.0) and w - abs(c) + NORM_TOL > 0.0):
            raise ValueError("density matrix has an eigenvalue below -1e-9")
        for name, value in (("weight", w), ("background", b), ("coherence", c)):
            object.__setattr__(self, name, value)

    def to_density(self) -> DensityMatrix:
        check_qubits(self.n, MAX_DENSITY_QUBITS)
        mat = np.diag(np.full(2**self.n, self.background, dtype=complex))
        mat[0, 0] = mat[-1, -1] = self.weight
        mat[0, -1], mat[-1, 0] = self.coherence, self.coherence.conjugate()
        return DensityMatrix(self.n, mat)


State = Union[PureState, DensityMatrix, GhzDiagonal]


# ---------------------------------------------------------------------------
# construction


def ghz_state(n: int, phase: float = 0.0) -> PureState:
    """The rotated n-qubit GHZ state (|0..0> + e^{i*phase}|1..1>)/sqrt(2)."""
    check_qubits(n, MAX_PURE_QUBITS)
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1.0 / np.sqrt(2.0)
    amps[-1] = np.exp(1j * phase) / np.sqrt(2.0)
    return PureState(n, amps)


def ghz_diagonal(n: int) -> GhzDiagonal:
    """The n-qubit GHZ state as a record, entry for entry ``ghz_state(n).to_density()``."""
    half = 1.0 / np.sqrt(2.0)
    return GhzDiagonal(n, half * half, 0.0, complex(half * half))


def plus_state(n: int) -> PureState:
    """The product state |+>^n with uniform real amplitudes."""
    check_qubits(n, MAX_PURE_QUBITS)
    amps = np.full(2**n, 2.0 ** (-n / 2.0), dtype=complex)
    return PureState(n, amps)


def tensor(low: PureState, high: PureState) -> PureState:
    """Tensor product placing ``low`` on qubits 0..low.n-1 and ``high`` above."""
    return PureState(low.n + high.n, np.kron(high.amplitudes, low.amplitudes))


# ---------------------------------------------------------------------------
# measurement


def sample_record(coherence, angles: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Outcome bits (m, q) of measuring all q qubits of GHZ-diagonal records,
    one record and one row of ``angles`` and ``draws`` (both (m, q)) per
    round, column j for qubit j.

    ``coherence`` is the corner coherence, one value or one per row.  Every
    bit but the last is ``u < 1/2``; the last has
    ``p0 = 1/2 + (-1)^x Re(c e^{i*T})``, with ``x`` the XOR of the bits
    before it and ``T`` the row's angle sum (module docstring).
    """
    bits = draws >= 0.5
    swing = (coherence * np.exp(1j * angles.sum(axis=1))).real
    odd = bits[:, :-1].sum(axis=1) % 2 == 1
    bits[:, -1] = draws[:, -1] >= 0.5 + np.where(odd, -swing, swing)
    return bits.view(np.int8)


# bytes of starting state per chunk of rows in the projection kernel: a
# 10-qubit density matrix (16 MiB) or a 20-qubit vector goes one row at a time
_CHUNK_BYTES = 1 << 23


def sample_rows(state: State, angles: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Outcome bits (m, n) of measuring every qubit of ``state`` once per row
    of ``angles`` and ``draws`` (both (m, n)), as the sampling contract in
    the module docstring states: column j is qubit j, measured after qubits
    0..j-1, and ``draws[:, j]`` is its uniform.

    A ``GhzDiagonal`` record takes ``sample_record``.  A vector or a density
    matrix is projected one qubit at a time for all rows of a chunk at
    once; the chunks, at most ``_CHUNK_BYTES`` of starting state each, change
    how much is computed at once but no row's bits.
    """
    angles = angle_values(angles, state.n)
    if angles.ndim != 2:
        raise ValueError(f"angles must be (m, {state.n}), got shape {angles.shape}")
    if np.shape(draws) != angles.shape:
        raise ValueError(f"draws must have the angles' shape {angles.shape}, got {np.shape(draws)}")
    if isinstance(state, GhzDiagonal):
        return sample_record(state.coherence, angles, draws)
    arr = state.amplitudes if isinstance(state, PureState) else state.entries
    bits = np.empty(angles.shape, dtype=np.int8)
    step = max(1, _CHUNK_BYTES // arr.nbytes)
    for lo in range(0, len(angles), step):
        rows = slice(lo, lo + step)
        bits[rows] = _project_rows(arr, angles[rows], draws[rows])
    return bits


def _project_rows(arr: np.ndarray, angles: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Measure the qubits of a state vector or density matrix in ascending
    order, one row of ``angles`` and ``draws`` per copy of the state.

    Projecting qubit 0 onto |+-_t> leaves ``low +- cross`` up to
    normalization: ``low = a[0::2]`` and ``cross = e^{-it} a[1::2]`` for a
    vector, and ``low = r00 + r11`` and ``cross = e^{it} r01 + e^{-it} r10``
    for the qubit-0 blocks of a density matrix.  The first step broadcasts
    the shared state over the rows; each later one holds a state per row.
    """
    one_dim = arr.ndim == 1
    a = arr[None]
    bits = np.empty(angles.shape, dtype=np.int8)
    for j in range(angles.shape[1]):
        phase = np.exp(-1j * angles[:, j])
        if one_dim:
            low, cross = a[:, 0::2], phase[:, None] * a[:, 1::2]
        else:
            low = a[:, 0::2, 0::2] + a[:, 1::2, 1::2]
            cross = phase.conj()[:, None, None] * a[:, 0::2, 1::2]
            cross += phase[:, None, None] * a[:, 1::2, 0::2]
        branch = low + cross
        # weight is 2 * p0 here and 2 * (1 - p0) for outcome 1
        if one_dim:
            weight = (branch.real**2 + branch.imag**2).sum(axis=1)
        else:
            weight = np.trace(branch, axis1=1, axis2=2).real
        one = draws[:, j] >= 0.5 * weight
        bits[:, j] = one
        shape = (-1,) + (1,) * (branch.ndim - 1)
        np.subtract(low, cross, out=branch, where=one.reshape(shape))
        weight = np.where(one, np.maximum(2.0 - weight, 1e-300), weight)
        branch /= (np.sqrt(weight) if one_dim else weight).reshape(shape)
        a = branch
    return bits


@lru_cache(maxsize=32)
def _half_sign_table(n: int) -> np.ndarray:
    """(2^hi + 2^lo, n) matrix of basis-index signs times ``1j``, for the
    high ``hi = ceil(n/2)`` and the low ``lo = floor(n/2)`` qubits: row
    ``k < 2^hi`` holds ``1j * (-1)^bit`` of the bits of k in the high
    columns, row ``2^hi + k`` those of k in the low columns, and every
    other entry is 0."""
    hi, lo = _halves(n)
    high, low = ((np.arange(2**w)[:, None] >> np.arange(w)) & 1 for w in (hi, lo))
    table = np.zeros((2**hi + 2**lo, n), dtype=complex)
    table[: 2**hi, lo:] = 1j * (1.0 - 2.0 * high)
    table[2**hi :, :lo] = 1j * (1.0 - 2.0 * low)
    table.setflags(write=False)
    return table


def setting_pass_probability(rho: State, angles: Sequence[float]) -> float:
    """Exact probability that the outcome parity matches the angle parity.

    For angles summing to m*pi this equals
    ``(1 + (-1)^m * Tr[rho * prod_j (cos(t_j) X_j + sin(t_j) Y_j)]) / 2``.
    The product observable only couples each basis state to its bitwise
    complement, so the trace is ``sum_i rho[i, 2^n-1-i] e^{i s_i.t}``, with
    ``s_i`` the signs ``(-1)^bit`` of the bits of i.  The phase factors over
    the high ``ceil(n/2)`` and low ``floor(n/2)`` qubits,
    ``e^{i s_i.t} = e^{i s_hi.t_hi} e^{i s_lo.t_lo}``, so with the
    anti-diagonal held as a contiguous ``(2^hi, 2^lo)`` array ``A`` the sum
    is ``e_hi . (A . e_lo)``, one product of a ``(2^hi, 2^lo)`` matrix and a
    vector and one inner product, after ``2^hi + 2^lo`` complex exponentials
    instead of ``2^n`` (48 instead of 512 at n = 9).  A matrix's ``A`` holds
    ``rho[i, 2^n-1-i]`` and a ``PureState`` ``v``'s holds
    ``v_i conj(v_{2^n-1-i})``.  On a ``GhzDiagonal`` record only the corners
    are nonzero, and the sum is ``2 Re(c e^{i*T})`` with
    ``c = rho[0, 2^n - 1]`` and ``T`` the angle sum.  The angles must be one
    setting of n angles: a well-formed setting passes one shape comparison,
    and only a setting of another shape is examined to pick its message.
    Each angle must lie in [0, pi), checked in one pass over their Python
    list, and their sum must be a multiple of pi within 1e-9.  ``A`` is the
    state's ``anti_diagonal``, computed on the first call and held by the
    state; a setting that fails a check never reads it.
    """
    n = rho.n
    vals = np.asarray(angles, dtype=float)
    if vals.shape != (n,):
        if vals.ndim > 1:
            raise ValueError(f"expected one setting of {n} angles, got shape {vals.shape}")
        _check_angle_count(vals, n)
    # comparisons, so that a NaN fails wherever it sits; a row of n floats
    # is tested in Python, which beats three ufuncs and a reduction
    row = vals.tolist()
    if not all(0.0 <= t < math.pi for t in row):
        raise ValueError(_ANGLE_RANGE)
    total = sum(row)
    m = round(total / math.pi)
    if abs(total - m * math.pi) > NORM_TOL:
        raise ValueError("angle sum must be a multiple of pi within 1e-9")
    if isinstance(rho, GhzDiagonal):
        expectation = 2.0 * (rho.coherence * cmath.exp(1j * total)).real
    else:
        anti = rho.anti_diagonal
        # ndarray.dot: at these sizes matmul's ufunc dispatch costs about twice as much
        phases = np.exp(_half_sign_table(n).dot(vals))
        hi = len(anti)
        expectation = float(phases[:hi].dot(anti.dot(phases[hi:])).real)
    return 0.5 * (1.0 + (expectation if m % 2 == 0 else -expectation))


@lru_cache(maxsize=128)
def _corner_indices(n: int, traced: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The indices ``L`` and ``L|H`` of ``corner``, read-only and built once
    per ``(n, traced)``, over the traced bits in the order given: ascending."""
    low = np.zeros(1, dtype=np.int64)
    for j in traced:
        low = np.concatenate([low, low + (1 << j)])
    high = low + sum(1 << j for j in range(n) if j not in traced)
    low.setflags(write=False)
    high.setflags(write=False)
    return low, high


def corner(state: State, traced: Iterable[int] = ()) -> tuple[float, float, complex]:
    """The corner block ``(r00, rNN, x) = (rho_K[0, 0], rho_K[N, N], rho_K[N, 0])``
    of the reduced state ``rho_K`` of the qubits not in ``traced``, with ``0``
    and ``N`` their all-0 and all-1 strings.  With ``H`` the kept qubits'
    mask and ``L`` the indices whose kept bits are 0, these are
    ``sum rho[s, s]``, ``sum rho[s|H, s|H]`` and ``sum rho[s|H, s]`` over
    ``s`` in ``L``, in ascending order of the traced bits; for a vector,
    ``|a|^2``, ``|b|^2`` and ``<a|b>`` with ``a = psi[L]``, ``b = psi[L|H]``.
    A record's sums hold a corner weight and ``2^d - 1`` background entries
    for ``d`` traced qubits, and ``x`` is its conjugated coherence when
    nothing is traced, else 0.
    """
    traced = tuple(sorted(set(traced)))
    if traced and not 0 <= traced[0] <= traced[-1] < state.n:
        raise ValueError(f"traced qubits must lie in [0, {state.n}), got {traced}")
    if isinstance(state, GhzDiagonal):
        share = state.weight + (2.0 ** len(traced) - 1.0) * state.background
        return share, share, (0j if traced else state.coherence.conjugate())
    low, high = _corner_indices(state.n, traced)
    if isinstance(state, PureState):
        a, b = state.amplitudes[low], state.amplitudes[high]
        return float(np.vdot(a, a).real), float(np.vdot(b, b).real), complex(np.vdot(a, b))
    rho = state.entries
    r00, rnn = rho[low, low].sum().real, rho[high, high].sum().real
    return float(r00), float(rnn), complex(rho[high, low].sum())


# ---------------------------------------------------------------------------
# fidelity


def _clip_spectrum(w: np.ndarray) -> np.ndarray:
    """Zero out eigenvalues that are numerical noise around 0.

    sqrt is infinitely steep at 0, so machine-noise eigenvalues of order
    eps*|M| would otherwise contribute sqrt(eps)-sized errors.
    """
    cutoff = max(float(w.max()), 0.0) * len(w) * np.finfo(float).eps
    return np.where(w > cutoff, w, 0.0)


def _eigen_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """``Tr[sqrt(sqrt(a) b sqrt(a))]^2`` for the entries of two density
    matrices, by two eigendecompositions: one for ``sqrt(a)``, with its
    eigenvalues clamped at 0, and one for the spectrum of the product."""
    w, v = np.linalg.eigh(a)
    root = (v * np.sqrt(_clip_spectrum(w))) @ v.conj().T
    inner = root @ b @ root
    w = _clip_spectrum(np.linalg.eigvalsh(0.5 * (inner + inner.conj().T)))
    return float(np.sqrt(w).sum()) ** 2


def _rank_one_vector(state: Union[PureState, DensityMatrix]) -> np.ndarray | None:
    """A unit vector ``v`` with ``state = v v*``, or None when there is none.

    A ``PureState`` gives its amplitudes.  A matrix is rank 1 when it equals
    ``v v*`` within 1e-9 entrywise, ``v`` its largest-diagonal column
    normalised: for ``rho = w w*`` that column is ``w conj(w_j)``, which is
    ``w`` up to a phase once normalised.
    """
    if isinstance(state, PureState):
        return state.amplitudes
    mat = state.entries
    diag = mat.diagonal().real
    col = mat[:, int(np.argmax(diag))]
    v = col / np.linalg.norm(col)
    # the diagonal first: it rejects most mixed states in O(2^n)
    if (np.max(np.abs(v.real**2 + v.imag**2 - diag)) <= NORM_TOL
            and np.max(np.abs(np.outer(v, v.conj()) - mat)) <= NORM_TOL):
        return v
    return None


def fidelity(rho: State, sigma: State) -> float:
    """Squared Uhlmann fidelity ``Tr[sqrt(sqrt(rho) sigma sqrt(rho))]^2``, clamped to [0, 1].

    Symmetric in its arguments.  Two ``GhzDiagonal`` records take a closed
    form in O(1).  Otherwise, when an argument other than a record
    is rank 1, ``v v*`` (``_rank_one_vector``, a ``PureState`` first), the
    value is ``<v|other|v>``: ``|<v|w>|^2`` for a pure ``other``, and
    ``b + (w - b)(|v_0|^2 + |v_N|^2) + 2 Re(c conj(v_0) v_N)`` for a record,
    read without its dense matrix.  Any other pair takes ``_eigen_fidelity``.
    """
    if rho.n != sigma.n:
        raise ValueError(f"dimension mismatch: {rho.n} vs {sigma.n} qubits")
    if isinstance(rho, GhzDiagonal) and isinstance(sigma, GhzDiagonal):
        # both block diagonal: 2 x 2 corner blocks A, B add sqrt(Tr[AB] + 2 sqrt(det A det B))
        # to the root fidelity (Tr sqrt(M) = sqrt(Tr M + 2 sqrt(det M)) for a 2 x 2 M >= 0),
        # the backgrounds (2^n - 2) sqrt(b b'); values down to -1e-9 count as 0
        dets = [max(x.weight**2 - abs(x.coherence) ** 2, 0.0) for x in (rho, sigma)]
        cross = rho.coherence * sigma.coherence.conjugate()
        trace_ab = 2.0 * (rho.weight * sigma.weight + cross.real)
        root = math.sqrt(max(trace_ab + 2.0 * math.sqrt(dets[0] * dets[1]), 0.0))
        backs = max(rho.background, 0.0) * max(sigma.background, 0.0)
        return min((root + (2.0**rho.n - 2.0) * math.sqrt(backs)) ** 2, 1.0)
    pair = sorted((rho, sigma), key=lambda s: not isinstance(s, PureState))
    for pure, other in (pair, pair[::-1]):
        v = None if isinstance(pure, GhzDiagonal) else _rank_one_vector(pure)
        if v is None:
            continue
        if isinstance(other, PureState):
            value = abs(np.vdot(v, other.amplitudes)) ** 2
        elif isinstance(other, GhzDiagonal):
            b = other.background
            value = b + (other.weight - b) * (abs(v[0]) ** 2 + abs(v[-1]) ** 2)
            value += 2.0 * (other.coherence * v[0].conjugate() * v[-1]).real
        else:
            value = np.vdot(v, other.entries @ v).real
        break
    else:
        dense = (s.to_density() if isinstance(s, GhzDiagonal) else s for s in (rho, sigma))
        value = _eigen_fidelity(*(s.entries for s in dense))
    return min(max(float(value), 0.0), 1.0)
