"""Reference implementations that the package's kernels are tested against.

These are the direct forms of what the package computes by shorter routes:
separate sequential samplers for pure states (python lists and numpy) and
density matrices, separate pure and density versions of the coalition's
projective measurement, the exact pass probabilities as GHZ-projector
overlaps and as a sum over the 2**(n-1) xy settings, and the xy-optimal
cheat as a sum over those settings.  Each sampler draws its uniforms as the
sampling contract in ``ghzverify.qstate`` prescribes, so on a shared seed it
must return the same bits as the package.
"""

import cmath
import math

import numpy as np

from ghzverify import adversary, qstate
from ghzverify.protocol import xy_valid_settings
from ghzverify.qstate import DensityMatrix, PureState

SMALL_STATE_DIM = 64


# ---------------------------------------------------------------------------
# sequential samplers


def sample_outcomes(state, angles, rng):
    vals = qstate.angle_values(angles, state.n)
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
# the coalition's projective measurement


def _dishonest_first_axes(coalition):
    """Tensor-axis permutation that relabels the dishonest qubits, then the
    honest ones, as qubits 0, 1, ..."""
    n = coalition.n
    order = sorted(coalition.dishonest) + list(coalition.honest)
    perm = [0] * n
    for new, old in enumerate(order):
        perm[n - 1 - new] = n - 1 - old
    return perm


def measure_parties(state, coalition, angles, rng):
    if isinstance(state, PureState):
        return _measure_parties_pure(state, coalition, angles, rng)
    return _measure_parties_density(state, coalition, angles, rng)


def _measure_parties_pure(psi, coalition, angles, rng):
    n = psi.n
    a = psi.amplitudes.reshape((2,) * n).transpose(_dishonest_first_axes(coalition))
    a = a.reshape(-1)
    bits = []
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for t in angles:
        rotated = np.exp(-1j * t) * a[1::2]
        branch0 = (a[0::2] + rotated) * inv_sqrt2
        p0 = float(np.vdot(branch0, branch0).real)
        if rng.random() < p0:
            bits.append(0)
            a = branch0 / math.sqrt(p0)
        else:
            bits.append(1)
            branch1 = (a[0::2] - rotated) * inv_sqrt2
            a = branch1 / math.sqrt(max(1.0 - p0, 1e-300))
    return bits, PureState(coalition.k, a)


def _measure_parties_density(rho, coalition, angles, rng):
    n = rho.n
    perm = _dishonest_first_axes(coalition)
    tens = rho.entries.reshape((2,) * (2 * n))
    mat = tens.transpose(perm + [n + p for p in perm]).reshape(2**n, 2**n)
    bits = []
    for t in angles:
        r00 = mat[0::2, 0::2]
        r01 = mat[0::2, 1::2]
        r10 = mat[1::2, 0::2]
        r11 = mat[1::2, 1::2]
        cross = np.exp(1j * t) * r01 + np.exp(-1j * t) * r10
        block0 = 0.5 * (r00 + cross + r11)
        p0 = float(np.trace(block0).real)
        if rng.random() < p0:
            bits.append(0)
            mat = block0 / p0
        else:
            bits.append(1)
            mat = 0.5 * (r00 - cross + r11) / max(1.0 - p0, 1e-300)
    return bits, DensityMatrix(coalition.k, mat)


# ---------------------------------------------------------------------------
# exact pass probabilities


def exact_pass_probability_theta(rho):
    """``F_0 + (1 - F_0 - F_pi)/2`` from the rotated-GHZ projector overlaps."""
    g0 = qstate.ghz_state(rho.n, 0.0).amplitudes
    gp = qstate.ghz_state(rho.n, np.pi).amplitudes
    f0 = float((g0.conj() @ rho.entries @ g0).real)
    fp = float((gp.conj() @ rho.entries @ gp).real)
    return f0 + 0.5 * (1.0 - f0 - fp)


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
        decomp = adversary.decompose_vs_ghz(psi, coalition, honest_angle)
        values.append(adversary.helstrom_guess_probability(decomp))
    return float(np.mean(values))
