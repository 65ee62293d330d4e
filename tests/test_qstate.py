import numpy as np
import pytest
import scipy.linalg

from ghzverify import qstate
from ghzverify.qstate import (
    ChannelSpec,
    DensityMatrix,
    MeasurementAngle,
    PureState,
    apply_channel,
    fidelity,
    ghz_state,
    partial_trace,
    plus_state,
    rz_all,
    sample_outcomes,
    setting_pass_probability,
    tensor,
)

import oracles
from conftest import random_density, random_pure, random_valid_theta_angles


SQRT_HALF = 1.0 / np.sqrt(2.0)


# ---------------------------------------------------------------------------
# construction and invariants


def test_ghz_single_qubit_is_plus():
    state = ghz_state(1, 0.0)
    assert np.allclose(state.amplitudes, [SQRT_HALF, SQRT_HALF])


def test_ghz3_amplitudes():
    state = ghz_state(3, 0.0)
    expected = np.zeros(8, dtype=complex)
    expected[0] = expected[7] = SQRT_HALF
    assert np.allclose(state.amplitudes, expected)


def test_ghz_pi_phase_gives_minus_sign():
    state = ghz_state(2, np.pi)
    assert np.allclose(state.amplitudes, [SQRT_HALF, 0, 0, -SQRT_HALF])


@pytest.mark.parametrize("n", [0, -1, 21])
def test_ghz_rejects_bad_qubit_count(n):
    with pytest.raises(ValueError):
        ghz_state(n)


def test_pure_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        PureState(1, np.array([1.0, 1.0]))


def test_density_rejects_non_hermitian():
    mat = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ValueError):
        DensityMatrix(1, mat)


def test_density_rejects_negative_eigenvalue():
    mat = np.array([[1.5, 0.0], [0.0, -0.5]], dtype=complex)
    with pytest.raises(ValueError):
        DensityMatrix(1, mat)


def test_density_rejects_wrong_trace():
    with pytest.raises(ValueError):
        DensityMatrix(1, np.eye(2, dtype=complex))


def test_measurement_angle_rejects_out_of_range():
    with pytest.raises(ValueError):
        MeasurementAngle(np.pi)
    with pytest.raises(ValueError):
        MeasurementAngle(-0.1)


# ---------------------------------------------------------------------------
# rotations


def test_rz_all_identity():
    state = random_pure(3, np.random.default_rng(1))
    rotated = rz_all(state, [0.0, 0.0, 0.0])
    assert np.allclose(rotated.amplitudes, state.amplitudes)


def test_rz_all_cancels_ghz_phase():
    angles = [0.3, 1.1, 0.7]
    state = ghz_state(3, sum(angles))
    rotated = rz_all(state, angles)
    assert np.allclose(rotated.amplitudes, ghz_state(3, 0.0).amplitudes, atol=1e-12)


def test_rz_all_half_pi_on_bell():
    rotated = rz_all(ghz_state(2, 0.0), [np.pi / 2, 0.0])
    expected = np.zeros(4, dtype=complex)
    expected[0] = SQRT_HALF
    expected[3] = SQRT_HALF * np.exp(-1j * np.pi / 2)
    assert np.allclose(rotated.amplitudes, expected)


def test_rz_all_arity_mismatch():
    with pytest.raises(ValueError):
        rz_all(ghz_state(2), [0.1])


def test_rz_all_composes_additively(rng):
    # rotating by a then b equals rotating by a+b, up to 1e-12 amplitudewise
    for _ in range(10):
        state = random_pure(3, rng)
        a = rng.uniform(0, np.pi / 2, 3)
        b = rng.uniform(0, np.pi / 2, 3)
        twice = rz_all(rz_all(state, a), b)
        once = rz_all(state, a + b)
        assert np.max(np.abs(twice.amplitudes - once.amplitudes)) < 1e-12


def test_rz_all_accepts_measurement_angle_objects():
    rotated = rz_all(ghz_state(2), [MeasurementAngle(0.4), MeasurementAngle(0.2)])
    assert np.allclose(rotated.amplitudes, ghz_state(2, -0.6).amplitudes)


# ---------------------------------------------------------------------------
# measurement sampling


def test_plus_state_measured_at_zero_always_passes(rng):
    state = plus_state(1)
    for _ in range(200):
        assert sample_outcomes(state, [0.0], rng) == [0]


def test_ghz3_parity_always_even_at_zero_angles(rng):
    state = ghz_state(3)
    for _ in range(500):
        bits = sample_outcomes(state, [0.0, 0.0, 0.0], rng)
        assert sum(bits) % 2 == 0


def test_zero_state_any_angle_is_unbiased(rng):
    # |<+_t|0>|^2 = 1/2 for every t
    state = qstate.basis_state(1, 0)
    shots = 10_000
    theta = rng.uniform(0, np.pi)
    ones = sum(sample_outcomes(state, [theta], rng)[0] for _ in range(shots))
    sigma = np.sqrt(0.25 / shots)
    assert abs(ones / shots - 0.5) < 3 * sigma


def _measurement_unitary(angles):
    u = np.array([[1.0]], dtype=complex)
    for t in angles:
        row = np.array([[1.0, np.exp(-1j * t)], [1.0, -np.exp(-1j * t)]]) / np.sqrt(2)
        u = np.kron(row, u)
    return u


def test_sequential_sampling_matches_joint_born_rule(rng):
    """Qubit-by-qubit projection reproduces the 2^n-outcome distribution."""
    shots = 20_000
    for state in (random_pure(3, rng), random_density(3, rng)):
        angles = rng.uniform(0, np.pi, 3)
        u = _measurement_unitary(angles)
        if isinstance(state, PureState):
            exact = np.abs(u @ state.amplitudes) ** 2
        else:
            exact = np.diag(u @ state.entries @ u.conj().T).real
        counts = np.zeros(8)
        for _ in range(shots):
            bits = sample_outcomes(state, angles, rng)
            counts[bits[0] + 2 * bits[1] + 4 * bits[2]] += 1
        freq = counts / shots
        tol = 4 * np.sqrt(exact * (1 - exact) / shots) + 1e-9
        assert np.all(np.abs(freq - exact) < tol)


def test_sampling_beyond_small_state_cutoff(rng):
    # seven qubits take the vectorized path; the GHZ parity stays deterministic
    # and a random state's first-qubit marginal matches the Born rule
    ghz7 = ghz_state(7)
    for _ in range(300):
        free = rng.uniform(0, np.pi, 6)
        angles = list(free) + [float((-free.sum()) % np.pi)]
        bits = sample_outcomes(ghz7, angles, rng)
        assert sum(bits) % 2 == round(sum(angles) / np.pi) % 2
    state = random_pure(7, rng)
    theta = float(rng.uniform(0, np.pi))
    amps = state.amplitudes
    branch = (amps[0::2] + np.exp(-1j * theta) * amps[1::2]) / np.sqrt(2)
    exact = float(np.vdot(branch, branch).real)
    shots = 5000
    hits = sum(
        sample_outcomes(state, [theta] + [0.0] * 6, rng)[0] == 0 for _ in range(shots)
    )
    assert abs(hits / shots - exact) < 4 * np.sqrt(exact * (1 - exact) / shots)


def _oracle_cases(n, rng, count):
    """Random angles and generator seeds, half of them on a rotated GHZ
    state, where many conditional probabilities are exactly 1/2 or 1."""
    for i in range(count):
        yield (
            rng.uniform(0, np.pi, n),
            int(rng.integers(2**32)),
            ghz_state(n, float(rng.uniform(0, 2 * np.pi))) if i % 2 else None,
        )


@pytest.mark.parametrize("n", range(1, 9))
def test_pure_sampling_matches_sequential_oracle(n, rng):
    # n = 7 and 8 lie above the 64-amplitude list-loop cutoff
    for angles, seed, ghz in _oracle_cases(n, rng, 150):
        state = ghz or random_pure(n, rng)
        expected = oracles.sample_outcomes(state, angles, np.random.default_rng(seed))
        assert sample_outcomes(state, angles, np.random.default_rng(seed)) == expected


@pytest.mark.parametrize("n", range(1, 7))
def test_density_sampling_matches_sequential_oracle(n, rng):
    for angles, seed, ghz in _oracle_cases(n, rng, 100):
        state = ghz.to_density() if ghz else random_density(n, rng)
        expected = oracles.sample_outcomes(state, angles, np.random.default_rng(seed))
        assert sample_outcomes(state, angles, np.random.default_rng(seed)) == expected


def test_sampling_contract_one_uniform_per_qubit(rng):
    """sample_outcomes consumes exactly rng.random(n), and qubit 0 reads 0
    exactly when its uniform lies below p0."""
    for state in (ghz_state(3), random_pure(7, rng), random_density(4, rng)):
        angles = rng.uniform(0, np.pi, state.n)
        gen, twin = np.random.default_rng(11), np.random.default_rng(11)
        sample_outcomes(state, angles, gen)
        twin.random(state.n)
        assert gen.bit_generator.state == twin.bit_generator.state
    # |+_t> on |+> has p0 = cos^2(t/2)
    for seed in range(200):
        t = float(rng.uniform(0, np.pi))
        u = np.random.default_rng(seed).random()
        bit = sample_outcomes(plus_state(1), [t], np.random.default_rng(seed))[0]
        assert bit == (0 if u < np.cos(t / 2) ** 2 else 1)


# ---------------------------------------------------------------------------
# setting pass probability


def test_setting_pass_ideal_ghz():
    rho = ghz_state(3).to_density()
    assert setting_pass_probability(rho, [0.0, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)


def test_setting_pass_maximally_mixed(rng):
    rho = qstate.maximally_mixed(3)
    angles = random_valid_theta_angles(3, rng)
    assert setting_pass_probability(rho, angles) == pytest.approx(0.5, abs=1e-12)


def test_setting_pass_rotated_bell():
    rho = ghz_state(2, np.pi / 4).to_density()
    expected = 0.5 * (1 + np.cos(np.pi / 4))
    assert setting_pass_probability(rho, [0.0, 0.0]) == pytest.approx(expected, abs=1e-12)


def test_setting_pass_rejects_invalid_sum():
    rho = ghz_state(2).to_density()
    with pytest.raises(ValueError):
        setting_pass_probability(rho, [0.3, 0.0])


def _pauli_observable(t):
    return np.array([[0.0, np.exp(-1j * t)], [np.exp(1j * t), 0.0]])


def test_setting_pass_matches_tensor_observable_oracle(rng):
    # brute-force: build the full product observable and take the trace
    for _ in range(10):
        n = int(rng.integers(2, 5))
        rho = random_density(n, rng)
        angles = random_valid_theta_angles(n, rng)
        obs = np.array([[1.0 + 0j]])
        for t in angles:
            obs = np.kron(_pauli_observable(t), obs)
        m = round(sum(angles) / np.pi)
        oracle = 0.5 * (1 + (-1) ** m * np.trace(rho.entries @ obs).real)
        assert setting_pass_probability(rho, angles) == pytest.approx(oracle, abs=1e-12)


def test_setting_pass_matches_empirical_frequency(rng):
    """The exact per-setting value agrees with single-shot frequencies."""
    shots = 20_000
    for _ in range(20):
        rho = random_density(3, rng)
        angles = random_valid_theta_angles(3, rng)
        exact = setting_pass_probability(rho, angles)
        m = round(sum(angles) / np.pi) % 2
        hits = 0
        for _ in range(shots):
            bits = sample_outcomes(rho, angles, rng)
            hits += (sum(bits) % 2) == m
        assert abs(hits / shots - exact) < 4 / np.sqrt(shots)


# ---------------------------------------------------------------------------
# partial trace


def test_partial_trace_factorizes_product_state(rng):
    a = random_pure(1, rng).to_density()
    b = random_pure(2, rng).to_density()
    joint = DensityMatrix(3, np.kron(b.entries, a.entries))  # a on qubit 0
    assert np.allclose(partial_trace(joint, [0]).entries, a.entries, atol=1e-12)
    assert np.allclose(partial_trace(joint, [1, 2]).entries, b.entries, atol=1e-12)


def test_partial_trace_of_ghz_kills_coherence():
    rho = ghz_state(4).to_density()
    for keep in ([0], [1, 3], [0, 1, 2]):
        reduced = partial_trace(rho, keep)
        k = len(keep)
        expected = np.zeros((2**k, 2**k), dtype=complex)
        expected[0, 0] = expected[-1, -1] = 0.5
        assert np.allclose(reduced.entries, expected, atol=1e-12)


def test_partial_trace_bell_gives_maximally_mixed():
    rho = ghz_state(2).to_density()
    reduced = partial_trace(rho, [1])
    assert np.allclose(reduced.entries, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_preserves_trace(rng):
    rho = random_density(3, rng)
    reduced = partial_trace(rho, [0, 2])
    assert np.trace(reduced.entries).real == pytest.approx(1.0, abs=1e-9)


def test_partial_trace_errors():
    rho = ghz_state(2).to_density()
    with pytest.raises(ValueError):
        partial_trace(rho, [])
    with pytest.raises(ValueError):
        partial_trace(rho, [2])


# ---------------------------------------------------------------------------
# fidelity


def test_fidelity_self_is_one(rng):
    rho = random_density(2, rng)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)


def test_fidelity_orthogonal_ghz_phases():
    assert fidelity(ghz_state(3), ghz_state(3, np.pi)) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_symmetric(rng):
    a, b = random_density(2, rng), random_density(2, rng)
    assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-9)


def test_fidelity_pure_overlap_agreement(rng):
    for _ in range(10):
        psi, phi = random_pure(2, rng), random_pure(2, rng)
        overlap = abs(np.vdot(psi.amplitudes, phi.amplitudes)) ** 2
        assert fidelity(psi, phi) == pytest.approx(overlap, abs=1e-9)


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        fidelity(ghz_state(2), ghz_state(3))


def test_fidelity_reduced_ghz_vs_reduced_bell_plus():
    # tracing out the third party leaves 1/2: computed against scipy's sqrtm
    ghz_reduced = partial_trace(ghz_state(3).to_density(), [0, 1])
    bell_plus = tensor(ghz_state(2), plus_state(1)).to_density()
    bell_reduced = partial_trace(bell_plus, [0, 1])
    value = fidelity(ghz_reduced, bell_reduced)

    root = scipy.linalg.sqrtm(ghz_reduced.entries)
    oracle = np.trace(scipy.linalg.sqrtm(root @ bell_reduced.entries @ root)).real ** 2
    assert value == pytest.approx(oracle, abs=1e-9)
    assert value == pytest.approx(0.5, abs=1e-9)


def test_fidelity_matches_sqrtm_oracle_on_random_pairs(rng):
    for _ in range(10):
        a, b = random_density(2, rng), random_density(2, rng)
        root = scipy.linalg.sqrtm(a.entries)
        oracle = np.trace(scipy.linalg.sqrtm(root @ b.entries @ root)).real ** 2
        assert fidelity(a, b) == pytest.approx(oracle, abs=1e-9)


# ---------------------------------------------------------------------------
# channels


def test_identity_channels_leave_state_unchanged():
    rho = ghz_state(3).to_density()
    assert np.allclose(apply_channel(rho, ChannelSpec.ghz_dephasing(0.0)).entries, rho.entries)
    assert np.allclose(apply_channel(rho, ChannelSpec.depolarizing(1.0)).entries, rho.entries)


@pytest.mark.parametrize("n,v", [(2, 0.3), (3, 0.8), (4, 0.5)])
def test_depolarizing_fidelity(n, v):
    rho = ghz_state(n).to_density()
    noisy = apply_channel(rho, ChannelSpec.depolarizing(v))
    assert fidelity(noisy, rho) == pytest.approx(v + (1 - v) / 2**n, abs=1e-9)


def test_full_dephasing_halves_fidelity():
    rho = ghz_state(3).to_density()
    noisy = apply_channel(rho, ChannelSpec.ghz_dephasing(1.0))
    assert fidelity(noisy, rho) == pytest.approx(0.5, abs=1e-9)


def test_channel_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ChannelSpec.ghz_dephasing(1.5)
    with pytest.raises(ValueError):
        ChannelSpec.depolarizing(-0.1)
    with pytest.raises(ValueError):
        ChannelSpec("amplitude-damping", 0.5)


def test_channel_outputs_are_valid_states(rng):
    rho = random_density(3, rng)
    for spec in (ChannelSpec.ghz_dephasing(0.7), ChannelSpec.depolarizing(0.2)):
        out = apply_channel(rho, spec)
        assert isinstance(out, DensityMatrix)  # constructor revalidates
