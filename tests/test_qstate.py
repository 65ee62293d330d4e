import copy
import itertools
import pickle
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ghzverify import protocol, qstate, sources
from ghzverify.adversary import Coalition, best_dishonest_fidelity
from ghzverify.qstate import (
    DensityMatrix,
    GhzDiagonal,
    PureState,
    fidelity,
    ghz_diagonal,
    ghz_state,
    plus_state,
    sample_rows,
    setting_pass_probability,
    tensor,
)

import oracles
from conftest import (
    block_assignment,
    dephased_ghz,
    depolarized_ghz,
    random_density,
    random_ghz_diagonal,
    random_pure,
    random_valid_theta_angles,
)


SQRT_HALF = 1.0 / np.sqrt(2.0)


def sample_outcomes(state, angles, rng):
    """One shot of every qubit: ``sample_rows`` on one row of
    ``rng.random((1, n))``."""
    row = np.asarray(angles, dtype=float).reshape(1, -1)
    return sample_rows(state, row, rng.random((1, state.n)))[0].tolist()


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


@pytest.mark.parametrize(
    "cls,entries,message",
    [
        (PureState, [np.nan, 1.0], "state vector has non-finite entries"),
        (PureState, [np.inf, 0.0], "state vector has non-finite entries"),
        (DensityMatrix, [[np.nan, 0.0], [0.0, 1.0]], "density matrix has non-finite entries"),
        (DensityMatrix, [[0.5, np.nan], [np.nan, 0.5]], "density matrix has non-finite entries"),
    ],
)
def test_states_reject_non_finite_entries(cls, entries, message):
    with pytest.raises(ValueError) as err:
        cls(1, np.array(entries, dtype=complex))
    assert str(err.value) == message


# the smallest eigenvalue planted in a random state: either side of the
# -1e-9 floor by a margin far above rounding, zero, or clearly negative
PLANTED_MINIMUM = st.one_of(
    st.sampled_from([0.5e-9, -0.5e-9, 2e-9, -2e-9, 0.0]),
    st.floats(-0.5, -2e-9),
)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 7), lowest=PLANTED_MINIMUM, seed=st.integers(0, 2**32 - 1))
def test_positivity_check_matches_eigenvalue_oracle(n, lowest, seed):
    rng = np.random.default_rng(seed)
    d = 2**n
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    rest = rng.random(d - 1) + 1e-3
    w = np.concatenate([[lowest], rest * (1.0 - lowest) / rest.sum()])
    mat = (u * w) @ u.conj().T
    rejected = oracles.has_eigenvalue_below_floor(mat)
    assert rejected == (lowest < -1e-9)
    if rejected:
        with pytest.raises(ValueError) as err:
            DensityMatrix(n, mat)
        assert str(err.value) == "density matrix has an eigenvalue below -1e-9"
    else:
        DensityMatrix(n, mat)


# at n = 8 the entry sits far from the diagonal of a 256 x 256 matrix
@pytest.mark.parametrize("n,low,high", [(2, 1, 3), (8, 70, 200)])
@pytest.mark.parametrize("bad", [2e-9, np.nan])
@pytest.mark.parametrize("upper", [True, False])
def test_hermitian_test_rejects_asymmetry_in_either_triangle(n, low, high, bad, upper):
    d = 2**n
    row, col = (low, high) if upper else (high, low)
    mat = np.eye(d, dtype=complex) / d
    mat[row, col] += bad
    with pytest.raises(ValueError) as err:
        DensityMatrix(n, mat)
    expected = "is not Hermitian within tolerance" if bad == 2e-9 else "has non-finite entries"
    assert str(err.value) == f"density matrix {expected}"
    mat[col, row] += bad
    if bad == 2e-9:
        DensityMatrix(n, mat)


def _record_dense(n, w, b, c):
    """The dense matrix of the record ``(n, w, b, c)``, built without
    validating it."""
    mat = np.diag(np.full(2**n, b, dtype=complex))
    mat[0, 0] = mat[-1, -1] = w
    mat[0, -1] = c
    mat[-1, 0] = np.conj(c)
    return mat


def _verdict(build):
    """The message a construction raises, or None; a reported trace is
    rounded to 12 places, as a record sums it in another order."""
    try:
        build()
    except ValueError as exc:
        return re.sub(r"trace is (\S+),", lambda m: f"trace is {float(m[1]):.12f},", str(exc))
    return None


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    in_corner=st.booleans(),
    lowest=PLANTED_MINIMUM,
    trace_error=st.sampled_from([0.0, 0.5e-9, -0.5e-9, 2e-9, -2e-9, 0.25]),
    bad=st.sampled_from([None, np.nan, np.inf, -np.inf]),
    bad_at=st.sampled_from(["weight", "background", "coherence"]),
)
def test_ghz_diagonal_checks_match_density_matrix(
    n, seed, in_corner, lowest, trace_error, bad, bad_at
):
    # no entry of the matrix holds the background at n = 1
    assume(not (n == 1 and bad is not None and bad_at == "background"))
    rng = np.random.default_rng(seed)
    in_corner = in_corner or n == 1
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
    if in_corner:
        # the corner block [[w, c], [c*, w]] has eigenvalues lowest and 2w - lowest
        b = rng.random() / 2**n
        w = 0.5 * (1.0 - (2**n - 2) * b)
        c = (w - lowest) * phase
    else:
        # the background is the lowest eigenvalue; the corner block stays
        # well inside the positive cone
        b = lowest
        w = 0.5 * (1.0 - (2**n - 2) * b)
        c = 0.9 * rng.random() * w * phase
    w += trace_error / 2
    params = {"weight": w, "background": b, "coherence": c}
    if bad is not None:
        params[bad_at] = bad
    expected = _verdict(lambda: DensityMatrix(n, _record_dense(n, *params.values())))
    assert _verdict(lambda: GhzDiagonal(n, **params)) == expected
    planted_bad = bad is not None or abs(trace_error) > 1e-9 or lowest < -1e-9
    assert (expected is not None) == planted_bad


def test_ghz_diagonal_to_density_is_the_record_matrix(rng):
    for n in (1, 2, 5, 10):
        record = random_ghz_diagonal(n, rng)
        np.testing.assert_array_equal(
            record.to_density().entries,
            _record_dense(n, record.weight, record.background, record.coherence),
        )


def test_ghz_diagonal_takes_up_to_64_qubits():
    for n in (11, 40, qstate.MAX_RECORD_QUBITS):
        record = depolarized_ghz(n, 0.9)
        assert record.background == (1.0 - 0.9) / 2**n
        # the dense matrix keeps its own cap
        with pytest.raises(ValueError, match=r"qubit count must be in \[1, 10\], got"):
            record.to_density()
    for n in (0, qstate.MAX_RECORD_QUBITS + 1):
        with pytest.raises(ValueError, match=r"qubit count must be in \[1, 64\], got"):
            GhzDiagonal(n, 0.5, 0.0, 0.0)
    # a count is an integer, numpy's included
    for call in (
        lambda: qstate.ghz_diagonal(2.5),
        lambda: sources.prepare(sources.SourceModel("ideal-ghz", 2.5)),
        lambda: qstate.check_qubits(3.0, qstate.MAX_PURE_QUBITS),
    ):
        with pytest.raises(ValueError, match=r"qubit count must be an integer, got (2\.5|3\.0)"):
            call()
    assert qstate.ghz_diagonal(np.int64(3)).n == 3
    with pytest.raises(ValueError, match="density matrix has non-finite entries"):
        GhzDiagonal(1, 0.5, np.nan, 0.0)


def test_density_matrix_with_mirrored_infinities_warns_nothing():
    mat = np.eye(4, dtype=complex) / 4
    mat[1, 2] = mat[2, 1] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="density matrix has non-finite entries"):
            DensityMatrix(2, mat)


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
    state = oracles.basis_state(1, 0)
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
    # at seven qubits the GHZ parity stays deterministic
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
    # the oracle takes its list path up to 64 amplitudes and numpy above
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
    """An honest block consumes its angles and exactly rng.random((m, n)),
    and qubit 0 reads 0 exactly when its uniform lies below p0."""
    for state in (
        ghz_state(3), random_pure(7, rng), random_density(4, rng), random_ghz_diagonal(5, rng)
    ):
        gen, twin = np.random.default_rng(11), np.random.default_rng(11)
        protocol.run_block(state, None, "theta", 20, gen)
        twin.uniform(0.0, np.pi, (20, state.n - 1))
        twin.random((20, state.n))
        assert gen.bit_generator.state == twin.bit_generator.state
    # |+_t> on |+> has p0 = cos^2(t/2)
    t = rng.uniform(0, np.pi, (200, 1))
    u = rng.random((200, 1))
    bits = sample_rows(plus_state(1), t, u)
    np.testing.assert_array_equal(bits, np.where(u < np.cos(t / 2) ** 2, 0, 1))


@pytest.mark.parametrize("n", range(2, 11))
@pytest.mark.parametrize("kind", ["theta", "xy"])
def test_ghz_diagonal_sampling_matches_density_kernel(n, kind, rng):
    """Shared uniforms give the record's closed form and the projection
    kernel on its dense matrix the same bits."""
    records = (
        ghz_diagonal(n),
        dephased_ghz(n, float(rng.random())),
        depolarized_ghz(n, float(rng.random())),
        random_ghz_diagonal(n, rng),
    )
    rows = max(20, 2 ** (12 - n))
    for record in records:
        angles = np.array([block_assignment(kind, n, rng).angles for _ in range(rows)])
        draws = rng.random((rows, n))
        np.testing.assert_array_equal(
            sample_rows(record, angles, draws), sample_rows(record.to_density(), angles, draws)
        )


@pytest.mark.parametrize("make", [ghz_diagonal, ghz_state, lambda n: ghz_state(n).to_density()],
                         ids=["record", "vector", "density"])
def test_sample_rows_rejects_angles_and_draws_not_of_one_shape(make):
    state = make(3)
    for angles, draws, message in (
        (np.zeros(3), np.zeros(3), "angles must be (m, 3), got shape (3,)"),
        (np.zeros((2, 2, 3)), np.zeros((2, 2, 3)), "angles must be (m, 3), got shape (2, 2, 3)"),
        (np.zeros((4, 3)), np.zeros((5, 3)),
         "draws must have the angles' shape (4, 3), got (5, 3)"),
        (np.zeros((4, 3)), np.zeros((4, 2)),
         "draws must have the angles' shape (4, 3), got (4, 2)"),
        (np.zeros((4, 3)), np.zeros(3), "draws must have the angles' shape (4, 3), got (3,)"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            sample_rows(state, angles, draws)


def _plain(value):
    """A function's value as a flat array: states become their dense
    matrices, and lists the concatenation of their items."""
    if isinstance(value, list):
        return np.concatenate([_plain(v).ravel() for v in value])
    if isinstance(value, GhzDiagonal):
        value = value.to_density()
    if isinstance(value, DensityMatrix):
        value = value.entries
    return np.asarray(value)


# each public function that takes a prepared state, on a state and a generator
RECORD_FUNCTIONS = {
    "exact_pass_probability_theta": lambda s, g: protocol.exact_pass_probability(s, "theta"),
    "exact_pass_probability_xy": lambda s, g: protocol.exact_pass_probability(s, "xy"),
    "exact_pass_probability": lambda s, g: [
        protocol.exact_pass_probability(s, kind) for kind in ("theta", "xy")
    ],
    "setting_pass_probability": lambda s, g: [
        setting_pass_probability(s, block_assignment(kind, s.n, g).angles)
        for kind in ("theta", "xy") for _ in range(5)
    ],
    "fidelity": lambda s, g: [fidelity(s, ghz_state(s.n)), fidelity(random_density(s.n, g), s)],
    "best_dishonest_fidelity": lambda s, g: [
        best_dishonest_fidelity(s, Coalition(s.n, dishonest)) for dishonest in ([0], [s.n - 1])
    ],
}


@pytest.mark.parametrize("name", sorted(RECORD_FUNCTIONS))
@pytest.mark.parametrize("n", [2, 3, 5])
def test_public_functions_agree_on_a_record_and_its_matrix(name, n, rng):
    function = RECORD_FUNCTIONS[name]
    for record in (ghz_diagonal(n), random_ghz_diagonal(n, rng)):
        seed = int(rng.integers(2**32))
        on_record = function(record, np.random.default_rng(seed))
        on_matrix = function(record.to_density(), np.random.default_rng(seed))
        np.testing.assert_allclose(_plain(on_record), _plain(on_matrix), rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# setting pass probability


def test_setting_pass_ideal_ghz():
    rho = ghz_state(3).to_density()
    assert setting_pass_probability(rho, [0.0, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)


def test_setting_pass_maximally_mixed(rng):
    rho = oracles.maximally_mixed(3)
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


@pytest.mark.parametrize(
    "angles",
    [
        [np.nan, 0.1, 0.2],
        [0.1, np.nan, 0.2],
        [0.1, 0.2, np.nan],
        [-0.1, 0.1, 0.0],
        [np.pi, 0.0, 0.0],
    ],
)
def test_angles_outside_range_or_nan_are_rejected(angles, rng):
    # min/max comparisons let a NaN through depending on where it sits
    state = ghz_state(3)
    for call in (
        lambda: sample_outcomes(state, angles, rng),
        lambda: setting_pass_probability(state.to_density(), np.array(angles)),
    ):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == "measurement angles must lie in [0, pi)"


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
        # one row per shot: the uniforms are those of shots one-row calls
        bits = sample_rows(rho, np.tile(angles, (shots, 1)), rng.random((shots, 3)))
        hits = int(np.sum(bits.sum(axis=1) % 2 == m))
        assert abs(hits / shots - exact) < 4 / np.sqrt(shots)


@pytest.mark.parametrize("n", range(1, 11))
def test_setting_pass_matches_the_sign_table_oracle(n, rng):
    # n = 1 leaves the low half of the qubits empty, odd n splits unevenly
    # and n = 10 is the dense cap; one qubit has one valid setting, (0,)
    states = (random_density(n, rng), random_ghz_diagonal(n, rng), ghz_diagonal(n),
              random_pure(n, rng))
    # an even and an odd multiple of pi, then drawn settings
    fixed = [(0.0,) * n] + ([(np.pi / 2,) * 2 + (0.0,) * (n - 2)] if n > 1 else [])
    parities = set()
    for state in states:
        dense = state.to_density() if isinstance(state, PureState) else state
        drawn = [block_assignment(kind, n, rng).angles if n > 1 else (0.0,)
                 for kind in ("theta", "xy", "theta", "xy")]
        for angles in fixed + drawn:
            parities.add(round(sum(angles) / np.pi) % 2)
            assert abs(
                setting_pass_probability(state, angles)
                - oracles.setting_pass_probability(dense, angles)
            ) <= 1e-12
    assert parities == ({0, 1} if n > 1 else {0})


@pytest.mark.parametrize(
    "angles, message",
    [
        ([0.1, 0.2], "expected 3 angles, got 2"),
        ([0.1, 0.2, 0.3, 0.4], "expected 3 angles, got 4"),
        ([-0.1, 0.1, 0.0], "measurement angles must lie in [0, pi)"),
        ([np.pi, 0.0, 0.0], "measurement angles must lie in [0, pi)"),
        ([0.1, np.nan, 0.2], "measurement angles must lie in [0, pi)"),
        ([0.3, 0.2, 0.1], "angle sum must be a multiple of pi within 1e-9"),
        ([[0.0, 0.0, 0.0]], "expected one setting of 3 angles, got shape (1, 3)"),
        ([[0.0] * 3] * 2, "expected one setting of 3 angles, got shape (2, 3)"),
    ],
)
def test_setting_pass_rejections_name_the_problem(angles, message):
    for state in (ghz_state(3).to_density(), ghz_diagonal(3), ghz_state(3)):
        for form in (angles, tuple(angles), np.array(angles)):
            with pytest.raises(ValueError) as err:
                setting_pass_probability(state, form)
            assert str(err.value) == message


# ---------------------------------------------------------------------------
# partial trace


def test_partial_trace_factorizes_product_state(rng):
    a = random_pure(1, rng).to_density()
    b = random_pure(2, rng).to_density()
    joint = DensityMatrix(3, np.kron(b.entries, a.entries))  # a on qubit 0
    assert np.allclose(oracles.partial_trace(joint, [0]).entries, a.entries, atol=1e-12)
    assert np.allclose(oracles.partial_trace(joint, [1, 2]).entries, b.entries, atol=1e-12)


def test_partial_trace_of_ghz_kills_coherence():
    rho = ghz_state(4).to_density()
    for keep in ([0], [1, 3], [0, 1, 2]):
        reduced = oracles.partial_trace(rho, keep)
        k = len(keep)
        expected = np.zeros((2**k, 2**k), dtype=complex)
        expected[0, 0] = expected[-1, -1] = 0.5
        assert np.allclose(reduced.entries, expected, atol=1e-12)


def test_partial_trace_bell_gives_maximally_mixed():
    rho = ghz_state(2).to_density()
    reduced = oracles.partial_trace(rho, [1])
    assert np.allclose(reduced.entries, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_preserves_trace(rng):
    rho = random_density(3, rng)
    reduced = oracles.partial_trace(rho, [0, 2])
    assert np.trace(reduced.entries).real == pytest.approx(1.0, abs=1e-9)


def test_partial_trace_errors():
    rho = ghz_state(2).to_density()
    with pytest.raises(ValueError):
        oracles.partial_trace(rho, [])
    with pytest.raises(ValueError):
        oracles.partial_trace(rho, [2])


# ---------------------------------------------------------------------------
# corner block


def test_corner_with_nothing_traced_reads_the_state_corners(rng):
    rho = random_density(3, rng)
    m = rho.entries
    assert qstate.corner(rho) == (m[0, 0].real, m[-1, -1].real, m[-1, 0])
    record = random_ghz_diagonal(3, rng)
    assert qstate.corner(record) == (record.weight, record.weight, record.coherence.conjugate())


def test_corner_takes_each_traced_qubit_once_in_any_order(rng):
    for state in (random_pure(4, rng), random_density(4, rng), random_ghz_diagonal(4, rng)):
        corner = qstate.corner(state, (1, 3))
        assert qstate.corner(state, [3, 1]) == corner
        assert qstate.corner(state, (3, 1, 3)) == corner
    # a matrix's corner is exactly its three gathered sums, over every traced set
    for n in range(1, 7):
        rho = random_density(n, rng)
        m = rho.entries
        for traced in itertools.chain.from_iterable(
            itertools.combinations(range(n), r) for r in range(n + 1)
        ):
            kept = sum(1 << j for j in range(n) if j not in traced)
            low = np.array([s for s in range(2**n) if s & kept == 0])
            high = low + kept
            expected = (m[low, low].sum().real, m[high, high].sum().real, m[high, low].sum())
            assert qstate.corner(rho, traced) == expected


@pytest.mark.parametrize("traced", [(-1,), (3,), (0, 5)])
def test_corner_rejects_traced_qubits_outside_the_state(traced):
    for state in (ghz_state(3), ghz_diagonal(3)):
        with pytest.raises(ValueError, match=r"traced qubits must lie in \[0, 3\)"):
            qstate.corner(state, traced)


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
    ghz_reduced = oracles.partial_trace(ghz_state(3).to_density(), [0, 1])
    bell_plus = tensor(ghz_state(2), plus_state(1)).to_density()
    bell_reduced = oracles.partial_trace(bell_plus, [0, 1])
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


def _eigen_path(a, b):
    dense = [s.entries if isinstance(s, DensityMatrix) else s.to_density().entries for s in (a, b)]
    return min(max(qstate._eigen_fidelity(*dense), 0.0), 1.0)


@pytest.mark.parametrize("n", range(2, 8))
def test_rank_one_fidelity_matches_the_eigen_path(n, rng):
    psi = random_pure(n, rng)
    targets = (psi, psi.to_density(), ghz_state(n), ghz_state(n).to_density(), ghz_diagonal(n))
    states = (random_density(n, rng), random_pure(n, rng), random_ghz_diagonal(n, rng))
    for target in targets:
        for state in states:
            for a, b in ((state, target), (target, state)):
                assert abs(fidelity(a, b) - _eigen_path(a, b)) <= 1e-9


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 10])
def test_record_fidelity_against_a_rank_one_target_is_its_closed_form(n, rng, monkeypatch):
    """Against a vector or a rank-1 matrix a record reads its three numbers,
    never its dense matrix, and agrees with the dense value."""
    records = [random_ghz_diagonal(n, rng) for _ in range(3)] + [
        depolarized_ghz(n, float(rng.random())),
    ]
    targets = (random_pure(n, rng), ghz_state(n, float(rng.uniform(0, 2 * np.pi))))
    targets += (random_pure(n, rng).to_density(),)
    cases = [(r, t, fidelity(r.to_density(), t)) for r in records for t in targets]
    monkeypatch.setattr(GhzDiagonal, "to_density", None)
    for record, target, expected in cases:
        for a, b in ((record, target), (target, record)):
            assert fidelity(a, b) == pytest.approx(expected, abs=1e-12)


def test_dephased_record_fidelity_above_the_dense_cap():
    for p in (0.0, 0.3, 1.0):
        record = dephased_ghz(20, p)
        assert fidelity(record, ghz_state(20)) == pytest.approx(1.0 - p / 2.0, abs=1e-12)


@pytest.mark.parametrize("n", range(1, 8))
def test_record_pair_fidelity_matches_the_eigen_path(n, rng, monkeypatch):
    """Two records take the block closed form, never their dense matrices."""
    ideal = ghz_diagonal(n)
    records = [random_ghz_diagonal(n, rng) for _ in range(4)] + [
        ideal,
        dephased_ghz(n, float(rng.random())),
        depolarized_ghz(n, float(rng.random())),
    ]
    cases = [(a, b, _eigen_path(a, b)) for a in records for b in records]
    monkeypatch.setattr(GhzDiagonal, "to_density", None)
    for a, b, expected in cases:
        assert abs(fidelity(a, b) - expected) <= 1e-10


def test_record_pair_fidelity_above_the_dense_cap():
    ideal = ghz_diagonal(64)
    for v in (0.0, 0.4, 1.0):
        noisy = depolarized_ghz(64, v)
        assert fidelity(ideal, noisy) == pytest.approx(v + (1 - v) / 2**64, abs=1e-12)
        assert fidelity(noisy, noisy) == pytest.approx(1.0, abs=1e-12)
    for p in (0.0, 0.3, 1.0):
        dephased = dephased_ghz(64, p)
        assert fidelity(dephased, ideal) == pytest.approx(1.0 - p / 2.0, abs=1e-12)


def _mixed_by(psi, weight, rng):
    other = random_density(psi.n, rng).entries
    return DensityMatrix(psi.n, (1 - weight) * psi.to_density().entries + weight * other)


@pytest.mark.parametrize("n", range(2, 7))
def test_fidelity_of_mixed_arguments_takes_the_eigen_path(n, rng, monkeypatch):
    calls = []

    def counted(a, b):
        calls.append(len(a))
        return eigen(a, b)

    eigen = qstate._eigen_fidelity
    monkeypatch.setattr(qstate, "_eigen_fidelity", counted)
    near = _mixed_by(random_pure(n, rng), 1e-6, rng)
    dephased = dephased_ghz(n, 1e-6).to_density()
    mixed = random_density(n, rng)
    pairs = [(near, mixed), (mixed, near), (dephased, mixed), (mixed, dephased)]
    for a, b in pairs + [(mixed, random_density(n, rng))]:
        assert qstate._rank_one_vector(a) is None
        before = len(calls)
        assert fidelity(a, b) == pytest.approx(eigen(a.entries, b.entries), abs=1e-12)
        assert len(calls) == before + 1
    # a rank-1 matrix, pure or GHZ, takes the rank-1 path in either order
    for target in (near, dephased, mixed, ghz_diagonal(n)):
        for pure in (random_pure(n, rng).to_density(), ghz_state(n).to_density()):
            fidelity(pure, target), fidelity(target, pure)
    assert len(calls) == 5


# ---------------------------------------------------------------------------
# derived data held per state


def _fresh_anti_diagonal(state):
    """The anti-diagonal computed anew, shaped (2^ceil(n/2), 2^floor(n/2))."""
    n = state.n
    shape = (2 ** (n - n // 2), 2 ** (n // 2))
    if isinstance(state, PureState):
        v = state.amplitudes
        return (v * v[::-1].conj()).reshape(shape)
    d = 2**n
    return state.entries[np.arange(d), d - 1 - np.arange(d)].reshape(shape)


@pytest.mark.parametrize("n", range(1, 11))
def test_anti_diagonal_is_made_on_first_use_read_only_and_kept(n, rng):
    psi = random_pure(n, rng)
    for state in (random_density(n, rng), psi.to_density(), ghz_state(n).to_density(), psi):
        assert "anti_diagonal" not in vars(state)
        anti = state.anti_diagonal
        assert anti is state.anti_diagonal
        np.testing.assert_array_equal(anti, _fresh_anti_diagonal(state))
        # a copy of its own, not a strided view of the state's values
        values = state.amplitudes if isinstance(state, PureState) else state.entries
        assert anti.flags.c_contiguous and anti.size == 2**n
        assert not np.shares_memory(anti, values)
        with pytest.raises(ValueError):
            anti[0, 0] = 0.0
        with pytest.raises(ValueError):
            anti.base.flat[0] = 0.0


@pytest.mark.parametrize("n", range(1, 11))
def test_setting_kernel_gives_the_strided_view_float_bit_for_bit(n, rng):
    matrices = (random_density(n, rng), random_pure(n, rng).to_density(), ghz_state(n).to_density())
    drawn = [block_assignment(kind, n, rng).angles if n > 1 else (0.0,)
             for kind in ("theta", "xy") for _ in range(6)]
    for rho in matrices:
        for angles in drawn:
            expected = oracles.strided_setting_pass_probability(rho, angles)
            assert setting_pass_probability(rho, angles).hex() == expected.hex()


@pytest.mark.parametrize("n", [1, 3, 6])
def test_a_setting_of_the_wrong_shape_is_refused_before_the_state_is_read(n, rng):
    cases = [
        ((), f"expected {n} angles, got 0"),
        ((n - 1,), f"expected {n} angles, got {n - 1}"),
        ((n + 1,), f"expected {n} angles, got {n + 1}"),
        ((1, n), f"expected one setting of {n} angles, got shape (1, {n})"),
        ((2, n), f"expected one setting of {n} angles, got shape (2, {n})"),
    ]
    for state in (random_density(n, rng), random_pure(n, rng)):
        for shape, message in cases:
            with pytest.raises(ValueError) as err:
                setting_pass_probability(state, np.zeros(shape))
            assert str(err.value) == message
        assert "anti_diagonal" not in vars(state)


@pytest.mark.parametrize("n", range(1, 11))
def test_a_second_setting_call_returns_the_first_float_bit_for_bit(n, rng):
    states = (random_density(n, rng), random_pure(n, rng).to_density(), random_pure(n, rng))
    drawn = [block_assignment("theta", n, rng).angles if n > 1 else (0.0,) for _ in range(3)]
    for state in states:
        for angles in drawn:
            first = setting_pass_probability(state, angles)
            assert setting_pass_probability(state, angles).hex() == first.hex()


@pytest.mark.parametrize("n", [1, 3, 6])
def test_copies_and_pickles_of_a_state_are_rebuilt_read_only(n, rng):
    psi = random_pure(n, rng)
    for state in (psi, psi.to_density(), random_density(n, rng)):
        values = state.amplitudes if isinstance(state, PureState) else state.entries
        state.anti_diagonal  # made before copying, so a copy could carry it along
        for copied in (copy.copy(state), copy.deepcopy(state), pickle.loads(pickle.dumps(state))):
            assert type(copied) is type(state) and copied.n == n
            assert "anti_diagonal" not in vars(copied)
            kept = copied.amplitudes if isinstance(copied, PureState) else copied.entries
            np.testing.assert_array_equal(kept, values)
            np.testing.assert_array_equal(copied.anti_diagonal, state.anti_diagonal)
            for array in (kept, copied.anti_diagonal):
                with pytest.raises(ValueError):
                    array.flat[0] = 0.0


# ---------------------------------------------------------------------------
# noisy sources


def test_identity_channels_leave_state_unchanged():
    assert dephased_ghz(3, 0.0) == ghz_diagonal(3)
    assert depolarized_ghz(3, 1.0) == ghz_diagonal(3)


@pytest.mark.parametrize("n,v", [(2, 0.3), (3, 0.8), (4, 0.5)])
def test_depolarizing_fidelity(n, v):
    rho = ghz_state(n).to_density()
    noisy = depolarized_ghz(n, v).to_density()
    assert fidelity(noisy, rho) == pytest.approx(v + (1 - v) / 2**n, abs=1e-9)


def test_full_dephasing_halves_fidelity():
    rho = ghz_state(3).to_density()
    noisy = dephased_ghz(3, 1.0).to_density()
    assert fidelity(noisy, rho) == pytest.approx(0.5, abs=1e-9)


def test_channel_rejects_bad_parameters():
    with pytest.raises(ValueError, match=re.escape("dephasing probability must lie in [0, 1]")):
        dephased_ghz(3, 1.5)
    with pytest.raises(ValueError, match=re.escape("visibility must lie in [0, 1]")):
        depolarized_ghz(3, -0.1)
    with pytest.raises(ValueError, match="unknown source variant 'amplitude-damping'"):
        sources.SourceModel("amplitude-damping", 3, {"p": 0.5})


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: PureState(2, np.ones(3) / np.sqrt(3)), "expected 4 amplitudes, got shape (3,)"),
        (lambda: PureState(1, np.eye(2) / np.sqrt(2)), "expected 2 amplitudes, got shape (2, 2)"),
        (lambda: DensityMatrix(1, np.eye(3) / 3), "expected a 2x2 matrix, got shape (3, 3)"),
        (lambda: DensityMatrix(2, np.full(4, 0.25)), "expected a 4x4 matrix, got shape (4,)"),
    ],
    ids=["short-vector", "matrix-as-vector", "large-matrix", "vector-as-matrix"],
)
def test_state_shapes_are_named(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
