import copy
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from ghzverify import adversary, qstate, simnet
from ghzverify.protocol import (
    LOSS,
    PassStats,
    ProtocolKind,
    Rounds,
    estimate_pass_probability,
    exact_pass_probability,
    run_block,
    run_rounds,
)
from ghzverify.qstate import ghz_state, setting_pass_probability

import oracles
from conftest import (
    block_assignment,
    dephased_ghz,
    depolarized_ghz,
    random_density,
    random_ghz_diagonal,
    random_pure,
)


# ---------------------------------------------------------------------------
# angle sampling


def test_xy_completion_even_count():
    asg = block_assignment(ProtocolKind.XY, 3, oracles.ScriptedRng([0, 0]))
    assert asg.angles == (0.0, 0.0, 0.0)
    assert asg.parity == 0


def test_xy_completion_odd_count_forces_half_pi():
    asg = block_assignment(ProtocolKind.XY, 3, oracles.ScriptedRng([1, 0]))
    assert asg.angles == (np.pi / 2, 0.0, np.pi / 2)
    assert asg.parity == 1


def test_theta_completion():
    asg = block_assignment(ProtocolKind.THETA, 3, oracles.ScriptedRng([0.5, 1.0]))
    assert asg.angles[2] == pytest.approx((-1.5) % np.pi)
    assert asg.parity == 1  # 0.5 + 1.0 + (pi - 1.5) = pi


def test_theta_completion_that_rounds_to_pi_is_zero():
    # -1e-17 % pi rounds to pi, which is not a valid angle
    asg = block_assignment(ProtocolKind.THETA, 2, oracles.ScriptedRng([1e-17]))
    assert asg.angles == (1e-17, 0.0)
    assert asg.parity == 0


def test_sample_angles_rejects_single_party(rng):
    with pytest.raises(ValueError):
        block_assignment(ProtocolKind.THETA, 1, rng)


def test_theta_sampler_constraint_and_marginals(rng):
    draws = 20_000
    free = np.empty((draws, 3))
    for i in range(draws):
        asg = block_assignment(ProtocolKind.THETA, 4, rng)
        total = sum(asg.angles)
        assert abs(total - round(total / np.pi) * np.pi) < 1e-9
        free[i] = asg.angles[:3]
    # each independently chosen angle is uniform on [0, pi)
    for j in range(3):
        p = scipy_stats.kstest(free[:, j], scipy_stats.uniform(0, np.pi).cdf).pvalue
        assert p > 0.01


def test_sampler_output_survives_full_validation(rng):
    # every sampled assignment sums to a multiple of pi, lies in [0, pi) and
    # takes only 0 and pi/2 under xy; a row passes exactly when the XOR of its
    # bits equals the parity of that multiple.  From 8 angles on numpy may sum
    # a row in another order than the completion did
    cases = [(ProtocolKind.THETA, 3, None), (ProtocolKind.THETA, 5, None),
             (ProtocolKind.XY, 4, None)]
    for n in range(8, 13):
        cases += [(ProtocolKind.THETA, n, None), (ProtocolKind.THETA, n, 1.0),
                  (ProtocolKind.XY, n, None)]
    for kind, n, last_angle in cases:
        block = run_block(dephased_ghz(n, 0.3), None, kind, 500, rng, last_angle=last_angle)
        total = block.angles.sum(axis=1)
        m = np.round(total / np.pi)
        assert np.all(np.abs(total - m * np.pi) <= 1e-9)
        assert np.all((block.angles >= 0.0) & (block.angles < np.pi))
        if kind is ProtocolKind.XY:
            off = np.minimum(np.abs(block.angles), np.abs(block.angles - np.pi / 2))
            assert np.all(off <= 1e-12)
        assert 0 < block.passed.sum() < len(block)
        np.testing.assert_array_equal(block.passed, block.bits.sum(axis=1) % 2 == m % 2)


def test_xy_sampler_always_even_half_pi_count(rng):
    for _ in range(2000):
        asg = block_assignment(ProtocolKind.XY, 5, rng)
        assert sum(a > 0 for a in asg.angles) % 2 == 0


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 8),
    theta=st.floats(0.0, np.pi, exclude_max=True),
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 6),
)
def test_pinned_last_angle_layout(n, theta, seed, rows):
    rng = np.random.default_rng(seed)
    twin = copy.deepcopy(rng)
    block = run_block(qstate.ghz_diagonal(n), None, ProtocolKind.THETA, rows, rng,
                      last_angle=theta)
    free = twin.uniform(0.0, np.pi, (rows, n - 2))
    twin.random((rows, n))  # the measurement uniforms follow the angles
    assert rng.bit_generator.state == twin.bit_generator.state
    for r, asg in enumerate(rec.assignment for rec in oracles.rows(block, ProtocolKind.THETA)):
        assert asg.angles[-1] == theta
        assert asg.angles[:-2] == tuple(free[r])
        total = sum(asg.angles)
        m = round(total / np.pi)
        assert abs(total - m * np.pi) <= 1e-9
        assert block.passed[r] == (block.bits[r].sum() % 2 == m % 2)
        assert 0.0 <= asg.angles[-2] < np.pi


STRATEGY_PARAMS = {
    "xy-perfect-loss50": {},
    "xy-naive-loss": {},
    "xy-rotated-bell": {},
    "xy-mixed": {"lam": 0.2},
    "theta-rotated-bell": {"lam": 0.3, "theta_prime": 0.4},
    "projective-cheat": {"lam": 0.2, "theta_prime": 0.7},
    "product-guesser": {"theta_prime": 0.785},
}


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["theta", "xy", "pinned"]),
    name=st.sampled_from([None] + sorted(STRATEGY_PARAMS)),
    n=st.integers(2, 6),
    d=st.integers(1, 5),
    rows=st.integers(1, 40),
    honest_loss=st.sampled_from([0.0, 0.1]),
    theta=st.floats(0.0, np.pi, exclude_max=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_draw_layout(kind, name, n, d, rows, honest_loss, theta, seed):
    """A twin generator replays a block's draws in the documented order:
    the angles, the strategy's side information, the measurement uniforms
    and the honest losses."""
    last_angle = theta if kind == "pinned" else None
    kind = ProtocolKind.XY if kind == "xy" else ProtocolKind.THETA
    strat = None
    if name is not None:
        d = min(d, n - 1)
        strat = adversary.make_strategy(name, n_parties=n, dishonest_count=d,
                                        **STRATEGY_PARAMS[name])
    source = dephased_ghz(n, 0.3)
    rng = np.random.default_rng(seed)
    twin = copy.deepcopy(rng)
    block = run_block(source, strat, kind, rows, rng, honest_loss=honest_loss,
                      last_angle=last_angle)
    draws = oracles.draw_block(twin, strat, kind, n, rows, honest_loss, last_angle)
    assert rng.bit_generator.state == twin.bit_generator.state
    free = draws["free"]
    width = free.shape[1]
    if kind is ProtocolKind.XY:
        np.testing.assert_array_equal(block.angles[:, :width], free * (np.pi / 2))
        assert np.all(block.angles.sum(axis=1) / (np.pi / 2) % 2 == 0)
    else:
        np.testing.assert_array_equal(block.angles[:, :width], free)
    if last_angle is not None:
        assert np.all(block.angles[:, -1] == last_angle)
    assert np.all((block.angles >= 0.0) & (block.angles < np.pi))
    turns = block.angles.sum(axis=1) / np.pi
    assert np.all(np.abs(turns - np.rint(turns)) <= 1e-9 / np.pi)
    np.testing.assert_array_equal(block.passed, block.bits.sum(axis=1) % 2 == np.rint(turns) % 2)
    k = n if strat is None else n - d
    expected_lost = np.zeros((rows, k), dtype=bool)
    if honest_loss:
        expected_lost = draws["loss"] < honest_loss
    np.testing.assert_array_equal(block.lost[:, :k], expected_lost)


def test_block_completion_that_rounds_to_pi_is_zero():
    # -1e-17 % pi rounds to pi, which is not a valid angle: the theta
    # completion and the pinned one both give 0 instead
    for n, last_angle, free in ((2, None, [1e-17, 0.5]), (3, 0.0, [1e-17, 0.5])):
        script = oracles.ScriptedRng(free + [0.25] * 2 * n)
        block = run_block(qstate.ghz_diagonal(n), None, ProtocolKind.THETA, 2, script,
                          last_angle=last_angle)
        assert script.exhausted()
        assert block.angles[0, n - 1 if last_angle is None else n - 2] == 0.0
        assert block.passed[0] == (block.bits[0].sum() % 2 == 0)
        assert block.angles[1, 0] == 0.5


def test_chunks_change_no_bits(rng):
    """States that take several chunks give the bits of one row at a time."""
    for state in (random_density(8, rng), random_pure(17, rng)):
        arr = state.entries if isinstance(state, qstate.DensityMatrix) else state.amplitudes
        rows = 3 * (qstate._CHUNK_BYTES // arr.nbytes) + 1
        assert rows > 3
        angles = rng.uniform(0.0, np.pi, (rows, state.n))
        draws = rng.random((rows, state.n))
        bits = qstate.sample_rows(state, angles, draws)
        for r in range(rows):
            single = qstate.sample_rows(state, angles[r : r + 1], draws[r : r + 1])
            np.testing.assert_array_equal(bits[r], single[0])


@pytest.mark.parametrize("n", range(2, 11))
@pytest.mark.parametrize("kind", list(ProtocolKind))
def test_record_estimate_matches_exact_value(n, kind, rng):
    record = random_ghz_diagonal(n, rng)
    exact = exact_pass_probability(record, "theta")
    stats = estimate_pass_probability(record, None, kind, 200_000, 40 + n)
    assert abs(stats.estimate - exact) < 4 * stats.stderr
    assert stats.valid == 200_000


@pytest.mark.parametrize("n", [20, 40, 64])
@pytest.mark.parametrize("kind", list(ProtocolKind))
def test_record_estimate_above_the_dense_cap_matches_exact_value(n, kind):
    for i, record in enumerate((dephased_ghz(n, 0.3), depolarized_ghz(n, 0.8))):
        stats = estimate_pass_probability(record, None, kind, 100_000, 1000 + n + i)
        assert abs(stats.estimate - (0.5 + record.coherence.real)) < 4 * stats.stderr


def test_projective_cheat_measures_a_record_above_the_dense_cap():
    """The coalition measures its qubits of a dephased record first; the
    honest parties are left its coherence times the theta cheat's."""
    p, lam = 0.3, 0.2
    record = dephased_ghz(20, p)
    strategy = adversary.make_strategy("projective-cheat", n_parties=20, lam=lam)
    stats = estimate_pass_probability(record, strategy, ProtocolKind.THETA, 100_000, 21)
    expected = 0.5 + (1.0 - p) * (adversary.theta_cheat_pass_curve(lam) - 0.5)
    assert abs(stats.estimate - expected) < 4 * stats.stderr


def test_pinned_last_angle_is_theta_only(rng):
    for call in (
        lambda: block_assignment(ProtocolKind.XY, 3, rng, last_angle=0.0),
        lambda: run_block(ghz_state(3), None, ProtocolKind.XY, 1, rng, last_angle=0.0),
    ):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == "last_angle pins a theta assignment; the xy kind takes none"
    for bad in (-0.1, np.pi, np.nan):
        with pytest.raises(ValueError) as err:
            block_assignment(ProtocolKind.THETA, 3, rng, last_angle=bad)
        assert str(err.value) == f"last_angle must lie in [0, pi), got {bad}"


# ---------------------------------------------------------------------------
# assignment and parity test


@pytest.mark.parametrize(
    "parity,outcomes,expected",
    [(0, (0, 0, 0), 1), (1, (1, 0, 0), 1), (0, (1, 0, 0), 0), (1, (1, 1, 0), 0)],
)
def test_parity_test(parity, outcomes, expected):
    angles = (np.pi / 2, np.pi / 2, 0.0) if parity else (0.0, 0.0, 0.0)
    asg = oracles.Assignment(angles, ProtocolKind.XY, parity)
    assert oracles.parity_test(asg, outcomes) == expected


def test_parity_test_rejects_loss():
    asg = oracles.Assignment((0.0, 0.0), ProtocolKind.XY, 0)
    with pytest.raises(ValueError):
        oracles.parity_test(asg, (0, LOSS))


# ---------------------------------------------------------------------------
# rounds


def test_ideal_ghz_round_always_passes(rng):
    state = ghz_state(3)
    for kind in ProtocolKind:
        for _ in range(200):
            (rec,) = oracles.rows(run_block(state, None, kind, 1, rng), kind)
            assert rec.passed == 1


def test_round_with_always_loss_party(rng):
    # a loss arc of width pi covers every requested angle
    always_loss = adversary.CheatStrategy(
        name="always-loss",
        n_parties=3,
        dishonest_count=1,
        arms=(adversary.PhaseArm((0.0,), None),),
        lam=1.0,
    )
    (rec,) = oracles.rows(
        run_block(None, always_loss, ProtocolKind.THETA, 1, rng), ProtocolKind.THETA
    )
    assert rec.passed is None
    assert rec.outcomes[2] == LOSS


def test_xy_perfect_loss_strategy_round(rng):
    strat = adversary.make_strategy("xy-perfect-loss50", n_parties=3)
    records = run_rounds(None, strat, ProtocolKind.XY, 4000, 17)
    stats = PassStats.from_records(records)
    assert stats.estimate == 1.0
    assert stats.loss_rates[2] == pytest.approx(0.5, abs=0.03)
    assert stats.loss_rates[0] == stats.loss_rates[1] == 0.0


@pytest.mark.parametrize("n,d", [(3, 1), (4, 2)])
def test_honest_parties_measure_their_own_qubits(n, d):
    # qubit 1 is |->, every other qubit |+>: at angle t party 0 reports 0 with
    # probability cos^2(t/2) and party 1 with probability sin^2(t/2)
    minus = qstate.PureState(1, np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0))
    source = qstate.tensor(qstate.tensor(qstate.plus_state(1), minus), qstate.plus_state(n - 2))
    strat = adversary.make_strategy("projective-cheat", n_parties=n, dishonest_count=d, lam=0.0)
    records = oracles.rows(
        run_rounds(source, strat, ProtocolKind.THETA, 4000, 29 + n), ProtocolKind.THETA
    )
    for party, p_zero in ((0, lambda t: np.cos(t / 2) ** 2), (1, lambda t: np.sin(t / 2) ** 2)):
        p = np.array([p_zero(rec.assignment.angles[party]) for rec in records])
        zeros = np.array([rec.outcomes[party] == 0 for rec in records])
        # both laws average 1/2 over uniform angles; each half tells them apart
        for half in (p < 0.5, p >= 0.5):
            expected, var = p[half].sum(), np.sum(p[half] * (1 - p[half]))
            assert abs(zeros[half].sum() - expected) < 4 * np.sqrt(var), party


def test_round_rejects_bad_honest_loss(rng):
    for loss in (-0.5, float("nan"), float("inf"), 1.0, 2.0):
        with pytest.raises(ValueError, match="honest_loss must lie in"):
            run_block(ghz_state(3), None, ProtocolKind.THETA, 1, rng, honest_loss=loss)


def test_run_rounds_takes_an_integer_count():
    with pytest.raises(ValueError, match="rounds must be an integer, got 2.5"):
        run_rounds(ghz_state(3), None, ProtocolKind.THETA, 2.5, 1)
    assert len(run_rounds(ghz_state(3), None, ProtocolKind.THETA, np.int64(3), 1).passed) == 3


def test_round_names_source_and_strategy_arity_mismatch(rng):
    strat = adversary.make_strategy("projective-cheat", n_parties=4, lam=0.0)
    with pytest.raises(ValueError) as err:
        run_block(ghz_state(3), strat, ProtocolKind.THETA, 1, rng)
    assert str(err.value) == "the source has 3 qubits but the strategy is for 4 parties"


def test_round_record_serialization():
    strat = adversary.make_strategy("theta-rotated-bell", n_parties=2, lam=0.5)
    transcript = simnet.run_session(simnet.SessionConfig(2, ProtocolKind.THETA, 40, 3,
                                                         strategy=strat))
    lines = transcript.records_jsonl().split("\n")
    assert len(lines) == 40
    for i, (line, rec) in enumerate(zip(lines, oracles.rows(transcript.records, transcript.config.kind))):
        doc = json.loads(line)
        assert list(doc) == ["round", "angles", "outcomes", "passed"]
        assert doc["round"] == i
        assert len(doc["angles"]) == 2
        assert doc["outcomes"] == list(rec.outcomes)
        assert doc["passed"] == rec.passed
        assert (doc["passed"] is None) == (LOSS in doc["outcomes"])
        assert doc["passed"] in (None, 0, 1)
    assert any(LOSS in json.loads(line)["outcomes"] for line in lines)


# ---------------------------------------------------------------------------
# estimation


def test_ideal_ghz4_estimate_is_exactly_one():
    stats = estimate_pass_probability(ghz_state(4), None, ProtocolKind.THETA, 6000, 2)
    assert stats.estimate == 1.0
    assert stats.stderr == 0.0
    assert stats.valid == 6000


def test_depolarized_estimate_matches_exact_value():
    # visibility tuned so the exact theta pass probability is 0.834
    v = 2 * 0.834 - 1
    rho = depolarized_ghz(3, v)
    assert exact_pass_probability(rho, "theta") == pytest.approx(0.834, abs=1e-12)
    stats = estimate_pass_probability(rho, None, ProtocolKind.THETA, 20_000, 5)
    assert abs(stats.estimate - 0.834) < 4 * stats.stderr


def test_optimal_guesser_reaches_xy_cheat_optimum():
    strat = adversary.make_strategy("product-guesser", n_parties=3, theta_prime=np.pi / 4)
    stats = estimate_pass_probability(
        None, strat, ProtocolKind.XY, 20_000, 23
    )
    assert abs(stats.estimate - adversary.XY_OPTIMUM) < 4 * stats.stderr


def test_estimate_requires_valid_rounds(rng):
    # a loss arc of width pi covers every requested angle
    always_loss = adversary.CheatStrategy(
        name="always-loss",
        n_parties=2,
        dishonest_count=1,
        arms=(adversary.PhaseArm((0.0,), None),),
        lam=1.0,
    )
    with pytest.raises(ValueError):
        estimate_pass_probability(None, always_loss, ProtocolKind.THETA, 50, 1)


def test_estimate_is_seed_deterministic():
    rho = dephased_ghz(3, 0.4)
    a = estimate_pass_probability(rho, None, ProtocolKind.XY, 300, 11)
    b = estimate_pass_probability(rho, None, ProtocolKind.XY, 300, 11)
    assert a == b


@pytest.mark.parametrize("seed", [-1, 1.5, "7"])
def test_bad_seed_is_named(seed):
    expected = f"seed must be a non-negative integer or a numpy Generator, got {seed!r}"
    with pytest.raises(ValueError, match=re.escape(expected)):
        estimate_pass_probability(qstate.ghz_state(3), None, ProtocolKind.THETA, 10, seed)


def test_honest_loss_rounds_are_excluded_without_bias():
    rho = dephased_ghz(3, 0.5)
    exact = exact_pass_probability(rho, "theta")
    lossless = estimate_pass_probability(rho, None, ProtocolKind.THETA, 15_000, 31)
    lossy = estimate_pass_probability(
        rho, None, ProtocolKind.THETA, 15_000, 31, honest_loss=0.2
    )
    assert abs(lossless.estimate - exact) < 4 * lossless.stderr
    assert abs(lossy.estimate - exact) < 4 * lossy.stderr
    assert all(abs(r - 0.2) < 0.02 for r in lossy.loss_rates)


def test_ideal_state_estimate_unaffected_by_honest_loss():
    stats = estimate_pass_probability(
        ghz_state(3), None, ProtocolKind.THETA, 2000, 7, honest_loss=0.3
    )
    assert stats.estimate == 1.0
    assert stats.valid < 2000


# ---------------------------------------------------------------------------
# exact pass probabilities


def test_exact_theta_ideal_and_mixed(rng):
    for n in (2, 3, 4):
        assert exact_pass_probability(ghz_state(n).to_density(), "theta") == pytest.approx(
            1.0, abs=1e-12
        )
        assert exact_pass_probability(oracles.maximally_mixed(n), "theta") == pytest.approx(
            0.5, abs=1e-12
        )


def test_exact_theta_fully_dephased_from_angle_average(rng):
    """Closed form agrees with brute-force averaging over sampled settings."""
    rho = dephased_ghz(3, 1.0).to_density()
    exact = exact_pass_probability(rho, "theta")
    samples = 40_000
    vals = np.empty(samples)
    for i in range(samples):
        free = rng.uniform(0, np.pi, 2)
        angles = list(free) + [float((-free.sum()) % np.pi)]
        vals[i] = setting_pass_probability(rho, angles)
    stderr = vals.std() / np.sqrt(samples)
    assert abs(vals.mean() - exact) < max(4 * stderr, 1e-6)
    assert exact == pytest.approx(0.5, abs=1e-12)


def test_povm_average_consistency(rng):
    """Exact theta value equals the sampled-assignment average (20 states)."""
    for _ in range(20):
        rho = random_density(3, rng)
        exact = exact_pass_probability(rho, "theta")
        samples = 10_000
        vals = np.empty(samples)
        for i in range(samples):
            free = rng.uniform(0, np.pi, 2)
            angles = list(free) + [float((-free.sum()) % np.pi)]
            vals[i] = setting_pass_probability(rho, angles)
        stderr = vals.std() / np.sqrt(samples)
        assert abs(vals.mean() - exact) < 4 * stderr


def test_exact_xy_enumeration(rng):
    assert exact_pass_probability(ghz_state(3).to_density(), "xy") == pytest.approx(1.0)
    assert exact_pass_probability(oracles.maximally_mixed(3), "xy") == pytest.approx(0.5)
    assert len(oracles.xy_valid_settings(4)) == 8
    # honest-measurement average for the pi/4-rotated Bell plus an unentangled
    # qubit: two settings at (1+cos(pi/4))/2, two at 1/2
    psi = qstate.tensor(ghz_state(2, np.pi / 4), qstate.plus_state(1))
    values = sorted(
        setting_pass_probability(psi.to_density(), s) for s in oracles.xy_valid_settings(3)
    )
    assert values[0] == pytest.approx(0.5, abs=1e-12)
    assert values[1] == pytest.approx(0.5, abs=1e-12)
    assert values[2] == pytest.approx(0.5 * (1 + np.cos(np.pi / 4)), abs=1e-12)
    assert exact_pass_probability(psi.to_density(), "xy") == pytest.approx(
        np.mean(values), abs=1e-12
    )


@pytest.mark.parametrize("n", range(2, 9))
def test_exact_closed_forms_match_oracles(n, rng):
    states = [random_density(n, rng) for _ in range(3)] + [random_pure(n, rng).to_density()]
    # a rotated GHZ state with its corner coherences damped by 1 - p
    dephased = ghz_state(n, float(rng.uniform(0, 2 * np.pi))).to_density().entries.copy()
    dephased[[0, -1], [-1, 0]] *= 1.0 - float(rng.uniform())
    states.append(qstate.DensityMatrix(n, dephased))
    for rho in states:
        assert exact_pass_probability(rho, "theta") == pytest.approx(
            oracles.exact_pass_probability_theta(rho), abs=1e-12
        )
        assert exact_pass_probability(rho, "xy") == pytest.approx(
            oracles.exact_pass_probability_xy(rho), abs=1e-12
        )


@pytest.mark.parametrize("n", range(2, 10))
def test_vector_readers_match_the_dense_matrix(n, rng):
    """The exact and single-setting pass probabilities read a PureState's
    corner and anti-diagonal without its matrix; the matrix is the oracle."""
    phase = float(rng.uniform(0, 2 * np.pi))
    for psi in (random_pure(n, rng), qstate.tensor(ghz_state(n - 1, phase), qstate.plus_state(1))):
        rho = psi.to_density()
        for kind in ("theta", "xy"):
            assert abs(exact_pass_probability(psi, kind) - exact_pass_probability(rho, kind)) <= 1e-12
            for _ in range(8):
                angles = block_assignment(kind, n, rng).angles
                pure, dense = (setting_pass_probability(s, angles) for s in (psi, rho))
                assert abs(pure - dense) <= 1e-12


def test_honest_fidelity_bound_holds_on_random_states(rng):
    for n in (2, 3, 4):
        target = ghz_state(n).to_density()
        for _ in range(10):
            rho = random_density(n, rng)
            fid = qstate.fidelity(rho, target)
            assert fid >= 2 * exact_pass_probability(rho, "theta") - 1 - 1e-9
            assert fid >= 2 * exact_pass_probability(rho, "xy") - 1 - 1e-9


def _no_rounds(n):
    empty = np.zeros((0, n))
    return Rounds(empty, empty.astype(np.int8), empty.astype(bool), np.zeros(0, dtype=np.int8))


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: PassStats.from_records(_no_rounds(3)), "no rounds to aggregate"),
        (lambda: run_block(None, None, ProtocolKind.THETA, 4, np.random.default_rng(0)),
         "an all-honest round needs a source state"),
        (lambda: run_rounds(ghz_state(3), None, ProtocolKind.THETA, 0, 1),
         "need at least one round"),
        (lambda: run_rounds(ghz_state(3), None, ProtocolKind.XY, -5, 1),
         "need at least one round"),
    ],
    ids=["no-rounds", "no-source", "zero-rounds", "negative-rounds"],
)
def test_runs_without_rounds_or_a_source_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()
