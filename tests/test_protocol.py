import json

import numpy as np
import pytest
from scipy import stats as scipy_stats

from ghzverify import adversary, qstate, sources
from ghzverify.protocol import (
    HONEST,
    LOSS,
    AngleAssignment,
    PassStats,
    ProtocolKind,
    RoundRecord,
    estimate_pass_probability,
    exact_pass_probability_theta,
    exact_pass_probability_xy,
    parity_test,
    run_round,
    run_rounds,
    sample_angles,
    xy_valid_settings,
)
from ghzverify.qstate import ghz_state, setting_pass_probability

import oracles
from conftest import random_density, random_pure


class _ScriptedRng:
    """Replays fixed draws for the sampler; anything else is unexpected."""

    def __init__(self, uniforms=(), ints=()):
        self._uniforms = list(uniforms)
        self._ints = list(ints)

    def uniform(self, low, high, size):
        out = np.array(self._uniforms[:size])
        del self._uniforms[:size]
        return out

    def integers(self, low, high, size):
        out = np.array(self._ints[:size])
        del self._ints[:size]
        return out


# ---------------------------------------------------------------------------
# angle sampling


def test_xy_completion_even_count():
    asg = sample_angles(ProtocolKind.XY, 3, _ScriptedRng(ints=[0, 0]))
    assert asg.angles == (0.0, 0.0, 0.0)
    assert asg.parity == 0


def test_xy_completion_odd_count_forces_half_pi():
    asg = sample_angles(ProtocolKind.XY, 3, _ScriptedRng(ints=[1, 0]))
    assert asg.angles == (np.pi / 2, 0.0, np.pi / 2)
    assert asg.parity == 1


def test_theta_completion():
    asg = sample_angles(ProtocolKind.THETA, 3, _ScriptedRng(uniforms=[0.5, 1.0]))
    assert asg.angles[2] == pytest.approx((-1.5) % np.pi)
    assert asg.parity == 1  # 0.5 + 1.0 + (pi - 1.5) = pi


def test_sample_angles_rejects_single_party(rng):
    with pytest.raises(ValueError):
        sample_angles(ProtocolKind.THETA, 1, rng)


def test_theta_sampler_constraint_and_marginals(rng):
    draws = 20_000
    free = np.empty((draws, 3))
    for i in range(draws):
        asg = sample_angles(ProtocolKind.THETA, 4, rng)
        total = sum(asg.angles)
        assert abs(total - round(total / np.pi) * np.pi) < 1e-9
        free[i] = asg.angles[:3]
    # each independently chosen angle is uniform on [0, pi)
    for j in range(3):
        p = scipy_stats.kstest(free[:, j], scipy_stats.uniform(0, np.pi).cdf).pvalue
        assert p > 0.01


def test_sampler_output_survives_full_validation(rng):
    # rebuild sampled assignments through the validating constructor
    for kind, n in ((ProtocolKind.THETA, 3), (ProtocolKind.THETA, 5), (ProtocolKind.XY, 4)):
        for _ in range(500):
            asg = sample_angles(kind, n, rng)
            rebuilt = AngleAssignment(asg.angles, asg.kind, asg.parity)
            assert rebuilt == asg


def test_xy_sampler_always_even_half_pi_count(rng):
    for _ in range(2000):
        asg = sample_angles(ProtocolKind.XY, 5, rng)
        assert sum(a > 0 for a in asg.angles) % 2 == 0


# ---------------------------------------------------------------------------
# assignment and parity test


def test_assignment_rejects_bad_sum():
    with pytest.raises(ValueError):
        AngleAssignment((0.3, 0.2), ProtocolKind.THETA, 0)


def test_assignment_rejects_inconsistent_parity():
    with pytest.raises(ValueError):
        AngleAssignment((np.pi / 2, np.pi / 2), ProtocolKind.THETA, 0)


def test_assignment_rejects_non_xy_angles():
    with pytest.raises(ValueError):
        AngleAssignment((0.4, np.pi - 0.4), ProtocolKind.XY, 1)


@pytest.mark.parametrize(
    "parity,outcomes,expected",
    [(0, (0, 0, 0), 1), (1, (1, 0, 0), 1), (0, (1, 0, 0), 0), (1, (1, 1, 0), 0)],
)
def test_parity_test(parity, outcomes, expected):
    angles = (np.pi / 2, np.pi / 2, 0.0) if parity else (0.0, 0.0, 0.0)
    asg = AngleAssignment(angles, ProtocolKind.XY, parity)
    assert parity_test(asg, outcomes) == expected


def test_parity_test_rejects_loss():
    asg = AngleAssignment((0.0, 0.0), ProtocolKind.XY, 0)
    with pytest.raises(ValueError):
        parity_test(asg, (0, LOSS))


# ---------------------------------------------------------------------------
# rounds


def test_ideal_ghz_round_always_passes(rng):
    state = ghz_state(3)
    for kind in ProtocolKind:
        for _ in range(200):
            rec = run_round(state, None, kind, rng)
            assert rec.passed == 1


def test_round_with_always_loss_party(rng):
    always_loss = adversary.CheatStrategy(
        name="always-loss",
        dishonest_count=1,
        target_loss_rate=1.0,
        sample_side_info=lambda r, s: adversary.SideInfo(None, ghz_state(2)),
        respond=lambda side, angles: LOSS,
    )
    rec = run_round(None, [HONEST, HONEST, always_loss], ProtocolKind.THETA, rng)
    assert rec.passed is None
    assert rec.outcomes[2] == LOSS


def test_xy_perfect_loss_strategy_round(rng):
    strat = adversary.make_strategy("xy-perfect-loss50", n_parties=3)
    records = run_rounds(None, [HONEST, HONEST, strat], ProtocolKind.XY, 4000, 17)
    stats = PassStats.from_records(records)
    assert stats.estimate == 1.0
    assert stats.loss_rates[2] == pytest.approx(0.5, abs=0.03)
    assert stats.loss_rates[0] == stats.loss_rates[1] == 0.0


def test_round_record_serialization(rng):
    rec = run_round(ghz_state(2), None, ProtocolKind.THETA, rng, index=3)
    doc = json.loads(rec.to_json_line())
    assert doc["round"] == 3
    assert len(doc["angles"]) == 2
    assert doc["outcomes"] == list(rec.outcomes)
    assert doc["passed"] in (0, 1)


def test_record_rejects_inconsistent_passed():
    asg = AngleAssignment((0.0, 0.0), ProtocolKind.XY, 0)
    with pytest.raises(ValueError):
        RoundRecord(0, asg, (0, LOSS), 1)


def test_mixed_coalition_strategies_rejected(rng):
    a = adversary.make_strategy("product-guesser", n_parties=3)
    b = adversary.make_strategy("product-guesser", n_parties=3)
    with pytest.raises(ValueError):
        run_round(None, [HONEST, a, b], ProtocolKind.THETA, rng)


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
    rho = sources.prepare(sources.SourceModel.depolarized(3, v))
    assert exact_pass_probability_theta(rho) == pytest.approx(0.834, abs=1e-12)
    stats = estimate_pass_probability(rho, None, ProtocolKind.THETA, 20_000, 5)
    assert abs(stats.estimate - 0.834) < 4 * stats.stderr


def test_optimal_guesser_reaches_xy_cheat_optimum():
    strat = adversary.make_strategy("product-guesser", n_parties=3, theta_prime=np.pi / 4)
    stats = estimate_pass_probability(
        None, [HONEST, HONEST, strat], ProtocolKind.XY, 20_000, 23
    )
    assert abs(stats.estimate - adversary.XY_OPTIMUM) < 4 * stats.stderr


def test_estimate_requires_valid_rounds(rng):
    always_loss = adversary.CheatStrategy(
        name="always-loss",
        dishonest_count=1,
        target_loss_rate=1.0,
        sample_side_info=lambda r, s: adversary.SideInfo(None, ghz_state(1)),
        respond=lambda side, angles: LOSS,
    )
    with pytest.raises(ValueError):
        estimate_pass_probability(None, [HONEST, always_loss], ProtocolKind.THETA, 50, 1)


def test_estimate_is_seed_deterministic():
    rho = sources.prepare(sources.SourceModel.dephased(3, 0.4))
    a = estimate_pass_probability(rho, None, ProtocolKind.XY, 300, 11)
    b = estimate_pass_probability(rho, None, ProtocolKind.XY, 300, 11)
    assert a == b


def test_honest_loss_rounds_are_excluded_without_bias():
    rho = sources.prepare(sources.SourceModel.dephased(3, 0.5))
    exact = exact_pass_probability_theta(rho)
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
        assert exact_pass_probability_theta(ghz_state(n).to_density()) == pytest.approx(
            1.0, abs=1e-12
        )
        assert exact_pass_probability_theta(qstate.maximally_mixed(n)) == pytest.approx(
            0.5, abs=1e-12
        )


def test_exact_theta_fully_dephased_from_angle_average(rng):
    """Closed form agrees with brute-force averaging over sampled settings."""
    rho = qstate.apply_channel(
        ghz_state(3).to_density(), qstate.ChannelSpec.ghz_dephasing(1.0)
    )
    exact = exact_pass_probability_theta(rho)
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
        exact = exact_pass_probability_theta(rho)
        samples = 10_000
        vals = np.empty(samples)
        for i in range(samples):
            free = rng.uniform(0, np.pi, 2)
            angles = list(free) + [float((-free.sum()) % np.pi)]
            vals[i] = setting_pass_probability(rho, angles)
        stderr = vals.std() / np.sqrt(samples)
        assert abs(vals.mean() - exact) < 4 * stderr


def test_exact_xy_enumeration(rng):
    assert exact_pass_probability_xy(ghz_state(3).to_density()) == pytest.approx(1.0)
    assert exact_pass_probability_xy(qstate.maximally_mixed(3)) == pytest.approx(0.5)
    assert len(xy_valid_settings(4)) == 8
    # honest-measurement average for the pi/4-rotated Bell plus an unentangled
    # qubit: two settings at (1+cos(pi/4))/2, two at 1/2
    psi = qstate.tensor(ghz_state(2, np.pi / 4), qstate.plus_state(1))
    values = sorted(
        setting_pass_probability(psi.to_density(), s) for s in xy_valid_settings(3)
    )
    assert values[0] == pytest.approx(0.5, abs=1e-12)
    assert values[1] == pytest.approx(0.5, abs=1e-12)
    assert values[2] == pytest.approx(0.5 * (1 + np.cos(np.pi / 4)), abs=1e-12)
    assert exact_pass_probability_xy(psi.to_density()) == pytest.approx(
        np.mean(values), abs=1e-12
    )


@pytest.mark.parametrize("n", range(2, 9))
def test_exact_closed_forms_match_oracles(n, rng):
    states = [random_density(n, rng) for _ in range(3)] + [
        random_pure(n, rng).to_density(),
        qstate.apply_channel(
            ghz_state(n, float(rng.uniform(0, 2 * np.pi))).to_density(),
            qstate.ChannelSpec.ghz_dephasing(float(rng.uniform())),
        ),
    ]
    for rho in states:
        assert exact_pass_probability_theta(rho) == pytest.approx(
            oracles.exact_pass_probability_theta(rho), abs=1e-12
        )
        assert exact_pass_probability_xy(rho) == pytest.approx(
            oracles.exact_pass_probability_xy(rho), abs=1e-12
        )


def test_honest_fidelity_bound_holds_on_random_states(rng):
    for n in (2, 3, 4):
        target = ghz_state(n).to_density()
        for _ in range(10):
            rho = random_density(n, rng)
            fid = qstate.fidelity(rho, target)
            assert fid >= 2 * exact_pass_probability_theta(rho) - 1 - 1e-9
            assert fid >= 2 * exact_pass_probability_xy(rho) - 1 - 1e-9
