import itertools

import numpy as np
import pytest
from scipy import stats as scipy_stats

from ghzverify import qstate, sources
from ghzverify.adversary import (
    XY_OPTIMUM,
    Coalition,
    averaged_guess_probability,
    best_dishonest_fidelity,
    decompose_vs_ghz,
    helstrom_guess_probability,
    honest_first_vector,
    make_strategy,
    measure_parties,
    theta_cheat_pass_curve,
    xy_cheat_pass_curve,
    xy_optimal_pass_probability,
)
from ghzverify.protocol import HONEST, LOSS, PassStats, ProtocolKind, run_rounds
from ghzverify.qstate import ghz_state, plus_state, tensor

import oracles
from conftest import random_density, random_pure


def _coalition_last(n, d=1):
    return Coalition(n, range(n - d, n))


# ---------------------------------------------------------------------------
# coalition plumbing


def test_coalition_requires_an_honest_party():
    with pytest.raises(ValueError):
        Coalition(3, [0, 1, 2])
    with pytest.raises(ValueError):
        Coalition(3, [5])


def test_coalition_partition():
    c = Coalition(4, [1, 3])
    assert c.honest == (0, 2)
    assert c.k == 2


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_ideal_ghz_any_angle(rng):
    psi = ghz_state(4)
    for theta in rng.uniform(0, np.pi, 5):
        d = decompose_vs_ghz(psi, _coalition_last(4, 2), theta)
        assert d.p_theta == pytest.approx(0.5, abs=1e-12)
        assert d.q_theta == pytest.approx(0.5, abs=1e-12)
        assert abs(d.overlap) == pytest.approx(0.0, abs=1e-12)
        assert np.linalg.norm(d.chi) == pytest.approx(0.0, abs=1e-12)
        assert helstrom_guess_probability(d) == pytest.approx(1.0, abs=1e-12)


def test_decompose_all_zeros_state():
    psi = qstate.basis_state(3, 0)
    d = decompose_vs_ghz(psi, _coalition_last(3), 0.0)
    assert d.p_theta == pytest.approx(0.5, abs=1e-12)
    assert d.q_theta == pytest.approx(0.5, abs=1e-12)
    assert abs(d.overlap) == pytest.approx(0.5, abs=1e-12)
    assert np.linalg.norm(d.chi) == pytest.approx(0.0, abs=1e-12)
    assert helstrom_guess_probability(d) == pytest.approx(0.5, abs=1e-12)


def test_decompose_product_plus_state_has_residual():
    psi = plus_state(4)
    d = decompose_vs_ghz(psi, _coalition_last(4), 0.0)
    # the honest |+>^3 component leaks outside the two GHZ directions
    assert np.vdot(d.chi, d.chi).real > 0.1


def test_decomposition_reconstructs_state(rng):
    for _ in range(20):
        n = int(rng.integers(2, 5))
        d_count = int(rng.integers(1, n))
        coalition = Coalition(n, rng.choice(n, size=d_count, replace=False))
        psi = random_pure(n, rng)
        theta = float(rng.uniform(0, np.pi))
        dec = decompose_vs_ghz(psi, coalition, theta)
        norm_budget = dec.p_theta + dec.q_theta + float(np.vdot(dec.chi, dec.chi).real)
        assert norm_budget == pytest.approx(1.0, abs=1e-9)
        rebuilt = dec.reconstruct_honest_first()
        assert np.allclose(rebuilt, honest_first_vector(psi, coalition), atol=1e-9)


# ---------------------------------------------------------------------------
# Helstrom guessing


def test_helstrom_closed_form_matches_trace_norm_oracle(rng):
    for _ in range(30):
        n = int(rng.integers(2, 5))
        coalition = _coalition_last(n, int(rng.integers(1, n)))
        psi = random_pure(n, rng)
        dec = decompose_vs_ghz(psi, coalition, float(rng.uniform(0, np.pi)))
        diff = np.outer(dec.psi_theta, dec.psi_theta.conj()) - np.outer(
            dec.psi_theta_pi, dec.psi_theta_pi.conj()
        )
        trace_norm = np.abs(np.linalg.eigvalsh(diff)).sum()
        assert helstrom_guess_probability(dec) == pytest.approx(
            0.5 + 0.5 * trace_norm, abs=1e-9
        )


def test_averaged_guess_ideal_ghz():
    assert averaged_guess_probability(ghz_state(3), _coalition_last(3)) == pytest.approx(
        1.0, abs=1e-9
    )


def test_averaged_guess_rotated_bell_reaches_theta_cheat_optimum():
    psi = tensor(ghz_state(2, np.pi / 4), plus_state(1))
    value = averaged_guess_probability(psi, _coalition_last(3))
    assert value == pytest.approx(0.5 + 1 / np.pi, abs=1e-4)


def test_averaged_guess_equals_pointwise_composition(rng):
    psi = random_pure(3, rng)
    coalition = _coalition_last(3)
    grid = 1000
    thetas = np.linspace(0, np.pi, grid + 1)
    pointwise = [
        helstrom_guess_probability(decompose_vs_ghz(psi, coalition, t)) for t in thetas
    ]
    expected = np.trapezoid(pointwise, thetas) / np.pi
    assert averaged_guess_probability(psi, coalition, grid=grid) == pytest.approx(
        expected, abs=1e-12
    )


def test_averaged_guess_rejects_coarse_grid(rng):
    with pytest.raises(ValueError):
        averaged_guess_probability(ghz_state(2), _coalition_last(2), grid=10)


def test_dishonest_bound_on_random_states(rng):
    for n, k in ((3, 1), (3, 2), (4, 2)):
        for _ in range(10):
            psi = random_pure(n, rng)
            coalition = Coalition(n, range(k, n))
            guess = averaged_guess_probability(psi, coalition)
            best = best_dishonest_fidelity(psi, coalition)
            assert guess <= 0.75 + 0.25 * best + 1e-6


# ---------------------------------------------------------------------------
# reduced-state fidelity


def test_best_dishonest_fidelity_examples():
    assert best_dishonest_fidelity(ghz_state(4), _coalition_last(4)) == pytest.approx(
        1.0, abs=1e-9
    )
    bell_plus = tensor(ghz_state(2), plus_state(1))
    assert best_dishonest_fidelity(bell_plus, _coalition_last(3)) == pytest.approx(
        0.5, abs=1e-9
    )
    assert best_dishonest_fidelity(
        qstate.basis_state(3, 0), _coalition_last(3)
    ) == pytest.approx(0.5, abs=1e-9)


def test_best_dishonest_fidelity_pure_path_matches_partial_trace(rng):
    for _ in range(10):
        psi = random_pure(3, rng)
        coalition = Coalition(3, [1])
        direct = best_dishonest_fidelity(psi, coalition)
        reduced = qstate.partial_trace(psi.to_density(), coalition.honest)
        sigma = qstate.partial_trace(ghz_state(3).to_density(), coalition.honest)
        assert direct == pytest.approx(qstate.fidelity(reduced, sigma), abs=1e-9)


def test_best_dishonest_fidelity_labeled_mixture():
    coalition = _coalition_last(3)
    mixture = [(0.5, ghz_state(3)), (0.5, qstate.basis_state(3, 0))]
    assert best_dishonest_fidelity(mixture, coalition) == pytest.approx(0.75, abs=1e-9)
    with pytest.raises(ValueError):
        best_dishonest_fidelity([(0.7, ghz_state(3))], coalition)


def test_xy_optimal_pass_probability_examples():
    psi = tensor(ghz_state(2, np.pi / 4), plus_state(1))
    assert xy_optimal_pass_probability(psi, _coalition_last(3)) == pytest.approx(
        XY_OPTIMUM, abs=1e-9
    )
    assert xy_optimal_pass_probability(ghz_state(3), _coalition_last(3)) == pytest.approx(
        1.0, abs=1e-9
    )


@pytest.mark.parametrize("n", range(2, 9))
def test_xy_optimal_matches_setting_sum_oracle(n, rng):
    coalitions = [Coalition(n, [0]), Coalition(n, [])] + [
        Coalition(n, rng.choice(n, size=int(rng.integers(1, n)), replace=False))
        for _ in range(3)
    ]
    for coalition in coalitions:
        psi = random_pure(n, rng)
        assert xy_optimal_pass_probability(psi, coalition) == pytest.approx(
            oracles.xy_optimal_pass_probability(psi, coalition), abs=1e-12
        )


# ---------------------------------------------------------------------------
# loss curves


def test_theta_curve_values():
    assert theta_cheat_pass_curve(0.0) == pytest.approx(0.5 + 1 / np.pi, abs=1e-12)
    assert theta_cheat_pass_curve(0.05) == pytest.approx(0.834, abs=5e-4)
    assert theta_cheat_pass_curve(1 - 1e-9) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        theta_cheat_pass_curve(1.0)
    with pytest.raises(ValueError):
        theta_cheat_pass_curve(-0.01)


def test_xy_curve_values():
    assert xy_cheat_pass_curve(0.0) == pytest.approx(XY_OPTIMUM, abs=1e-12)
    assert xy_cheat_pass_curve(0.5) == pytest.approx(1.0, abs=1e-12)
    expected = (0.25 + 0.5 * XY_OPTIMUM) / 0.75
    assert xy_cheat_pass_curve(0.25) == pytest.approx(expected, abs=1e-12)
    with pytest.raises(ValueError):
        xy_cheat_pass_curve(0.6)


def test_curves_are_nondecreasing():
    lams = np.linspace(0, 0.99, 200)
    theta_vals = [theta_cheat_pass_curve(l) for l in lams]
    assert all(b >= a - 1e-12 for a, b in zip(theta_vals, theta_vals[1:]))
    lams = np.linspace(0, 0.5, 100)
    xy_vals = [xy_cheat_pass_curve(l) for l in lams]
    assert all(b >= a - 1e-12 for a, b in zip(xy_vals, xy_vals[1:]))


# ---------------------------------------------------------------------------
# strategies


def test_make_strategy_rejects_unknown_and_bad_params():
    with pytest.raises(ValueError):
        make_strategy("teleport-everything", n_parties=3)
    with pytest.raises(ValueError):
        make_strategy("xy-mixed", n_parties=3, lam=0.7)
    with pytest.raises(ValueError):
        make_strategy("theta-rotated-bell", n_parties=3, lam=1.0)
    with pytest.raises(ValueError):
        make_strategy("product-guesser", n_parties=3, dishonest_count=3)


def test_xy_perfect_loss_has_balanced_bases():
    strat = make_strategy("xy-perfect-loss50", n_parties=3)
    records = run_rounds(None, [HONEST, HONEST, strat], ProtocolKind.XY, 6000, 41)
    stats = PassStats.from_records(records)
    assert stats.estimate == 1.0
    by_basis = {0.0: [0, 0], np.pi / 2: [0, 0]}
    for rec in records:
        lost = rec.outcomes[2] == LOSS
        by_basis[rec.assignment.angles[2]][0 if lost else 1] += 1
    table = np.array([by_basis[0.0], by_basis[np.pi / 2]])
    p = scipy_stats.chi2_contingency(table, correction=False).pvalue
    assert p > 0.01  # the four-state mixing hides the basis correlation
    answered = table[:, 1].sum() / table.sum()
    assert answered == pytest.approx(0.5, abs=0.03)


def test_xy_naive_loss_is_basis_correlated():
    strat = make_strategy("xy-naive-loss", n_parties=3)
    records = run_rounds(None, [HONEST, HONEST, strat], ProtocolKind.XY, 2000, 43)
    for rec in records:
        basis = rec.assignment.angles[2]
        assert (rec.outcomes[2] == LOSS) == (basis > 0.1)
    assert PassStats.from_records(records).estimate == 1.0


def test_product_guesser_reaches_xy_optimum():
    strat = make_strategy("product-guesser", n_parties=3, theta_prime=np.pi / 4)
    stats = PassStats.from_records(
        run_rounds(None, [HONEST, HONEST, strat], ProtocolKind.XY, 20_000, 47)
    )
    assert abs(stats.estimate - XY_OPTIMUM) < 3 * stats.stderr


def test_theta_rotated_bell_matches_curve_and_hides_loss_angles():
    lam = 0.3
    strat = make_strategy("theta-rotated-bell", n_parties=3, lam=lam)
    records = run_rounds(None, [HONEST, HONEST, strat], ProtocolKind.THETA, 30_000, 53)
    stats = PassStats.from_records(records)
    assert abs(stats.estimate - theta_cheat_pass_curve(lam)) < 3 * stats.stderr
    assert stats.loss_rates[2] == pytest.approx(lam, abs=0.02)
    lost_angles = [
        rec.assignment.angles[2] for rec in records if rec.outcomes[2] == LOSS
    ]
    p = scipy_stats.kstest(lost_angles, scipy_stats.uniform(0, np.pi).cdf).pvalue
    assert p > 0.01  # declared-loss angles look uniform


def test_xy_mixed_interpolates_between_pure_strategies():
    for lam, seed in ((0.1, 61), (0.4, 67)):
        strat = make_strategy("xy-mixed", n_parties=3, lam=lam)
        stats = PassStats.from_records(
            run_rounds(None, [HONEST, HONEST, strat], ProtocolKind.XY, 20_000, seed)
        )
        assert abs(stats.estimate - xy_cheat_pass_curve(lam)) < 4 * stats.stderr
        assert stats.loss_rates[2] == pytest.approx(lam, abs=0.02)


def test_two_party_coalition_acts_as_one_responder():
    # both coalition members share the strategy; the first answers for both
    strat = make_strategy("product-guesser", n_parties=4, dishonest_count=2)
    records = run_rounds(
        None, [HONEST, HONEST, strat, strat], ProtocolKind.THETA, 20_000, 83
    )
    stats = PassStats.from_records(records)
    assert abs(stats.estimate - theta_cheat_pass_curve(0.0)) < 4 * stats.stderr
    assert all(rec.outcomes[3] == 0 for rec in records)


def test_strategy_respond_is_deterministic(rng):
    strat = make_strategy("theta-rotated-bell", n_parties=3, lam=0.2)
    side = strat.sample_side_info(rng, None)
    angles = (1.234,)
    assert strat.respond(side, angles) == strat.respond(side, angles)


# ---------------------------------------------------------------------------
# projective measurement cheat


def test_measure_parties_collapses_ideal_ghz(rng):
    coalition = _coalition_last(3)
    for _ in range(20):
        chi = float(rng.uniform(0, np.pi))
        bits, collapsed = measure_parties(ghz_state(3), coalition, [chi], rng)
        expected = ghz_state(2, -chi + bits[0] * np.pi)
        # compare up to global phase via overlap
        overlap = abs(np.vdot(collapsed.amplitudes, expected.amplitudes)) ** 2
        assert overlap == pytest.approx(1.0, abs=1e-9)


def test_projective_cheat_on_ideal_ghz_matches_curve():
    source = ghz_state(3)
    strat = make_strategy("projective-cheat", n_parties=3, lam=0.0)
    stats = PassStats.from_records(
        run_rounds(source, [HONEST, HONEST, strat], ProtocolKind.THETA, 20_000, 71)
    )
    assert abs(stats.estimate - theta_cheat_pass_curve(0.0)) < 3 * stats.stderr


def test_projective_cheat_requires_source(rng):
    strat = make_strategy("projective-cheat", n_parties=3, lam=0.0)
    with pytest.raises(ValueError):
        strat.sample_side_info(rng, None)


def test_noisy_projection_underperforms_clean_biseparable():
    """Steering a dephased GHZ inherits its phase noise, so the coalition does
    worse than with a cleanly prepared rotated state."""
    noisy = sources.prepare(sources.SourceModel.dephased(4, 0.5))
    projective = make_strategy("projective-cheat", n_parties=4, lam=0.0)
    noisy_stats = PassStats.from_records(
        run_rounds(noisy, [HONEST] * 3 + [projective], ProtocolKind.THETA, 15_000, 73)
    )
    clean = make_strategy("product-guesser", n_parties=4)
    clean_stats = PassStats.from_records(
        run_rounds(None, [HONEST] * 3 + [clean], ProtocolKind.THETA, 15_000, 79)
    )
    assert noisy_stats.estimate + 3 * noisy_stats.stderr < clean_stats.estimate


def _coalitions(n):
    """Every coalition of 1..n-1 dishonest parties, party 0 included."""
    for d in range(1, n):
        for dishonest in itertools.combinations(range(n), d):
            yield Coalition(n, dishonest)


def _entries(state):
    return state.amplitudes if isinstance(state, qstate.PureState) else state.entries


@pytest.mark.parametrize("n", [3, 4])
def test_measure_parties_matches_oracle_for_every_coalition(n, rng):
    for coalition in _coalitions(n):
        d = n - coalition.k
        for _ in range(10):
            for state in (random_pure(n, rng), random_density(n, rng)):
                angles = list(rng.uniform(0, np.pi, d))
                seed = int(rng.integers(2**32))
                bits, rest = measure_parties(
                    state, coalition, angles, np.random.default_rng(seed)
                )
                expected_bits, expected_rest = oracles.measure_parties(
                    state, coalition, angles, np.random.default_rng(seed)
                )
                assert bits == expected_bits
                assert type(rest) is type(expected_rest)
                np.testing.assert_allclose(
                    _entries(rest), _entries(expected_rest), rtol=0, atol=1e-12
                )


def test_measure_parties_consumes_one_uniform_per_dishonest_qubit(rng):
    for coalition in (Coalition(3, [1]), Coalition(4, [0, 2]), Coalition(4, [1, 2, 3])):
        d = coalition.n - coalition.k
        for state in (random_pure(coalition.n, rng), random_density(coalition.n, rng)):
            gen, twin = np.random.default_rng(5), np.random.default_rng(5)
            measure_parties(state, coalition, list(rng.uniform(0, np.pi, d)), gen)
            twin.random(d)
            assert gen.bit_generator.state == twin.bit_generator.state
