import dataclasses
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from ghzverify import adversary, protocol, qstate, sources
from ghzverify.adversary import (
    XY_OPTIMUM,
    Coalition,
    PhaseArm,
    averaged_guess_probability,
    best_dishonest_fidelity,
    make_strategy,
    theta_cheat_pass_curve,
    xy_cheat_pass_curve,
    xy_optimal_pass_probability,
)
from ghzverify.protocol import (
    LOSS,
    PassStats,
    ProtocolKind,
    run_block,
    run_rounds,
)
from ghzverify.qstate import ghz_state, plus_state, tensor

import oracles
from conftest import (
    dephased_ghz,
    depolarized_ghz,
    random_density,
    random_ghz_diagonal,
    random_pure,
)


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
    # numpy integers are counts too
    assert Coalition(np.int64(4), [1, 3]) == c
    strat = make_strategy("product-guesser", n_parties=np.int64(3), dishonest_count=np.int64(1))
    assert (strat.n_parties, strat.dishonest_count) == (3, 1)


@pytest.mark.parametrize("arc", ["arc", "xy-basis", 1.5, -0.1, float("nan")])
def test_phase_arm_rejects_a_loss_arc_outside_0_to_1(arc):
    message = f"loss_arc must be None or a number in [0, 1], got {arc!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        PhaseArm((0.0,), arc)


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_ideal_ghz_any_angle(rng):
    psi = ghz_state(4)
    for theta in rng.uniform(0, np.pi, 5):
        d = oracles.decompose_vs_ghz(psi, _coalition_last(4, 2), theta)
        assert d.p_theta == pytest.approx(0.5, abs=1e-12)
        assert d.q_theta == pytest.approx(0.5, abs=1e-12)
        assert abs(d.overlap) == pytest.approx(0.0, abs=1e-12)
        assert np.linalg.norm(d.chi) == pytest.approx(0.0, abs=1e-12)
        assert oracles.helstrom_guess_probability(d) == pytest.approx(1.0, abs=1e-12)


def test_decompose_all_zeros_state():
    psi = oracles.basis_state(3, 0)
    d = oracles.decompose_vs_ghz(psi, _coalition_last(3), 0.0)
    assert d.p_theta == pytest.approx(0.5, abs=1e-12)
    assert d.q_theta == pytest.approx(0.5, abs=1e-12)
    assert abs(d.overlap) == pytest.approx(0.5, abs=1e-12)
    assert np.linalg.norm(d.chi) == pytest.approx(0.0, abs=1e-12)
    assert oracles.helstrom_guess_probability(d) == pytest.approx(0.5, abs=1e-12)


def test_decompose_product_plus_state_has_residual():
    psi = plus_state(4)
    d = oracles.decompose_vs_ghz(psi, _coalition_last(4), 0.0)
    # the honest |+>^3 component leaks outside the two GHZ directions
    assert np.vdot(d.chi, d.chi).real > 0.1


def test_decomposition_reconstructs_state(rng):
    for _ in range(20):
        n = int(rng.integers(2, 5))
        d_count = int(rng.integers(1, n))
        coalition = Coalition(n, rng.choice(n, size=d_count, replace=False))
        psi = random_pure(n, rng)
        theta = float(rng.uniform(0, np.pi))
        dec = oracles.decompose_vs_ghz(psi, coalition, theta)
        norm_budget = dec.p_theta + dec.q_theta + float(np.vdot(dec.chi, dec.chi).real)
        assert norm_budget == pytest.approx(1.0, abs=1e-9)
        g0 = ghz_state(coalition.k, theta).amplitudes
        g1 = ghz_state(coalition.k, theta + np.pi).amplitudes
        rebuilt = np.kron(g0, dec.psi_theta) + np.kron(g1, dec.psi_theta_pi) + dec.chi
        assert np.allclose(rebuilt, oracles.honest_first_vector(psi, coalition), atol=1e-9)


# ---------------------------------------------------------------------------
# Helstrom guessing


def test_helstrom_closed_form_matches_trace_norm_oracle(rng):
    for _ in range(30):
        n = int(rng.integers(2, 5))
        coalition = _coalition_last(n, int(rng.integers(1, n)))
        psi = random_pure(n, rng)
        dec = oracles.decompose_vs_ghz(psi, coalition, float(rng.uniform(0, np.pi)))
        diff = np.outer(dec.psi_theta, dec.psi_theta.conj()) - np.outer(
            dec.psi_theta_pi, dec.psi_theta_pi.conj()
        )
        trace_norm = np.abs(np.linalg.eigvalsh(diff)).sum()
        assert oracles.helstrom_guess_probability(dec) == pytest.approx(
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
    expected = oracles.averaged_guess_probability(psi, coalition, grid=1000)
    assert averaged_guess_probability(psi, coalition) == pytest.approx(expected, abs=1e-12)


def test_averaged_guess_rotated_bell_is_the_theta_cheat_optimum_exactly():
    psi = tensor(ghz_state(2, np.pi / 4), plus_state(1))
    value = averaged_guess_probability(psi, _coalition_last(3))
    assert value == pytest.approx(0.5 + 1 / np.pi, abs=1e-12)


def _every_coalition(n):
    return [
        Coalition(n, dishonest)
        for d in range(n) for dishonest in itertools.combinations(range(n), d)
    ]


@pytest.mark.parametrize("n", range(2, 8))
def test_closed_forms_match_the_decomposition_and_partial_trace_oracles(n, rng):
    psi, rho = random_pure(n, rng), random_density(n, rng)
    for coalition in _every_coalition(n):
        assert best_dishonest_fidelity(psi, coalition) == pytest.approx(
            oracles.best_dishonest_fidelity(psi, coalition), abs=1e-12
        )
        assert best_dishonest_fidelity(rho, coalition) == pytest.approx(
            oracles.best_dishonest_fidelity(rho, coalition), abs=1e-12
        )
        honest_angles = (0.0, np.pi / 2) if coalition.dishonest else (0.0,)
        helstrom = [
            oracles.helstrom_guess_probability(oracles.decompose_vs_ghz(psi, coalition, t))
            for t in honest_angles
        ]
        assert xy_optimal_pass_probability(psi, coalition) == pytest.approx(
            np.mean(helstrom), abs=1e-12
        )
        assert averaged_guess_probability(psi, coalition) == pytest.approx(
            oracles.averaged_guess_by_quadrature(psi, coalition), abs=1e-12
        )


@pytest.mark.parametrize("n", [3, 4, 10])
def test_best_fidelity_of_a_record_matches_its_matrix(n, rng):
    record = random_ghz_diagonal(n, rng)
    dense = record.to_density()
    coalitions = _every_coalition(n) if n < 10 else [
        Coalition(n, dishonest) for dishonest in ([4], [n - 1], range(1, n), range(n - 1))
    ]
    for coalition in coalitions:
        assert best_dishonest_fidelity(record, coalition) == pytest.approx(
            best_dishonest_fidelity(dense, coalition), abs=1e-12
        )


@pytest.mark.parametrize("n", [3, 4])
def test_record_corner_matches_its_matrix(n, rng):
    records = (
        qstate.ghz_diagonal(n),
        depolarized_ghz(n, 0.6),
        random_ghz_diagonal(n, rng),
        random_ghz_diagonal(n, rng),
    )
    for record in records:
        dense = record.to_density()
        for coalition in _every_coalition(n):
            r00, rnn, x = adversary._corner(record, coalition)
            e00, enn, ex = adversary._corner(dense, coalition)
            assert r00 == pytest.approx(e00, abs=1e-12)
            assert rnn == pytest.approx(enn, abs=1e-12)
            assert x == pytest.approx(ex, abs=1e-12)


def _corner_by_partial_trace(state, coalition):
    if isinstance(state, qstate.PureState):
        state = state.to_density()
    reduced = oracles.partial_trace(state, coalition.honest).entries
    return reduced[0, 0].real, reduced[-1, -1].real, reduced[-1, 0]


@pytest.mark.parametrize("n", range(2, 11))
def test_corner_matches_the_partial_trace(n, rng):
    dishonests = [(), (n - 1,), (0,), tuple(range(1, n))] + [
        tuple(rng.choice(n, size=d, replace=False)) for d in range(1, n)
    ]
    if n >= 9:
        # small ints iterate by their hash modulo the set's table size, so
        # these iterate with the higher index first
        dishonests += [(n - 1, 3), (1, n - 1, 4)]
        assert list(Coalition(n, (n - 1, 3)).dishonest) == [n - 1, 3]
    for state in (random_pure(n, rng), random_density(n, rng)):
        for dishonest in dishonests:
            coalition = Coalition(n, dishonest)
            r00, rnn, x = adversary._corner(state, coalition)
            e00, enn, ex = _corner_by_partial_trace(state, coalition)
            assert r00 == pytest.approx(e00, abs=1e-12)
            assert rnn == pytest.approx(enn, abs=1e-12)
            assert x == pytest.approx(ex, abs=1e-12)


def test_equal_coalitions_built_in_another_order_give_the_same_corner(rng):
    # 1 and 9 share a slot of the set's table, so the one inserted first iterates first
    first, second = Coalition(10, [1, 9, 4]), Coalition(10, [9, 1, 4])
    assert first == second and list(first.dishonest) != list(second.dishonest)
    for state in (random_pure(10, rng), random_density(10, rng)):
        qstate._corner_indices.cache_clear()
        corner = adversary._corner(state, first)
        qstate._corner_indices.cache_clear()
        assert adversary._corner(state, second) == corner


def test_best_fidelity_of_a_record_above_the_dense_cap():
    n = 40
    for record in (dephased_ghz(n, 0.3), depolarized_ghz(n, 0.7)):
        w, b = record.weight, record.background
        for d in range(1, n):
            expected = 2.0 * (w + (2.0**d - 1.0) * b)
            value = best_dishonest_fidelity(record, _coalition_last(n, d))
            assert value == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("n", range(2, 7))
def test_empty_coalition_value_is_the_ghz_fidelity(n, rng):
    states = (random_pure(n, rng), random_density(n, rng), random_ghz_diagonal(n, rng))
    # ghz_state(n, pi) is orthogonal to the GHZ state: the value is 0, not 1/2
    for state in states + (ghz_state(n, np.pi), ghz_state(n, 1.0), qstate.ghz_diagonal(n)):
        assert best_dishonest_fidelity(state, Coalition(n, [])) == pytest.approx(
            qstate.fidelity(state, ghz_state(n)), abs=1e-12
        )


def test_coalition_analysis_rejects_a_state_of_another_arity():
    message = "state has 2 qubits but the coalition has 3 parties"
    coalition = Coalition(3, [2])
    for state in (ghz_state(2), ghz_state(2).to_density(), qstate.ghz_diagonal(2)):
        with pytest.raises(ValueError, match=message):
            best_dishonest_fidelity(state, coalition)
    for function in (averaged_guess_probability, xy_optimal_pass_probability):
        with pytest.raises(ValueError, match=message):
            function(ghz_state(2), coalition)


def test_helstrom_closed_forms_reject_mixed_states_by_name():
    coalition = _coalition_last(3)
    for state in (ghz_state(3).to_density(), qstate.ghz_diagonal(3)):
        for function in (averaged_guess_probability, xy_optimal_pass_probability):
            expected = f"{function.__name__} needs a PureState, got {type(state).__name__}"
            with pytest.raises(TypeError, match=expected):
                function(state, coalition)


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
        oracles.basis_state(3, 0), _coalition_last(3)
    ) == pytest.approx(0.5, abs=1e-9)


def test_best_dishonest_fidelity_pure_path_matches_partial_trace(rng):
    for _ in range(10):
        psi = random_pure(3, rng)
        coalition = Coalition(3, [1])
        direct = best_dishonest_fidelity(psi, coalition)
        reduced = oracles.partial_trace(psi.to_density(), coalition.honest)
        sigma = oracles.partial_trace(ghz_state(3).to_density(), coalition.honest)
        assert direct == pytest.approx(qstate.fidelity(reduced, sigma), abs=1e-9)


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


# keyword parameters of each strategy in the tests below
STRATEGY_PARAMS = {
    "xy-perfect-loss50": {},
    "xy-naive-loss": {},
    "xy-rotated-bell": {},
    "xy-mixed": {"lam": 0.2},
    "theta-rotated-bell": {"lam": 0.3, "theta_prime": 0.4},
    "projective-cheat": {"lam": 0.2, "theta_prime": 0.7},
    "product-guesser": {"theta_prime": 0.785},
}


def test_make_strategy_rejects_parameters_a_strategy_does_not_take():
    for name, kwargs, pname in (
        ("product-guesser", {"lam": 0.3}, "lam"),
        ("xy-perfect-loss50", {"theta_prime": 1.0}, "theta-prime"),
        ("xy-mixed", {"lam": 0.2, "theta_prime": 1.0}, "theta-prime"),
    ):
        expected = f"'{name}' takes no parameter {pname}; key syntax"
        with pytest.raises(ValueError, match=expected):
            make_strategy(name, n_parties=3, **kwargs)
    with pytest.raises(ValueError, match="'theta-rotated-bell' needs parameter lam; key syntax"):
        make_strategy("theta-rotated-bell", n_parties=3)


def test_make_strategy_reads_its_numbers_as_keys_do():
    assert make_strategy("xy-mixed", n_parties=3, lam="0.2") == make_strategy(
        "xy-mixed", n_parties=3, lam=0.2
    )
    for kwargs, pname, shown in (
        ({"lam": "abc"}, "lam", "'abc'"),
        ({"lam": 0.2, "theta_prime": float("nan")}, "theta-prime", "nan"),
    ):
        syntax = "theta-rotated-bell:lam=<0..1>[,theta-prime=<radians>]"
        expected = (f"strategy 'theta-rotated-bell' parameter {pname} must be a finite number, "
                    f"got {shown}; key syntax: {syntax}")
        with pytest.raises(ValueError, match=re.escape(expected)):
            make_strategy("theta-rotated-bell", n_parties=3, **kwargs)


def test_cheat_strategy_has_no_callable_fields():
    for name in adversary.STRATEGIES:
        strat = make_strategy(name, n_parties=4, **STRATEGY_PARAMS[name])
        for f in dataclasses.fields(strat):
            assert not callable(getattr(strat, f.name)), (name, f.name)


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(tuple(adversary.STRATEGIES)),
    n=st.integers(2, 6),
    d=st.integers(1, 5),
    x=st.floats(0.0, 1.0, exclude_max=True),
    theta_prime=st.one_of(st.none(), st.floats(0.0, 2 * np.pi, exclude_max=True)),
)
def test_strategy_keys_round_trip(name, n, d, x, theta_prime):
    d = min(d, n - 1)
    accepted = sources.key_params(adversary.STRATEGIES[name][0])
    kwargs = {}
    if "lam" in accepted:
        kwargs["lam"] = x / 2 if name == "xy-mixed" else x
    if "theta-prime" in accepted:
        kwargs["theta_prime"] = theta_prime
    strat = make_strategy(name, n_parties=n, dishonest_count=d, **kwargs)
    assert adversary.from_key(strat.key(), n, d) == strat


@pytest.mark.parametrize("name", sorted(STRATEGY_PARAMS))
@pytest.mark.parametrize("n,d", [(3, 1), (3, 2), (4, 1), (4, 2)])
def test_strategy_matches_closure_oracle(name, n, d):
    source = dephased_ghz(n, 0.3)
    kwargs = STRATEGY_PARAMS[name]
    strat = make_strategy(name, n_parties=n, dishonest_count=d, **kwargs)
    oracle = oracles.make_strategy(name, n_parties=n, dishonest_count=d, **kwargs)
    for kind, seed in ((ProtocolKind.THETA, 101 + n + d), (ProtocolKind.XY, 202 + n + d)):
        rows = oracles.rows(run_rounds(source, strat, kind, 150, seed), kind)
        assert rows == oracles.run_rounds(source, strat, kind, 150, seed, oracle=oracle)
        gen, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        for i in range(100):
            (rec,) = oracles.rows(run_block(source, strat, kind, 1, gen), kind, start=i)
            script = oracles.row_script(oracles.draw_block(twin, strat, kind, n, 1), 0, strat)
            expected = oracles.run_round(source, oracle, kind, oracles.ScriptedRng(script), index=i)
            assert rec == expected
        assert gen.bit_generator.state == twin.bit_generator.state


def _row_sources(n, rng):
    return {
        "record": dephased_ghz(n, 0.3),
        "pure": random_pure(n, rng),
        "dense": random_density(n, rng),
    }


@pytest.mark.parametrize("name", [None] + sorted(STRATEGY_PARAMS))
@pytest.mark.parametrize("n,d", [(3, 1), (3, 2), (4, 1), (4, 2)])
@pytest.mark.parametrize("honest_loss", [0.0, 0.1])
def test_every_row_matches_the_per_round_engine(name, n, d, honest_loss, rng):
    """Each row of a block is the per-round engine's round on that row's
    draws: the same angles, bits, answer, losses and pass bit."""
    strat = None
    if name is not None:
        strat = make_strategy(name, n_parties=n, dishonest_count=d, **STRATEGY_PARAMS[name])
    for label, source in _row_sources(n, rng).items():
        for kind in ProtocolKind:
            seed = int(rng.integers(2**32))
            rows = oracles.rows(
                run_rounds(source, strat, kind, 60, seed, honest_loss=honest_loss), kind
            )
            expected = oracles.run_rounds(source, strat, kind, 60, seed, honest_loss=honest_loss)
            assert rows == expected, (label, kind)


def test_rows_match_the_per_round_engine_across_blocks():
    strat = make_strategy("theta-rotated-bell", n_parties=3, lam=0.3, theta_prime=0.4)
    rounds = protocol.B + 5
    rows = oracles.rows(
        run_rounds(None, strat, ProtocolKind.THETA, rounds, 7, honest_loss=0.1), ProtocolKind.THETA
    )
    assert rows == oracles.run_rounds(None, strat, ProtocolKind.THETA, rounds, 7,
                                            honest_loss=0.1)
    assert rows[-1].index == rounds - 1


def _bell_phase(twin, m):
    return np.array([0.0, np.pi, np.pi / 2, 3 * np.pi / 2])[twin.integers(0, 4, m)]


def _rotated_phase(index):
    return np.pi / 4 + index * np.pi / 2


def _mixed_phase(twin, m):
    first = twin.random(m) < 2 * 0.2
    index = twin.integers(0, 4, m)
    bell = np.array([0.0, np.pi, np.pi / 2, 3 * np.pi / 2])[index]
    return np.where(first, bell, _rotated_phase(index))


# the draws draw_side makes for a block of m rounds, replayed on a twin
# generator; each returns the phases those draws select (for
# projective-cheat, before its measurement flips them)
DRAW_CONTRACT = {
    "xy-perfect-loss50": _bell_phase,
    "xy-naive-loss": lambda twin, m: np.zeros(m),
    "xy-rotated-bell": lambda twin, m: _rotated_phase(twin.integers(0, 4, m)),
    "xy-mixed": _mixed_phase,
    "theta-rotated-bell": lambda twin, m: (0.4 + twin.uniform(0.0, np.pi, m)) % (2 * np.pi),
    "projective-cheat": lambda twin, m: (0.7 + twin.uniform(0.0, np.pi, m)) % (2 * np.pi),
    "product-guesser": lambda twin, m: np.full(m, 0.785),
}


@pytest.mark.parametrize("name", sorted(DRAW_CONTRACT))
def test_strategy_draw_contract(name):
    for n, d in ((3, 1), (4, 2)):
        source = dephased_ghz(n, 0.3)
        strat = make_strategy(name, n_parties=n, dishonest_count=d, **STRATEGY_PARAMS[name])
        gen, twin = np.random.default_rng(9), np.random.default_rng(9)
        for m in (1, 40):
            arm, phase = strat.draw_side(gen, m)
            expected = DRAW_CONTRACT[name](twin, m)
            assert gen.bit_generator.state == twin.bit_generator.state
            assert phase.tolist() == expected.tolist()
            draws = gen.random((m, n))
            twin.random((m, n))
            strat.play(source, arm, phase, np.full((m, n), 0.3), draws)
            assert gen.bit_generator.state == twin.bit_generator.state


def test_xy_perfect_loss_has_balanced_bases():
    strat = make_strategy("xy-perfect-loss50", n_parties=3)
    records = run_rounds(None, strat, ProtocolKind.XY, 6000, 41)
    stats = PassStats.from_records(records)
    assert stats.estimate == 1.0
    by_basis = {0.0: [0, 0], np.pi / 2: [0, 0]}
    for rec in oracles.rows(records, ProtocolKind.XY):
        lost = rec.outcomes[2] == LOSS
        by_basis[rec.assignment.angles[2]][0 if lost else 1] += 1
    table = np.array([by_basis[0.0], by_basis[np.pi / 2]])
    p = scipy_stats.chi2_contingency(table, correction=False).pvalue
    assert p > 0.01  # the four-state mixing hides the basis correlation
    answered = table[:, 1].sum() / table.sum()
    assert answered == pytest.approx(0.5, abs=0.03)


def test_xy_naive_loss_is_basis_correlated():
    strat = make_strategy("xy-naive-loss", n_parties=3)
    records = run_rounds(None, strat, ProtocolKind.XY, 2000, 43)
    for rec in oracles.rows(records, ProtocolKind.XY):
        basis = rec.assignment.angles[2]
        assert (rec.outcomes[2] == LOSS) == (basis > 0.1)
    assert PassStats.from_records(records).estimate == 1.0


def test_product_guesser_reaches_xy_optimum():
    strat = make_strategy("product-guesser", n_parties=3, theta_prime=np.pi / 4)
    stats = PassStats.from_records(
        run_rounds(None, strat, ProtocolKind.XY, 20_000, 47)
    )
    assert abs(stats.estimate - XY_OPTIMUM) < 3 * stats.stderr


def test_theta_rotated_bell_matches_curve_and_hides_loss_angles():
    lam = 0.3
    strat = make_strategy("theta-rotated-bell", n_parties=3, lam=lam)
    records = run_rounds(None, strat, ProtocolKind.THETA, 30_000, 53)
    stats = PassStats.from_records(records)
    assert abs(stats.estimate - theta_cheat_pass_curve(lam)) < 3 * stats.stderr
    assert stats.loss_rates[2] == pytest.approx(lam, abs=0.02)
    lost_angles = [
        rec.assignment.angles[2]
        for rec in oracles.rows(records, ProtocolKind.THETA)
        if rec.outcomes[2] == LOSS
    ]
    p = scipy_stats.kstest(lost_angles, scipy_stats.uniform(0, np.pi).cdf).pvalue
    assert p > 0.01  # declared-loss angles look uniform


def test_xy_mixed_interpolates_between_pure_strategies():
    for lam, seed in ((0.1, 61), (0.4, 67)):
        strat = make_strategy("xy-mixed", n_parties=3, lam=lam)
        stats = PassStats.from_records(
            run_rounds(None, strat, ProtocolKind.XY, 20_000, seed)
        )
        assert abs(stats.estimate - xy_cheat_pass_curve(lam)) < 4 * stats.stderr
        assert stats.loss_rates[2] == pytest.approx(lam, abs=0.02)


def test_two_party_coalition_acts_as_one_responder():
    # both coalition members share the strategy; the first answers for both
    strat = make_strategy("product-guesser", n_parties=4, dishonest_count=2)
    records = run_rounds(
        None, strat, ProtocolKind.THETA, 20_000, 83
    )
    stats = PassStats.from_records(records)
    assert abs(stats.estimate - theta_cheat_pass_curve(0.0)) < 4 * stats.stderr
    assert all(rec.outcomes[3] == 0 for rec in oracles.rows(records, ProtocolKind.THETA))


def test_strategy_respond_is_deterministic(rng):
    strat = make_strategy("theta-rotated-bell", n_parties=3, lam=0.2)
    arm, phase = strat.draw_side(rng, 50)
    angles = np.full((50, 3), 1.234)
    draws = rng.random((50, 3))
    first = strat.play(None, arm, phase, angles, draws)
    again = strat.play(None, arm, phase, angles, draws)
    for a, b in zip(first, again):
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# projective measurement cheat


def test_measure_parties_collapses_ideal_ghz(rng):
    # measuring qubit 2 of GHZ_3 at chi leaves GHZ_2(-chi + b*pi), so honest
    # angles summing to m*pi - chi give the honest parity (m + b) mod 2; the
    # measurements commute, so qubit 2 may go last
    rows = 200
    chi = rng.uniform(0, np.pi, rows)
    t0 = rng.uniform(0, np.pi, rows)
    t1 = (-chi - t0) % np.pi
    m = np.rint((chi + t0 + t1) / np.pi)
    angles = np.column_stack([t0, t1, chi])
    bits = qstate.sample_rows(ghz_state(3), angles, rng.random((rows, 3)))
    np.testing.assert_array_equal((bits[:, 0] + bits[:, 1]) % 2, (m + bits[:, 2]) % 2)


def test_projective_cheat_on_ideal_ghz_matches_curve():
    source = ghz_state(3)
    strat = make_strategy("projective-cheat", n_parties=3, lam=0.0)
    stats = PassStats.from_records(
        run_rounds(source, strat, ProtocolKind.THETA, 20_000, 71)
    )
    assert abs(stats.estimate - theta_cheat_pass_curve(0.0)) < 3 * stats.stderr


def test_projective_cheat_requires_source(rng):
    strat = make_strategy("projective-cheat", n_parties=3, lam=0.0)
    with pytest.raises(ValueError, match="projective-cheat needs a source state to measure"):
        run_block(None, strat, ProtocolKind.THETA, 1, rng)


def test_noisy_projection_underperforms_clean_biseparable():
    """Steering a dephased GHZ inherits its phase noise, so the coalition does
    worse than with a cleanly prepared rotated state."""
    noisy = dephased_ghz(4, 0.5)
    projective = make_strategy("projective-cheat", n_parties=4, lam=0.0)
    noisy_stats = PassStats.from_records(
        run_rounds(noisy, projective, ProtocolKind.THETA, 15_000, 73)
    )
    clean = make_strategy("product-guesser", n_parties=4)
    clean_stats = PassStats.from_records(
        run_rounds(None, clean, ProtocolKind.THETA, 15_000, 79)
    )
    assert noisy_stats.estimate + 3 * noisy_stats.stderr < clean_stats.estimate


def test_measure_parties_consumes_one_uniform_per_dishonest_qubit(rng):
    # projective-cheat's rounds draw the layout's uniforms and nothing more:
    # one per qubit, column j for qubit j
    for n, d in ((3, 1), (4, 2), (4, 3)):
        strat = make_strategy("projective-cheat", n_parties=n, dishonest_count=d, lam=0.2)
        for state in (random_pure(n, rng), random_density(n, rng)):
            gen, twin = np.random.default_rng(5), np.random.default_rng(5)
            protocol.run_block(state, strat, ProtocolKind.THETA, 7, gen)
            oracles.draw_block(twin, strat, ProtocolKind.THETA, n, 7)
            assert gen.bit_generator.state == twin.bit_generator.state


def test_make_strategy_names_a_coalition_without_members_or_honest_parties():
    for count, expected in (
        (0, "dishonest_count must be at least 1, got 0"),
        (-1, "dishonest_count must be at least 1, got -1"),
        (3, r"dishonest_count must be at most n_parties - 1 = 2, got 3"),
    ):
        with pytest.raises(ValueError, match=expected):
            make_strategy("xy-mixed", n_parties=3, dishonest_count=count, lam=0.1)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: Coalition(1, []), "need at least 2 parties"),
        (lambda: make_strategy("theta-rotated-bell", n_parties=3, lam=0.1, theta_prime=7.0),
         "theta_prime must lie in [0, 2*pi)"),
        (lambda: make_strategy("product-guesser", n_parties=65),
         "qubit count must be in [1, 64], got 65"),
        (lambda: Coalition(3.7, [1]), "party count must be an integer, got 3.7"),
        (lambda: make_strategy("product-guesser", n_parties=2.5),
         "qubit count must be an integer, got 2.5"),
        (lambda: make_strategy("product-guesser", n_parties=3, dishonest_count=1.5),
         "dishonest_count must be an integer, got 1.5"),
    ],
    ids=["one-party", "theta-prime", "65-parties", "fractional-coalition",
         "fractional-parties", "fractional-dishonest-count"],
)
def test_coalition_and_strategy_range_errors_are_named(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("index", [0, 1, 3, 7])
def test_averaged_guess_is_one_half_when_a_corner_is_empty(index):
    # |index> on 3 qubits leaves the honest pair (0, 1) in one basis state,
    # so at least one of r00 and rNN is 0 and the coalition can only guess
    state = oracles.basis_state(3, index)
    assert averaged_guess_probability(state, Coalition(3, [2])) == 0.5
