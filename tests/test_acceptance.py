"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report including runtimes.  Statistical checks use fixed seeds, so results
are reproducible.
"""

import time

import numpy as np

from ghzverify import adversary, analytics, protocol, qstate, simnet, sources
from ghzverify.analytics import TrustModel
from ghzverify.cli import main as cli_main
from ghzverify.protocol import PassStats, ProtocolKind

from conftest import random_density, random_pure


def _report(num: int, title: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({title}): {detail}")
    assert ok, f"criterion {num} ({title}): {detail}"


def test_criterion_01_ideal_correctness():
    # runtime budgets are asserted on process CPU time, which measures the
    # implementation's cost independently of machine contention; wall time is
    # reported alongside
    wall0, cpu0 = time.perf_counter(), time.process_time()
    rounds = 10_000
    for n in range(2, 7):
        state = qstate.ghz_state(n)
        rho = state.to_density()
        assert abs(protocol.exact_pass_probability(rho, "theta") - 1.0) <= 1e-12
        assert abs(protocol.exact_pass_probability(rho, "xy") - 1.0) <= 1e-12
        for kind in ProtocolKind:
            stats = protocol.estimate_pass_probability(state, None, kind, rounds, 1000 + n)
            assert stats.estimate == 1.0 and stats.valid == rounds, (n, kind)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    _report(
        1,
        "ideal correctness",
        cpu < 10.0,
        f"n=2..6 both protocols, {rounds} rounds each all passed, "
        f"{cpu:.1f}s cpu ({wall:.1f}s wall)",
    )


def test_criterion_02_povm_monte_carlo_equivalence():
    wall0, cpu0 = time.perf_counter(), time.process_time()
    rng = np.random.default_rng(8420)
    assignments = 100_000
    shot_rounds = 20_000
    worst_a = worst_b = 0.0
    for i in range(20):
        rho = random_density(3, rng)
        exact = protocol.exact_pass_probability(rho, "theta")

        free = rng.uniform(0.0, np.pi, (assignments, 2))
        vals = np.empty(assignments)
        for s in range(assignments):
            angles = (free[s, 0], free[s, 1], float((-free[s].sum()) % np.pi))
            vals[s] = qstate.setting_pass_probability(rho, angles)
        stderr_a = vals.std() / np.sqrt(assignments)
        dev_a = abs(vals.mean() - exact) / max(stderr_a, 1e-15)
        worst_a = max(worst_a, dev_a)
        assert dev_a < 4.0, f"state {i}: setting average off by {dev_a:.2f} stderr"

        stats = protocol.estimate_pass_probability(
            rho, None, ProtocolKind.THETA, shot_rounds, 9000 + i
        )
        dev_b = abs(stats.estimate - exact) / max(stats.stderr, 1e-15)
        worst_b = max(worst_b, dev_b)
        assert dev_b < 4.0, f"state {i}: single-shot estimate off by {dev_b:.2f} stderr"
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    _report(
        2,
        "POVM / Monte Carlo equivalence",
        cpu < 120.0,
        f"20 states, worst deviations {worst_a:.2f} / {worst_b:.2f} stderr, "
        f"{cpu:.1f}s cpu ({wall:.1f}s wall)",
    )


def test_criterion_03_honest_fidelity_bound():
    rng = np.random.default_rng(31)
    worst = -np.inf
    count = 0
    for n in (2, 3, 4):
        target = qstate.ghz_state(n).to_density()
        for _ in range(34 if n == 2 else 33):
            rho = random_density(n, rng)
            fid = qstate.fidelity(rho, target)
            for exact in (
                protocol.exact_pass_probability(rho, "theta"),
                protocol.exact_pass_probability(rho, "xy"),
            ):
                slack = fid - (2.0 * exact - 1.0)
                worst = max(worst, -slack)
                assert slack >= -1e-9
            count += 1
    _report(3, "honest fidelity bound", count == 100, f"{count} states, max violation {worst:.2e}")


def test_criterion_04_dishonest_guessing_bound():
    rng = np.random.default_rng(42)
    splits = [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]
    worst = -np.inf
    count = 0
    for n, k in splits:
        coalition = adversary.Coalition(n, range(k, n))
        for _ in range(20):
            psi = random_pure(n, rng)
            guess = adversary.averaged_guess_probability(psi, coalition)
            bound = 0.75 + 0.25 * adversary.best_dishonest_fidelity(psi, coalition)
            worst = max(worst, guess - bound)
            assert guess <= bound + 1e-6
            count += 1
    _report(
        4,
        "dishonest guessing bound",
        count == 100,
        f"{count} states across splits, max excess {worst:.2e}",
    )


def test_criterion_05_optimal_cheat_thresholds():
    psi = qstate.tensor(qstate.ghz_state(2, np.pi / 4), qstate.plus_state(1))
    xy_exact = adversary.xy_optimal_pass_probability(psi, adversary.Coalition(3, [2]))
    assert abs(xy_exact - np.cos(np.pi / 8) ** 2) <= 1e-9

    strat = adversary.make_strategy("product-guesser", n_parties=3, theta_prime=np.pi / 4)
    stats = protocol.estimate_pass_probability(
        None, strat, ProtocolKind.THETA, 100_000, 55
    )
    target = 0.5 + 1.0 / np.pi
    dev = abs(stats.estimate - target) / stats.stderr
    assert dev < 3.0, f"theta product strategy off by {dev:.2f} sigma"
    _report(
        5,
        "optimal-cheat thresholds",
        True,
        f"xy exact {xy_exact:.9f}, theta simulated {stats.estimate:.5f} ({dev:.2f} sigma)",
    )


def test_criterion_06_loss_curves():
    wall0, cpu0 = time.perf_counter(), time.process_time()
    rounds = 100_000
    details = []
    for lam in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
        strat = adversary.make_strategy("xy-mixed", n_parties=3, lam=lam)
        stats = protocol.estimate_pass_probability(
            None, strat, ProtocolKind.XY, rounds, 600 + int(lam * 10)
        )
        target = adversary.xy_cheat_pass_curve(lam)
        if lam == 0.5:
            assert stats.estimate == 1.0 and stats.passes == stats.valid
        else:
            dev = abs(stats.estimate - target) / stats.stderr
            assert dev < 3.0, f"xy lam={lam}: {dev:.2f} sigma"
        details.append(f"xy({lam})ok")
    for lam in (0.0, 0.2, 0.4, 0.6, 0.8):
        strat = adversary.make_strategy("theta-rotated-bell", n_parties=3, lam=lam)
        stats = protocol.estimate_pass_probability(
            None, strat, ProtocolKind.THETA, rounds, 700 + int(lam * 10)
        )
        target = 0.5 + np.sin(np.pi * (1 - lam) / 2) / (np.pi * (1 - lam))
        dev = abs(stats.estimate - target) / stats.stderr
        assert dev < 3.0, f"theta lam={lam}: {dev:.2f} sigma"
        details.append(f"theta({lam})ok")
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    _report(
        6,
        "loss curves",
        cpu < 300.0,
        f"{' '.join(details)}, {cpu:.1f}s cpu ({wall:.1f}s wall)",
    )


def test_criterion_07_loss_tolerance_crossing():
    lam = analytics.max_tolerable_loss(0.834, ProtocolKind.THETA, TrustModel.DISHONEST_ALLOWED)
    _report(7, "loss-tolerance crossing", 0.045 <= lam <= 0.055, f"lambda* = {lam:.6f}")


def test_criterion_08_higher_order_fidelities():
    alpha = sources.alpha_from_mean_pairs(0.05)
    f4 = sources.higher_order_fidelity(4, alpha)
    f3 = sources.higher_order_fidelity(3, alpha)
    ok = abs(f4 - 0.892) <= 0.005 and abs(f3 - 0.883) <= 0.005
    _report(8, "higher-order fidelities", ok, f"F4 = {f4:.4f}, F3 = {f3:.4f}")


def test_criterion_09_fidelity_bound_reproduction():
    b1 = analytics.honest_fidelity_bound(0.838)
    b2 = analytics.honest_fidelity_bound(0.834)
    ok = abs(b1 - 0.676) < 1e-12 and abs(b2 - 0.668) < 1e-12
    _report(9, "fidelity-bound reproduction", ok, f"bounds {b1:.3f}, {b2:.3f}")


def test_criterion_10_verdict_logic():
    stats = PassStats(6000, 5004, 0.834, 0.005, (0.0, 0.0, 0.0))
    v_theta = analytics.verdict(stats, ProtocolKind.THETA, TrustModel.DISHONEST_ALLOWED)
    v_xy = analytics.verdict(stats, ProtocolKind.XY, TrustModel.DISHONEST_ALLOWED)
    ok = v_theta.decision == "GME-VERIFIED" and v_xy.decision == "INCONCLUSIVE"
    _report(
        10,
        "verdict logic",
        ok,
        f"theta margin {v_theta.margin:.2f} -> {v_theta.decision}; "
        f"xy margin {v_xy.margin:.2f} -> {v_xy.decision}",
    )


def test_criterion_11_audit():
    rounds = 10_000
    naive = adversary.make_strategy("xy-naive-loss", n_parties=3)
    config = simnet.SessionConfig(
        3, ProtocolKind.XY, rounds, 1100, strategy=naive, lambda_max=0.6
    )
    naive_audit = simnet.run_session(config).audits[2]
    assert naive_audit.status == "flagged" and naive_audit.p_value < 0.01

    p_values = []
    for seed in range(20):
        mixed = adversary.make_strategy("xy-perfect-loss50", n_parties=3)
        config = simnet.SessionConfig(
            3, ProtocolKind.XY, rounds, 2200 + seed, strategy=mixed, lambda_max=0.6
        )
        audit = simnet.run_session(config).audits[2]
        p_values.append(audit.p_value)
    mean_p = float(np.mean(p_values))
    ok = mean_p > 0.05
    _report(
        11,
        "loss-pattern audit",
        ok,
        f"naive p = {naive_audit.p_value:.2e} flagged; mixed mean p = {mean_p:.3f} over 20 seeds",
    )


def test_criterion_12_deterministic_outputs(tmp_path):
    args = [
        "curves",
        "--lambda-grid", "0,0.25,0.5",
        "--rounds", "2000",
        "--seed", "77",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    ok = a.read_bytes() == b.read_bytes()
    _report(12, "deterministic outputs", ok, f"{len(a.read_bytes())} identical bytes")
