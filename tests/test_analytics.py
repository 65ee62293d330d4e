import math

import numpy as np
import pytest

from ghzverify.adversary import theta_cheat_pass_curve, xy_cheat_pass_curve
from ghzverify.analytics import (
    CHEAT_CURVES,
    TrustModel,
    dishonest_fidelity_bound,
    gme_threshold,
    honest_fidelity_bound,
    max_tolerable_loss,
    verdict,
)
from ghzverify.protocol import PassStats, ProtocolKind

import oracles


def _stats(estimate, stderr, valid=6000):
    passes = int(round(estimate * valid))
    return PassStats(valid, passes, estimate, stderr, (0.0, 0.0, 0.0))


def test_honest_bound_values():
    assert honest_fidelity_bound(0.838) == pytest.approx(0.676, abs=1e-12)
    assert honest_fidelity_bound(1.0) == 1.0
    assert honest_fidelity_bound(0.5) == 0.0
    assert honest_fidelity_bound(0.25) == -0.5  # may be negative, returned as-is


def test_dishonest_bound_values():
    assert dishonest_fidelity_bound(1.0) == 1.0
    assert dishonest_fidelity_bound(0.875) == pytest.approx(0.5, abs=1e-12)
    assert dishonest_fidelity_bound(0.75) == pytest.approx(0.0, abs=1e-12)


def test_bound_ordering():
    for p in np.linspace(0, 1, 50):
        assert dishonest_fidelity_bound(p) <= honest_fidelity_bound(p) + 1e-12


def test_bounds_reject_out_of_range():
    with pytest.raises(ValueError):
        honest_fidelity_bound(1.2)
    with pytest.raises(ValueError):
        dishonest_fidelity_bound(-0.1)


def test_gme_threshold_values():
    dis = TrustModel.DISHONEST_ALLOWED
    assert gme_threshold(ProtocolKind.THETA, dis, 0.0) == pytest.approx(
        0.5 + 1 / np.pi, abs=1e-12
    )
    assert gme_threshold(ProtocolKind.XY, dis, 0.5) == pytest.approx(1.0, abs=1e-12)
    for kind in ProtocolKind:
        assert gme_threshold(kind, TrustModel.ALL_HONEST, 0.0) == 0.75


def test_gme_threshold_is_nondecreasing_in_loss():
    dis = TrustModel.DISHONEST_ALLOWED
    theta_vals = [gme_threshold(ProtocolKind.THETA, dis, l) for l in np.linspace(0, 0.95, 60)]
    assert all(b >= a for a, b in zip(theta_vals, theta_vals[1:]))
    xy_vals = [gme_threshold(ProtocolKind.XY, dis, l) for l in np.linspace(0, 0.5, 60)]
    assert all(b >= a for a, b in zip(xy_vals, xy_vals[1:]))


def test_gme_threshold_domain():
    with pytest.raises(ValueError):
        gme_threshold(ProtocolKind.XY, TrustModel.DISHONEST_ALLOWED, 0.6)
    with pytest.raises(ValueError):
        gme_threshold(ProtocolKind.THETA, TrustModel.DISHONEST_ALLOWED, 1.0)


def test_every_protocol_has_a_cheat_curve_row():
    assert set(CHEAT_CURVES) == set(ProtocolKind)


@pytest.mark.parametrize("kind", list(ProtocolKind))
def test_dishonest_threshold_is_the_row_curve(kind):
    curve, end = CHEAT_CURVES[kind]
    for lam in np.linspace(0.0, end, 41)[:-1]:
        assert gme_threshold(kind, TrustModel.DISHONEST_ALLOWED, lam) == curve(lam)


def test_each_row_ends_where_its_curve_does():
    xy_curve, xy_end = CHEAT_CURVES[ProtocolKind.XY]
    assert xy_curve(xy_end) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        xy_curve(xy_end + 1e-12)
    theta_curve, theta_end = CHEAT_CURVES[ProtocolKind.THETA]
    assert theta_curve(theta_end - 1e-9) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        theta_curve(theta_end)


def test_verdict_three_party_case():
    stats = _stats(0.834, 0.005)
    v = verdict(stats, ProtocolKind.THETA, TrustModel.DISHONEST_ALLOWED)
    assert v.decision == "GME-VERIFIED"
    assert v.margin > 3

    v = verdict(stats, ProtocolKind.XY, TrustModel.DISHONEST_ALLOWED)
    assert v.decision == "INCONCLUSIVE"
    assert v.margin < 0


def test_verdict_at_threshold_is_inconclusive():
    threshold = gme_threshold(ProtocolKind.THETA, TrustModel.DISHONEST_ALLOWED, 0.0)
    v = verdict(_stats(threshold, 0.005), ProtocolKind.THETA, TrustModel.DISHONEST_ALLOWED)
    assert v.decision == "INCONCLUSIVE"
    assert v.margin == pytest.approx(0.0, abs=1e-9)


def test_verdict_zero_stderr_edges():
    v = verdict(_stats(1.0, 0.0), ProtocolKind.THETA, TrustModel.DISHONEST_ALLOWED)
    assert v.decision == "GME-VERIFIED"
    assert math.isinf(v.margin)
    assert v.to_json_dict()["margin"] is None
    threshold = gme_threshold(ProtocolKind.THETA, TrustModel.DISHONEST_ALLOWED, 0.0)
    v = verdict(_stats(threshold, 0.0), ProtocolKind.THETA, TrustModel.DISHONEST_ALLOWED)
    assert v.decision == "INCONCLUSIVE"


def test_verdict_monotone_in_estimate():
    dis = TrustModel.DISHONEST_ALLOWED
    previous_verified = False
    for est in np.linspace(0.80, 0.88, 33):
        v = verdict(_stats(float(est), 0.004), ProtocolKind.THETA, dis)
        verified = v.decision == "GME-VERIFIED"
        assert verified or not previous_verified or est < 0.8  # never flips back
        previous_verified = verified or previous_verified


def test_verdict_respects_sigma_level():
    stats = _stats(0.834, 0.005)
    assert (
        verdict(stats, ProtocolKind.THETA, TrustModel.DISHONEST_ALLOWED, sigma=5).decision
        == "INCONCLUSIVE"
    )


@pytest.mark.parametrize("sigma", [-50, -1e-12, math.nan, math.inf, -math.inf])
def test_verdict_rejects_a_bad_sigma(sigma):
    stats = _stats(0.7, 0.05, valid=10)
    with pytest.raises(ValueError) as info:
        verdict(stats, ProtocolKind.THETA, TrustModel.DISHONEST_ALLOWED, sigma=sigma)
    assert str(info.value) == f"sigma must be a non-negative finite number, got {sigma}"


def test_verdict_takes_a_zero_sigma():
    v = verdict(_stats(0.834, 0.005), ProtocolKind.THETA, TrustModel.DISHONEST_ALLOWED, sigma=0)
    assert v.decision == "GME-VERIFIED" and v.sigma == 0


def test_max_tolerable_loss_near_five_percent():
    lam = max_tolerable_loss(0.834, ProtocolKind.THETA, TrustModel.DISHONEST_ALLOWED)
    assert 0.045 <= lam <= 0.055


def test_max_tolerable_loss_edges():
    dis = TrustModel.DISHONEST_ALLOWED
    at_threshold = gme_threshold(ProtocolKind.THETA, dis, 0.0)
    assert max_tolerable_loss(at_threshold, ProtocolKind.THETA, dis) == pytest.approx(
        0.0, abs=1e-6
    )
    assert max_tolerable_loss(1.0, ProtocolKind.XY, dis) == pytest.approx(0.5, abs=1e-9)
    with pytest.raises(ValueError):
        max_tolerable_loss(0.5, ProtocolKind.THETA, dis)
    for not_a_probability in (np.nan, 1.5, -0.1):
        for trust in TrustModel:
            with pytest.raises(ValueError, match=r"^pass probability must lie in \[0, 1\]$"):
                max_tolerable_loss(not_a_probability, ProtocolKind.THETA, trust)


def test_max_tolerable_loss_bisection_consistency():
    dis = TrustModel.DISHONEST_ALLOWED
    for p in (0.82, 0.85, 0.9, 0.95, 0.99):
        lam = max_tolerable_loss(p, ProtocolKind.THETA, dis)
        assert theta_cheat_pass_curve(lam) == pytest.approx(p, abs=1e-6)
    for p in (0.86, 0.9, 0.95, 0.999):
        lam = max_tolerable_loss(p, ProtocolKind.XY, dis)
        assert xy_cheat_pass_curve(lam) == pytest.approx(p, abs=1e-6)


@pytest.mark.parametrize("kind", list(ProtocolKind))
def test_max_tolerable_loss_equals_the_bisection_on_the_threshold(kind):
    for trust in TrustModel:
        # from the zero-loss threshold itself up to 1
        for p in np.linspace(gme_threshold(kind, trust, 0.0), 1.0, 400):
            assert max_tolerable_loss(p, kind, trust) == oracles.max_tolerable_loss(p, kind, trust)


def test_max_tolerable_loss_all_honest_is_loss_independent():
    hon = TrustModel.ALL_HONEST
    assert max_tolerable_loss(0.75, ProtocolKind.THETA, hon) == 0.0
    assert max_tolerable_loss(0.9, ProtocolKind.XY, hon) == 0.5
    with pytest.raises(ValueError):
        max_tolerable_loss(0.7, ProtocolKind.THETA, hon)


@pytest.mark.parametrize("kind", list(ProtocolKind))
def test_verdict_needs_a_valid_round(kind):
    stats = PassStats(valid=0, passes=0, estimate=0.0, stderr=0.0, loss_rates=(1.0, 0.0))
    with pytest.raises(ValueError, match="verdict needs at least one valid round"):
        verdict(stats, kind, TrustModel.ALL_HONEST)
