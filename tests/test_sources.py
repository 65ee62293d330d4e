import numpy as np
import pytest

from ghzverify import adversary, qstate
from ghzverify.qstate import DensityMatrix, ghz_state
from ghzverify.sources import (
    PumpParams,
    SourceModel,
    alpha_from_mean_pairs,
    calibrate_to_fidelity,
    from_key,
    higher_order_fidelity,
    prepare,
)


def test_prepare_yields_valid_density_matrices():
    models = [
        SourceModel.ideal(3),
        SourceModel.dephased(3, 0.35),
        SourceModel.depolarized(4, 0.6),
        SourceModel.biseparable_plus(4),
        SourceModel.rotated_bell_plus(np.pi / 4, 3),
        SourceModel.higher_order(3, 0.22),
    ]
    for model in models:
        rho = prepare(model)
        assert isinstance(rho, DensityMatrix)
        assert rho.n == model.n


def test_ideal_model_has_unit_fidelity():
    rho = prepare(SourceModel.ideal(3))
    assert qstate.fidelity(rho, ghz_state(3)) == pytest.approx(1.0, abs=1e-12)


def test_biseparable_reduced_fidelity_is_half():
    rho = prepare(SourceModel.biseparable_plus(4))
    coalition = adversary.Coalition(4, [3])  # the |+> holder
    assert adversary.best_dishonest_fidelity(rho, coalition) == pytest.approx(
        0.5, abs=1e-9
    )


def test_rotated_bell_plus_reaches_xy_optimum():
    psi = qstate.tensor(ghz_state(2, np.pi / 4), qstate.plus_state(1))
    rho = prepare(SourceModel.rotated_bell_plus(np.pi / 4, 3))
    assert np.allclose(rho.entries, psi.to_density().entries, atol=1e-12)
    value = adversary.xy_optimal_pass_probability(psi, adversary.Coalition(3, [2]))
    assert value == pytest.approx(adversary.XY_OPTIMUM, abs=1e-9)


def test_alpha_from_mean_pairs():
    assert alpha_from_mean_pairs(0.0) == 0.0
    assert alpha_from_mean_pairs(0.05) == pytest.approx(0.218, abs=5e-4)
    assert alpha_from_mean_pairs(1.0) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    with pytest.raises(ValueError):
        alpha_from_mean_pairs(-0.1)


def test_pump_params_derivation():
    pump = PumpParams.from_mean_pairs(0.05)
    assert pump.alpha == alpha_from_mean_pairs(0.05)


def test_higher_order_fidelity_values():
    alpha = alpha_from_mean_pairs(0.05)
    assert higher_order_fidelity(4, alpha) == pytest.approx(0.89, abs=5e-3)
    assert higher_order_fidelity(3, alpha) == pytest.approx(0.88, abs=5e-3)
    assert higher_order_fidelity(4, 1e-9) == pytest.approx(1.0, abs=1e-9)


def test_higher_order_fidelity_matches_unsimplified_forms(rng):
    # the implementation uses the cancelled forms; check against the ratios
    for alpha in rng.uniform(0.05, 0.95, 20):
        assert higher_order_fidelity(4, alpha) == pytest.approx(
            2 * alpha**4 / (2 * alpha**4 + 5 * alpha**6), abs=1e-12
        )
        assert higher_order_fidelity(3, alpha) == pytest.approx(
            alpha**4 / (alpha**4 + 2.75 * alpha**6), abs=1e-12
        )


def test_higher_order_fidelity_is_strictly_decreasing():
    grid = np.linspace(0.01, 0.99, 60)
    for n in (3, 4):
        vals = [higher_order_fidelity(n, a) for a in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_higher_order_fidelity_input_validation():
    with pytest.raises(ValueError):
        higher_order_fidelity(5, 0.2)
    with pytest.raises(ValueError):
        higher_order_fidelity(4, 0.0)
    with pytest.raises(ValueError):
        higher_order_fidelity(4, 1.0)


def test_calibrate_dephased_point():
    model = calibrate_to_fidelity(3, 0.80, "dephased")
    assert model.params["p"] == pytest.approx(0.4, abs=1e-12)
    rho = prepare(model)
    assert qstate.fidelity(rho, ghz_state(3)) == pytest.approx(0.80, abs=1e-9)


def test_calibrate_depolarized_point():
    model = calibrate_to_fidelity(4, 0.70, "depolarized")
    assert model.params["v"] == pytest.approx((0.70 - 1 / 16) / (15 / 16), abs=1e-12)
    rho = prepare(model)
    assert qstate.fidelity(rho, ghz_state(4)) == pytest.approx(0.70, abs=1e-9)


def test_calibrate_unit_fidelity_is_ideal():
    for family in ("dephased", "depolarized"):
        rho = prepare(calibrate_to_fidelity(3, 1.0, family))
        assert qstate.fidelity(rho, ghz_state(3)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("family", ["dephased", "depolarized"])
def test_calibration_round_trips_across_grid(family):
    lo = 0.5 if family == "dephased" else 2.0**-3
    for target in np.linspace(lo, 1.0, 11):
        rho = prepare(calibrate_to_fidelity(3, float(target), family))
        assert qstate.fidelity(rho, ghz_state(3)) == pytest.approx(
            float(target), abs=1e-9
        )


def test_calibrate_range_errors():
    with pytest.raises(ValueError):
        calibrate_to_fidelity(3, 0.4, "dephased")
    with pytest.raises(ValueError):
        calibrate_to_fidelity(3, 0.05, "depolarized")
    with pytest.raises(ValueError):
        calibrate_to_fidelity(3, 0.9, "unitary")


def test_higher_order_surrogate_matches_model_fidelity():
    alpha = alpha_from_mean_pairs(0.05)
    for n in (3, 4):
        rho = prepare(SourceModel.higher_order(n, alpha))
        assert qstate.fidelity(rho, ghz_state(n)) == pytest.approx(
            higher_order_fidelity(n, alpha), abs=1e-9
        )


def test_from_key_parsing():
    assert from_key("ideal-ghz", 3) == SourceModel.ideal(3)
    assert from_key("dephased-ghz:p=0.2", 3).params["p"] == 0.2
    assert from_key("depolarized-ghz:v=0.9", 4).params["v"] == 0.9
    assert from_key("rotated-bell-plus:theta=0.5", 3).params["theta"] == 0.5
    assert from_key("higher-order:mean-pairs=0.05", 4).params["alpha"] == pytest.approx(
        alpha_from_mean_pairs(0.05)
    )
    model = from_key("calibrated:fidelity=0.8,family=dephased", 3)
    assert model.variant == "dephased-ghz"
    with pytest.raises(ValueError):
        from_key("stabilizer-farm", 3)
    with pytest.raises(ValueError):
        from_key("dephased-ghz:p", 3)
    missing = [
        ("dephased-ghz", "p"),
        ("depolarized-ghz:p=0.9", "v"),
        ("rotated-bell-plus", "theta"),
        ("higher-order", "mean-pairs"),
        ("calibrated:fidelity=0.8", "family"),
        ("calibrated:family=dephased", "fidelity"),
    ]
    for key, param in missing:
        name = key.partition(":")[0]
        with pytest.raises(ValueError, match=f"needs parameter {param}; key syntax: {name}:"):
            from_key(key, 3)


def test_model_key_round_trip():
    model = SourceModel.dephased(3, 0.25)
    assert from_key(model.key(), 3) == model
