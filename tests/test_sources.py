import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ghzverify import adversary, protocol, qstate
from ghzverify.qstate import DensityMatrix, GhzDiagonal, PureState, ghz_state
from ghzverify.sources import (
    FAMILIES,
    SOURCE_KEYS,
    SourceModel,
    alpha_from_mean_pairs,
    calibrate_to_fidelity,
    from_key,
    higher_order_fidelity,
    key_params,
    prepare,
)


# the source families that prepare a GhzDiagonal record, and those that
# prepare a PureState
RECORD_VARIANTS = ("ideal-ghz", "dephased-ghz", "depolarized-ghz", "higher-order-calibrated")
PURE_VARIANTS = ("biseparable-ghz-plus", "rotated-bell-plus")


def test_prepare_yields_valid_density_matrices():
    models = [
        SourceModel("ideal-ghz", 3),
        SourceModel("dephased-ghz", 3, {"p": 0.35}),
        SourceModel("depolarized-ghz", 4, {"v": 0.6}),
        SourceModel("biseparable-ghz-plus", 4),
        SourceModel("rotated-bell-plus", 3, {"theta": np.pi / 4}),
        SourceModel("higher-order-calibrated", 3, {"alpha": 0.22}),
    ]
    for model in models:
        rho = prepare(model)
        record = model.variant in RECORD_VARIANTS
        assert type(rho) is (GhzDiagonal if record else PureState)
        assert rho.n == model.n
        # the dense form passes the density-matrix checks too
        assert rho.to_density().n == model.n


@pytest.mark.parametrize("variant", PURE_VARIANTS)
def test_pure_families_run_up_to_the_pure_cap(variant):
    state = prepare(_FAMILIES[variant](qstate.MAX_PURE_QUBITS, 0.3))
    assert type(state) is PureState and state.n == qstate.MAX_PURE_QUBITS


def test_ideal_model_has_unit_fidelity():
    rho = prepare(SourceModel("ideal-ghz", 3))
    assert qstate.fidelity(rho, ghz_state(3)) == pytest.approx(1.0, abs=1e-12)


def test_biseparable_reduced_fidelity_is_half():
    rho = prepare(SourceModel("biseparable-ghz-plus", 4))
    coalition = adversary.Coalition(4, [3])  # the |+> holder
    assert adversary.best_dishonest_fidelity(rho, coalition) == pytest.approx(
        0.5, abs=1e-9
    )


def test_rotated_bell_plus_reaches_xy_optimum():
    psi = qstate.tensor(ghz_state(2, np.pi / 4), qstate.plus_state(1))
    rho = prepare(SourceModel("rotated-bell-plus", 3, {"theta": np.pi / 4}))
    assert np.array_equal(rho.amplitudes, psi.amplitudes)
    value = adversary.xy_optimal_pass_probability(psi, adversary.Coalition(3, [2]))
    assert value == pytest.approx(adversary.XY_OPTIMUM, abs=1e-9)


def test_alpha_from_mean_pairs():
    assert alpha_from_mean_pairs(0.0) == 0.0
    assert alpha_from_mean_pairs(0.05) == pytest.approx(0.218, abs=5e-4)
    assert alpha_from_mean_pairs(1.0) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    with pytest.raises(ValueError):
        alpha_from_mean_pairs(-0.1)


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
        rho = prepare(SourceModel("higher-order-calibrated", n, {"alpha": alpha}))
        assert qstate.fidelity(rho, ghz_state(n)) == pytest.approx(
            higher_order_fidelity(n, alpha), abs=1e-9
        )


def test_from_key_parsing():
    assert from_key("ideal-ghz", 3) == SourceModel("ideal-ghz", 3)
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
        ("rotated-bell-plus", "theta"),
        ("higher-order", "mean-pairs"),
        ("calibrated:fidelity=0.8", "family"),
        ("calibrated:family=dephased", "fidelity"),
    ]
    for key, param in missing:
        name = key.partition(":")[0]
        with pytest.raises(ValueError, match=f"needs parameter {param}; key syntax: {name}:"):
            from_key(key, 3)
    unaccepted = [
        ("ideal-ghz:p=0.3", "p"),
        ("depolarized-ghz:v=0.9,p=0.1", "p"),
        # an unlisted name is reported before a missing one
        ("depolarized-ghz:p=0.9", "p"),
        ("biseparable-ghz-plus:theta=0.5", "theta"),
        ("calibrated:fidelity=0.8,family=dephased,v=0.9", "v"),
    ]
    for key, param in unaccepted:
        name = key.partition(":")[0]
        expected = f"takes no parameter {param}; key syntax: {name}"
        with pytest.raises(ValueError, match=expected):
            from_key(key, 3)
    with pytest.raises(ValueError, match="takes alpha or mean-pairs, not both; key syntax"):
        from_key("higher-order:alpha=0.2,mean-pairs=0.05", 3)
    with pytest.raises(ValueError, match="given twice"):
        from_key("dephased-ghz:p=0.1,p=0.2", 3)
    for key, param in (
        ("dephased-ghz:p=abc", "p"),
        ("rotated-bell-plus:theta=pi", "theta"),
        ("higher-order:mean-pairs=lots", "mean-pairs"),
        ("rotated-bell-plus:theta=nan", "theta"),
        ("rotated-bell-plus:theta=-inf", "theta"),
    ):
        name = key.partition(":")[0]
        value = key.partition("=")[2]
        with pytest.raises(
            ValueError,
            match=f"source '{name}' parameter {param} must be a finite number, got '{value}'; "
            f"key syntax: {name}:",
        ):
            from_key(key, 3)


# a valid key of every source and strategy; its parameters outside [...] in
# the key syntax are the required ones
VALID_KEYS = {
    ("source", "ideal-ghz"): "ideal-ghz",
    ("source", "dephased-ghz"): "dephased-ghz:p=0.1",
    ("source", "depolarized-ghz"): "depolarized-ghz:v=0.9",
    ("source", "biseparable-ghz-plus"): "biseparable-ghz-plus",
    ("source", "rotated-bell-plus"): "rotated-bell-plus:theta=0.5",
    ("source", "higher-order-calibrated"): "higher-order-calibrated:mean-pairs=0.05",
    ("source", "higher-order"): "higher-order:mean-pairs=0.05",
    ("source", "calibrated"): "calibrated:fidelity=0.8,family=dephased",
    ("strategy", "xy-perfect-loss50"): "xy-perfect-loss50",
    ("strategy", "xy-naive-loss"): "xy-naive-loss",
    ("strategy", "xy-rotated-bell"): "xy-rotated-bell",
    ("strategy", "xy-mixed"): "xy-mixed:lam=0.2",
    ("strategy", "theta-rotated-bell"): "theta-rotated-bell:lam=0.3,theta-prime=0.5",
    ("strategy", "projective-cheat"): "projective-cheat:lam=0.2",
    ("strategy", "product-guesser"): "product-guesser:theta-prime=0.5",
}


def _raises(what, name, syntax, problem):
    message = f"{what} '{name}' {problem}; key syntax: {syntax}"
    return pytest.raises(ValueError, match=f"^{re.escape(message)}$")


@pytest.mark.parametrize(
    "what,name",
    [("source", k) for k in SOURCE_KEYS] + [("strategy", k) for k in adversary.STRATEGIES],
)
def test_every_key_names_a_bad_parameter_and_its_syntax(what, name):
    if what == "source":
        parse, syntax = (lambda key: from_key(key, 3)), SOURCE_KEYS[name].format(name)
    else:
        parse, syntax = (lambda key: adversary.from_key(key, 3)), adversary._syntax(name)
    valid = VALID_KEYS[what, name]
    parse(valid)
    params = dict(item.split("=") for item in valid.partition(":")[2].split(",") if item)
    required = key_params(re.sub(r"\[.*?\]", "", syntax))

    def key_of(values):
        return name + (":" + ",".join(f"{k}={v}" for k, v in values.items()) if values else "")

    with _raises(what, name, syntax, "takes no parameter bogus"):
        parse(key_of({**params, "bogus": "1"}))
    for pname in params:
        if pname in required:
            with _raises(what, name, syntax, f"needs parameter {pname}"):
                parse(key_of({k: v for k, v in params.items() if k != pname}))
        if pname != "family":
            with _raises(what, name, syntax, f"parameter {pname} must be a finite number, "
                         "got 'abc'"):
                parse(key_of({**params, pname: "abc"}))
    # the constructors check the names too, a model against its family's syntax
    if what == "source" and name in FAMILIES:
        own = FAMILIES[name][0].format(name)
        with _raises(what, name, own, "takes no parameter bogus"):
            SourceModel(name, 3, {"bogus": 0.5})
        for pname in key_params(own):
            with _raises(what, name, own, f"needs parameter {pname}"):
                SourceModel(name, 3, {})
    if what == "strategy":
        for pname, given in (("lam", {"lam": 0.1}), ("theta-prime", {"theta_prime": 0.1})):
            if pname not in key_params(syntax):
                with _raises(what, name, syntax, f"takes no parameter {pname}"):
                    adversary.make_strategy(name, n_parties=3, **given)
            elif pname in required:
                with _raises(what, name, syntax, f"needs parameter {pname}"):
                    adversary.make_strategy(name, n_parties=3)


def test_models_check_their_parameters_when_built():
    # test_qstate's test_channel_rejects_bad_parameters covers the noisy families
    for variant, n, params, message in (
        ("biseparable-ghz-plus", 2, {}, "the biseparable model needs at least 3 parties"),
        ("rotated-bell-plus", 2, {"theta": 0.5}, "the rotated-Bell model needs at least 3 parties"),
        ("higher-order-calibrated", 5, {"alpha": 0.2}, "the pump model covers 3 or 4 parties only"),
        ("higher-order-calibrated", 3, {"alpha": 1.0}, "alpha must lie in (0, 1)"),
        ("ideal-ghz", 0, {}, "party count must be positive"),
        ("dephased-ghz", 3, {}, "source 'dephased-ghz' needs parameter p"),
        ("depolarized-ghz", 3, {}, "source 'depolarized-ghz' needs parameter v"),
        ("rotated-bell-plus", 3, {}, "source 'rotated-bell-plus' needs parameter theta"),
        ("higher-order-calibrated", 3, {}, "source 'higher-order-calibrated' needs parameter alpha"),
        ("dephased-ghz", 3, {"p": 0.1, "q": 2}, "source 'dephased-ghz' takes no parameter q"),
        ("ideal-ghz", 3, {"p": 0.1}, "source 'ideal-ghz' takes no parameter p"),
        # from_key turns the key's mean-pairs into the model's alpha
        ("higher-order-calibrated", 3, {"mean-pairs": 0.1},
         "source 'higher-order-calibrated' takes no parameter mean-pairs"),
        ("dephased-ghz", 3, {"p": "abc"}, "source 'dephased-ghz' parameter p must be a finite "
         "number, got 'abc'; key syntax: dephased-ghz:p=<0..1>"),
        ("rotated-bell-plus", 3, {"theta": float("nan")}, "source 'rotated-bell-plus' parameter "
         "theta must be a finite number, got nan; key syntax: rotated-bell-plus:theta=<radians>"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            SourceModel(variant, n, params)
    # parameters are held as floats, so a numpy scalar keeps the key syntax
    assert SourceModel("dephased-ghz", 3, {"p": np.float64(0.25)}).key() == "dephased-ghz:p=0.25"


def test_model_key_round_trip():
    model = SourceModel("dephased-ghz", 3, {"p": 0.25})
    assert from_key(model.key(), 3) == model


# a model of every source family from a parameter x in [0, 1]
_FAMILIES = {
    "ideal-ghz": lambda n, x: SourceModel("ideal-ghz", n),
    "dephased-ghz": lambda n, x: SourceModel("dephased-ghz", n, {"p": x}),
    "depolarized-ghz": lambda n, x: SourceModel("depolarized-ghz", n, {"v": x}),
    "biseparable-ghz-plus": lambda n, x: SourceModel("biseparable-ghz-plus", n),
    "rotated-bell-plus": lambda n, x: SourceModel(
        "rotated-bell-plus", n, {"theta": 2 * np.pi * x - np.pi}
    ),
    "higher-order-calibrated": lambda n, x: SourceModel(
        "higher-order-calibrated", n, {"alpha": 0.001 + 0.998 * x}
    ),
}


def test_families_cover_every_variant():
    assert set(_FAMILIES) == set(FAMILIES)


@settings(max_examples=200, deadline=None)
@given(
    variant=st.sampled_from(sorted(_FAMILIES)),
    n=st.integers(3, 4),
    x=st.floats(0.0, 1.0),
    pname=st.text("abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=12),
)
def test_model_keys_round_trip_and_reject_unaccepted_parameters(variant, n, x, pname):
    model = _FAMILIES[variant](n, x)
    key = model.key()
    assert from_key(key, n) == model
    assume(pname not in key_params(SOURCE_KEYS[variant]))
    with pytest.raises(ValueError):
        from_key(key + ("," if model.params else ":") + f"{pname}=0.5", n)


@pytest.mark.parametrize("n", range(3, 8))
@pytest.mark.parametrize("variant", PURE_VARIANTS)
def test_pure_sources_sample_the_bits_of_their_dense_matrix(variant, n):
    """The dense matrix is the oracle of the vector a pure family prepares:
    on shared seeds both give the same bits, losses and pass bits, for honest
    parties and for projective-cheat coalitions of one and two."""
    psi = prepare(_FAMILIES[variant](n, 0.3))
    rho = psi.to_density()
    runs = (
        (None, "theta", 0.0),
        (None, "xy", 0.0),
        (None, "theta", 0.1),
        (adversary.from_key("projective-cheat:lam=0.1", n, 1), "theta", 0.0),
        (adversary.from_key("projective-cheat:lam=0.2,theta-prime=0.5", n, 2), "xy", 0.05),
    )
    for seed, (strategy, kind, loss) in enumerate(runs):
        pure, dense = (
            protocol.run_rounds(s, strategy, kind, 300, seed, honest_loss=loss) for s in (psi, rho)
        )
        for column in ("bits", "lost", "passed"):
            assert np.array_equal(getattr(pure, column), getattr(dense, column))


@pytest.mark.parametrize("variant", list(FAMILIES))
def test_prepare_validates_one_density_matrix(variant, monkeypatch):
    """No source builds a dense matrix.  A pure source validates its vector
    and the two factors it is the tensor product of.  A record source
    validates the GHZ record and, in O(1), its image under the source's
    channel, if any."""
    validated = []
    for cls in (PureState, DensityMatrix, GhzDiagonal):

        def counted(self, check=cls.__post_init__):
            validated.append((type(self), self.n))
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    state = prepare(_FAMILIES[variant](4, 0.3))
    if variant == "biseparable-ghz-plus":
        assert validated == [(PureState, 3), (PureState, 1), (PureState, 4)]
    elif variant == "rotated-bell-plus":
        assert validated == [(PureState, 2), (PureState, 2), (PureState, 4)]
    else:
        assert validated == [(GhzDiagonal, 4)] * (1 if variant == "ideal-ghz" else 2)


@pytest.mark.parametrize("n", [3, 6, 10])
def test_noisy_sources_are_bit_identical_to_the_channel_formulas(n):
    amps = ghz_state(n).amplitudes
    projector = np.outer(amps, amps.conj())
    dephased = projector.copy()
    dephased[0, -1] *= 1.0 - 0.2
    dephased[-1, 0] *= 1.0 - 0.2
    depolarized = 0.8 * projector + (1.0 - 0.8) * np.eye(2**n) / 2**n
    for model, expected in (
        (SourceModel("ideal-ghz", n), projector),
        (SourceModel("dephased-ghz", n, {"p": 0.2}), dephased),
        (SourceModel("depolarized-ghz", n, {"v": 0.8}), depolarized),
    ):
        assert np.array_equal(prepare(model).to_density().entries, expected)
