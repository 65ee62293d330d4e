import dataclasses
import json

import numpy as np
import pytest

from ghzverify import adversary, analytics, protocol, simnet, sources
from ghzverify.protocol import LOSS, ProtocolKind
from ghzverify.simnet import SessionConfig, Transcript, run_session

import oracles


def _config(**overrides):
    defaults = dict(
        n_parties=3,
        kind=ProtocolKind.XY,
        rounds=400,
        seed=97,
        source=sources.SourceModel("ideal-ghz", 3),
    )
    defaults.update(overrides)
    return SessionConfig(
        defaults.pop("n_parties"),
        defaults.pop("kind"),
        defaults.pop("rounds"),
        defaults.pop("seed"),
        **defaults,
    )


def test_honest_session_passes_every_round():
    transcript = run_session(_config(rounds=1000))
    assert transcript.stats.estimate == 1.0
    assert transcript.stats.valid == 1000
    assert all(rate == 0.0 for rate in transcript.stats.loss_rates)
    assert not any(transcript.loss_flags)


def test_session_config_validation():
    with pytest.raises(ValueError):
        _config(rounds=0)
    with pytest.raises(ValueError):
        _config(lambda_max=1.0)
    # a coalition leaves a party honest, so the Verifier, party 0, is never in it
    with pytest.raises(ValueError, match="dishonest_count must be at most n_parties - 1 = 2"):
        adversary.make_strategy("xy-perfect-loss50", n_parties=3, dishonest_count=3)


@pytest.mark.parametrize("seed", [-5, 1.5])
def test_session_config_rejects_a_bad_seed(seed):
    with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed!r}"):
        _config(seed=seed)


def test_session_config_places_the_strategy_on_the_last_parties():
    strat = adversary.make_strategy(
        "theta-rotated-bell", n_parties=4, dishonest_count=2, lam=0.3, theta_prime=0.5
    )
    config = SessionConfig(4, "theta", 10, 1, strategy=strat)
    assert config.kind is ProtocolKind.THETA
    assert config.dishonest_parties() == (2, 3)
    doc = config.describe()
    assert doc["strategy"] == "theta-rotated-bell:lam=0.3,theta-prime=0.5"
    assert doc["dishonest_parties"] == [2, 3]
    assert SessionConfig(4, "theta", 10, 1).dishonest_parties() == ()
    with pytest.raises(ValueError, match="built for 4 parties, the session has 3"):
        SessionConfig(3, "theta", 10, 1, strategy=strat)
    with pytest.raises(ValueError, match="source covers 3 parties, the session has 4"):
        SessionConfig(4, "theta", 10, 1, source=sources.SourceModel("ideal-ghz", 3))


def test_hidden_cheat_passes_undetected():
    strat = adversary.make_strategy("xy-perfect-loss50", n_parties=3)
    transcript = run_session(
        _config(rounds=10_000, strategy=strat, source=None, lambda_max=0.5)
    )
    assert transcript.stats.estimate == 1.0
    assert transcript.stats.loss_rates[2] == pytest.approx(0.5, abs=0.02)
    assert not transcript.loss_flags[2]
    audit = transcript.audits[2]
    assert audit.status == "ok" and audit.p_value > 0.01


def test_naive_cheat_is_flagged():
    strat = adversary.make_strategy("xy-naive-loss", n_parties=3)
    transcript = run_session(_config(rounds=4000, strategy=strat, source=None))
    audit = transcript.audits[2]
    assert audit.status == "flagged"
    assert audit.p_value < 0.01


def test_honest_iid_loss_not_flagged():
    transcript = run_session(_config(rounds=4000, honest_loss=0.1))
    for party in range(3):
        audit = transcript.audits[party]
        assert audit.status == "ok"
        assert audit.p_value > 0.01


def test_theta_rotated_bell_loss_pattern_not_flagged():
    strat = adversary.make_strategy("theta-rotated-bell", n_parties=3, lam=0.3)
    transcript = run_session(
        _config(kind=ProtocolKind.THETA, rounds=4000, strategy=strat, source=None)
    )
    audit = transcript.audits[2]
    assert audit.test == "kolmogorov-smirnov"
    assert audit.status == "ok"


def test_audit_insufficient_data_below_100_losses():
    transcript = run_session(_config(rounds=300, honest_loss=0.05))
    assert all(a.status == "insufficient-data" for a in transcript.audits.values())


def test_loss_cap_flag_raised_when_exceeded():
    strat = adversary.make_strategy("xy-perfect-loss50", n_parties=3)
    transcript = run_session(
        _config(rounds=4000, strategy=strat, source=None, lambda_max=0.3)
    )
    assert transcript.loss_flags[2]


def test_session_matches_protocol_estimate():
    model = sources.SourceModel("dephased-ghz", 3, {"p": 0.4})
    rho = sources.prepare(model)
    config = _config(kind=ProtocolKind.THETA, rounds=600, seed=303, source=model)
    transcript = run_session(config)
    direct = protocol.estimate_pass_probability(
        rho, None, ProtocolKind.THETA, 600, 303
    )
    assert transcript.stats == direct


def test_session_is_byte_deterministic():
    strat = adversary.make_strategy("xy-mixed", n_parties=3, lam=0.2)
    a = run_session(_config(rounds=500, strategy=strat, source=None))
    b = run_session(_config(rounds=500, strategy=strat, source=None))
    assert a.messages_jsonl() == b.messages_jsonl()
    assert a.records_jsonl() == b.records_jsonl()
    assert a.summary_json() == b.summary_json()


def test_message_log_covers_every_round():
    config = _config(rounds=50)
    transcript = run_session(config)
    for rec in oracles.rows(transcript.records, transcript.config.kind):
        angle_msgs = [
            m
            for m in transcript.messages()
            if m["type"] == "angle" and m["round"] == rec.index
        ]
        outcome_msgs = [
            m
            for m in transcript.messages()
            if m["type"] == "outcome" and m["round"] == rec.index
        ]
        assert {m["party"] for m in angle_msgs} == {0, 1, 2}
        assert {m["party"] for m in outcome_msgs} == {0, 1, 2}
        for m in angle_msgs:
            assert m["theta"] == rec.assignment.angles[m["party"]]
        for m in outcome_msgs:
            assert m["outcome"] == rec.outcomes[m["party"]]


def test_round_scoring_is_order_independent(rng):
    """The verifier's pass bit depends only on the set of outcome messages."""
    transcript = run_session(_config(rounds=100, honest_loss=0.1))
    for rec in oracles.rows(transcript.records, transcript.config.kind):
        collected = list(enumerate(rec.outcomes))
        for _ in range(3):
            rng.shuffle(collected)
            outcomes = [None] * len(collected)
            for party, outcome in collected:
                outcomes[party] = outcome
            if any(o == LOSS for o in outcomes):
                assert rec.passed is None
            else:
                assert oracles.parity_test(rec.assignment, outcomes) == rec.passed


def test_abort_message_emitted_on_loss():
    transcript = run_session(_config(rounds=200, honest_loss=0.2))
    lossy_rounds = {rec.index for rec in oracles.rows(transcript.records, transcript.config.kind) if rec.passed is None}
    abort_rounds = {m["round"] for m in transcript.messages() if m["type"] == "abort"}
    assert abort_rounds == lossy_rounds


def test_message_log_matches_stored_message_oracle():
    strat = adversary.make_strategy("xy-mixed", n_parties=3, lam=0.3)
    transcript = run_session(
        _config(rounds=300, seed=5, strategy=strat, source=None, honest_loss=0.1)
    )
    assert any(rec.passed is None for rec in oracles.rows(transcript.records, transcript.config.kind))
    assert transcript.messages_jsonl() == oracles.messages_jsonl(transcript)


def test_records_file_matches_the_row_oracle():
    strat = adversary.make_strategy("theta-rotated-bell", n_parties=4, dishonest_count=2,
                                    lam=0.4)
    transcript = run_session(_config(n_parties=4, kind=ProtocolKind.THETA, rounds=300, seed=8,
                                     strategy=strat, source=None, honest_loss=0.1))
    assert any(rec.passed is None for rec in oracles.rows(transcript.records, transcript.config.kind))
    assert transcript.records_jsonl() == oracles.records_jsonl(transcript)


def test_summary_is_json_parseable():
    transcript = run_session(_config(rounds=120))
    doc = json.loads(transcript.summary_json())
    assert doc["config"]["protocol"] == "xy"
    assert doc["stats"]["valid_rounds"] == 120
    assert not doc["loss_cap"]["violated"]


def test_transcript_stores_only_its_rounds_and_computes_views_on_first_read():
    assert [f.name for f in dataclasses.fields(Transcript)] == ["config", "records", "state"]
    transcript = run_session(_config(rounds=300, honest_loss=0.05))
    assert not {"stats", "loss_flags", "audits"} & set(vars(transcript))
    for view in ("stats", "loss_flags", "audits"):
        assert getattr(transcript, view) is getattr(transcript, view)


def test_an_all_lost_session_fails_on_the_first_read_of_its_stats():
    transcript = run_session(_config(rounds=2, seed=1, honest_loss=0.9))
    assert transcript.records.lost.any(axis=1).all()
    with pytest.raises(ValueError, match="every round had loss"):
        transcript.stats


@pytest.mark.parametrize("kind", list(ProtocolKind))
def test_verdict_takes_the_larger_of_the_assumed_loss_and_the_aborted_share(kind):
    heavy = run_session(_config(kind=kind, rounds=400, honest_loss=0.3))
    aborted = 1.0 - heavy.stats.valid / 400  # about 1 - 0.7**3
    assert aborted > 0.5
    # under xy the aborted share counts up to 1/2 where coalitions may cheat
    expected = 0.5 if kind is ProtocolKind.XY else aborted
    assert heavy.verdict("dishonest-allowed").lam == expected
    # the all-honest threshold is 3/4 at any loss: the share is not capped
    assert heavy.verdict("all-honest").lam == aborted
    light = run_session(_config(kind=kind, rounds=400, honest_loss=0.05))
    assert 1.0 - light.stats.valid / 400 < 0.4
    got = light.verdict("all-honest", assumed_loss=0.4, sigma=2.0)
    assert got == analytics.verdict(light.stats, kind, "all-honest", 0.4, 2.0)


def _xy_rounds(angle0, lost0):
    """200 rounds of 3 parties, party 0 at the given angles and losses, the
    others at angle 0 with no loss."""
    m = 200
    angles = np.zeros((m, 3))
    angles[:, 0] = angle0
    lost = np.zeros((m, 3), dtype=bool)
    lost[:, 0] = lost0
    zeros = np.zeros(m, dtype=np.int8)
    return protocol.Rounds(angles, np.zeros((m, 3), dtype=np.int8), lost, zeros)


@pytest.mark.parametrize(
    "angle0,lost0,losses",
    [
        (0.0, np.arange(200) < 150, 150),  # one basis only: a row of the table is empty
        (np.tile([0.0, np.pi / 2], 100), True, 200),  # every round lost: a column is empty
    ],
    ids=["one-basis", "every-round-lost"],
)
def test_xy_audit_of_a_degenerate_table_is_ok(angle0, lost0, losses):
    audits = simnet.audit_records(_xy_rounds(angle0, lost0), ProtocolKind.XY)
    assert audits[0] == simnet.PartyAudit(0, losses, "ok", "chi-square", 1.0)
