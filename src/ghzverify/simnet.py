"""Session harness: the Verifier, parties and source exchanging messages over
an ideal classical network, with loss caps and cheat-detection audits.

Each round the Verifier samples an assignment, sends one angle per party,
collects one outcome (or loss declaration) per party, and scores the round.
A session runs its rounds through ``protocol.run_rounds`` with its seed, so
its statistics coincide with ``protocol.estimate_pass_probability`` under
the same seed, and the Verifier's scoring depends only on the set of
collected responses, not their order.  A transcript stores only the
session's config, its rounds as arrays (``protocol.Rounds``) and the source
state.  Statistics, loss flags and audits are views computed from the rounds
on first read, and ``Transcript.verdict`` bounds the verdict's loss rate by
the share of aborted rounds.  The records file and the message log are each
written from their own walk over the rows (``Transcript.records_jsonl``,
``Transcript.messages``), with each round's delivery order drawn from a
dedicated seeded stream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from . import analytics, sources
from .adversary import CheatStrategy
from .protocol import LOSS, PassStats, ProtocolKind, Rounds, check_honest_loss, run_rounds
from .qstate import State, check_count

BROADCAST = -1
VERIFIER = 0

AUDIT_MIN_LOSSES = 100
AUDIT_SIGNIFICANCE = 0.01


@dataclass(frozen=True)
class SessionConfig:
    """Everything needed to reproduce a session byte for byte.

    ``strategy`` (None when every party is honest) is played by the last
    ``strategy.dishonest_count`` parties.  A strategy leaves at least one
    party honest, so the Verifier, party ``VERIFIER`` = 0, is never among them.
    """

    n_parties: int
    kind: ProtocolKind
    rounds: int
    seed: int
    strategy: CheatStrategy | None = None
    source: sources.SourceModel | None = None
    lambda_max: float = 0.5
    honest_loss: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "kind", ProtocolKind(self.kind))
        check_count(self.rounds, "rounds")
        if self.rounds < 1:
            raise ValueError("need at least one round")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not 0.0 <= self.lambda_max < 1.0:
            raise ValueError("lambda_max must lie in [0, 1)")
        check_honest_loss(self.honest_loss)
        if self.strategy is not None and self.strategy.n_parties != self.n_parties:
            raise ValueError(
                f"strategy {self.strategy.name!r} is built for "
                f"{self.strategy.n_parties} parties, the session has {self.n_parties}"
            )
        if self.source is not None and self.source.n != self.n_parties:
            raise ValueError(
                f"the source covers {self.source.n} parties, the session has {self.n_parties}"
            )

    def dishonest_parties(self) -> tuple[int, ...]:
        d = 0 if self.strategy is None else self.strategy.dishonest_count
        return tuple(range(self.n_parties - d, self.n_parties))

    def describe(self) -> dict:
        return {
            "n_parties": self.n_parties,
            "verifier": VERIFIER,
            "protocol": self.kind.value,
            "rounds": self.rounds,
            "seed": self.seed,
            "lambda_max": self.lambda_max,
            "honest_loss": self.honest_loss,
            "source": None if self.source is None else self.source.key(),
            "strategy": None if self.strategy is None else self.strategy.key(),
            "dishonest_parties": list(self.dishonest_parties()),
        }


@dataclass(frozen=True)
class PartyAudit:
    """Result of one party's loss-pattern test."""

    party: int
    losses: int
    status: str  # "ok" | "flagged" | "insufficient-data"
    test: str | None = None
    p_value: float | None = None


def _rows(rounds: Rounds) -> Iterator[tuple[list, list, int | None]]:
    """Each round's angles, outcomes (a party's bit, or LOSS where it
    declared loss) and pass bit (None in a round with loss)."""
    columns = (rounds.angles, rounds.bits, rounds.lost, rounds.passed)
    for angles, bits, lost, passed in zip(*(c.tolist() for c in columns)):
        outcomes = [LOSS if l else b for b, l in zip(bits, lost)]
        yield angles, outcomes, None if any(lost) else passed


@dataclass(frozen=True)
class Transcript:
    """A session's config, its rounds and the prepared source state the
    rounds were sampled from (None without one).  The other attributes are
    views of these, computed on first read and kept."""

    config: SessionConfig
    records: Rounds
    state: State | None = None

    @cached_property
    def stats(self) -> PassStats:
        """The pass statistics; raises when every round had loss."""
        return PassStats.from_records(self.records)

    @cached_property
    def loss_flags(self) -> tuple[bool, ...]:
        """Per party, whether its loss rate exceeds lambda_max by more than
        three binomial standard deviations."""
        cap = self.config.lambda_max
        spread = 3.0 * float(np.sqrt(cap * (1.0 - cap) / self.config.rounds))
        return tuple(bool(rate > cap + spread) for rate in self.stats.loss_rates)

    @cached_property
    def audits(self) -> dict:
        """Each party's loss-pattern audit (``audit_records``)."""
        return audit_records(self.records, self.config.kind)

    def verdict(self, trust, assumed_loss: float = 0.0, sigma: float = 3.0) -> analytics.Verdict:
        """``analytics.verdict`` on the statistics, at the loss rate
        ``assumed_loss`` or the share of aborted rounds, whichever is larger.

        A coalition can spread its loss declarations over its members, so
        only the aborted share bounds its loss rate.  Under dishonest-allowed
        trust only, it is capped where the protocol's cheating curve ends
        (``analytics.CHEAT_CURVES``): 1/2 under xy.  ``assumed_loss`` takes
        the range of ``analytics.gme_threshold``."""
        analytics.gme_threshold(self.config.kind, trust, assumed_loss, "assumed_loss")
        lam = 1.0 - self.stats.valid / self.config.rounds
        if analytics.TrustModel(trust) is analytics.TrustModel.DISHONEST_ALLOWED:
            lam = min(lam, analytics.CHEAT_CURVES[self.config.kind][1])
        return analytics.verdict(self.stats, self.config.kind, trust, max(assumed_loss, lam), sigma)

    def messages(self) -> Iterator[dict]:
        """The message log, derived from the rounds and the seed.

        Per round: the Verifier's angle messages, then the parties' outcome
        messages, each in an order permuted by the round's network stream
        ``(seed, round, 0xA11CE)``, then an abort broadcast if any party
        declared loss.
        """
        n = self.records.angles.shape[1]
        for i, (angles, outcomes, passed) in enumerate(_rows(self.records)):
            net = np.random.default_rng((self.config.seed, i, 0xA11CE))
            for j in net.permutation(n).tolist():
                yield {"type": "angle", "round": i, "party": j,
                       "theta": angles[j], "sender": VERIFIER, "receiver": j}
            for j in net.permutation(n).tolist():
                yield {"type": "outcome", "round": i, "party": j,
                       "outcome": outcomes[j], "sender": j, "receiver": VERIFIER}
            if passed is None:
                yield {"type": "abort", "round": i, "reason": "loss-declared",
                       "sender": VERIFIER, "receiver": BROADCAST}

    def messages_jsonl(self) -> str:
        return "\n".join(
            json.dumps(m, sort_keys=True, separators=(",", ":")) for m in self.messages()
        )

    def records_jsonl(self) -> str:
        """One line per round: its index, angles, outcomes and pass bit."""
        return "\n".join(
            json.dumps({"round": i, "angles": angles, "outcomes": outcomes, "passed": passed},
                       separators=(",", ":"))
            for i, (angles, outcomes, passed) in enumerate(_rows(self.records))
        )

    def summary_dict(self, verdict=None) -> dict:
        doc = {
            "config": self.config.describe(),
            "stats": self.stats.to_json_dict(),
            "loss_cap": {
                "lambda_max": self.config.lambda_max,
                "flags": list(self.loss_flags),
                "violated": any(self.loss_flags),
            },
            # a shallow copy of the fields: dataclasses.asdict deep-copies
            # each field, about 5 us a call against 0.3
            "audits": {str(p): dict(vars(a)) for p, a in sorted(self.audits.items())},
        }
        if verdict is not None:
            doc["verdict"] = verdict.to_json_dict()
        return doc

    def summary_json(self, verdict=None) -> str:
        return json.dumps(self.summary_dict(verdict), sort_keys=True, indent=2)


def _audit_party(
    angles: np.ndarray, lost: np.ndarray, kind: ProtocolKind, party: int
) -> PartyAudit:
    losses = int(lost.sum())
    if losses < AUDIT_MIN_LOSSES:
        return PartyAudit(party, losses, "insufficient-data")
    # imported here, so that importing the package loads no scipy
    from scipy import stats as scipy_stats

    if kind is ProtocolKind.XY:
        # independence of declared loss and requested basis: rows basis 0 and
        # pi/2, columns lost and kept
        table = np.zeros((2, 2))
        np.add.at(table, ((angles > np.pi / 4).astype(int), (~lost).astype(int)), 1)
        if table.sum(axis=0).min() == 0 or table.sum(axis=1).min() == 0:
            return PartyAudit(party, losses, "ok", "chi-square", 1.0)
        result = scipy_stats.chi2_contingency(table, correction=False)
        p = float(result.pvalue)
        status = "flagged" if p < AUDIT_SIGNIFICANCE else "ok"
        return PartyAudit(party, losses, status, "chi-square", p)
    # uniformity of the angles on which loss was declared
    ks = scipy_stats.kstest(angles[lost], scipy_stats.uniform(loc=0.0, scale=np.pi).cdf)
    p = float(ks.pvalue)
    status = "flagged" if p < AUDIT_SIGNIFICANCE else "ok"
    return PartyAudit(party, losses, status, "kolmogorov-smirnov", p)


def audit_records(records: Rounds, kind: ProtocolKind) -> dict:
    """Per-party loss-pattern tests at 1% significance.

    xy sessions get a chi-square independence test of loss against requested
    basis; theta sessions get a Kolmogorov-Smirnov uniformity test of the
    loss-conditioned angles.  Parties with fewer than 100 declared losses are
    reported as insufficient data.
    """
    kind = ProtocolKind(kind)
    return {
        party: _audit_party(records.angles[:, party], records.lost[:, party], kind, party)
        for party in range(records.angles.shape[1])
    }


def run_session(config: SessionConfig) -> Transcript:
    """Prepare the source state, run the session's rounds through
    ``protocol.run_rounds`` with its seed, and return their transcript."""
    state = None if config.source is None else sources.prepare(config.source)
    rounds = run_rounds(
        state,
        config.strategy,
        config.kind,
        config.rounds,
        config.seed,
        honest_loss=config.honest_loss,
    )
    return Transcript(config, rounds, state)
