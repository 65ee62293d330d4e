"""Bounds, thresholds and verdicts: turning pass statistics into fidelity
bounds and genuine-multipartite-entanglement decisions."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .adversary import theta_cheat_pass_curve, xy_cheat_pass_curve
from .protocol import PassStats, ProtocolKind

# an all-honest pass probability above 3/4 certifies GHZ fidelity above 1/2
HONEST_GME_THRESHOLD = 0.75

# per protocol: the best pass probability a non-GME coalition reaches at loss
# rate lam (Pappa et al.), and the loss rate where that curve ends
CHEAT_CURVES = {ProtocolKind.THETA: (theta_cheat_pass_curve, 1.0),
                ProtocolKind.XY: (xy_cheat_pass_curve, 0.5)}


class TrustModel(str, Enum):
    ALL_HONEST = "all-honest"
    DISHONEST_ALLOWED = "dishonest-allowed"


@dataclass(frozen=True)
class Verdict:
    """Outcome of comparing a pass estimate against a GME threshold."""

    decision: str  # "GME-VERIFIED" | "INCONCLUSIVE"
    margin: float  # (estimate - threshold) / stderr
    threshold: float
    trust: TrustModel
    lam: float
    sigma: float
    estimate: float
    stderr: float

    def to_json_dict(self) -> dict:
        return {
            "decision": self.decision,
            # non-finite margins (zero stderr) serialize as null
            "margin": self.margin if math.isfinite(self.margin) else None,
            "threshold": self.threshold,
            "trust": self.trust.value,
            "lambda": self.lam,
            "sigma": self.sigma,
            "estimate": self.estimate,
            "stderr": self.stderr,
        }


def honest_fidelity_bound(pass_probability: float) -> float:
    """Lower bound on GHZ fidelity when every party is honest: 2P - 1."""
    if not 0.0 <= pass_probability <= 1.0:
        raise ValueError("pass probability must lie in [0, 1]")
    return 2.0 * pass_probability - 1.0


def dishonest_fidelity_bound(pass_probability: float) -> float:
    """Lower bound on the coalition-optimized GHZ fidelity: 4P - 3."""
    if not 0.0 <= pass_probability <= 1.0:
        raise ValueError("pass probability must lie in [0, 1]")
    return 4.0 * pass_probability - 3.0


def gme_threshold(
    kind: ProtocolKind, trust: TrustModel, lam: float = 0.0, name: str = "loss rate"
) -> float:
    """Pass probability a non-GME state can reach at the given loss rate.

    All-honest trust: 3/4 for either protocol (loss-independent, since honest
    loss is outcome-independent).  Dishonest-allowed trust: the protocol's
    optimal cheating curve (``CHEAT_CURVES``), which rejects a loss rate
    outside its range as ``name``.
    """
    kind = ProtocolKind(kind)
    trust = TrustModel(trust)
    if trust is TrustModel.ALL_HONEST:
        if not 0.0 <= lam < 1.0:
            raise ValueError(f"{name} must lie in [0, 1), got {lam}")
        return HONEST_GME_THRESHOLD
    return CHEAT_CURVES[kind][0](lam, name)


def check_sigma(sigma: float, name: str = "sigma") -> None:
    """Reject a negative or non-finite sigma, calling it ``name``."""
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ValueError(f"{name} must be a non-negative finite number, got {sigma}")


def verdict(
    stats: PassStats,
    kind: ProtocolKind,
    trust: TrustModel,
    lam: float = 0.0,
    sigma: float = 3.0,
) -> Verdict:
    """GME-VERIFIED iff the estimate clears the threshold by sigma stderrs.

    ``lam`` is taken as given; a session's verdict takes it from
    ``simnet.Transcript.verdict``, which bounds it below by the share of
    aborted rounds."""
    if stats.valid < 1:
        raise ValueError("verdict needs at least one valid round")
    check_sigma(sigma)
    threshold = gme_threshold(kind, trust, lam)
    gap = stats.estimate - threshold
    if stats.stderr > 0.0:
        margin = gap / stats.stderr
    else:
        margin = math.inf if gap > 0 else (0.0 if gap == 0 else -math.inf)
    verified = stats.estimate > threshold + sigma * stats.stderr
    return Verdict(
        decision="GME-VERIFIED" if verified else "INCONCLUSIVE",
        margin=margin,
        threshold=threshold,
        trust=TrustModel(trust),
        lam=lam,
        sigma=sigma,
        estimate=stats.estimate,
        stderr=stats.stderr,
    )


def max_tolerable_loss(
    pass_probability: float, kind: ProtocolKind, trust: TrustModel
) -> float:
    """Largest loss rate at which the observed pass probability still clears
    the GME threshold (``gme_threshold``).

    Under dishonest-allowed trust the threshold is the protocol's cheating
    curve, and the loss rate is found by bisection on that (nondecreasing)
    curve to within 1e-9.  Under all-honest trust the threshold does not
    rise with loss.  Raises when the observation is not a probability or
    is already below the zero-loss threshold.
    """
    kind = ProtocolKind(kind)
    trust = TrustModel(trust)
    if not 0.0 <= pass_probability <= 1.0:
        raise ValueError("pass probability must lie in [0, 1]")
    floor = gme_threshold(kind, trust, 0.0)
    if pass_probability < floor:
        raise ValueError(
            f"pass probability {pass_probability} is below the zero-loss threshold {floor}"
        )
    curve, end = CHEAT_CURVES[kind]
    hi = min(end, 1.0 - 1e-9)  # theta's curve is open at 1
    if trust is TrustModel.ALL_HONEST:
        # the honest threshold does not rise with loss; any loss is tolerable
        return 0.0 if pass_probability == floor else hi
    if pass_probability >= curve(hi):
        return hi
    lo = 0.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if curve(mid) <= pass_probability:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
