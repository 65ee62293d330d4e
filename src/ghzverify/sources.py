"""Resource-state preparation: ideal, noisy, biseparable and pump-calibrated
models of what the (possibly dishonest) source distributes."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import qstate
from .qstate import ChannelSpec, DensityMatrix

VARIANTS = (
    "ideal-ghz",
    "dephased-ghz",
    "depolarized-ghz",
    "biseparable-ghz-plus",
    "rotated-bell-plus",
    "higher-order-calibrated",
)


@dataclass(frozen=True)
class SourceModel:
    """A named resource-state family with its parameters."""

    variant: str
    n: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown source variant {self.variant!r}")
        if self.n < 1:
            raise ValueError("party count must be positive")

    @classmethod
    def ideal(cls, n: int) -> "SourceModel":
        return cls("ideal-ghz", n)

    @classmethod
    def dephased(cls, n: int, p: float) -> "SourceModel":
        if not 0.0 <= p <= 1.0:
            raise ValueError("dephasing probability must lie in [0, 1]")
        return cls("dephased-ghz", n, {"p": float(p)})

    @classmethod
    def depolarized(cls, n: int, v: float) -> "SourceModel":
        if not 0.0 <= v <= 1.0:
            raise ValueError("visibility must lie in [0, 1]")
        return cls("depolarized-ghz", n, {"v": float(v)})

    @classmethod
    def biseparable_plus(cls, n: int) -> "SourceModel":
        if n < 3:
            raise ValueError("the biseparable model needs at least 3 parties")
        return cls("biseparable-ghz-plus", n)

    @classmethod
    def rotated_bell_plus(cls, theta: float, n: int) -> "SourceModel":
        if n < 3:
            raise ValueError("the rotated-Bell model needs at least 3 parties")
        return cls("rotated-bell-plus", n, {"theta": float(theta)})

    @classmethod
    def higher_order(cls, n: int, alpha: float) -> "SourceModel":
        if n not in (3, 4):
            raise ValueError("the pump model covers 3 or 4 parties only")
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        return cls("higher-order-calibrated", n, {"alpha": float(alpha)})

    def key(self) -> str:
        """The CLI string key reproducing this model."""
        if not self.params:
            return self.variant
        inner = ",".join(f"{k}={v!r}" for k, v in sorted(self.params.items()))
        return f"{self.variant}:{inner}"


@dataclass(frozen=True)
class PumpParams:
    """Pair-source pumping strength: mean pair number and derived amplitude."""

    mean_pairs: float
    alpha: float

    @classmethod
    def from_mean_pairs(cls, mean_pairs: float) -> "PumpParams":
        return cls(float(mean_pairs), alpha_from_mean_pairs(mean_pairs))


def alpha_from_mean_pairs(mean_pairs: float) -> float:
    """Emission amplitude from the mean pair number: sqrt(nbar/(nbar+1))."""
    if mean_pairs < 0.0:
        raise ValueError("mean pair number must be nonnegative")
    return math.sqrt(mean_pairs / (mean_pairs + 1.0))


def higher_order_fidelity(n: int, alpha: float) -> float:
    """GHZ fidelity after double-pair emission up to third order in alpha.

    Four parties: 2*a^4 / (2*a^4 + 5*a^6), which simplifies to 2/(2 + 5*a^2).
    Three parties: a^4 / (a^4 + (11/4)*a^6) = 1/(1 + 11*a^2/4).
    """
    if n not in (3, 4):
        raise ValueError("fidelity model covers 3 or 4 parties only")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if n == 4:
        return 2.0 / (2.0 + 5.0 * alpha**2)
    return 1.0 / (1.0 + 11.0 * alpha**2 / 4.0)


def calibrate_to_fidelity(n: int, target: float, family: str) -> SourceModel:
    """A noisy-GHZ model whose prepared state has the requested GHZ fidelity.

    Dephased family: fidelity 1 - p/2, so p = 2(1-F) for F in [1/2, 1].
    Depolarized family: fidelity v + (1-v)/2^n, so v = (F - 2^-n)/(1 - 2^-n).
    """
    if family == "dephased":
        if not 0.5 <= target <= 1.0:
            raise ValueError("dephased family reaches fidelities in [1/2, 1] only")
        return SourceModel.dephased(n, 2.0 * (1.0 - target))
    if family == "depolarized":
        floor = 2.0**-n
        if not floor <= target <= 1.0:
            raise ValueError(f"depolarized family reaches fidelities in [{floor}, 1] only")
        return SourceModel.depolarized(n, (target - floor) / (1.0 - floor))
    raise ValueError(f"unknown calibration family {family!r}")


def prepare(model: SourceModel) -> DensityMatrix:
    """Build the density matrix a source of the given model distributes."""
    n = model.n
    if model.variant == "ideal-ghz":
        return qstate.ghz_state(n).to_density()
    if model.variant == "dephased-ghz":
        base = qstate.ghz_state(n).to_density()
        return qstate.apply_channel(base, ChannelSpec.ghz_dephasing(model.params["p"]))
    if model.variant == "depolarized-ghz":
        base = qstate.ghz_state(n).to_density()
        return qstate.apply_channel(base, ChannelSpec.depolarizing(model.params["v"]))
    if model.variant == "biseparable-ghz-plus":
        # the unentangled qubit goes to the last (dishonest) party
        return qstate.tensor(qstate.ghz_state(n - 1), qstate.plus_state(1)).to_density()
    if model.variant == "rotated-bell-plus":
        pair = qstate.ghz_state(2, model.params["theta"])
        return qstate.tensor(pair, qstate.plus_state(n - 2)).to_density()
    if model.variant == "higher-order-calibrated":
        fid = higher_order_fidelity(n, model.params["alpha"])
        # dephased surrogate matching the pump model's fidelity; the
        # verification analyses depend on the state only through GHZ overlaps
        return prepare(calibrate_to_fidelity(n, fid, "dephased"))
    raise ValueError(f"unknown source variant {model.variant!r}")


def from_key(key: str, n: int) -> SourceModel:
    """Parse a CLI source key like ``dephased-ghz:p=0.2`` for n parties.

    Accepted keys: ``ideal-ghz``, ``dephased-ghz:p=..``, ``depolarized-ghz:v=..``,
    ``biseparable-ghz-plus``, ``rotated-bell-plus:theta=..``,
    ``higher-order:alpha=..`` or ``higher-order:mean-pairs=..``, and
    ``calibrated:fidelity=..,family=dephased|depolarized``.
    """
    name, _, spec = key.partition(":")
    params: dict[str, str] = {}
    if spec:
        for item in spec.split(","):
            pkey, _, pval = item.partition("=")
            if not pval:
                raise ValueError(f"malformed source parameter {item!r}")
            params[pkey.strip()] = pval.strip()

    def param(pname: str, syntax: str) -> str:
        if pname not in params:
            raise ValueError(f"source {name!r} needs parameter {pname}; key syntax: {syntax}")
        return params[pname]

    if name == "ideal-ghz":
        return SourceModel.ideal(n)
    if name == "dephased-ghz":
        return SourceModel.dephased(n, float(param("p", "dephased-ghz:p=<0..1>")))
    if name == "depolarized-ghz":
        return SourceModel.depolarized(n, float(param("v", "depolarized-ghz:v=<0..1>")))
    if name == "biseparable-ghz-plus":
        return SourceModel.biseparable_plus(n)
    if name == "rotated-bell-plus":
        theta = param("theta", "rotated-bell-plus:theta=<radians>")
        return SourceModel.rotated_bell_plus(float(theta), n)
    if name in ("higher-order", "higher-order-calibrated"):
        if "alpha" in params:
            alpha = float(params["alpha"])
        else:
            syntax = f"{name}:alpha=<0..1> or {name}:mean-pairs=<mean pair number>"
            alpha = alpha_from_mean_pairs(float(param("mean-pairs", syntax)))
        return SourceModel.higher_order(n, alpha)
    if name == "calibrated":
        syntax = "calibrated:fidelity=<0..1>,family=dephased|depolarized"
        return calibrate_to_fidelity(
            n, float(param("fidelity", syntax)), param("family", syntax)
        )
    raise ValueError(f"unknown source key {name!r}")
