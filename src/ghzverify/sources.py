"""Resource-state preparation: ideal, noisy, biseparable and pump-calibrated
models of what the (possibly dishonest) source distributes."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from . import qstate
from .qstate import ChannelSpec, GhzDiagonal, PureState

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


def prepare(model: SourceModel) -> PureState | GhzDiagonal:
    """Build the state a source of the given model distributes: a
    ``GhzDiagonal`` record for the ideal, dephased, depolarized and
    higher-order families, and the ``PureState`` vector of the biseparable
    and rotated-Bell families, which are pure."""
    n = model.n
    if model.variant == "ideal-ghz":
        return qstate.ghz_diagonal(n)
    if model.variant == "dephased-ghz":
        spec = ChannelSpec.ghz_dephasing(model.params["p"])
        return qstate.apply_channel(qstate.ghz_diagonal(n), spec)
    if model.variant == "depolarized-ghz":
        spec = ChannelSpec.depolarizing(model.params["v"])
        return qstate.apply_channel(qstate.ghz_diagonal(n), spec)
    if model.variant in ("biseparable-ghz-plus", "rotated-bell-plus"):
        # checked here, so that the error names n rather than a factor's count
        qstate.check_qubits(n, qstate.MAX_PURE_QUBITS)
    if model.variant == "biseparable-ghz-plus":
        # the unentangled qubit goes to the last (dishonest) party
        return qstate.tensor(qstate.ghz_state(n - 1), qstate.plus_state(1))
    if model.variant == "rotated-bell-plus":
        pair = qstate.ghz_state(2, model.params["theta"])
        return qstate.tensor(pair, qstate.plus_state(n - 2))
    if model.variant == "higher-order-calibrated":
        fid = higher_order_fidelity(n, model.params["alpha"])
        # dephased surrogate matching the pump model's fidelity; the
        # verification analyses depend on the state only through GHZ overlaps
        return prepare(calibrate_to_fidelity(n, fid, "dephased"))
    raise ValueError(f"unknown source variant {model.variant!r}")


def split_key(key: str, what: str) -> tuple[str, dict[str, str]]:
    """Split a ``name:k=v,...`` key into its name and raw parameter values;
    ``what`` names the kind of key in error messages."""
    name, _, spec = key.partition(":")
    params: dict[str, str] = {}
    if spec:
        for item in spec.split(","):
            pkey, _, pval = item.partition("=")
            pkey, pval = pkey.strip(), pval.strip()
            if not pval:
                raise ValueError(f"malformed {what} parameter {item!r}")
            if pkey in params:
                raise ValueError(f"{what} parameter {pkey} given twice in {key!r}")
            params[pkey] = pval
    return name, params


def key_number(value: str, label: str, syntax: str) -> float:
    """``value`` as a finite float, or an error naming ``label`` and the key
    syntax."""
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if not math.isfinite(number):
        message = f"{label} must be a finite number, got {value!r}; key syntax: {syntax}"
        raise ValueError(message)
    return number


def key_params(syntax: str) -> list[str]:
    """The parameter names a key syntax such as ``{}:p=<0..1>`` lists."""
    return re.findall(r"([\w-]+)=", syntax)


def reject_unaccepted(what: str, name: str, params, syntax: str) -> None:
    """Raise on the first parameter name that ``syntax`` does not list."""
    accepted = key_params(syntax)
    for pname in params:
        if pname not in accepted:
            message = f"{what} {name!r} takes no parameter {pname}; key syntax: {syntax}"
            raise ValueError(message)


# key name: key syntax, with {} for the name; it lists the accepted parameters
SOURCE_KEYS = {
    "ideal-ghz": "{}",
    "dephased-ghz": "{}:p=<0..1>",
    "depolarized-ghz": "{}:v=<0..1>",
    "biseparable-ghz-plus": "{}",
    "rotated-bell-plus": "{}:theta=<radians>",
    "higher-order": "{0}:alpha=<0..1> or {0}:mean-pairs=<mean pair number>",
    "higher-order-calibrated": "{0}:alpha=<0..1> or {0}:mean-pairs=<mean pair number>",
    "calibrated": "{}:fidelity=<0..1>,family=dephased|depolarized",
}


def from_key(key: str, n: int) -> SourceModel:
    """Parse a CLI source key like ``dephased-ghz:p=0.2`` for n parties.

    ``SOURCE_KEYS`` lists the keys and their syntax.  A missing, non-numeric
    or unlisted parameter is an error naming the key syntax.
    """
    name, params = split_key(key, "source")
    if name not in SOURCE_KEYS:
        raise ValueError(f"unknown source key {name!r}")
    syntax = SOURCE_KEYS[name].format(name)

    def param(pname: str) -> str:
        if pname not in params:
            raise ValueError(f"source {name!r} needs parameter {pname}; key syntax: {syntax}")
        return params[pname]

    def number(pname: str) -> float:
        return key_number(param(pname), f"source {name!r} parameter {pname}", syntax)

    if name == "ideal-ghz":
        model = SourceModel.ideal(n)
    elif name == "dephased-ghz":
        model = SourceModel.dephased(n, number("p"))
    elif name == "depolarized-ghz":
        model = SourceModel.depolarized(n, number("v"))
    elif name == "biseparable-ghz-plus":
        model = SourceModel.biseparable_plus(n)
    elif name == "rotated-bell-plus":
        model = SourceModel.rotated_bell_plus(number("theta"), n)
    elif name == "calibrated":
        model = calibrate_to_fidelity(n, number("fidelity"), param("family"))
    else:  # higher-order, higher-order-calibrated
        if "alpha" in params and "mean-pairs" in params:
            raise ValueError(
                f"source {name!r} takes alpha or mean-pairs, not both; key syntax: {syntax}"
            )
        if "alpha" in params:
            alpha = number("alpha")
        else:
            alpha = alpha_from_mean_pairs(number("mean-pairs"))
        model = SourceModel.higher_order(n, alpha)
    reject_unaccepted("source", name, params, syntax)
    return model
